"""Segmented sieves for the Moebius, Liouville, and von Mangoldt functions.

Tables cover [0, 2^lam) with index 0 pinned to 0 so downstream transforms see
a full power-of-two buffer.  Sieving streams fixed-size segments, so memory
is bounded by the output table plus one segment regardless of lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .limits import require_table_bytes

KINDS = ("moebius", "liouville", "von_mangoldt", "custom")
KIND_CODES = {"moebius": 0, "liouville": 1, "von_mangoldt": 2, "custom": 3}
_CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

DEFAULT_SEGMENT = 1 << 20

_MAGIC = b"AWS1"


@dataclass(frozen=True)
class ArithmeticSequence:
    """A value table of an arithmetic function on [0, 2^lam).

    values[n] holds f(n); index 0 holds 0 by convention.  Moebius and
    Liouville tables are int8 in {-1, 0, 1}; von Mangoldt is float64 in
    natural-log units.
    """

    lam: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if len(self.values) != 1 << self.lam:
            raise ValueError(
                f"table length {len(self.values)} does not match 2^{self.lam}"
            )


def _primes_upto(n: int) -> np.ndarray:
    """Primes <= n by a plain boolean sieve (n is only ever ~2^(lam/2))."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _first_multiple(lo: int, step: int) -> int:
    return ((lo + step - 1) // step) * step


def sieve_moebius(
    lam: int,
    segment: int = DEFAULT_SEGMENT,
    max_mem_gib: float | None = None,
) -> ArithmeticSequence:
    """Moebius table on [0, 2^lam).

    Per segment: flip sign once per prime divisor p <= sqrt(max), divide a
    working remainder by each such p once, and zero multiples of p^2.  A
    remainder > 1 afterwards is a single prime factor above sqrt(max) and
    contributes one more sign flip.
    """
    require_table_bytes(lam, 8, max_mem_gib, what="moebius table")
    n = 1 << lam
    primes = _primes_upto(math.isqrt(n - 1))
    out = np.zeros(n, dtype=np.int8)
    for lo in range(0, n, segment):
        hi = min(lo + segment, n)
        sign = np.ones(hi - lo, dtype=np.int8)
        sqfree = np.ones(hi - lo, dtype=bool)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in primes:
            p = int(p)
            start = _first_multiple(max(lo, p), p)
            if start < hi:
                sl = slice(start - lo, hi - lo, p)
                sign[sl] = -sign[sl]
                rem[sl] //= p
            p2 = p * p
            start2 = _first_multiple(max(lo, p2), p2)
            if start2 < hi:
                sqfree[start2 - lo : hi - lo : p2] = False
        big = rem > 1
        sign[big] = -sign[big]
        np.copyto(out[lo:hi], np.where(sqfree, sign, 0).astype(np.int8))
    out[0] = 0
    if n > 1:
        out[1] = 1
    return ArithmeticSequence(lam, "moebius", out)


def sieve_liouville(
    lam: int,
    segment: int = DEFAULT_SEGMENT,
    max_mem_gib: float | None = None,
) -> ArithmeticSequence:
    """Liouville table: (-1)^Omega(n) with multiplicity.

    One sign flip per prime-power level p^j dividing n counts the exponent of
    p; dividing the remainder by p at each level strips the full p-part, so a
    remainder > 1 is again a single large prime.
    """
    require_table_bytes(lam, 8, max_mem_gib, what="liouville table")
    n = 1 << lam
    primes = _primes_upto(math.isqrt(n - 1))
    out = np.zeros(n, dtype=np.int8)
    for lo in range(0, n, segment):
        hi = min(lo + segment, n)
        sign = np.ones(hi - lo, dtype=np.int8)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in primes:
            p = int(p)
            pk = p
            while pk < hi:
                start = _first_multiple(max(lo, pk), pk)
                if start < hi:
                    sl = slice(start - lo, hi - lo, pk)
                    sign[sl] = -sign[sl]
                    rem[sl] //= p
                if pk > (hi - 1) // p:
                    break
                pk *= p
        big = rem > 1
        sign[big] = -sign[big]
        np.copyto(out[lo:hi], sign)
    out[0] = 0
    if n > 1:
        out[1] = 1
    return ArithmeticSequence(lam, "liouville", out)


def sieve_von_mangoldt(
    lam: int,
    segment: int = DEFAULT_SEGMENT,
    max_mem_gib: float | None = None,
) -> ArithmeticSequence:
    """Von Mangoldt table: log p at prime powers p^k, 0 elsewhere.

    Small-prime powers are stamped directly; primes above sqrt(max) are the
    segment entries no small prime marks composite.
    """
    require_table_bytes(lam, 8, max_mem_gib, what="von mangoldt table")
    n = 1 << lam
    primes = _primes_upto(math.isqrt(n - 1))
    out = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, segment):
        hi = min(lo + segment, n)
        composite = np.zeros(hi - lo, dtype=bool)
        for p in primes:
            p = int(p)
            start = _first_multiple(max(lo, p * p), p)
            if start < hi:
                composite[start - lo : hi - lo : p] = True
        seg = np.arange(lo, hi, dtype=np.int64)
        prime_mask = ~composite & (seg >= 2)
        # entries below sqrt(max) escape the composite marking only if prime
        vals = np.zeros(hi - lo, dtype=np.float64)
        vals[prime_mask] = np.log(seg[prime_mask].astype(np.float64))
        np.copyto(out[lo:hi], vals)
    # prime powers p^k, k >= 2, overwrite whatever the prime pass left
    for p in primes:
        p = int(p)
        logp = math.log(p)
        out[p] = logp
        pk = p * p
        while pk < n:
            out[pk] = logp
            if pk > (n - 1) // p:
                break
            pk *= p
    out[0] = 0.0
    return ArithmeticSequence(lam, "von_mangoldt", out)


_SIEVES = {
    "moebius": sieve_moebius,
    "liouville": sieve_liouville,
    "von_mangoldt": sieve_von_mangoldt,
}


def sequence(
    kind: str,
    lam: int,
    segment: int = DEFAULT_SEGMENT,
    max_mem_gib: float | None = None,
) -> ArithmeticSequence:
    """Dispatch to the named sieve."""
    if kind not in _SIEVES:
        raise ValueError(f"no sieve for kind {kind!r}")
    return _SIEVES[kind](lam, segment=segment, max_mem_gib=max_mem_gib)


def custom_sequence(lam: int, values) -> ArithmeticSequence:
    """Wrap a user-supplied table (float64) as a custom sequence."""
    arr = np.asarray(values, dtype=np.float64)
    return ArithmeticSequence(lam, "custom", arr)


def dump_sequence(seq: ArithmeticSequence, path) -> None:
    """Binary dump: magic 'AWS1', lam (uint8), kind code (uint8), then raw
    little-endian entries (int8 for the sign tables, float64 otherwise)."""
    path = Path(path)
    header = _MAGIC + bytes([seq.lam, KIND_CODES[seq.kind]])
    arr = seq.values
    if arr.dtype != np.int8:
        arr = np.ascontiguousarray(arr, dtype="<f8")
    path.write_bytes(header + arr.tobytes())


def load_sequence(path) -> ArithmeticSequence:
    """Inverse of dump_sequence, validating header, length and sign entries."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC or len(raw) < 6:
        raise ValueError(f"{path}: bad header {raw[:6]!r}, want magic {_MAGIC!r} + 2 bytes")
    lam = raw[4]
    if lam == 0:
        raise ValueError(f"{path}: header lambda is 0, tables need lambda >= 1")
    code = raw[5]
    if code not in _CODE_KINDS:
        raise ValueError(f"{path}: unknown kind code {code}")
    kind = _CODE_KINDS[code]
    dtype = np.dtype(np.int8) if kind in ("moebius", "liouville") else np.dtype("<f8")
    body = raw[6:]
    expect = (1 << lam) * dtype.itemsize
    if len(body) != expect:
        raise ValueError(f"{path}: body holds {len(body)} bytes, expected {expect}")
    values = np.frombuffer(body, dtype=dtype)
    if dtype != np.int8:
        values = values.astype(np.float64)
    elif values.min() < -1 or values.max() > 1:
        raise ValueError(f"{path}: {kind} sign table holds a byte outside {{-1, 0, 1}}")
    else:
        values = values.copy()
    return ArithmeticSequence(int(lam), kind, values)
