"""Segmented sieves for the Moebius, Liouville, and von Mangoldt functions.

Tables cover [0, 2^lam) with index 0 pinned to 0 so downstream transforms see
a full power-of-two buffer.  Sieving streams fixed-size segments, so memory
is bounded by the output table plus one segment regardless of lam.  Moebius
and Liouville share one factor pass that tracks the product of each entry's
small prime factors instead of dividing them out, one segment per task of
limits._two_way (two processes share the segments of a large table); von
Mangoldt reuses one segment buffer and writes log p straight into the table.
A table on [0, 2^lam) holds every smaller table as its prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .limits import _shared_empty, _two_way, require_table_bytes

SIGN_KINDS = ("moebius", "liouville")
# a kind's AWS1 code is its index here
KINDS = SIGN_KINDS + ("von_mangoldt",)

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


def _factor_pass(lam: int, squarefree: bool) -> np.ndarray:
    """Liouville signs on [0, 2^lam), or Moebius signs when squarefree.

    Each segment keeps a signed product of its entries' small prime factors:
    every prime-power level p^j dividing n multiplies it by -p, so its sign
    is (-1)^Omega over the primes p <= sqrt(max) and its magnitude is the
    part of n made of those primes.  A magnitude below n leaves one prime
    factor above sqrt(max), which flips the sign once more.  For Moebius the p^2 level
    multiplies by 0 instead, so non-squarefree n end at 0 and higher levels
    are skipped; on squarefree n Moebius and Liouville agree.
    """
    n = 1 << lam
    # products never exceed n, so int32 holds them up to lam = 31
    dtype = np.int32 if n <= 1 << 31 else np.int64
    primes = [int(p) for p in _primes_upto(math.isqrt(n - 1))]
    out = _shared_empty(n, np.int8)
    segments = range(0, n, DEFAULT_SEGMENT)

    def sieve_segment(i: int) -> None:
        lo = segments[i]
        hi = min(lo + DEFAULT_SEGMENT, n)
        prod = np.ones(hi - lo, dtype=dtype)
        for p in primes:
            pk, factor = p, -p
            while pk < hi:
                start = _first_multiple(max(lo, pk), pk)
                if start < hi:
                    hits = prod[start - lo :: pk]
                    np.multiply(hits, factor, out=hits)
                if factor == 0:
                    break
                pk *= p
                if squarefree:
                    factor = 0
        seg = out[lo:hi]
        np.sign(prod, out=seg, casting="unsafe")
        big = np.abs(prod) < np.arange(lo, hi, dtype=dtype)
        # a masked ufunc would walk the runs of this near-random mask
        np.multiply(seg, 1 - 2 * big.view(np.int8), out=seg)

    _two_way(sieve_segment, len(segments), n)
    out[0] = 0
    if n > 1:
        out[1] = 1
    return out


def sieve_moebius(lam: int, max_mem_gib: float | None = None) -> ArithmeticSequence:
    """Moebius table on [0, 2^lam): the shared factor pass with the p^2
    level zeroing every non-squarefree entry."""
    require_table_bytes(lam, 8, max_mem_gib, what="moebius table")
    return ArithmeticSequence(lam, "moebius", _factor_pass(lam, True))


def sieve_liouville(lam: int, max_mem_gib: float | None = None) -> ArithmeticSequence:
    """Liouville table: (-1)^Omega(n) with multiplicity, from the shared
    factor pass with every prime-power level counted."""
    require_table_bytes(lam, 8, max_mem_gib, what="liouville table")
    return ArithmeticSequence(lam, "liouville", _factor_pass(lam, False))


def sieve_von_mangoldt(lam: int, max_mem_gib: float | None = None) -> ArithmeticSequence:
    """Von Mangoldt table: log p at prime powers p^k, 0 elsewhere.

    Small-prime powers are stamped directly; primes above sqrt(max) are the
    segment entries no small prime marks composite.  It stays in one
    process: faulting in a shared float64 table costs about what a second
    core would save.
    """
    require_table_bytes(lam, 8, max_mem_gib, what="von mangoldt table")
    n = 1 << lam
    primes = _primes_upto(math.isqrt(n - 1)).tolist()
    out = np.zeros(n, dtype=np.float64)
    # n and the segment are powers of two, so every segment fills the buffer
    composite = np.empty(min(DEFAULT_SEGMENT, n), dtype=bool)
    for lo in range(0, n, len(composite)):
        hi = lo + len(composite)
        composite.fill(False)
        if lo == 0:
            composite[:2] = True
        for p in primes:
            start = _first_multiple(max(lo, p * p), p)
            if start < hi:
                composite[start - lo :: p] = True
        # entries below sqrt(max) escape the composite marking only if prime
        idx = np.flatnonzero(~composite) + lo
        out[idx] = np.log(idx.astype(np.float64))
    # prime powers p^k, k >= 2, overwrite whatever the prime pass left
    for p in primes:
        logp = math.log(p)
        pk = p * p
        while pk < n:
            out[pk] = logp
            if pk > (n - 1) // p:
                break
            pk *= p
    return ArithmeticSequence(lam, "von_mangoldt", out)


_SIEVES = {
    "moebius": sieve_moebius,
    "liouville": sieve_liouville,
    "von_mangoldt": sieve_von_mangoldt,
}


def sequence(kind: str, lam: int, max_mem_gib: float | None = None) -> ArithmeticSequence:
    """Dispatch to the named sieve."""
    if kind not in _SIEVES:
        raise ValueError(f"no sieve for kind {kind!r}")
    return _SIEVES[kind](lam, max_mem_gib=max_mem_gib)


def dump_sequence(seq: ArithmeticSequence, path) -> None:
    """Binary dump: magic 'AWS1', lam (uint8), kind code (uint8), then raw
    little-endian entries (int8 for the sign tables, float64 otherwise)."""
    dtype = np.int8 if seq.values.dtype == np.int8 else "<f8"
    arr = np.ascontiguousarray(seq.values, dtype=dtype)
    # header, then the table's own memory: no joined copy of the body
    with open(path, "wb") as fh:
        fh.write(_MAGIC + bytes([seq.lam, KINDS.index(seq.kind)]))
        fh.write(memoryview(arr))


def load_sequence(path) -> ArithmeticSequence:
    """Inverse of dump_sequence, validating header, length and sign entries."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC or len(raw) < 6:
        raise ValueError(f"{path}: bad header {raw[:6]!r}, want magic {_MAGIC!r} + 2 bytes")
    lam = raw[4]
    if lam == 0:
        raise ValueError(f"{path}: header lambda is 0, tables need lambda >= 1")
    code = raw[5]
    if code >= len(KINDS):
        raise ValueError(f"{path}: unknown kind code {code}")
    kind = KINDS[code]
    dtype = np.dtype(np.int8) if kind in SIGN_KINDS else np.dtype("<f8")
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
