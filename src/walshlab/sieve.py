"""Segmented sieves for the Moebius, Liouville, and von Mangoldt functions.

Tables cover [0, 2^lam) with index 0 pinned to 0 so downstream transforms see
a full power-of-two buffer.  _kernel maps each kind to one kernel,
fill(view, lo, work), which writes entries lo..lo+len(view)-1 at any offset
and in any order, keeping its per-segment state in work's bytes.  Moebius
and Liouville share a sign kernel that tracks the product of each entry's
small prime factors, seeded from one precomputed period of the p and p^2
levels of 2, 3, 5 and 7; von Mangoldt's marks composites and stamps prime
powers from one sorted list.  One factor pass builds every table, a segment
per task of limits._two_way (two processes share a large table's segments);
stream_sequence fills one reused von Mangoldt segment at a time; and
fwht.sign_max_correlations sieves into transform buffer parts.  Each caller
charges the output, its workspaces and the kernel's scratch before it makes
the kernel.  A table on [0, 2^lam) holds every smaller table as its prefix.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .limits import _shared_empty, _splits, _two_way, require_bytes, require_table_bytes
from .report import KINDS, SIGN_KINDS

DEFAULT_SEGMENT = 1 << 20

# a von Mangoldt segment holds float64 values, its composite flags (1 B per
# entry, the kernel's workspace) and the indices and logs of its primes
# (tracemalloc: 10.9-11.3 MiB per 2^20-entry stream segment at lam 20-30,
# 13.3 B per entry at lam 12), plus the sieving primes up to sqrt(2^lam) as
# flags, arrays, a list and the sorted prime-power stamps (13.9 B per
# integer to 2^20 at lam 40, 12.5 to 2^22 at lam 44; the prime density
# falls as lam grows)
STREAM_BYTES = 16
PRIME_BYTES = 24

_MAGIC = b"AWS1"


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
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


def _sign_products(lam: int) -> np.dtype:
    """_sign_kernel's product dtype: products never exceed 2^lam."""
    return np.dtype(np.int32 if lam <= 31 else np.int64)


# the p and p^2 levels of the wheel primes repeat with period (2*3*5*7)^2;
# the sign and large-prime tail runs SIGN_CHUNK entries at a time
_WHEEL = (2, 3, 5, 7)
_PERIOD = math.prod(_WHEEL) ** 2
SIGN_CHUNK = 1 << 15


def _sign_scratch(lam: int) -> int:
    """Bytes a process running _sign_kernel(lam) holds besides its view and
    workspace: the sieving primes, the wheel period, the tail's ramp, three
    int8 rows and numpy's cast buffer (8192 products) per chunk
    (tracemalloc, int8 table at lam 18-21: 99.4-99.7% of this plus one
    segment's products)."""
    size = _sign_products(lam).itemsize
    return (PRIME_BYTES << (lam + 1) // 2) + size * _PERIOD + (size + 4) * SIGN_CHUNK


def _sign_kernel(lam: int, squarefree: bool):
    """_kernel's fill: Liouville signs into an integer view, or Moebius
    signs when squarefree.  The products live in work's bytes, which may be
    view's own memory (as wide as view or wider).

    Each segment keeps a signed product of its entries' small prime factors:
    every prime-power level p^j dividing n multiplies it by -p, so its sign
    is (-1)^Omega over the primes p <= sqrt(max) and its magnitude is the
    part of n made of those primes.  The p and p^2 levels of 2, 3, 5 and 7
    are copied from one precomputed period; the other levels are sieved.  A
    magnitude below n leaves one prime factor above sqrt(max) (or above 7,
    where the wheel reaches past sqrt(max)), which flips the sign once
    more.  For Moebius the p^2 level multiplies by 0 instead, so
    non-squarefree n end at 0 and higher levels are skipped; on squarefree
    n Moebius and Liouville agree.  The signs of a chunk are written after
    its products are read, and a sign is never wider than its product, so
    they never overwrite a product still to be read.
    """
    n = 1 << lam
    dtype = _sign_products(lam)
    wheel = np.ones(_PERIOD, dtype=dtype)
    for p in _WHEEL:
        wheel[::p] *= -p
        wheel[:: p * p] *= 0 if squarefree else -p
    primes = _primes_upto(math.isqrt(n - 1)).tolist()
    ramp = np.arange(SIGN_CHUNK, dtype=dtype)

    def fill(view: np.ndarray, lo: int, work: np.ndarray) -> int:
        m = len(view)
        hi = lo + m
        prod = work.view(dtype)[:m]
        at, r = 0, lo % _PERIOD
        while at < m:
            take = min(_PERIOD - r, m - at)
            prod[at : at + take] = wheel[r : r + take]
            at, r = at + take, 0
        for p in primes:
            j = 1 if p > _WHEEL[-1] else 3  # the wheel holds its primes' first two levels
            pk = p**j
            while pk < hi and not (squarefree and j > 2):
                start = _first_multiple(max(lo, pk), pk)
                if start < hi:
                    hits = prod[start - lo :: pk]
                    np.multiply(hits, 0 if squarefree and j == 2 else -p, out=hits)
                pk, j = pk * p, j + 1
        scratch = np.empty((3, min(m, SIGN_CHUNK)), dtype=np.int8)
        for a in range(0, m, SIGN_CHUNK):
            part = prod[a : a + SIGN_CHUNK]
            sign, big, flip = scratch[:, : len(part)]
            np.sign(part, out=sign, casting="unsafe")
            # |product| < n, as |product| - (lo + a) < the ramp
            np.abs(part, out=part)
            np.subtract(part, lo + a, out=part)
            np.less(part, ramp[: len(part)], out=big.view(bool))
            # a masked ufunc would walk the runs of this near-random mask
            np.multiply(big, -2, out=flip)
            np.add(flip, 1, out=flip)
            np.multiply(sign, flip, out=view[a : a + len(part)], casting="unsafe")
        if lo == 0:
            view[0] = 0  # the wheel marks 0 and the sieve does not; index 1 holds 1
        return int(np.count_nonzero(view))

    return fill


def _von_mangoldt_kernel(lam: int):
    """_kernel's fill: log p at the prime powers p^k, 0 elsewhere, into a
    float64 view.  The composite flags live in work's bytes, which may be
    view's own memory: they are read before view is written.  Primes above
    sqrt(max) are the entries no small prime marks composite; the powers
    p^k, k >= 2, of the small primes are stamped from one sorted list."""
    n = 1 << lam
    primes = _primes_upto(math.isqrt(n - 1)).tolist()
    stamps = []
    for p in primes:
        pk = p * p
        while pk < n:
            stamps.append((pk, math.log(p)))
            pk *= p
    stamps.sort()
    powers = np.array([pk for pk, _ in stamps], dtype=np.int64)
    logs = np.array([logp for _, logp in stamps], dtype=np.float64)

    def fill(view: np.ndarray, lo: int, work: np.ndarray) -> int:
        hi = lo + len(view)
        composite = work.view(bool)[: len(view)]
        composite.fill(False)
        composite[: max(2 - lo, 0)] = True
        for p in primes:
            start = _first_multiple(max(lo, p * p), p)
            if start < hi:
                composite[start - lo :: p] = True
        # entries below sqrt(max) escape the composite marking only if prime
        idx = np.flatnonzero(~composite)
        view.fill(0.0)
        view[idx] = np.log((idx + lo).astype(np.float64))
        # every stamp is a multiple of its prime at or past p^2: composite
        first, last = np.searchsorted(powers, (lo, hi))
        view[powers[first:last] - lo] = logs[first:last]
        return len(idx) + int(last - first)

    return fill


def _kernel(kind: str, lam: int) -> tuple:
    """(make, scratch, width) for the kind's table on [0, 2^lam): make()
    returns fill(view, lo, work), which writes entries lo..lo+len(view)-1
    and returns their nonzero count; a process running it holds scratch
    bytes besides its view and a workspace of width bytes per entry.  Only
    make() allocates, so a caller charges first."""
    if lam < 1:
        raise ValueError(f"lam must be a positive bit length, got {lam}")
    if kind in SIGN_KINDS:
        return (lambda: _sign_kernel(lam, kind == "moebius"), _sign_scratch(lam),
                _sign_products(lam).itemsize)
    # a stream segment's temporaries: STREAM_BYTES less an entry's value and flag
    seg = min(1 << lam, DEFAULT_SEGMENT)
    return (lambda: _von_mangoldt_kernel(lam),
            (STREAM_BYTES - 9) * seg + (PRIME_BYTES << (lam + 1) // 2), 1)


def _factor_pass(lam: int, kind: str) -> ArithmeticSequence:
    """The kind's table on [0, 2^lam), one kernel segment per task, each
    task's workspace in one buffer allocated before the tasks (a forked
    child writes its own copy of it)."""
    make, scratch, width = _kernel(kind, lam)
    n, seg = 1 << lam, min(1 << lam, DEFAULT_SEGMENT)
    dtype = np.dtype(np.int8 if kind in SIGN_KINDS else np.float64)
    require_table_bytes(lam, dtype.itemsize, f"{kind.replace('_', ' ')} table",
                        (scratch + width * seg) * (1 + _splits(n)))
    fill = make()
    out = _shared_empty(n, dtype)
    work = np.empty(width * seg, dtype=np.uint8)
    _two_way(lambda i: fill(out[i * seg : (i + 1) * seg], i * seg, work), n // seg, n)
    return ArithmeticSequence(lam, kind, out)


def sieve_moebius(lam: int) -> ArithmeticSequence:
    """Moebius table on [0, 2^lam): mu(n), 0 unless n is squarefree."""
    return _factor_pass(lam, "moebius")


def sieve_liouville(lam: int) -> ArithmeticSequence:
    """Liouville table: (-1)^Omega(n), prime factors with multiplicity."""
    return _factor_pass(lam, "liouville")


def sieve_von_mangoldt(lam: int) -> ArithmeticSequence:
    """Von Mangoldt table: log p at prime powers p^k, 0 elsewhere."""
    return _factor_pass(lam, "von_mangoldt")


_SIEVES = {
    "moebius": sieve_moebius,
    "liouville": sieve_liouville,
    "von_mangoldt": sieve_von_mangoldt,
}


def sequence(kind: str, lam: int) -> ArithmeticSequence:
    """Dispatch to the named sieve."""
    if kind not in _SIEVES:
        raise ValueError(f"no sieve for kind {kind!r}")
    return _SIEVES[kind](lam)


def _header(lam: int, kind: str) -> bytes:
    return _MAGIC + bytes([lam, KINDS.index(kind)])


def _body(values: np.ndarray) -> memoryview:
    """AWS1 entries of a table or a segment: int8 for the sign tables,
    little-endian float64 otherwise, without a copy where they already are."""
    dtype = np.int8 if values.dtype == np.int8 else "<f8"
    return memoryview(np.ascontiguousarray(values, dtype=dtype))


def dump_sequence(seq: ArithmeticSequence, path) -> None:
    """Binary dump: magic 'AWS1', lam (uint8), kind code (uint8), then raw
    little-endian entries (int8 for the sign tables, float64 otherwise)."""
    # header, then the table's own memory: no joined copy of the body
    with open(path, "wb") as fh:
        fh.write(_header(seq.lam, seq.kind))
        fh.write(_body(seq.values))


def stream_sequence(kind: str, lam: int, path=None) -> tuple[float, int]:
    """Sum and nonzero count of the kind's table on [0, 2^lam), taken one
    segment at a time, writing the table's dump_sequence bytes to path when
    one is given.

    Von Mangoldt fills one reused segment with its kernel and holds the
    sieving primes up to sqrt(2^lam), never its table, and is charged for
    those; the sign kinds stream slices of their finished int8 table.  The
    segment sums add up as a balanced pairwise tree, the way numpy's
    pairwise sum splits a 2^lam array, so the sum is float(values.sum())
    bit for bit.
    """
    if kind == "von_mangoldt":
        make, _, width = _kernel(kind, lam)
        step, half = min(1 << lam, DEFAULT_SEGMENT), (lam + 1) // 2
        require_bytes(STREAM_BYTES * step + (PRIME_BYTES << half),
                      f"von mangoldt stream at lambda={lam}",
                      f"{STREAM_BYTES} per entry over a {step}-entry segment, "
                      f"{PRIME_BYTES} per entry over the 2^{half} sieving range")
        fill, buf, work = make(), np.empty(step), np.empty(width * step, dtype=np.uint8)
        segments = ((buf, fill(buf, lo, work)) for lo in range(0, 1 << lam, step))
    else:
        values = sequence(kind, lam).values
        step = min(len(values), DEFAULT_SEGMENT)
        segments = ((seg, int(np.count_nonzero(seg)))
                    for seg in np.split(values, len(values) // step))
    sums, nonzero = [], 0
    with open(path, "wb") if path is not None else contextlib.nullcontext() as fh:
        if fh is not None:
            fh.write(_header(lam, kind))
        for seg, count in segments:
            if fh is not None:
                fh.write(_body(seg))
            sums.append(seg.sum())
            nonzero += count
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return float(sums[0]), nonzero


def load_sequence(path) -> ArithmeticSequence:
    """Inverse of dump_sequence, validating header, length, and entries:
    signs in {-1, 0, 1}, von Mangoldt values finite and nonnegative."""
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
        if not (np.isfinite(values).all() and values.min() >= 0):
            raise ValueError(f"{path}: {kind} table holds a non-finite or negative entry")
    elif values.min() < -1 or values.max() > 1:
        raise ValueError(f"{path}: {kind} sign table holds a byte outside {{-1, 0, 1}}")
    else:
        values = values.copy()
    return ArithmeticSequence(int(lam), kind, values)
