"""Segmented sieves for the Moebius, Liouville, and von Mangoldt functions.

Tables cover [0, 2^lam) with index 0 pinned to 0 so downstream transforms see
a full power-of-two buffer.  _kernel maps each kind to one kernel,
fill(view, lo, work), which writes entries lo..lo+len(view)-1 at any offset
and in any order, keeping its per-segment state in work's bytes.  Moebius
and Liouville share a sign kernel that tracks the product of each entry's
small prime factors, seeded from one precomputed period of the p and p^2
levels of 2, 3, 5 and 7; von Mangoldt's marks composites and stamps prime
powers from one sorted list.  One segment driver runs every sieved table,
a segment per task of limits._two_way (two processes share a large
table's segments): sequence fills each segment of one table in place, and
stream_sequence fills one reused segment per process and writes each to
the dump.  fwht.sign_max_correlations sieves into transform buffer parts.
Each caller charges the output, its workspaces and the kernel's scratch
before it makes the kernel.  A table on [0, 2^lam) holds every smaller
table as its prefix.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .limits import _shared_empty, _splits, _two_way, require_bytes
from .report import KINDS, SIGN_KINDS, _overwrite

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
_HEADER_BYTES = 6  # the magic, lam and the kind code


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
    if kind not in KINDS:
        raise ValueError(f"no sieve for kind {kind!r}")
    if lam < 1:
        raise ValueError(f"lam must be a positive bit length, got {lam}")
    if kind in SIGN_KINDS:
        return (lambda: _sign_kernel(lam, kind == "moebius"), _sign_scratch(lam),
                _sign_products(lam).itemsize)
    # a stream segment's temporaries: STREAM_BYTES less an entry's value and flag
    seg = min(1 << lam, DEFAULT_SEGMENT)
    return (lambda: _von_mangoldt_kernel(lam),
            (STREAM_BYTES - 9) * seg + (PRIME_BYTES << (lam + 1) // 2), 1)


def _dtype(kind: str) -> np.dtype:
    """The kind's table entries: int8 signs, or float64 von Mangoldt logs."""
    return np.dtype(np.int8 if kind in SIGN_KINDS else np.float64)


def _header(lam: int, kind: str) -> bytes:
    return _MAGIC + bytes([lam, KINDS.index(kind)])



def _body(values: np.ndarray) -> memoryview:
    """AWS1 entries of a table or a segment as bytes: int8 for the sign
    tables, little-endian float64 otherwise, without a copy where they
    already are."""
    dtype = np.int8 if values.dtype == np.int8 else "<f8"
    return memoryview(np.ascontiguousarray(values, dtype=dtype)).cast("B")


def _pwrite(fd: int, data, at: int) -> None:
    """All of the bytes-like data into fd from byte at, whatever the file
    offset (a memoryview is resumed without a copy)."""
    while data:
        done = os.pwrite(fd, data, at)
        data, at = data[done:], at + done


@contextlib.contextmanager
def _dump_file(path, lam: int, kind: str):
    """A write descriptor for path's AWS1 dump of the kind's table on
    [0, 2^lam), whose body the caller writes with _pwrite past the header.

    The file is written over in place by report._overwrite: a zero header
    goes first, then the body, then the real header, and last the offset
    is set to the dump's end, where _overwrite cuts a regular file.  A run
    that fails is cut to nothing (_pwrite leaves the offset at 0); one
    killed midway leaves the zero header, or before the cut an old file's
    tail; load_sequence refuses each."""
    with _overwrite(path) as fd:
        _pwrite(fd, bytes(_HEADER_BYTES), 0)
        yield fd
        _pwrite(fd, _header(lam, kind), 0)
        os.lseek(fd, _HEADER_BYTES + (_dtype(kind).itemsize << lam), os.SEEK_SET)


def dump_sequence(seq: ArithmeticSequence, path) -> None:
    """Binary dump: magic 'AWS1', lam (uint8), kind code (uint8), then raw
    little-endian entries (int8 for the sign tables, float64 otherwise)."""
    # the table's own memory: no joined copy of the body
    with _dump_file(path, seq.lam, seq.kind) as fd:
        _pwrite(fd, _body(seq.values), _HEADER_BYTES)


# what the caller holds per segment: its result in the task list and, from
# a forked child, in the unpickled dict (tracemalloc over 2^16 stream
# results: 231 B each forked, 199 B in order)
RESULT_BYTES = 256


def _segments(kind: str, lam: int, table: bool, path=None):
    """The kind's fill over [0, 2^lam), one segment per task of
    limits._two_way, from one charge and one kernel.

    With table, each task fills its own segment of one table made by
    _shared_empty, and the table is returned.  Otherwise each task fills
    its process's one reused segment, writes it at its offset in path's
    dump when path is given and returns the segment's (sum, nonzero
    count), and the list of those is returned: no process holds the
    table.  The workspace and the reused segment are allocated before the
    tasks, so a forked child writes its own copy of them.  Each process is
    charged its workspace, the kernel's scratch (the sieving primes up to
    sqrt(2^lam) among it) and, streaming, its segment; the caller the
    table, if any, and RESULT_BYTES per segment."""
    make, scratch, width = _kernel(kind, lam)
    n, step, dtype = 1 << lam, min(1 << lam, DEFAULT_SEGMENT), _dtype(kind)
    procs, half = 1 + _splits(n), (lam + 1) // 2
    held, entry = (dtype.itemsize << lam, width) if table else (0, dtype.itemsize + width)
    require_bytes(held + (entry * step + scratch) * procs + RESULT_BYTES * (n // step),
                  f"{kind.replace('_', ' ')} {'table' if table else 'stream'} at lambda={lam}",
                  f"{held} for the table; in each of {procs} processes {entry} per entry over a "
                  f"{step}-entry segment and {scratch} of kernel scratch, {PRIME_BYTES} per "
                  f"entry over the 2^{half} sieving range among it; {RESULT_BYTES} per segment")
    fill = make()
    out = _shared_empty(n, dtype) if table else np.empty(step, dtype)
    work = np.empty(width * step, dtype=np.uint8)
    with _dump_file(path, lam, kind) if path is not None else contextlib.nullcontext() as fd:

        def task(i: int):
            seg = out[i * step : (i + 1) * step] if table else out
            count = fill(seg, i * step, work)
            if table:
                return count
            if fd is not None:
                _pwrite(fd, _body(seg), _HEADER_BYTES + i * seg.nbytes)
            return seg.sum().item(), count

        done = _two_way(task, n // step, n)
    return out if table else done


def sequence(kind: str, lam: int) -> ArithmeticSequence:
    """The kind's table on [0, 2^lam): Moebius mu(n), 0 unless n is
    squarefree; Liouville (-1)^Omega(n), prime factors with multiplicity;
    or von Mangoldt log p at the prime powers p^k, 0 elsewhere.  Two
    processes share a large table's segments."""
    return ArithmeticSequence(lam, kind, _segments(kind, lam, True))


def stream_sequence(kind: str, lam: int, path=None) -> tuple[float, int]:
    """Sum and nonzero count of the kind's table on [0, 2^lam), taken one
    segment at a time, writing the table's dump_sequence bytes to path when
    one is given.

    The segments are sequence's tasks, but each fills its process's one
    reused segment and writes it at its offset in the dump, so two
    processes share a large table's segments and neither holds the table.
    The segment sums add up as a balanced pairwise tree in task order, the
    way numpy's pairwise sum splits a 2^lam array, so the sum is
    float(values.sum()) bit for bit.
    """
    sums, counts = zip(*_segments(kind, lam, False, path))
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return float(sums[0]), sum(counts)


# a load holds the file's bytes and the table read from them, plus the file
# object and array headers (tracemalloc: 0.9-1.7 KiB over twice the file
# at lam 18-21, every kind)
_LOAD_SCRATCH = 1 << 13


def load_sequence(path) -> ArithmeticSequence:
    """Inverse of dump_sequence, validating header, length, and entries:
    signs in {-1, 0, 1}, von Mangoldt values finite and nonnegative."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        require_bytes(2 * size + _LOAD_SCRATCH, f"loading {path}",
                      f"2 per byte of its {size} bytes, the bytes and the table, "
                      f"plus {_LOAD_SCRATCH} of scratch")
        raw = fh.read()
    if raw[:4] != _MAGIC or len(raw) < _HEADER_BYTES:
        raise ValueError(f"{path}: bad header {raw[:_HEADER_BYTES]!r}, "
                         f"want magic {_MAGIC!r} + 2 bytes")
    lam = raw[4]
    if lam == 0:
        raise ValueError(f"{path}: header lambda is 0, tables need lambda >= 1")
    code = raw[5]
    if code >= len(KINDS):
        raise ValueError(f"{path}: unknown kind code {code}")
    kind = KINDS[code]
    dtype = _dtype(kind).newbyteorder("<")
    body, expect = len(raw) - _HEADER_BYTES, (1 << lam) * dtype.itemsize
    if body != expect:
        raise ValueError(f"{path}: body holds {body} bytes, expected {expect}")
    values = np.frombuffer(raw, dtype=dtype, offset=_HEADER_BYTES)
    if dtype != np.int8:
        values = values.astype(np.float64)
        if not (values.min() >= 0 and np.isfinite(values.max())):  # a NaN fails both
            raise ValueError(f"{path}: {kind} table holds a non-finite or negative entry")
    elif values.min() < -1 or values.max() > 1:
        raise ValueError(f"{path}: {kind} sign table holds a byte outside {{-1, 0, 1}}")
    else:
        values = values.copy()
    return ArithmeticSequence(int(lam), kind, values)
