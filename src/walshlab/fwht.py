"""Fast Walsh-Hadamard transform and correlation search.

The transform sends a length-2^lam table f to all 2^lam unnormalized
correlations sum_x f(x) * (-1)^popcount(A & x) in O(lam * 2^lam) additions.
Integer tables stay exact: after stage s every partial sum is bounded by
max|f| * 2^(s+1), so a table runs in int32 when max|f| * 2^lam fits (sign
tables up to lam = 30) and in int64 otherwise, and a predicted overflow
raises before any work happens.  Its first k stages, for the largest k with
max|f| * 2^k < 2^15 (14 for sign tables), run in int16 in the first half
of each part's bytes, which is then widened in place.  Each stage runs in
place through one reusable temporary of _CHUNK entries; spans below
2^_NARROW run on a transposed copy of a block.  _transform charges the
buffer and its task scratch before allocating them.

Every table is transformed as the same tasks, which limits._two_way shares
with a forked child or runs in order: each run of DEFAULT_SEGMENT entries is
filled (copied from a plain table, or sieved in place by sieve._kernel's
fill in sign_max_correlations, its own bytes the workspace) and runs the
in-block stages, then, after one join, each half of the columns (the
entries whose bit log2(DEFAULT_BLOCK) - 1 is 0, or 1) runs every
cross-block stage.  Every entry sees the same additions in the same order
either way: stage s (span 2^s) for s = 0, 1, ..., low bit first.
theorem_scan turns the prefix peaks of one sign table into THM1 reports.
"""

from __future__ import annotations

import math

import numpy as np

from .limits import ResourceLimitError, _shared_empty, _splits, _two_way, require_table_bytes
from .report import CheckReport
from .sieve import DEFAULT_SEGMENT, SIGN_KINDS, _kernel
from .walsh import WalshMask

# int32 sign tables at lam 24 (2-core x86 box): blocks 2^16 and 2^17 tie, 2^15
# is slower; transposed width 2^7 beats 2^6 and 2^8; _CHUNK matters less
DEFAULT_BLOCK = 1 << 16
_BLOCK_BITS = DEFAULT_BLOCK.bit_length() - 1
_NARROW = 7
_CHUNK = 1 << 16
# stage scratch per task process, in entries: temporary, transposed block,
# peak magnitudes (tracemalloc: 0.5 MiB over int32 buffers at lam 18-21)
_STAGE_SCRATCH = 4 * _CHUNK


def _peak(entries: np.ndarray, stride: int = 0, offset: int = 0):
    """(entry, index) of the largest |entry|, ties to the smallest index.

    entries is 1-D, or 2-D with entry (r, c) at index offset + r*stride + c
    (rows in increasing index order).  |entries| is taken _CHUNK entries at
    a time, and a later chunk wins only with a strictly larger value.
    """
    if entries.ndim == 1:
        stride = min(len(entries), _CHUNK)
        entries = entries.reshape(-1, stride)
    width = entries.shape[1]
    step = max(_CHUNK // width, 1)
    best, at = -1, (0, 0)
    for lo in range(0, len(entries), step):
        mags = np.abs(entries[lo : lo + step])
        r, c = divmod(int(np.argmax(mags)), width)
        if mags[r, c] > best:
            best, at = mags[r, c], (lo + r, c)
    return entries[at], offset + at[0] * stride + at[1]


def _pairs(v: np.ndarray, tmp: np.ndarray) -> None:
    """One butterfly stage over the pairs (v[g, 0], v[g, 1]) of a
    (groups, 2, rows, cols) view, cols <= len(tmp), through tmp."""
    groups, _, rows, cols = v.shape
    per = max(len(tmp) // cols, 1)
    gs, rs = max(per // rows, 1), min(rows, per)
    for g in range(0, groups, gs):
        for r in range(0, rows, rs):
            a = v[g : g + gs, 0, r : r + rs]
            b = v[g : g + gs, 1, r : r + rs]
            t = tmp[: a.size].reshape(a.shape)
            np.subtract(a, b, out=t)
            np.add(a, b, out=a)
            np.copyto(b, t)


def _stage(view: np.ndarray, h: int, tmp: np.ndarray) -> None:
    """One butterfly stage of span h over a contiguous view, through tmp."""
    cols = min(h, len(tmp))
    _pairs(view.reshape(-1, 2, h // cols, cols), tmp)


def _stages(buffer: np.ndarray, first: int, last: int) -> None:
    """Butterfly stages first..last-1 (stage s has span 2^s) in place, with
    last <= log2(min(len(buffer), DEFAULT_BLOCK)).

    The stages run to completion inside each contiguous block before the
    next block is touched (the low stages are where the locality is).
    Spans below w = 2^_NARROW run on the block's transpose (w rows of
    block/w), where stage s pairs whole rows, span (block/w) << s, instead of
    numpy's tiny inner loops; every entry sees the same additions in the same
    order.  After stages 0..s-1 every aligned block of 2^s entries holds the
    transform of its own entries.
    """
    n = len(buffer)
    tmp = np.empty(min(_CHUNK, n), dtype=buffer.dtype)
    b = min(DEFAULT_BLOCK, n)
    w = min(1 << _NARROW, b)
    narrow = min(max(w.bit_length() - 1, first), last)
    t = np.empty((w, b // w), dtype=buffer.dtype)
    for lo in range(0, n, b):
        seg = buffer[lo : lo + b]
        if first < narrow:
            cols = seg.reshape(-1, w).T
            np.copyto(t, cols)
            for s in range(first, narrow):
                _stage(t.reshape(-1), (b // w) << s, tmp)
            np.copyto(cols, t)
        for s in range(narrow, last):
            _stage(seg, 1 << s, tmp)


def _cross_stages(rows: np.ndarray, first: int, last: int, tmp: np.ndarray) -> None:
    """Stages first..last-1, all of span >= DEFAULT_BLOCK, over one half's
    rows: the entries of a table whose bit _BLOCK_BITS - 1 is the half's,
    as rows of DEFAULT_BLOCK/2 (row r starts at r*DEFAULT_BLOCK).  These
    stages pair entries equal in that bit, so the halves never meet."""
    for s in range(first, last):
        _pairs(rows.reshape(-1, 2, 1 << (s - _BLOCK_BITS), rows.shape[1]), tmp)


def _magnitude_bound(values: np.ndarray) -> int:
    return max(int(values.max()), -int(values.min())) if values.size else 0


def _table_lam(values: np.ndarray) -> int:
    """lam of a table of 2^lam entries, or ValueError."""
    n = len(values)
    if n == 0 or n & (n - 1):
        raise ValueError(f"table length {n} is not a power of two")
    return n.bit_length() - 1


def _int_accumulator(bound: int, n: int):
    """The narrowest exact accumulator dtype for a transform of n integers
    bounded by bound; ResourceLimitError if even int64 can overflow."""
    dtype = np.int32 if float(bound) * n < 2.0**31 else np.int64
    bits = 8 * np.dtype(dtype).itemsize
    if bound and float(bound) * float(n) >= 2.0 ** (bits - 1):
        raise ResourceLimitError(
            f"transform output can reach {bound} * 2^{n.bit_length() - 1}, "
            f"which overflows {bits}-bit accumulators"
        )
    return dtype


def _int16_stages(bound: int) -> int:
    """The largest k with bound * 2^k < 2^15 (0 if there is none): stages
    0..k-1 of a table bounded by bound stay exact in int16."""
    return max((2**15 - 1) // max(bound, 1), 1).bit_length() - 1


def _copy_of(values: np.ndarray):
    """The fill step of a plain table: copy its part into the buffer."""
    def fill(out: np.ndarray, lo: int, work: np.ndarray) -> None:
        out[...] = values[lo : lo + len(out)]
    return fill


def _widen(part: np.ndarray) -> None:
    """Widen the int16 entries held in the first half of part's bytes to
    part's dtype in place, top chunk first, so no chunk is written before
    the entries under it are read.  Each chunk passes through one int16
    buffer: numpy casts an overlapping int16 view into a wider array front
    to back without a copy, so part[:] = part.view(np.int16)[:len(part)]
    gives wrong entries and no error."""
    narrow = part.view(np.int16)[: len(part)]
    tmp = np.empty(min(len(part), _CHUNK), dtype=np.int16)
    for lo in reversed(range(0, len(part), _CHUNK)):
        hi = min(lo + _CHUNK, len(part))
        np.copyto(tmp[: hi - lo], narrow[lo:hi])
        part[lo:hi] = tmp[: hi - lo]


def _prefix_stages(part: np.ndarray, lambdas, top: int, k: int) -> list:
    """Stages 0..top-1 of part in place (spans below len(part)), and the
    peak of each prefix 2^lam in lambdas, read once its first lam stages are
    done.  When k > 0 part holds its entries as int16 in the first half of
    its bytes: stages 0..k-1 run there, and the entries are widened to
    part's dtype before the stages past k, or at the end.

    A prefix below 2^_NARROW transforms a copy instead, so part runs each
    stage once, its transposed stages in one pass.
    """
    view = part.view(np.int16)[: len(part)] if k else part
    peaks, ran = [], 0
    for i, lam in enumerate([*lambdas, top]):
        if view is not part and lam > k:
            if ran < k:
                _stages(view, ran, k)
            _widen(part)
            view, ran = part, k
        if lam < _NARROW and i < len(lambdas):
            block = view[: 1 << lam].copy()
            _stages(block, ran, lam)
        else:
            block = view
            if ran < lam:
                _stages(view, ran, lam)
                ran = lam
        if i < len(lambdas):
            peaks.append(_peak(block[: 1 << lam]))
    if view is not part:
        _widen(part)
    return peaks


def _transform(make_fill, fill_scratch: int, n: int, bound: int | None, lambdas: list, top: int):
    """Stages 0..top-1 over a fresh buffer of n entries, which fill(out,
    lo, part) fills with entries lo..lo+len(out)-1 of the table: the
    buffer, the peak (entry, index) of each prefix 2^lam in lambdas, and
    fill's results in order.  bound is the largest |entry| of an integer
    table, which picks the buffer's exact integer dtype and its int16
    stages (_int16_stages), or None for a float64 table.  out is part
    itself, or with int16 stages the int16 view of the first half of its
    bytes, where fill may use part's bytes as its workspace.

    First the buffer and, per task process, fill_scratch and the stage
    scratch are charged; then fill = make_fill() is made.

    The work is tasks of limits._two_way: first each run of DEFAULT_SEGMENT
    entries (or the whole smaller table) is filled and runs the in-block
    stages while it is in cache, then each half of the columns runs the
    cross-block stages.  Each column half finds its own peak of a prefix
    above the block; the larger is kept, ties to the smaller index, which
    may lie in either half.
    """
    dtype = np.float64 if bound is None else _int_accumulator(bound, n)
    k = 0 if bound is None else _int16_stages(bound)
    itemsize = np.dtype(dtype).itemsize
    scratch = (fill_scratch + min(n, _STAGE_SCRATCH) * itemsize) * (1 + _splits(n))
    require_table_bytes(n.bit_length() - 1, itemsize, "transform buffer", scratch)
    fill = make_fill()
    buf = _shared_empty(n, dtype)
    seg = min(n, DEFAULT_SEGMENT)
    inner = [lam for lam in lambdas if lam <= _BLOCK_BITS]

    def in_blocks(i: int) -> tuple:
        part = buf[i * seg : (i + 1) * seg]
        filled = fill(part.view(np.int16)[:seg] if k else part, i * seg, part)
        return filled, _prefix_stages(part, inner if i == 0 else [], min(top, _BLOCK_BITS), k)

    filled, found = zip(*_two_way(in_blocks, n // seg, n))
    peaks = found[0]
    if top <= _BLOCK_BITS:
        return buf, peaks, list(filled)

    def across(w: int) -> list:
        tmp = np.empty(_CHUNK, dtype=buf.dtype)
        rows = buf.reshape(-1, 2, DEFAULT_BLOCK // 2)[:, w]
        got, done = [], _BLOCK_BITS
        for lam in lambdas[len(inner) :]:
            _cross_stages(rows, done, lam, tmp)
            done = lam
            got.append(_peak(rows[: 1 << (lam - _BLOCK_BITS)], DEFAULT_BLOCK,
                             w * DEFAULT_BLOCK // 2))
        _cross_stages(rows, done, top, tmp)
        return got

    for pair in zip(*_two_way(across, 2, n)):
        peaks.append(min(pair, key=lambda p: (-abs(p[0]), p[1])))
    return buf, peaks, list(filled)


def spectrum(values: np.ndarray) -> np.ndarray:
    """Raw correlations of a table of 2^lam values against every Walsh
    function, indexed by mask bits.  An integer table gives int32 or int64
    entries, as the transform ran; a float table gives float64."""
    lam = _table_lam(values)
    bound = _magnitude_bound(values) if np.issubdtype(values.dtype, np.integer) else None
    return _transform(lambda: _copy_of(values), 0, len(values), bound, [], lam)[0]


def max_correlation(values: np.ndarray) -> tuple[WalshMask, int]:
    """Argmax mask and signed value of the raw correlation table.

    Only defined for integer sign tables (entries in {-1, 0, 1}), where the
    raw transform is exact integer arithmetic.
    """
    return prefix_max_correlations(values, [_table_lam(values)])[0]


def _check_prefixes(lambdas, top: int) -> list:
    """lambdas as a list, or ValueError unless they increase within 1..top."""
    lambdas, done = list(lambdas), 0
    for lam in lambdas:
        if not done < lam <= top:
            raise ValueError(
                f"prefix lambdas must increase within 1..{top}, got {lam} after {done}"
            )
        done = lam
    return lambdas


def _sign_peaks(make_fill, fill_scratch: int, lambdas: list, top: int):
    """The (mask, value) peak of each prefix 2^lam in lambdas of the sign
    table on [0, 2^top) that make_fill()'s fill writes, and fill's results."""
    _, peaks, filled = _transform(make_fill, fill_scratch, 1 << top, 1, lambdas,
                                  lambdas[-1] if lambdas else 0)
    return [(WalshMask(idx, lam), int(value)) for lam, (value, idx) in zip(lambdas, peaks)], filled


def prefix_max_correlations(values: np.ndarray, lambdas) -> list[tuple[WalshMask, int]]:
    """max_correlation of each prefix table values[:2^lam], from one
    transform of the whole table.

    The first lam butterfly stages act inside aligned blocks of 2^lam, so
    once they are done block [0, 2^lam) holds the prefix's spectrum; its
    peak is read there before the next stage runs.  lambdas must increase
    strictly and lie in 1..log2(len(values)).
    """
    top = _table_lam(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"max_correlation needs an integer sign table, got {values.dtype}")
    if _magnitude_bound(values) > 1:
        raise ValueError("max_correlation needs entries in {-1, 0, 1}")
    return _sign_peaks(lambda: _copy_of(values), 0, _check_prefixes(lambdas, top), top)[0]


def sign_max_correlations(kind: str, lambdas) -> tuple[list[tuple[WalshMask, int]], int]:
    """prefix_max_correlations of the kind's sign table on [0, 2^lam) for
    the largest lam in lambdas, and that table's nonzero count (sum |f|).

    No table is kept: each in-block task sieves its segment straight into
    the transform buffer with the kind's kernel from sieve._kernel, the
    part's own bytes as its workspace, and runs the in-block stages while
    the segment is in cache, so one fork round fewer runs than sieving
    first.  The peaks are those of the sieved table's transform.
    """
    if kind not in SIGN_KINDS:
        raise ValueError(f"no sign table for kind {kind!r}")
    lambdas = list(lambdas)
    top = lambdas[-1] if lambdas else 0
    make, scratch, _ = _kernel(kind, top)  # a bad top is named before the prefixes
    peaks, counts = _sign_peaks(make, scratch, _check_prefixes(lambdas, top), top)
    return peaks, sum(counts)


def _correlation_check(lam: int, kind: str, mask: WalshMask, value: int) -> CheckReport:
    """Max |correlation| value of a sign table against 2^(lam - lam^(1/10)).

    Records the argmax mask, its weight, and the empirical exponent
    log2 |value| / lam (None for an identically-zero table).
    """
    rhs = 2.0 ** (lam - lam**0.1)
    lhs = float(abs(value))
    exponent = math.log2(lhs) / lam if value else None
    params = {
        "lambda": lam,
        "kind": kind,
        "mask": mask.bits,
        "weight": mask.weight,
        "value": int(value),
        "exponent": exponent,
    }
    return CheckReport("THM1", params, lhs, rhs, None, lhs < rhs)


def theorem_scan(kind: str, lambdas) -> list[CheckReport]:
    """The THM1 check of the kind's sign table at each lam, in the order given.

    One sieve at the largest lam serves them all, since its table holds
    every smaller table as its prefix, and one transform of it yields every
    prefix's peak; the sieve writes straight into the transform buffer
    (sign_max_correlations), so no sign table is kept.
    """
    if kind not in SIGN_KINDS:
        raise ValueError(f"theorem_scan supports {' and '.join(SIGN_KINDS)}, got {kind!r}")
    lambdas = list(lambdas)
    if not lambdas:
        return []
    steps = sorted(set(lambdas))
    peaks = dict(zip(steps, sign_max_correlations(kind, steps)[0]))
    return [_correlation_check(lam, kind, *peaks[lam]) for lam in lambdas]
