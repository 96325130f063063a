"""Fast Walsh-Hadamard transform and correlation search.

The transform sends a length-2^lam table f to all 2^lam unnormalized
correlations sum_x f(x) * (-1)^popcount(A & x) in O(lam * 2^lam) additions.
Integer tables stay exact: every partial sum is bounded by max|f| * 2^lam,
so a table runs in int32 when that bound fits (sign tables up to lam = 30)
and in int64 otherwise, and a predicted overflow raises before any work
happens.  Each stage runs in place through one reusable temporary of
_CHUNK entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .limits import ResourceLimitError, require_table_bytes
from .sieve import ArithmeticSequence
from .walsh import WalshMask

# of 2^14, 2^15 and 2^16, the fastest block for int32 sign tables at lam 24
# (2-core x86 box); the temporary's size matters less
DEFAULT_BLOCK = 1 << 16
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Spectrum:
    """Dense table of raw correlations, indexed by mask bits.  Entries of an
    integer table are int32 or int64, as the transform ran."""

    lam: int
    entries: np.ndarray

    def peak(self) -> tuple[WalshMask, float]:
        """Mask with the largest |entry|; ties break to the smallest mask.

        |entries| is taken one chunk at a time, and a later chunk wins only
        with a strictly larger value.
        """
        best, idx = -1, 0
        for lo in range(0, len(self.entries), _CHUNK):
            mags = np.abs(self.entries[lo : lo + _CHUNK])
            i = int(np.argmax(mags))
            if mags[i] > best:
                best, idx = mags[i], lo + i
        return WalshMask(idx, self.lam), self.entries[idx]


def _stage(view: np.ndarray, h: int, tmp: np.ndarray) -> None:
    """One butterfly stage of span h over a contiguous view, through tmp."""
    v = view.reshape(-1, 2, h)
    # numpy runs a narrow span as many tiny inner loops: below 8, walk it
    # one strided column at a time
    cols = 1 if h < 8 else min(h, len(tmp))
    rows = max(len(tmp) // cols, 1)
    for r in range(0, len(v), rows):
        for c in range(0, h, cols):
            a = v[r : r + rows, 0, c : c + cols]
            b = v[r : r + rows, 1, c : c + cols]
            t = tmp[: a.size].reshape(a.shape)
            np.subtract(a, b, out=t)
            np.add(a, b, out=a)
            np.copyto(b, t)


def _stages(buffer: np.ndarray, first: int, last: int) -> None:
    """Butterfly stages first..last-1 (stage s has span 2^s), in place.

    Stages with span below DEFAULT_BLOCK run to completion inside each
    contiguous block before the next block is touched (the low stages are
    where the locality is); the remaining stages sweep the full array.
    After stages 0..s-1 every aligned block of 2^s entries holds the
    transform of its own entries.
    """
    n = len(buffer)
    tmp = np.empty(min(_CHUNK, n), dtype=buffer.dtype)
    b = min(DEFAULT_BLOCK, n)
    split = min(max(b.bit_length() - 1, first), last)
    if first < split:
        for lo in range(0, n, b):
            seg = buffer[lo : lo + b]
            for s in range(first, split):
                _stage(seg, 1 << s, tmp)
    for s in range(split, last):
        _stage(buffer, 1 << s, tmp)


def _magnitude_bound(values: np.ndarray) -> int:
    return max(int(values.max()), -int(values.min())) if values.size else 0


def fwht_in_place(buffer: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly over a power-of-two buffer.

    Integer buffers (int32 or int64) are checked for overflow first; stage
    order does not affect the result, only the memory access pattern.
    """
    n = len(buffer)
    if n == 0 or n & (n - 1):
        raise ValueError(f"buffer length {n} is not a power of two")
    if buffer.dtype in (np.int32, np.int64):
        peak = _magnitude_bound(buffer)
        bits = 8 * buffer.itemsize
        if peak and float(peak) * float(n) >= 2.0 ** (bits - 1):
            raise ResourceLimitError(
                f"transform output can reach {peak} * 2^{n.bit_length() - 1}, "
                f"which overflows {bits}-bit accumulators"
            )
    elif buffer.dtype != np.float64:
        raise TypeError(
            f"transform needs an int32, int64 or float64 buffer, got {buffer.dtype}"
        )
    _stages(buffer, 0, n.bit_length() - 1)
    return buffer


def _transform_buffer(values: np.ndarray) -> np.ndarray:
    """A fresh copy of a table in the narrowest exact accumulator."""
    if not np.issubdtype(values.dtype, np.integer):
        return values.astype(np.float64)
    if float(_magnitude_bound(values)) * len(values) < 2.0**31:
        return values.astype(np.int32)
    return values.astype(np.int64)


def spectrum(seq: ArithmeticSequence, max_mem_gib: float | None = None) -> Spectrum:
    """Correlation table of a sequence against every Walsh function."""
    require_table_bytes(seq.lam, 8, max_mem_gib, what="transform buffer")
    return Spectrum(seq.lam, fwht_in_place(_transform_buffer(seq.values)))


def _sign_values(seq: ArithmeticSequence) -> np.ndarray:
    """The integer table of a sign sequence, or ValueError."""
    vals = seq.values
    if not np.issubdtype(vals.dtype, np.integer):
        rounded = np.rint(vals)
        if not np.array_equal(rounded, vals):
            raise ValueError("max_correlation needs an integer-valued sequence")
        vals = rounded.astype(np.int64)
    if _magnitude_bound(vals) > 1:
        raise ValueError("max_correlation needs entries in {-1, 0, 1}")
    return vals


def max_correlation(
    seq: ArithmeticSequence, max_mem_gib: float | None = None
) -> tuple[WalshMask, int]:
    """Argmax mask and signed value of the raw correlation table.

    Only defined for sign tables (entries in {-1, 0, 1}), where the raw
    transform is exact integer arithmetic.
    """
    vals = _sign_values(seq)
    mask, value = spectrum(ArithmeticSequence(seq.lam, seq.kind, vals), max_mem_gib).peak()
    return mask, int(value)


def prefix_max_correlations(
    seq: ArithmeticSequence, lambdas, max_mem_gib: float | None = None
) -> list[tuple[WalshMask, int]]:
    """max_correlation of each prefix table seq.values[:2^lam], from one
    transform of the whole table.

    The first lam butterfly stages act inside aligned blocks of 2^lam, so
    once they are done block [0, 2^lam) holds the prefix's spectrum; its
    peak is read there before the next stage runs.  lambdas must increase
    strictly and lie in 1..seq.lam.
    """
    require_table_bytes(seq.lam, 8, max_mem_gib, what="transform buffer")
    buf = _transform_buffer(_sign_values(seq))
    peaks = []
    done = 0
    for lam in lambdas:
        if not done < lam <= seq.lam:
            raise ValueError(
                f"prefix lambdas must increase within 1..{seq.lam}, "
                f"got {lam} after {done}"
            )
        _stages(buf, done, lam)
        done = lam
        mask, value = Spectrum(lam, buf[: 1 << lam]).peak()
        peaks.append((mask, int(value)))
    return peaks
