"""Walsh functions and their trigonometric Fourier coefficients.

w_A(x) = prod_{j in A} (1 - 2 x_j) over the binary digits x_j of x, i.e. the
parity character (-1)^{popcount(A & x)}.  Its coefficient against the
additive character e(kx/2^lam) is an exact product of lam binomial factors,
one per bit, with magnitude prod |cos| over bits outside A times prod |sin|
over bits inside A.  The factor for bit j depends only on k mod 2^(lam-j)
and on whether j is in A, so each lambda caches |cos| and |sin| over one
period per bit, and a mask's magnitude row is lam broadcast multiplies of
those tables with no trigonometric call.  No dense spectrum is stored.
All-mask sweeps fold the frequency bits out in O(lam * 2^lam), in one
process: by max for sup, with the rows' floats, and by sum for l1, whose
pairwise additions can differ from a row's sum in the last bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .limits import require_table_bytes


@dataclass(frozen=True)
class WalshMask:
    """A subset of bit positions {0, ..., lam-1} packed as an integer."""

    bits: int
    lam: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.lam):
            raise ValueError(
                f"mask bits {self.bits:#x} out of range for lam={self.lam}"
            )

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.lam) if (self.bits >> j) & 1)


# ---------------------------------------------------------------------------
# frequency selectors


@dataclass(frozen=True)
class FullRange:
    """All frequencies k in [0, 2^lam)."""


@dataclass(frozen=True)
class ResidueClass:
    """Frequencies k = a (mod 2^r)."""

    a: int
    r: int


@dataclass(frozen=True)
class Interval:
    """Frequencies in the half-open interval [lo, hi)."""

    lo: int
    hi: int


def _selector_slice(lam: int, selector) -> slice:
    """The selected frequencies as a slice of the full range [0, 2^lam)."""
    if isinstance(selector, FullRange):
        return slice(None)
    if isinstance(selector, ResidueClass):
        if selector.r < 0 or selector.r >= lam:
            raise ValueError(f"residue modulus exponent r={selector.r} must satisfy 0 <= r < lam")
        if not 0 <= selector.a < (1 << selector.r):
            raise ValueError(f"residue a={selector.a} must lie below 2^{selector.r}")
        return slice(selector.a, None, 1 << selector.r)
    if isinstance(selector, Interval):
        if not 0 <= selector.lo < selector.hi <= (1 << lam):
            raise ValueError(
                f"interval [{selector.lo}, {selector.hi}) is empty or out of range"
            )
        return slice(selector.lo, selector.hi)
    raise ValueError(f"unknown frequency selector {selector!r}")


# ---------------------------------------------------------------------------
# vectorized kernels


def _table_bytes(lam: int) -> int:
    """Bytes of _period_tables(lam): float64 |cos| and |sin| over each
    bit's period, tiled to min(2^lam, 1024) entries (32 B per entry of
    2^lam plus 128 KiB from lam 10 up)."""
    return 16 * sum(max(1 << (lam - j), min(1 << lam, 1024)) for j in range(lam))


# cached for one lambda at a time (about 2 MiB at lam=16), never per mask
@functools.lru_cache(maxsize=1)
def _period_tables(lam: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Read-only |cos| and |sin| factors of each bit j over its period
    2^(lam-j), tiled up to min(2^lam, 1024) entries when shorter, because a
    multiply that broadcasts a 2- or 4-wide factor is slow."""
    _period_tables.cache_clear()  # the last lambda's tables go before these are built
    width = min(1 << lam, 1024)
    cos_t, sin_t = [], []
    for j in range(lam):
        period = 1 << (lam - j)
        ang = np.pi * (np.arange(period, dtype=np.int64) / period)
        for tables, fn in ((cos_t, np.cos), (sin_t, np.sin)):
            t = np.tile(np.abs(fn(ang)), max(1, width // period))
            t.flags.writeable = False
            tables.append(t)
    return tuple(cos_t), tuple(sin_t)


# numpy's 64 KiB buffer for a broadcast multiply, and the period tables'
# array headers (tracemalloc: 73 KiB over the row and tables at lam 14-18)
_ROW_SCRATCH = 1 << 17


def _row(lam: int, bits: int) -> np.ndarray:
    """|coefficient| for one mask at every k in [0, 2^lam), multiplying the
    factors in bit order j = 0..lam-1."""
    cos_t, sin_t = _period_tables(lam)
    acc = np.ones(1 << lam, dtype=np.float64)
    for j in range(lam):
        t = sin_t[j] if (bits >> j) & 1 else cos_t[j]
        view = acc.reshape(-1, len(t))
        view *= t
    return acc


def _charged_row(lam: int, bits: int) -> np.ndarray:
    """_row once its 8 B per entry and the period tables that the first
    call at a lambda builds fit the budget.  The lemma scan calls _row
    itself, having charged its rows once per lambda."""
    require_table_bytes(lam, 8, "magnitude row", _table_bytes(lam) + _ROW_SCRATCH)
    return _row(lam, bits)


def magnitude_row(lam: int, bits: int, ks: np.ndarray) -> np.ndarray:
    """|coefficient| for one mask at many frequencies (any integers, read
    mod 2^lam); one full row of 2^lam entries is built whatever len(ks)."""
    ks = np.asarray(ks, dtype=np.int64)
    return _charged_row(lam, bits)[ks & ((1 << lam) - 1)]


def coefficient_values(lam: int, bits: int, ks: np.ndarray) -> np.ndarray:
    """Complex coefficients for one mask at many frequencies.

    Convention: w_A(x) = sum_k c_k e(+kx / 2^lam), so c_k carries the
    analysis sign e(-k 2^(j-lam)) per bit factor.
    """
    ks = np.asarray(ks, dtype=np.int64)
    acc = np.ones(ks.shape, dtype=np.complex128)
    for j in range(lam):
        mod = 1 << (lam - j)
        z = np.exp(-2j * np.pi * ((ks & (mod - 1)) / mod))
        acc *= (1 - z) / 2 if (bits >> j) & 1 else (1 + z) / 2
    return acc


def walsh_table(mask: WalshMask) -> np.ndarray:
    """All 2^lam sample values of w_A as int8."""
    xs = np.arange(1 << mask.lam, dtype=np.int32 if mask.lam <= 31 else np.int64)
    return walsh_signs(mask.bits, xs)


def walsh_signs(bits: int, args: np.ndarray) -> np.ndarray:
    """Parity character of masked bits, for arbitrary nonnegative integers,
    in the arguments' own integer width.

    Positions above the mask's top bit never contribute, so arguments wider
    than the mask's ambient bit-length are fine; mask bits at or above the
    arguments' width never match a set bit of a nonnegative argument, so
    they are dropped.
    """
    args = np.asarray(args)
    mask = args.dtype.type(bits & np.iinfo(args.dtype).max)
    parity = np.bitwise_count(np.bitwise_and(args, mask)) & 1
    return (1 - 2 * parity.astype(np.int8)).astype(np.int8)


# ---------------------------------------------------------------------------
# norms over a frequency selector


def l1_accumulate(mask: WalshMask, selector=FullRange()) -> float:
    """Sum of coefficient magnitudes over the selected frequencies."""
    sel = _selector_slice(mask.lam, selector)
    return float(_charged_row(mask.lam, mask.bits)[sel].sum())


def sup_norm(mask: WalshMask, selector=FullRange()) -> float:
    """Largest coefficient magnitude over the selected frequencies."""
    sel = _selector_slice(mask.lam, selector)
    return float(_charged_row(mask.lam, mask.bits)[sel].max())


# ---------------------------------------------------------------------------
# exhaustive mask sweeps

# bytes per 2^lam entries at the fold's peak with the period tables uncached,
# as tracemalloc measured it at lam 16-18: 8 for the rows, 16 for their
# product and 32-34 for the tables, rounded up
_FOLD_BYTES = 64


def _fold(lam: int, selector, reduce) -> np.ndarray:
    """reduce over the selected frequencies of every mask's row at once, in
    O(lam * 2^lam): level j multiplies each row (mask bits 0..j-1) by bit j's
    |cos| and |sin| period, appending mask bit j, then reduces over frequency
    bit lam-j-1, which no later factor reads (0.0: unselected).  Every level
    reuses the same two arrays: the rows and their doubled product."""
    require_table_bytes(lam, _FOLD_BYTES, what="all-mask fold")
    cos_t, sin_t = _period_tables(lam)
    acc = np.zeros(1 << lam)
    acc[_selector_slice(lam, selector)] = 1.0
    prod = np.empty(2 << lam)
    for j in range(lam):
        n = 1 << (lam - j)
        rows, pairs = acc.reshape(-1, n), prod.reshape(2, -1, n)
        np.multiply(rows, cos_t[j][:n], out=pairs[0])
        np.multiply(rows, sin_t[j][:n], out=pairs[1])
        halves = prod.reshape(-1, 2, n // 2)
        reduce(halves[:, 0], halves[:, 1], out=acc.reshape(-1, n // 2))
    return acc


def all_mask_l1(lam: int, selector=None) -> np.ndarray:
    """l1 norm of the coefficient table for every mask at once, by the sum
    fold: its float additions pair up frequencies by bit, so a mask's value
    can differ from l1_accumulate's in the last bits."""
    return _fold(lam, selector or FullRange(), np.add)


def all_mask_sup(lam: int, selector=None) -> np.ndarray:
    """Sup norm of the coefficient table for every mask, by the max fold:
    rounding x * c is monotone in x for c >= 0, so max-then-multiply gives
    _row(lam, bits)[sel].max() bit for bit, in the same order j = 0..lam-1."""
    return _fold(lam, selector or FullRange(), np.maximum)
