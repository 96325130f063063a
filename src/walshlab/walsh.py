"""Walsh functions and their trigonometric Fourier coefficients.

w_A(x) = prod_{j in A} (1 - 2 x_j) over the binary digits x_j of x, i.e. the
parity character (-1)^{popcount(A & x)}.  Its coefficient against the
additive character e(kx/2^lam) is an exact product of lam binomial factors,
one per bit, with magnitude prod |cos| over bits outside A times prod |sin|
over bits inside A.  The factor for bit j depends only on k mod 2^(lam-j)
and on whether j is in A, so each lambda caches |cos| and |sin| over one
period per bit, and a mask's magnitude row is lam broadcast multiplies of
those tables with no trigonometric call.  No dense spectrum is stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


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
# scalar operations


def walsh_eval(mask: WalshMask, x: int) -> int:
    """w_A(x) for an integer point 0 <= x < 2^lam."""
    if not 0 <= x < (1 << mask.lam):
        raise ValueError(f"x={x} out of range for lam={mask.lam}")
    return -1 if (mask.bits & x).bit_count() & 1 else 1


# ---------------------------------------------------------------------------
# vectorized kernels


# cached per lambda (about 2 MiB at lam=16), never per mask
@functools.cache
def _period_tables(lam: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Read-only |cos| and |sin| factors of each bit j over its period
    2^(lam-j), tiled up to min(2^lam, 1024) entries when shorter, because a
    multiply that broadcasts a 2- or 4-wide factor is slow."""
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


def magnitude_row(lam: int, bits: int, ks: np.ndarray) -> np.ndarray:
    """|coefficient| for one mask at many frequencies (any integers, read
    mod 2^lam); one full row of 2^lam entries is built whatever len(ks)."""
    ks = np.asarray(ks, dtype=np.int64)
    return _row(lam, bits)[ks & ((1 << lam) - 1)]


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
    xs = np.arange(1 << mask.lam, dtype=np.int64)
    return walsh_signs(mask.bits, xs)


def walsh_signs(bits: int, args: np.ndarray) -> np.ndarray:
    """Parity character of masked bits, for arbitrary nonnegative integers.

    Positions above the mask's top bit never contribute, so arguments wider
    than the mask's ambient bit-length are fine.
    """
    args = np.asarray(args)
    parity = np.bitwise_count(np.bitwise_and(args, np.int64(bits))) & 1
    return (1 - 2 * parity.astype(np.int8)).astype(np.int8)


# ---------------------------------------------------------------------------
# norms over a frequency selector


def l1_accumulate(mask: WalshMask, selector=FullRange()) -> float:
    """Sum of coefficient magnitudes over the selected frequencies."""
    sel = _selector_slice(mask.lam, selector)
    return float(_row(mask.lam, mask.bits)[sel].sum())


def sup_norm(mask: WalshMask, selector=FullRange()) -> float:
    """Largest coefficient magnitude over the selected frequencies."""
    sel = _selector_slice(mask.lam, selector)
    return float(_row(mask.lam, mask.bits)[sel].max())


# ---------------------------------------------------------------------------
# exhaustive mask sweeps (product tree over shared factor prefixes)


def mask_sweep(lam: int, selector, reduce_fn) -> np.ndarray:
    """Apply reduce_fn to every mask's magnitude row, sharing prefix products.

    Factor rows of the selected frequencies come from the period tables; a
    depth-first product tree writes each prefix product in place into one of
    lam+1 preallocated rows (O(2^(lam+1)) vector multiplies, no allocation
    per node) in the per-mask factor order, so results are bit-identical.
    """
    ks = np.arange(1 << lam, dtype=np.int64)[_selector_slice(lam, selector)]
    cos_t, sin_t = _period_tables(lam)
    cos_f = [t[ks & (len(t) - 1)] for t in cos_t]
    sin_f = [t[ks & (len(t) - 1)] for t in sin_t]
    depth = [np.ones(len(ks))] + [np.empty(len(ks)) for _ in range(lam)]
    out = np.empty(1 << lam, dtype=np.float64)

    def rec(j: int, bits: int):
        if j == lam:
            out[bits] = reduce_fn(depth[lam])
            return
        np.multiply(depth[j], cos_f[j], out=depth[j + 1])
        rec(j + 1, bits)
        np.multiply(depth[j], sin_f[j], out=depth[j + 1])
        rec(j + 1, bits | (1 << j))

    rec(0, 0)
    return out


def all_mask_l1(lam: int, selector=None) -> np.ndarray:
    """l1 norm of the coefficient table for every mask at once."""
    return mask_sweep(lam, selector or FullRange(), np.add.reduce)


def all_mask_sup(lam: int, selector=None) -> np.ndarray:
    """Sup norm of the coefficient table for every mask at once."""
    return mask_sweep(lam, selector or FullRange(), np.maximum.reduce)
