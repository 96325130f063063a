"""Exact desk-scale evaluation of the correlation and bilinear-sum objects.

Ranges are dyadic throughout: m ~ M means M <= m < 2M with M = 2^mu.  A
product m*n with m ~ 2^mu, n ~ 2^nu needs mu+nu+2 bits, so Walsh masks here
live in that extended ambient width and are read at absolute bit positions.
Every quantity is computed exactly and compared against its predicted bound;
the implied constants are measured, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximant import _synthesize
from .fwht import max_correlation, prefix_max_correlations
from .lemmas import CheckReport, _ratio
from .sieve import ArithmeticSequence, sequence
from .walsh import walsh_signs, walsh_table, WalshMask

CARRY_BRACKET = 8.0   # measured rates stay below 0.53 * 2^(-eps*rho) on the grid
SPLIT_BRACKET = 8.0   # measured L1 truncation error stays below 2.1 * 2^(-H)
S2_CAP = 8            # largest high-half weight a split accepts


@dataclass(frozen=True)
class BilinearConfig:
    """Ranges, mask, coefficients, and shift structure for the sum objects.

    s_bits is read in the lam+2 = mu+nu+2 bit ambient width.  L = 2^rho
    shifts of scale 2^K must stay inside the inner range (L * 2^K < N).
    K is admissible when it is 0 or mu-rho <= K < lam-mu-rho (half-open).
    The inner coefficient table beta (length N) is bounded by 1 in absolute
    value; None means all-ones.  Outer coefficients need no table: they
    enter every sum only through |alpha| <= 1.
    """

    s_bits: int
    mu: int
    nu: int
    rho: int = 1
    k_shift: int = 0
    epsilon: float = 0.5
    beta: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.mu <= self.nu:
            raise ValueError(f"need 1 <= mu <= nu, got mu={self.mu}, nu={self.nu}")
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if not 0 <= self.s_bits < (1 << self.lam_prime):
            raise ValueError(
                f"mask {self.s_bits:#x} needs more than {self.lam_prime} bits"
            )
        if self.k_shift != 0 and not (
            self.mu - self.rho <= self.k_shift < self.lam - self.mu - self.rho
        ):
            raise ValueError(
                f"shift scale K={self.k_shift} is not admissible: need K=0 or "
                f"{self.mu - self.rho} <= K < {self.lam - self.mu - self.rho}"
            )
        if self.shift_count << self.k_shift >= self.n_count:
            raise ValueError(
                f"shift span L*2^K = {self.shift_count << self.k_shift} "
                f"must stay below N = {self.n_count}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.beta is not None:
            if len(self.beta) != self.n_count:
                raise ValueError(f"beta must have length {self.n_count}")
            if np.abs(np.asarray(self.beta, dtype=np.float64)).max() > 1.0 + 1e-12:
                raise ValueError("beta entries must satisfy |.| <= 1")

    @property
    def lam(self) -> int:
        return self.mu + self.nu

    @property
    def lam_prime(self) -> int:
        """Bits needed to index any product mn < 4MN."""
        return self.mu + self.nu + 2

    @property
    def m_count(self) -> int:
        return 1 << self.mu

    @property
    def n_count(self) -> int:
        return 1 << self.nu

    @property
    def shift_count(self) -> int:
        return 1 << self.rho

    @property
    def advisories(self) -> list[str]:
        """Regime flags that are recorded, not enforced."""
        notes = []
        if self.rho >= self.mu / 100.0:
            notes.append("shift count is large relative to the inner regime (rho >= mu/100)")
        if (self.epsilon * self.rho) % 1.0 != 0.0:
            notes.append("eps*rho is not an integer; the digit window rounds up")
        return notes

    def beta_table(self) -> np.ndarray:
        if self.beta is None:
            return np.ones(self.n_count, dtype=np.float64)
        return np.asarray(self.beta, dtype=np.float64)


def coefficient_table(kind: str, count: int, seed: int) -> np.ndarray | None:
    """Generator for beta tables: all-ones or seeded signs."""
    if kind == "ones":
        return None
    if kind == "random":
        # key [seed, 2, count]: the 2 once told beta from alpha, and stays so
        # each seed draws the signs it always did (perfbench's oracle redraws them)
        rng = np.random.default_rng([seed, 2, count])
        return (rng.integers(0, 2, size=count) * 2 - 1).astype(np.float64)
    raise ValueError(f"unknown coefficient kind {kind!r}")


def _ranges(config: BilinearConfig):
    m = np.arange(config.m_count, 2 * config.m_count, dtype=np.int64)
    n = np.arange(config.n_count, 2 * config.n_count, dtype=np.int64)
    return m, n


# ---------------------------------------------------------------------------
# sum objects


def bilinear_sum(config: BilinearConfig) -> float:
    """sum over m ~ M of |sum over n ~ N of beta_n w_S(m n)|.

    The outer coefficients enter the estimate only through |alpha| <= 1, so
    the dominating absolute form is the computed quantity.
    """
    m, n = _ranges(config)
    beta = config.beta_table()
    total = 0.0
    for mv in m:
        signs = walsh_signs(config.s_bits, mv * n)
        total += abs(float(np.dot(beta, signs.astype(np.float64))))
    return total


@dataclass(frozen=True)
class QuadFormResult:
    value: float
    clipped_terms: int
    prefactor: float  # the M*N/L factor, reported alongside, never multiplied in


def shifted_quadratic_form(config: BilinearConfig) -> QuadFormResult:
    """sum over n ~ N, |l| < L of |sum over m ~ M of w_S(mn) w_S(m(n+l*2^K))|.

    One int8 sign table covers every row the shifts reach,
    [N - (L-1)*2^K, 2N + (L-1)*2^K) by m ~ M; each shift l is then a
    row-wise product-sum of two slices of it.  All arithmetic is integer,
    so the value is exact.  The l = 0 diagonal contributes exactly N*M.
    Shifted arguments are always positive under the L*2^K < N
    precondition; nonpositive ones (unreachable through validated configs)
    are skipped and counted in clipped_terms.  The M*N/L prefactor of the
    enclosing estimate is reported separately, never multiplied in.
    """
    m, _ = _ranges(config)
    big_n, big_l = config.n_count, config.shift_count
    step = 1 << config.k_shift
    lo = max(big_n - (big_l - 1) * step, 1)
    hi = 2 * big_n + (big_l - 1) * step
    # the table has fewer than 3N rows (1-byte cells); signing N/4 rows at a
    # time keeps a block's int64 products and masked bits near 4 bytes per
    # entry of M*N, so the whole stays within the 8 B/entry the CLI charges
    table = np.empty((hi - lo, len(m)), dtype=np.int8)
    block = max(big_n // 4, 1)
    for start in range(lo, hi, block):
        rows = np.arange(start, min(start + block, hi), dtype=np.int64)
        table[start - lo : start - lo + len(rows)] = walsh_signs(
            config.s_bits, np.outer(rows, m)
        )
    base = table[big_n - lo : 2 * big_n - lo]
    total = 0
    clipped = 0
    for ell in range(-big_l + 1, big_l):
        first = big_n + ell * step
        skip = min(max(1 - first, 0), big_n)  # rows with n + l*2^K <= 0
        clipped += skip * len(m)
        rows = table[first + skip - lo : first + big_n - lo]
        dots = (base[skip:] * rows).sum(axis=1, dtype=np.int64)
        total += int(np.abs(dots).sum())
    prefactor = config.m_count * config.n_count / big_l
    return QuadFormResult(float(total), clipped, prefactor)


@dataclass(frozen=True)
class CarryResult:
    rate: float
    low_rate: float            # digit changes strictly below position K
    bad_count: int
    low_count: int
    total: int
    first_checked_bit: int     # smallest position counted as the high window


def carry_truncation_rate(config: BilinearConfig) -> CarryResult:
    """Fraction of (m, n, l) triples, l != 0, where the digits of m*n and
    m*(n + l*2^K) differ above the carry window or below the shift scale.

    Adding l*2^K changes digits from position K upward; carries normally die
    out within about mu+rho positions, so differences above
    K + mu + rho + eps*rho are the rare carry-propagation events being
    rated.  Differences below K are impossible and counted separately as a
    sanity channel (always zero).
    """
    m, n = _ranges(config)
    tau = config.k_shift + config.mu + config.rho + config.epsilon * config.rho
    first_bad = math.floor(tau) + 1
    low_mask = (1 << config.k_shift) - 1
    # XORs of nonnegative products have no sign bit, so a set bit at or
    # above first_bad (capped at the sign bit) or below K is a bad triple
    outside = low_mask | ~((1 << min(first_bad, 63)) - 1)
    steps = [ell << config.k_shift
             for ell in range(-config.shift_count + 1, config.shift_count) if ell]
    # blocks of about 1 MiB per buffer, all allocated once
    rows = max((1 << 17) // len(n), 1)
    mn = np.empty((rows, len(n)), dtype=np.int64)
    diff = np.empty_like(mn)
    hits = np.empty_like(mn)
    bad = 0
    low = 0
    for lo in range(0, len(m), rows):
        mb = m[lo : lo + rows, None]
        base, d, h = mn[: len(mb)], diff[: len(mb)], hits[: len(mb)]
        np.multiply(mb, n, out=base)
        for step in steps:
            # m*(n + step) = m*n + m*step
            np.add(base, mb * step, out=d)
            np.bitwise_xor(d, base, out=d)
            low += int(np.count_nonzero(np.bitwise_and(d, low_mask, out=h)))
            bad += int(np.count_nonzero(np.bitwise_and(d, outside, out=h)))
    total = len(m) * len(n) * len(steps)
    if total == 0:
        return CarryResult(0.0, 0.0, 0, 0, 0, first_bad)
    return CarryResult(bad / total, low / total, bad, low, total, first_bad)


# ---------------------------------------------------------------------------
# spectral split of a mask into low and high halves


@dataclass(frozen=True)
class SplitConfig:
    """Split S into S1 (positions below lam-2mu) and S2 (the rest); the S2
    factor product is truncated to its 2^H dominant modes per factor.
    |S2| is capped at S2_CAP."""

    s_bits: int
    lam: int
    mu: int
    h_param: int

    def __post_init__(self):
        if not 0 <= self.s_bits < (1 << self.lam):
            raise ValueError(f"mask {self.s_bits:#x} out of range for lam={self.lam}")
        if self.lam > 16:
            raise ValueError(f"split evaluation is capped at lam <= 16, got {self.lam}")
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.h_param < 1:
            raise ValueError("h_param must be >= 1")
        if self.s2_weight > S2_CAP:
            raise ValueError(f"|S2| = {self.s2_weight} exceeds the cap {S2_CAP}")
        if self.h_param * self.s2_weight > 20:
            raise ValueError("truncated frequency set would exceed 2^20 tuples")

    @property
    def split_position(self) -> int:
        return max(self.lam - 2 * self.mu, 0)

    @property
    def s1_bits(self) -> int:
        return self.s_bits & ((1 << self.split_position) - 1)

    @property
    def s2_bits(self) -> int:
        return self.s_bits & ~((1 << self.split_position) - 1)

    @property
    def s2_weight(self) -> int:
        return self.s2_bits.bit_count()

    @property
    def advisories(self) -> list[str]:
        if self.s2_weight >= self.h_param:
            return ["high-half weight is not small next to H (|S2| >= C*H)"]
        return []


@dataclass(frozen=True)
class SplitResult:
    frequencies: np.ndarray    # int64, sorted, mod 2^lam
    coefficients: np.ndarray   # complex, aligned with frequencies
    l1_error: float            # mean |truncation - w_{S2}| over x < 2^lam
    size_cap: int              # 2^(H |S2|)


def _square_wave_modes(h_param: int) -> list[tuple[int, complex]]:
    """The 2^H largest square-wave Fourier modes, in the fixed order
    1, -1, 3, -3, ...  The mode at odd r carries coefficient -2i/(pi r)."""
    modes = []
    r = 1
    while len(modes) < (1 << h_param):
        for signed in (r, -r):
            if len(modes) == (1 << h_param):
                break
            modes.append((signed, -2j / (math.pi * signed)))
        r += 2
    return modes


def spectral_split(config: SplitConfig) -> SplitResult:
    """Truncate each square-wave factor of the high half to 2^H modes and
    multiply out, returning the product frequency set and its exact mean
    absolute error against w_{S2}.

    The 2^(H |S2|) mode tuples form an iterated outer sumset, one factor per
    S2 position from the lowest up, merged by frequency; a frequency whose
    merged coefficient cancels to zero stays in the set.  The truncation is
    put on the 2^lam grid by one inverse FFT."""
    lam = config.lam
    n = 1 << lam
    modes = _square_wave_modes(config.h_param)
    rs = np.array([r for r, _ in modes], dtype=np.int64)
    cs = np.array([c for _, c in modes], dtype=np.complex128)
    tuple_freqs = np.zeros(1, dtype=np.int64)
    tuple_coefs = np.ones(1, dtype=np.complex128)
    for j in range(lam):
        if (config.s2_bits >> j) & 1:
            tuple_freqs = np.add.outer(tuple_freqs, rs << (lam - j - 1)).ravel() % n
            tuple_coefs = np.multiply.outer(tuple_coefs, cs).ravel()
    freqs, slot = np.unique(tuple_freqs, return_inverse=True)
    coeffs = np.zeros(len(freqs), dtype=np.complex128)
    np.add.at(coeffs, slot, tuple_coefs)
    vals = _synthesize(lam, freqs, coeffs)
    w = walsh_table(WalshMask(config.s2_bits, lam)).astype(np.float64)
    err = float(np.abs(vals - w).sum())
    return SplitResult(freqs, coeffs, err / n, 1 << (config.h_param * config.s2_weight))


# ---------------------------------------------------------------------------
# correlation scans and report builders


def correlation_report(seq: ArithmeticSequence) -> CheckReport:
    """Max |correlation| of a sign table against 2^(lam - lam^(1/10)).

    Records the argmax mask, its weight, and the empirical exponent
    log2 |value| / lam (None for an identically-zero table).
    """
    return _correlation_check(seq.lam, seq.kind, *max_correlation(seq))


def _correlation_check(lam: int, kind: str, mask: WalshMask, value: int) -> CheckReport:
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
    return CheckReport("THM1", params, lhs, rhs, _ratio(lhs, rhs), None, lhs < rhs)


def theorem_scan(
    kind: str, lambdas, max_mem_gib: float | None = None
) -> list[CheckReport]:
    """correlation_report for each lam, in the order given.

    One sieve at the largest lam serves them all, since its table holds
    every smaller table as its prefix, and one transform of it yields every
    prefix's peak (fwht.prefix_max_correlations).
    """
    if kind not in ("moebius", "liouville"):
        raise ValueError(f"theorem_scan supports moebius and liouville, got {kind!r}")
    lambdas = list(lambdas)
    if not lambdas:
        return []
    steps = sorted(set(lambdas))
    seq = sequence(kind, steps[-1], max_mem_gib=max_mem_gib)
    peaks = dict(zip(steps, prefix_max_correlations(seq, steps, max_mem_gib=max_mem_gib)))
    return [_correlation_check(lam, kind, *peaks[lam]) for lam in lambdas]


def cauchy_schwarz_chain(config: BilinearConfig) -> CheckReport:
    """(bilinear sum)^2 against (MN/L) * (2L-1) * quadratic form.

    The testable shape of the range-splitting step: squaring the outer sum
    and shift-averaging the inner variable dominates the bilinear sum by the
    shifted quadratic form times MN/L.
    """
    bil = bilinear_sum(config)
    quad = shifted_quadratic_form(config)
    lhs = bil * bil
    rhs = quad.prefactor * (2 * config.shift_count - 1) * quad.value
    params = {
        "lambda": config.lam,
        "mask": config.s_bits,
        "mu": config.mu,
        "nu": config.nu,
        "rho": config.rho,
        "k_shift": config.k_shift,
        "bilinear": bil,
        "quadform": quad.value,
        "prefactor": quad.prefactor,
        "clipped_terms": quad.clipped_terms,
        "advisories": config.advisories,
    }
    fitted = _ratio(lhs, rhs)
    return CheckReport("BILIN", params, lhs, rhs, fitted, fitted,
                       lhs <= rhs * (1.0 + 1e-12))


def quadform_report(config: BilinearConfig) -> CheckReport:
    """Quadratic form against its trivial bound (2L-1) * N * M."""
    quad = shifted_quadratic_form(config)
    rhs = (2 * config.shift_count - 1) * config.n_count * config.m_count
    params = {
        "lambda": config.lam,
        "mask": config.s_bits,
        "mu": config.mu,
        "nu": config.nu,
        "rho": config.rho,
        "k_shift": config.k_shift,
        "prefactor": quad.prefactor,
        "clipped_terms": quad.clipped_terms,
        "advisories": config.advisories,
    }
    return CheckReport("QUAD", params, quad.value, float(rhs),
                       _ratio(quad.value, rhs), None,
                       quad.value <= rhs + 1e-9)


def type1_report(s_bits: int, mu: int, nu: int) -> CheckReport:
    """Type-I sum (the bilinear sum with all-ones beta) against its trivial
    bound M * N."""
    value = bilinear_sum(BilinearConfig(s_bits=s_bits, mu=mu, nu=nu))
    rhs = float((1 << mu) * (1 << nu))
    params = {"lambda": mu + nu, "mask": s_bits, "mu": mu, "nu": nu}
    return CheckReport("TYPE1", params, value, rhs, _ratio(value, rhs), None,
                       value <= rhs + 1e-9)


def carry_report(config: BilinearConfig) -> CheckReport:
    """Measured carry-escape rate against CARRY_BRACKET * 2^(-eps*rho)."""
    res = carry_truncation_rate(config)
    scale = 2.0 ** (-config.epsilon * config.rho)
    rhs = CARRY_BRACKET * scale
    params = {
        "lambda": config.lam,
        "mask": config.s_bits,
        "mu": config.mu,
        "nu": config.nu,
        "rho": config.rho,
        "k_shift": config.k_shift,
        "epsilon": config.epsilon,
        "low_rate": res.low_rate,
        "bad_count": res.bad_count,
        "total": res.total,
        "first_checked_bit": res.first_checked_bit,
        "advisories": config.advisories,
    }
    fitted = res.rate / scale
    passed = res.rate <= rhs and res.low_rate == 0.0
    return CheckReport("CARRY", params, res.rate, rhs, _ratio(res.rate, rhs),
                       fitted, passed)


def split_report(config: SplitConfig) -> CheckReport:
    """Truncation L1 error against SPLIT_BRACKET * 2^(-H), with the size cap."""
    res = spectral_split(config)
    scale = 2.0 ** (-config.h_param)
    rhs = SPLIT_BRACKET * scale
    params = {
        "lambda": config.lam,
        "mask": config.s_bits,
        "mu": config.mu,
        "h_param": config.h_param,
        "s1_bits": config.s1_bits,
        "s2_bits": config.s2_bits,
        "set_size": int(len(res.frequencies)),
        "size_cap": res.size_cap,
        "advisories": config.advisories,
    }
    fitted = res.l1_error / scale
    passed = res.l1_error <= rhs and len(res.frequencies) <= res.size_cap
    return CheckReport("SPLIT", params, res.l1_error, rhs,
                       _ratio(res.l1_error, rhs), fitted, passed)
