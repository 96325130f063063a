"""Exact desk-scale evaluation of the correlation and bilinear-sum objects.

Ranges are dyadic throughout: m ~ M means M <= m < 2M with M = 2^mu.  A
product m*n with m ~ 2^mu, n ~ 2^nu needs mu+nu+2 bits, so Walsh masks here
live in that extended ambient width and are read at absolute bit positions.
Every quantity is computed exactly and compared against its predicted bound;
the implied constants are measured, never assumed.  The sum objects form
their products in the narrowest exact integer width (_product_dtype); the
shifted quadratic form works on parity bits packed 8 per byte along m.
Each charges its blocks, tables and N-entry vectors before allocating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limits import require_bytes
from .report import CheckReport
from .walsh import walsh_signs, walsh_table, WalshMask

CARRY_BRACKET = 8.0   # measured rates stay below 0.53 * 2^(-eps*rho) on the grid
SPLIT_BRACKET = 8.0   # measured L1 truncation error stays below 2.1 * 2^(-H)
S2_CAP = 8            # largest high-half weight a split accepts
_SUM_SCRATCH = 1 << 16  # numpy's small buffers: about 35 KiB at mu4 nu10
# a split's mode tuple: frequency, coefficient, np.unique's copies and
# inverse (tracemalloc: 65.0-65.2 B per tuple at 2^16-2^20 tuples); each
# factor's modes, an int64 frequency and a complex coefficient, beside them
_TUPLE_BYTES = 72
_MODE_BYTES = 24


@dataclass(frozen=True)
class BilinearConfig:
    """Ranges, mask, and shift structure for the sum objects.

    s_bits is read in the lam+2 = mu+nu+2 bit ambient width.  L = 2^rho
    shifts of scale 2^K must stay inside the inner range (L * 2^K < N).
    K is admissible when it is 0 or mu-rho <= K < lam-mu-rho (half-open).
    """

    s_bits: int
    mu: int
    nu: int
    rho: int = 1
    k_shift: int = 0
    epsilon: float = 0.5

    def __post_init__(self):
        if not 1 <= self.mu <= self.nu:
            raise ValueError(f"need 1 <= mu <= nu, got mu={self.mu}, nu={self.nu}")
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if not 0 <= self.s_bits < (1 << self.lam_prime):
            raise ValueError(f"mask {self.s_bits:#x} out of range for {self.lam_prime} bits")
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


def coefficient_table(kind: str, count: int, seed: int) -> np.ndarray | None:
    """Generator for beta tables: all-ones or seeded signs, charged before
    they are drawn."""
    if kind == "ones":
        return None
    if kind == "random":
        require_bytes(16 * count + _SUM_SCRATCH, f"beta table of {count} entries",
                      "16 per entry for the draws and their float64 copy")
        # key [seed, 2, count]: the 2 once told beta from alpha, and stays so
        # each seed draws the signs it always did (perfbench's oracle redraws them)
        rng = np.random.default_rng([seed, 2, count])
        return (rng.integers(0, 2, size=count) * 2 - 1).astype(np.float64)
    raise ValueError(f"unknown coefficient kind {kind!r}")


def _product_dtype(config: BilinearConfig):
    """The integer width every sum object forms its products in.

    Each product is m*(n + l*2^K) with m < 2M and n + l*2^K < 3N (L*2^K < N),
    so int32 is exact whenever 6*M*N < 2^31, which holds for every config up
    to mu+nu = 28; int64 otherwise."""
    return np.int32 if 6 * config.m_count * config.n_count < 1 << 31 else np.int64


def _require_sum_bytes(config: BilinearConfig, what: str, fixed: int, per_n: int) -> None:
    """Charge a sum object fixed bytes of blocks and tables, and per_n bytes
    per n ~ N besides the 8-byte beta entries."""
    require_bytes(fixed + (8 + per_n) * config.n_count + _SUM_SCRATCH,
                  f"{what} at mu={config.mu}, nu={config.nu}",
                  f"{fixed} of blocks and tables, {8 + per_n} per entry over N={config.n_count}")


def _ranges(config: BilinearConfig):
    dtype = _product_dtype(config)
    m = np.arange(config.m_count, 2 * config.m_count, dtype=dtype)
    n = np.arange(config.n_count, 2 * config.n_count, dtype=dtype)
    return m, n


# ---------------------------------------------------------------------------
# sum objects


def bilinear_sum(config: BilinearConfig, beta: np.ndarray | None = None) -> float:
    """sum over m ~ M of |sum over n ~ N of beta_n w_S(m n)|.

    The inner coefficient table beta (length N) is bounded by 1 in absolute
    value; None means all-ones.  The outer coefficients enter the estimate
    only through |alpha| <= 1, so they need no table: the dominating
    absolute form is the computed quantity.
    """
    if beta is not None:
        if len(beta) != config.n_count:
            raise ValueError(f"beta must have length {config.n_count}")
        beta = np.asarray(beta, dtype=np.float64)
        if np.abs(beta).max() > 1.0 + 1e-12:
            raise ValueError("beta entries must satisfy |.| <= 1")
    item = np.dtype(_product_dtype(config)).itemsize
    # a row's products and their masked copy, then its float64 signs
    _require_sum_bytes(config, "bilinear sum", 0, 2 * item + 8)
    m, n = _ranges(config)
    if beta is None:
        beta = np.ones(config.n_count, dtype=np.float64)
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

    One table holds the parity bits of w_S(mn) for every row the shifts
    reach, [N - (L-1)*2^K, 2N + (L-1)*2^K), packed 8 per byte along m ~ M
    with zero padding.  Each shift l then takes a row's inner sum as
    M - 2*popcount(base row XOR shifted row), exact integer arithmetic.
    The l = 0 diagonal contributes exactly N*M.  Shifted arguments are
    always positive under the L*2^K < N precondition; nonpositive ones
    (unreachable through validated configs) are skipped and counted in
    clipped_terms.  The M*N/L prefactor of the enclosing estimate is
    reported separately, never multiplied in.
    """
    big_m, big_n, big_l = config.m_count, config.n_count, config.shift_count
    step = 1 << config.k_shift
    lo = max(big_n - (big_l - 1) * step, 1)
    hi = 2 * big_n + (big_l - 1) * step
    # fewer than 3N rows of M/8 bytes (768 KiB at mu7 nu14 rho3), stored
    # word-major in words of up to 8 bytes so each shift's XOR and popcount
    # run over contiguous rows, and filled from blocks of about 1 MiB of
    # products and their parity bytes.  Each shift then holds int64 flip
    # counts, a row's XOR and popcounts, and |M - 2 flips|: 32 B per n
    row_bytes = (big_m + 7) // 8
    item = np.dtype(_product_dtype(config)).itemsize
    block = max((1 << 20) // (item * big_m), 1)
    _require_sum_bytes(config, "quadratic form",
                       row_bytes * (hi - lo) + block * big_m * (item + 1), 32)
    m, _ = _ranges(config)
    word = np.dtype(f"u{min(row_bytes, 8)}")
    table = np.empty((row_bytes // word.itemsize, hi - lo), dtype=word)
    prods = np.empty((block, big_m), dtype=m.dtype)
    bits = np.empty((block, big_m), dtype=np.uint8)
    mask = m.dtype.type(config.s_bits)
    for start in range(lo, hi, block):
        rows = np.arange(start, min(start + block, hi), dtype=m.dtype)
        p, b = prods[: len(rows)], bits[: len(rows)]
        np.multiply(rows[:, None], m, out=p)
        np.bitwise_count(np.bitwise_and(p, mask, out=p), out=b)
        b &= 1
        table[:, start - lo : start - lo + len(rows)] = np.packbits(b, axis=1).view(word).T
    base = table[:, big_n - lo : 2 * big_n - lo]
    total = 0
    clipped = 0
    for ell in range(-big_l + 1, big_l):
        first = big_n + ell * step
        skip = min(max(1 - first, 0), big_n)  # rows with n + l*2^K <= 0
        clipped += skip * big_m
        shifted = table[:, first + skip - lo : first + big_n - lo]
        flips = np.zeros(big_n - skip, dtype=np.int64)
        for here, there in zip(base[:, skip:], shifted):
            flips += np.bitwise_count(here ^ there)
        total += int(np.abs(big_m - 2 * flips).sum())
    prefactor = big_m * big_n / big_l
    return QuadFormResult(float(total), clipped, prefactor)


@dataclass(frozen=True)
class CarryResult:
    rate: float
    low_rate: float            # digit changes strictly below position K
    bad_count: int
    low_count: int
    total: int
    first_checked_bit: int     # smallest position counted as the high window


def _both_signs(row: np.ndarray, step: int, n_count: int) -> int:
    """Nonzero entries among the triples (n, l) and (n, -l) of a step's row."""
    return int(np.count_nonzero(row[:, step:]) + np.count_nonzero(row[:, :n_count]))


def carry_truncation_rate(config: BilinearConfig) -> CarryResult:
    """Fraction of (m, n, l) triples, l != 0, where the digits of m*n and
    m*(n + l*2^K) differ above the carry window or below the shift scale.

    Adding l*2^K changes digits from position K upward; carries normally die
    out within about mu+rho positions, so differences above
    K + mu + rho + eps*rho are the rare carry-propagation events being
    rated.  Differences below K are impossible and counted separately as a
    sanity channel (always zero).
    """
    item = np.dtype(_product_dtype(config)).itemsize
    span = (config.shift_count - 1) << config.k_shift
    cols = config.n_count + 2 * span  # every shifted n
    rows = max((1 << 20) // (item * cols), 1)
    _require_sum_bytes(config, "carry rate", rows * (cols * item + (cols - span) * (item + 1)),
                       2 * item)
    m, n = _ranges(config)
    tau = config.k_shift + config.mu + config.rho + config.epsilon * config.rho
    first_bad = math.floor(tau) + 1
    low_mask = (1 << config.k_shift) - 1
    # read as unsigned, an XOR with a set bit at or above first_bad is one
    # above 2^first_bad - 1; capping first_bad at the width's sign bit, which
    # no XOR of nonnegative products sets, keeps that bound in range
    above = (1 << min(first_bad, 8 * m.itemsize - 1)) - 1
    steps = [ell << config.k_shift for ell in range(1, config.shift_count)]
    # each block of m-rows takes its products with every n + l*2^K at once.
    # For a step l*2^K > 0, d = m*(n' + step) XOR m*n' over n' in
    # [N - step, 2N) holds both signs of l: its last N columns are the
    # triples (n, l), its first N the triples (n, -l) at n = n' + step.
    # Buffers of about 1 MiB each, all allocated once
    shifted = np.arange(n[0] - span, n[-1] + span + 1, dtype=m.dtype)
    prods = np.empty((rows, len(shifted)), dtype=m.dtype)
    unsigned = prods.view(f"u{m.itemsize}")
    diff = np.empty((rows, len(n) + span), dtype=unsigned.dtype)
    hits = np.empty(diff.shape, dtype=bool)
    bad = 0
    low = 0
    for lo in range(0, len(m), rows):
        mb = m[lo : lo + rows, None]
        np.multiply(mb, shifted, out=prods[: len(mb)])
        p = unsigned[: len(mb)]
        for step in steps:
            width = len(n) + step
            d, h = diff[: len(mb), :width], hits[: len(mb), :width]
            np.bitwise_xor(p[:, span : span + width], p[:, span - step : span - step + width],
                           out=d)
            np.greater(d, above, out=h)
            if low_mask:  # the window below K is empty when K = 0
                np.bitwise_and(d, low_mask, out=d)
                low += _both_signs(d, step, len(n))
                np.logical_or(h, d, out=h)
            bad += _both_signs(h, step, len(n))
    total = 2 * len(m) * len(n) * len(steps)
    if total == 0:
        return CarryResult(0.0, 0.0, 0, 0, 0, first_bad)
    return CarryResult(bad / total, low / total, bad, low, total, first_bad)


# ---------------------------------------------------------------------------
# spectral split of a mask into low and high halves


@dataclass(frozen=True)
class SplitConfig:
    """Split S into S1 (positions below lam-2mu) and S2 (the rest); the S2
    factor product is truncated to its 2^H dominant modes per factor.
    |S2| is capped at S2_CAP, and lam at 62 so that the int64 frequencies
    hold 2^lam; spectral_split charges the 2^(H |S2|) mode tuples and the
    synthesis."""

    s_bits: int
    lam: int
    mu: int
    h_param: int

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam must be a positive bit length, got {self.lam}")
        if not 0 <= self.s_bits < (1 << self.lam):
            raise ValueError(f"mask {self.s_bits:#x} out of range for lam={self.lam}")
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.h_param < 1:
            raise ValueError("h_param must be >= 1")
        if self.s2_weight > S2_CAP:
            raise ValueError(f"|S2| = {self.s2_weight} exceeds the cap {S2_CAP}")
        if self.lam > 62:
            raise ValueError(f"lam = {self.lam} exceeds 62: the split's int64 frequencies "
                             "must hold 2^lam")

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


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class SplitResult:
    frequencies: np.ndarray    # int64, sorted, mod 2^lam
    coefficients: np.ndarray   # complex, aligned with frequencies
    l1_error: float            # mean |truncation - w_{S2}| over x < 2^lam
    size_cap: int              # 2^(H |S2|)


def spectral_split(config: SplitConfig) -> SplitResult:
    """Truncate each square-wave factor of the high half to 2^H modes and
    multiply out, returning the product frequency set and its exact mean
    absolute error against w_{S2}.

    The 2^(H |S2|) mode tuples form an iterated outer sumset, one factor per
    S2 position from the lowest up, merged by frequency; a frequency whose
    merged coefficient cancels to zero stays in the set.  The truncation is
    put on the 2^lam grid by one inverse FFT."""
    tuples = 1 << (config.h_param * config.s2_weight)
    require_bytes(_TUPLE_BYTES * tuples + (_MODE_BYTES << config.h_param),
                  f"split sumset of {tuples} mode tuples",
                  f"{_TUPLE_BYTES} per tuple, {_MODE_BYTES} per mode")
    lam = config.lam
    n = 1 << lam
    # the 2^H largest square-wave modes, r = 1, -1, 3, -3, ..., each -2i/(pi r)
    odd = np.arange(1, 1 << config.h_param, 2, dtype=np.int64)
    rs = np.stack([odd, -odd], axis=1).ravel()
    cs = -2j / (np.pi * rs)
    tuple_freqs = np.zeros(1, dtype=np.int64)
    tuple_coefs = np.ones(1, dtype=np.complex128)
    for j in range(lam):
        if (config.s2_bits >> j) & 1:
            tuple_freqs = np.add.outer(tuple_freqs, rs << (lam - j - 1)).ravel() % n
            tuple_coefs = np.multiply.outer(tuple_coefs, cs).ravel()
    freqs, slot = np.unique(tuple_freqs, return_inverse=True)
    coeffs = np.zeros(len(freqs), dtype=np.complex128)
    np.add.at(coeffs, slot, tuple_coefs)
    # only the split synthesizes: the other sum commands never load approximant
    from .approximant import _synthesize

    vals = _synthesize(lam, freqs, coeffs)
    vals -= walsh_table(WalshMask(config.s2_bits, lam))
    err = float(np.abs(vals).sum())
    return SplitResult(freqs, coeffs, err / n, tuples)


# ---------------------------------------------------------------------------
# report builders


def _bilinear_params(config: BilinearConfig, **extra) -> dict:
    """A bilinear-family report's params: the config's shape and advisories,
    then the report's own keys."""
    return {"lambda": config.lam, "mask": config.s_bits, "mu": config.mu, "nu": config.nu,
            "rho": config.rho, "k_shift": config.k_shift,
            "advisories": config.advisories, **extra}


def cauchy_schwarz_chain(config: BilinearConfig, beta: np.ndarray | None = None) -> CheckReport:
    """(bilinear sum with inner coefficients beta)^2 against
    (MN/L) * (2L-1) * quadratic form.

    The testable shape of the range-splitting step: squaring the outer sum
    and shift-averaging the inner variable dominates the bilinear sum by the
    shifted quadratic form times MN/L.  The form's l = 0 diagonal alone
    contributes N*M, so the right side is positive.
    """
    bil = bilinear_sum(config, beta)
    quad = shifted_quadratic_form(config)
    lhs = bil * bil
    rhs = quad.prefactor * (2 * config.shift_count - 1) * quad.value
    params = _bilinear_params(config, bilinear=bil, quadform=quad.value,
                              prefactor=quad.prefactor, clipped_terms=quad.clipped_terms)
    return CheckReport("BILIN", params, lhs, rhs, lhs / rhs, lhs <= rhs * (1.0 + 1e-12))


def quadform_report(config: BilinearConfig) -> CheckReport:
    """Quadratic form against its trivial bound (2L-1) * N * M."""
    quad = shifted_quadratic_form(config)
    rhs = (2 * config.shift_count - 1) * config.n_count * config.m_count
    params = _bilinear_params(config, prefactor=quad.prefactor,
                              clipped_terms=quad.clipped_terms)
    return CheckReport("QUAD", params, quad.value, rhs, None, quad.value <= rhs + 1e-9)


def type1_report(s_bits: int, mu: int, nu: int) -> CheckReport:
    """Type-I sum (the bilinear sum with all-ones beta) against its trivial
    bound M * N.  It has no shifts, so its config takes rho = 0."""
    value = bilinear_sum(BilinearConfig(s_bits=s_bits, mu=mu, nu=nu, rho=0))
    rhs = float((1 << mu) * (1 << nu))
    params = {"lambda": mu + nu, "mask": s_bits, "mu": mu, "nu": nu}
    return CheckReport("TYPE1", params, value, rhs, None, value <= rhs + 1e-9)


def carry_report(config: BilinearConfig) -> CheckReport:
    """Measured carry-escape rate against CARRY_BRACKET * 2^(-eps*rho)."""
    scale = 2.0 ** (-config.epsilon * config.rho)
    if scale == 0.0:
        raise ValueError(f"epsilon*rho = {config.epsilon * config.rho:g} puts the carry "
                         "bracket 2^(-epsilon*rho) below the smallest float")
    res = carry_truncation_rate(config)
    rhs = CARRY_BRACKET * scale
    params = _bilinear_params(config, epsilon=config.epsilon, low_rate=res.low_rate,
                              bad_count=res.bad_count, total=res.total,
                              first_checked_bit=res.first_checked_bit)
    fitted = res.rate / scale
    passed = res.rate <= rhs and res.low_rate == 0.0
    return CheckReport("CARRY", params, res.rate, rhs, fitted, passed)


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
    return CheckReport("SPLIT", params, res.l1_error, rhs, fitted, passed)
