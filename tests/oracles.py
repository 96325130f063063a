"""Independent reference implementations for cross-checking.

Everything here is deliberately written against different algorithms than
the package: factorization-based arithmetic functions instead of segmented
sieves, dense matrix transforms instead of butterflies, direct exponential
sums instead of product formulas, and plain Python loops for the sum
objects.  Slow is fine; agreeing by construction is not allowed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from walshlab import (
    ApproximantConfig,
    WalshMask,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    summarize,
)
from walshlab.lemmas import INTERVALS_PER_MASK, R_VALUES, T_GRID, mask_family


# ---------------------------------------------------------------------------
# arithmetic functions via smallest-prime-factor factorization


def spf_table(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n (spf[0] = spf[1] = 0)."""
    spf = np.zeros(limit, dtype=np.int64)
    if limit > 2:
        spf[2::2] = 2
    for p in range(3, int(limit**0.5) + 1, 2):
        if spf[p] == 0:
            sl = spf[p * p : limit : p]
            sl[sl == 0] = p
    # remaining zeros above 1 are primes
    rest = np.arange(limit, dtype=np.int64)
    primes_left = (spf == 0) & (rest >= 2)
    spf[primes_left] = rest[primes_left]
    return spf


def factor_counts(limit: int):
    """(omega_distinct, omega_total, squarefree flag, prime_power_base) per n.

    Vectorized repeated division by the smallest prime factor; the number
    of rounds is bounded by log2(limit).
    """
    spf = spf_table(limit)
    n = np.arange(limit, dtype=np.int64)
    rem = n.copy()
    rem[:2] = 1
    omega_total = np.zeros(limit, dtype=np.int64)
    squarefree = np.ones(limit, dtype=bool)
    squarefree[0] = False
    omega_distinct = np.zeros(limit, dtype=np.int64)
    while True:
        active = rem > 1
        if not active.any():
            break
        p = np.where(active, spf[rem], 0)
        omega_distinct += active
        # strip the full power of p, counting multiplicity
        mult = np.zeros(limit, dtype=np.int64)
        while True:
            div = active & (rem % np.where(p > 0, p, 2) == 0) & (p > 0)
            if not div.any():
                break
            rem[div] //= p[div]
            mult[div] += 1
            active = div
        squarefree &= mult <= 1
        omega_total += mult
    return omega_distinct, omega_total, squarefree


def moebius_values(limit: int) -> np.ndarray:
    distinct, total, squarefree = factor_counts(limit)
    out = np.zeros(limit, dtype=np.int64)
    out[squarefree] = np.where(distinct[squarefree] % 2 == 0, 1, -1)
    out[1] = 1
    out[0] = 0
    return out


def liouville_values(limit: int) -> np.ndarray:
    _, total, _ = factor_counts(limit)
    out = np.where(total % 2 == 0, 1, -1).astype(np.int64)
    out[0] = 0
    return out


def trial_division_signs(n: int) -> tuple[int, int]:
    """(moebius(n), liouville(n)) of one n >= 1 by trial division."""
    omega_total = 0
    squarefree = True
    p = 2
    while p * p <= n:
        mult = 0
        while n % p == 0:
            n //= p
            mult += 1
        omega_total += mult
        squarefree &= mult <= 1
        p += 1
    if n > 1:
        omega_total += 1
    liouville = -1 if omega_total % 2 else 1
    return (liouville if squarefree else 0), liouville


def trial_division_von_mangoldt(n: int) -> float:
    """Lambda(n) of one n >= 1 by trial division: log p when n is a power
    of its smallest prime factor p, else 0."""
    p = 2
    while p * p <= n and n % p:
        p += 1
    if p * p > n:  # n is 1 or prime
        return math.log(n)
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def von_mangoldt_values(limit: int) -> np.ndarray:
    """log p on prime powers, via direct enumeration of p^k <= limit."""
    out = np.zeros(limit, dtype=np.float64)
    spf = spf_table(limit)
    primes = np.nonzero((spf == np.arange(limit)) & (np.arange(limit) >= 2))[0]
    for p in primes:
        v = int(p)
        while v < limit:
            out[v] = math.log(p)
            v *= int(p)
    return out


def mertens(values: np.ndarray, x: int) -> int:
    return int(values[1 : x + 1].sum())


# ---------------------------------------------------------------------------
# dense transforms


def sign_matrix(lam: int) -> np.ndarray:
    """H[A, x] = (-1)^popcount(A & x), the full character table."""
    idx = np.arange(1 << lam, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    return (1 - 2 * parity.astype(np.int64)).astype(np.int64)


def naive_fwht(values: np.ndarray) -> np.ndarray:
    """O(4^lam) direct correlation table."""
    lam = int(np.log2(len(values)))
    h = sign_matrix(lam)
    if np.issubdtype(values.dtype, np.integer):
        return h @ values.astype(np.int64)
    return h.astype(np.float64) @ values


def axis_fwht(values: np.ndarray) -> np.ndarray:
    """Correlation table by a +-1 butterfly along each axis of the
    (2,)*lam reshape (one axis per bit), whole-array and unchunked; integer
    tables are summed in int64."""
    lam = len(values).bit_length() - 1
    if np.issubdtype(values.dtype, np.integer):
        values = values.astype(np.int64)
    t = values.reshape((2,) * lam)
    for axis in range(lam):
        a, b = np.take(t, 0, axis=axis), np.take(t, 1, axis=axis)
        t = np.stack([a + b, a - b], axis=axis)
    return t.reshape(-1)


def trig_magnitudes(lam: int, bits: int, ks) -> np.ndarray:
    """|w^_A(k)| as the per-frequency product over bits j = 0..lam-1 of
    |sin| (j in A) or |cos| (j not in A) at the exactly reduced angle
    pi * (k mod 2^(lam-j)) / 2^(lam-j), evaluated for every k on its own."""
    ks = np.asarray(ks, dtype=np.int64)
    acc = np.ones(ks.shape, dtype=np.float64)
    for j in range(lam):
        mod = 1 << (lam - j)
        ang = np.pi * ((ks & (mod - 1)) / mod)
        acc *= np.abs(np.sin(ang)) if (bits >> j) & 1 else np.abs(np.cos(ang))
    return acc


def dft_coefficients(samples: np.ndarray) -> np.ndarray:
    """c_k with samples[x] = sum_k c_k e(+kx/n), by direct exponential sum."""
    n = len(samples)
    x = np.arange(n)
    e = np.exp(-2j * np.pi * np.outer(np.arange(n), x) / n)
    return (e @ samples.astype(np.complex128)) / n


def unit_roots(n: int, dtype=np.clongdouble) -> np.ndarray:
    """e(r/n) for r < n in the given complex precision; pi is taken from
    arccos(-1) at the matching real precision."""
    real = np.finfo(dtype).dtype.type
    theta = (2 * np.arccos(real(-1)) / n) * np.arange(n, dtype=real)
    out = np.empty(n, dtype=dtype)
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def direct_synthesis(ks, coef, n: int, dtype=np.clongdouble) -> np.ndarray:
    """sum over k of coef_k e(+kx/n) for every x < n, by direct exponential
    sum over exactly reduced phases kx mod n, in the given precision."""
    roots = unit_roots(n, dtype)
    ks = np.asarray(ks, dtype=np.int64)
    coef = np.asarray(coef, dtype=dtype)
    out = np.empty(n, dtype=dtype)
    rows = max(1, (1 << 18) // max(len(ks), 1))
    for lo in range(0, n, rows):
        xs = np.arange(lo, min(lo + rows, n), dtype=np.int64)
        out[lo : lo + len(xs)] = roots[np.outer(xs, ks) % n] @ coef
    return out


def dft_at(samples: np.ndarray, ks, dtype=np.clongdouble) -> np.ndarray:
    """c_k = (1/n) sum over x of samples[x] e(-kx/n) at the given k, by
    direct exponential sum in the given precision."""
    n = len(samples)
    roots = unit_roots(n, dtype).conj()
    ks = np.asarray(ks, dtype=np.int64)
    xs = np.arange(n, dtype=np.int64)
    samples = np.asarray(samples, dtype=dtype)
    out = np.empty(len(ks), dtype=dtype)
    rows = max(1, (1 << 18) // n)
    for lo in range(0, len(ks), rows):
        part = ks[lo : lo + rows]
        out[lo : lo + len(part)] = roots[np.outer(part, xs) % n] @ samples
    return out / n


def mollified_samples(lam: int, bits: int, sigma: int, t: int,
                      dtype=np.clongdouble) -> np.ndarray:
    """Trapezoid-windowed substitute for w_A on x < 2^lam: coefficients by
    direct DFT of the Walsh samples, damped by the even trapezoid that is 1
    below a = 2^(t-1+sigma) and 0 from 2a, then synthesized by direct sum."""
    n = 1 << lam
    a = 1 << (t - 1 + sigma)
    ks = np.arange(n, dtype=np.int64)
    dist = np.minimum(ks, n - ks)
    ks, dist = ks[dist < 2 * a], dist[dist < 2 * a]
    eta = np.clip((2 * a - dist.astype(np.finfo(dtype).dtype)) / a, 0, 1)
    coef = dft_at(walsh_samples(lam, bits), ks, dtype) * eta
    return direct_synthesis(ks, coef, n, dtype)


def split_spectrum(s2_bits: int, lam: int, h_param: int, dtype=np.complex128):
    """(sorted frequencies, coefficients) of the product of truncated
    square-wave factors, one per set bit j of s2_bits at frequency scale
    2^(lam-j-1), by enumerating every mode tuple and merging in a dict.
    A factor keeps the 2^H modes 1, -1, 3, -3, ..., mode r weighing
    -2i/(pi r); pi is arccos(-1) at the precision of dtype."""
    n = 1 << lam
    pi = np.arccos(np.finfo(dtype).dtype.type(-1))
    order = [r for odd in range(1, 2 << h_param, 2) for r in (odd, -odd)]
    modes = [(r, dtype(-2j) / (pi * r)) for r in order[: 1 << h_param]]
    positions = [j for j in range(lam) if (s2_bits >> j) & 1]
    merged = {}
    for combo in itertools.product(modes, repeat=len(positions)):
        freq, coef = 0, dtype(1)
        for (r, c), j in zip(combo, positions):
            freq = (freq + r * (1 << (lam - j - 1))) % n
            coef = coef * c
        merged[freq] = merged.get(freq, dtype(0)) + coef
    freqs = sorted(merged)
    return (np.array(freqs, dtype=np.int64),
            np.array([merged[f] for f in freqs], dtype=dtype))


def walsh_samples(lam: int, bits: int) -> np.ndarray:
    """w_A sampled by per-bit sign products (no shared kernel code)."""
    x = np.arange(1 << lam, dtype=np.int64)
    out = np.ones(1 << lam, dtype=np.int64)
    for j in range(lam):
        if (bits >> j) & 1:
            out *= 1 - 2 * ((x >> j) & 1)
    return out


# ---------------------------------------------------------------------------
# sum objects, plain loops


def naive_type1(s_bits: int, mu: int, nu: int) -> float:
    total = 0.0
    for m in range(1 << mu, 1 << (mu + 1)):
        inner = 0
        for n in range(1 << nu, 1 << (nu + 1)):
            inner += 1 if ((m * n) & s_bits).bit_count() % 2 == 0 else -1
        total += abs(inner)
    return float(total)


def naive_bilinear(s_bits: int, mu: int, nu: int, beta=None) -> float:
    total = 0.0
    for m in range(1 << mu, 1 << (mu + 1)):
        inner = 0.0
        for i, n in enumerate(range(1 << nu, 1 << (nu + 1))):
            w = 1 if ((m * n) & s_bits).bit_count() % 2 == 0 else -1
            inner += w * (1.0 if beta is None else beta[i])
        total += abs(inner)
    return float(total)


def naive_quadform(s_bits: int, mu: int, nu: int, rho: int, k_shift: int):
    """sum over n ~ N, |l| < L of |sum over m ~ M of w_S(mn) w_S(m(n+l 2^K))|."""
    big_l = 1 << rho
    total = 0.0
    clipped = 0
    for n in range(1 << nu, 1 << (nu + 1)):
        for ell in range(-big_l + 1, big_l):
            shifted = n + ell * (1 << k_shift)
            if shifted <= 0:
                clipped += 1 << mu
                continue
            inner = 0
            for m in range(1 << mu, 1 << (mu + 1)):
                w1 = 1 if ((m * shifted) & s_bits).bit_count() % 2 == 0 else -1
                w2 = 1 if ((m * n) & s_bits).bit_count() % 2 == 0 else -1
                inner += w1 * w2
            total += abs(inner)
    return float(total), clipped


def naive_carry_rate(mu: int, nu: int, rho: int, epsilon: float, k_shift: int):
    """(union rate, low rate): digit disagreement of m*(n + l 2^K) vs m*n
    above position floor(K + mu + rho + eps*rho) or below position K, over
    all triples with l != 0."""
    tau = k_shift + mu + rho + epsilon * rho
    first_bad = math.floor(tau) + 1
    low_mask = (1 << k_shift) - 1
    bad = 0
    low_bad = 0
    count = 0
    for m in range(1 << mu, 1 << (mu + 1)):
        for n in range(1 << nu, 1 << (nu + 1)):
            for ell in range(-(1 << rho) + 1, 1 << rho):
                if ell == 0:
                    continue
                shifted = n + ell * (1 << k_shift)
                count += 1
                diff = (m * shifted) ^ (m * n)
                high = (diff >> first_bad) != 0
                lowm = (diff & low_mask) != 0
                if high or lowm:
                    bad += 1
                if lowm:
                    low_bad += 1
    return bad / count, low_bad / count


# ---------------------------------------------------------------------------
# lemma scans, one public check per (lemma, mask): the arithmetic is the
# package's own checkers, what this reference fixes is the scan's structure
# (one row per check, the draw order, the report order)


def per_mask_scan(config) -> list:
    """run_scan's reports the slow way: every (lemma, mask) pair calls its
    public check_lemmaN, which builds its own coefficient row, and the L4
    and L6 draws come from fresh generators per (lam, lemma), drawn
    r-major for L4 and mask-major for L6."""
    reports = []
    for lam in range(config.lambda_min, config.lambda_max + 1):
        masks = [WalshMask(b, lam) for b in mask_family(config, lam)]
        for lemma in config.lemmas:
            if lemma == 1:
                reports += [check_lemma1(lam, m) for m in masks]
            elif lemma == 2:
                reports += [check_lemma2(lam, m) for m in masks]
            elif lemma == 3:
                reports += [check_lemma3(lam, m) for m in masks]
            elif lemma == 4:
                rng = np.random.default_rng([config.seed, lam, 4])
                for r in R_VALUES:
                    if r >= lam:
                        continue
                    for m in masks:
                        a = int(rng.integers(0, 1 << r))
                        reports.append(check_lemma4(lam, r, a, m))
            elif lemma == 5:
                sigma = min(4, lam - 6)
                if sigma < 1:
                    continue
                acfg = ApproximantConfig(lam, sigma, T_GRID[len(T_GRID) // 2])
                tail = [m for m in masks if not m.bits & ~acfg.tail_window_mask]
                if config.mask_family != "all":
                    keep = {0, 1 << (lam - 1), (1 << (lam - 1)) | (1 << (lam - sigma)),
                            acfg.tail_window_mask}
                    tail = [m for m in tail if m.bits in keep]
                reports += [check_lemma5(acfg, m) for m in tail]
            elif lemma == 6:
                rng = np.random.default_rng([config.seed, lam, 6])
                for m in masks:
                    for _ in range(INTERVALS_PER_MASK):
                        lo = int(rng.integers(1, 1 << lam))
                        hi = int(rng.integers(lo + 1, (1 << lam) + 1))
                        reports.append(check_lemma6(lam, lo, hi, m))
    reports.append(summarize(reports))
    return reports
