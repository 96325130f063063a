"""Band-limited substitutes for Walsh functions on tail masks.

For a mask living in the top sigma bit positions, shifting the mask down
by lam-sigma identifies w_A with a Walsh function of the top sigma bits
alone (the shifted mask lives in [0, sigma]), so the coefficient mass of
w_A sits near frequency 0 (mod 2^lam).  Damping everything outside a
window of width ~2^(sigma+t) with a trapezoidal mollifier eta then yields
a low-degree trigonometric polynomial W_A that tracks w_A in mean square.
W_A enters only through its Fourier coefficients, so putting it on the
2^lam grid is an inverse DFT: the windowed coefficients are scattered into
a length-2^lam array and synthesized by one inverse FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limits import SYNTHESIS_LAMBDA_CAP, ResourceLimitError
from .walsh import WalshMask, coefficient_values, magnitude_row, walsh_table


@dataclass(frozen=True)
class ApproximantConfig:
    """Window geometry for one substitute.

    t sets the cutoff scale K1 = 2^(t-1); the mollifier passes frequencies
    below K1*2^sigma untouched and zeroes them from 2*K1*2^sigma on.  The
    asymptotic analysis wants C*(ln lam)^2 < t < (lam-sigma)/2, here with
    C = 1, which no desk-scale lam satisfies; in_asymptotic_regime records the
    verdict instead of enforcing it so small instances stay constructible.
    """

    lam: int
    sigma: int
    t: int

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 1 <= self.sigma <= self.lam:
            raise ValueError(f"sigma={self.sigma} out of range for lam={self.lam}")
        if self.t < 1:
            raise ValueError(f"t must be a positive integer, got {self.t}")
        if self.sigma + self.t > self.lam - 1:
            raise ValueError(
                f"window 2^(sigma+t)=2^{self.sigma + self.t} covers the "
                f"frequency circle at lam={self.lam}; need sigma+t <= lam-1"
            )

    @property
    def k1(self) -> int:
        return 1 << (self.t - 1)

    @property
    def in_asymptotic_regime(self) -> bool:
        return math.log(self.lam) ** 2 < self.t < (self.lam - self.sigma) / 2

    @property
    def tail_window_mask(self) -> int:
        """Bitmask of the allowed positions [lam-sigma, lam)."""
        return ((1 << self.sigma) - 1) << (self.lam - self.sigma)


@dataclass(frozen=True)
class SampledApproximant:
    values: np.ndarray
    config: ApproximantConfig
    mask: WalshMask


def trapezoid_eta(z: np.ndarray, k1: int, sigma: int) -> np.ndarray:
    """Even trapezoid: 1 below k1*2^sigma, 0 from 2*k1*2^sigma, linear ramp
    between, at every entry of z."""
    a = float(k1 * (1 << sigma))
    return np.clip((2.0 * a - np.abs(z)) / a, 0.0, 1.0)


def _window_frequencies(lam: int, half_width: int) -> np.ndarray:
    """All k in [0, 2^lam) whose symmetric distance min(k, 2^lam - k) is
    below half_width, in increasing k order."""
    n = 1 << lam
    low = np.arange(0, min(half_width, n), dtype=np.int64)
    if half_width >= n - half_width + 1:
        raise ValueError("window halves overlap; widen lam or shrink the window")
    high = np.arange(n - half_width + 1, n, dtype=np.int64)
    return np.concatenate([low, high])


def _synthesize(lam: int, ks: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum over k of coef_k e(kx/2^lam) at every x < 2^lam, by scattering
    the coefficients (distinct ks) into a length-2^lam array and running one
    inverse FFT."""
    n = 1 << lam
    spectrum = np.zeros(n, dtype=np.complex128)
    spectrum[ks] = coef
    return np.fft.ifft(spectrum) * n


def build_approximant(mask: WalshMask, config: ApproximantConfig) -> SampledApproximant:
    """Synthesize W_A(x) = sum_k eta(|k|) w^(k) e(kx/2^lam) over x < 2^lam.

    |k| means distance to the nearest multiple of 2^lam.  The mask must sit
    inside the tail window [lam-sigma, lam).
    """
    if mask.lam != config.lam:
        raise ValueError("mask and config disagree on lam")
    if mask.bits & ~config.tail_window_mask:
        raise ValueError(
            f"mask {mask.bits:#x} has bits below position "
            f"{config.lam - config.sigma}; the approximant is only defined "
            "for tail masks"
        )
    if config.lam > SYNTHESIS_LAMBDA_CAP:
        need = (1 << config.lam) * 16
        raise ResourceLimitError(
            f"dense synthesis at lambda={config.lam} needs {need} bytes of "
            f"complex samples; cap is lambda <= {SYNTHESIS_LAMBDA_CAP}"
        )
    n = 1 << config.lam
    cutoff = 2 * config.k1 * (1 << config.sigma)
    ks = _window_frequencies(config.lam, cutoff)
    sym = np.minimum(ks, n - ks)
    weights = trapezoid_eta(sym, config.k1, config.sigma)
    keep = weights > 0.0
    ks, weights = ks[keep], weights[keep]
    coef = coefficient_values(config.lam, mask.bits, ks) * weights
    values = _synthesize(config.lam, ks, coef)
    # the window is symmetric and coefficients come in conjugate pairs, so
    # the synthesis is real up to rounding; anything larger is a kernel bug
    imag_peak = float(np.abs(values.imag).max())
    if imag_peak > 1e-9:
        raise ArithmeticError(
            f"synthesis produced imaginary mass {imag_peak:.3g}; "
            "coefficient conjugate symmetry is broken"
        )
    return SampledApproximant(values.real.copy(), config, mask)


def l2_error(approx: SampledApproximant) -> float:
    """RMS difference between the substitute and the exact Walsh samples."""
    w = walsh_table(approx.mask).astype(np.float64)
    diff = approx.values - w
    return float(np.sqrt(np.mean(diff * diff)))


def band_profile(approx: SampledApproximant) -> dict:
    """Frequency-side audit of a synthesized substitute.

    Returns the largest coefficient magnitude outside the window
    |k| <= 2^(sigma+t) (support_leak), the largest excess of the
    substitute's coefficients over the exact ones (domination_excess), and
    the sample sup norm.  The synthesized table is analyzed back to
    frequency space by a forward FFT.
    """
    cfg = approx.config
    n = 1 << cfg.lam
    coeffs = np.fft.fft(approx.values) / n
    ks = np.arange(n, dtype=np.int64)
    sym = np.minimum(ks, n - ks)
    window = 1 << (cfg.sigma + cfg.t)
    outside = sym > window
    support_leak = float(np.abs(coeffs[outside]).max()) if outside.any() else 0.0
    exact = magnitude_row(cfg.lam, approx.mask.bits, ks)
    domination_excess = float((np.abs(coeffs) - exact).max())
    sup = float(np.abs(approx.values).max())
    return {
        "support_leak": support_leak,
        "domination_excess": domination_excess,
        "sup_norm": sup,
    }
