import numpy as np
import pytest

import oracles
from walshlab import (
    ApproximantConfig,
    ResourceLimitError,
    WalshMask,
    band_profile,
    build_approximant,
    l2_error,
    trapezoid_eta,
    walsh_table,
)


def config(lam=10, sigma=4, t=4):
    return ApproximantConfig(lam, sigma, t)


def test_config_validation():
    with pytest.raises(ValueError):
        ApproximantConfig(10, 5, 5)  # sigma + t must stay below lam - 1
    with pytest.raises(ValueError):
        ApproximantConfig(10, 0, 4)
    with pytest.raises(ValueError):
        ApproximantConfig(10, 4, 0)


def test_config_derived_quantities():
    cfg = ApproximantConfig(14, 4, 5)
    assert cfg.k1 == 16  # 2^(t-1)
    assert cfg.tail_window_mask == (0b1111 << 10)


def test_trapezoid_plateau_ramp_zero():
    k1, sigma = 8, 4
    a = k1 << sigma
    zs = np.array([0, a // 2, a, a + a // 2, 2 * a, 3 * a], dtype=np.float64)
    eta = trapezoid_eta(zs, k1, sigma)
    assert eta[0] == 1.0 and eta[1] == 1.0 and eta[2] == 1.0
    assert eta[3] == 0.5
    assert eta[4] == 0.0 and eta[5] == 0.0
    neg = trapezoid_eta(-zs, k1, sigma)
    assert np.array_equal(eta, neg)


def test_build_rejects_mask_outside_tail_window():
    cfg = config()
    with pytest.raises(ValueError, match="tail"):
        build_approximant(WalshMask(0b1, 10), cfg)


def test_build_rejects_oversized_lambda(monkeypatch):
    # the synthesis charges its two complex arrays before allocating them:
    # 32 GiB at lambda 30 against the default 2 GiB, and 16 MiB at lambda 19
    # against a 1 MiB budget
    monkeypatch.delenv("WSL_MAX_MEM_GIB", raising=False)
    with pytest.raises(ResourceLimitError, match="synthesis at lambda=30 requires 34360000512"):
        build_approximant(WalshMask(1 << 29, 30), ApproximantConfig(30, 4, 4))
    monkeypatch.setenv("WSL_MAX_MEM_GIB", str(2**-10))
    with pytest.raises(ResourceLimitError, match="synthesis at lambda=19"):
        build_approximant(WalshMask(1 << 18, 19), ApproximantConfig(19, 4, 4))


def test_empty_mask_reproduced_exactly():
    ap = build_approximant(WalshMask(0, 10), config())
    assert l2_error(ap) < 1e-12


def test_rms_error_decreases_with_t():
    mask = WalshMask((1 << 9) | (1 << 6), 10)
    errs = [
        l2_error(build_approximant(mask, ApproximantConfig(10, 4, t)))
        for t in (3, 4, 5)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.06


def test_single_top_bit_mask_approximates_well():
    # odd-weight masks are the sign-convention canaries: a conjugated
    # coefficient table reproduces w(-x) and sends this error to ~2
    mask = WalshMask(1 << 9, 10)
    err = l2_error(build_approximant(mask, config()))
    assert err < 0.05


def test_band_profile_support_domination_sup():
    mask = WalshMask((1 << 9) | (1 << 7), 10)
    prof = band_profile(build_approximant(mask, config()))
    assert prof["support_leak"] < 1e-9
    assert prof["domination_excess"] < 1e-9
    assert prof["sup_norm"] <= 3.0 + 1e-9


def test_values_are_real_and_bounded():
    mask = WalshMask(0b11 << 8, 10)
    ap = build_approximant(mask, config())
    vals = np.asarray(ap.values)
    assert vals.dtype == np.float64
    assert np.abs(vals).max() <= 3.0 + 1e-9
    assert len(vals) == 1 << 10


def test_approximant_tracks_walsh_function_pointwise():
    mask = WalshMask(0b11 << 8, 10)
    ap = build_approximant(mask, ApproximantConfig(10, 4, 5))
    w = walsh_table(mask).astype(np.float64)
    agree = np.mean(np.sign(ap.values) == w)
    assert agree > 0.95


def test_frozen_rms_anchor_14_4():
    bits = (1 << 10) | (1 << 12)
    mask = WalshMask(bits, 14)
    errs = [
        l2_error(build_approximant(mask, ApproximantConfig(14, 4, t)))
        for t in (3, 4, 5)
    ]
    assert errs[0] == 0.1525721925690748
    assert errs[1] == 0.10792560750291691
    assert errs[2] == 0.0762639337928517
    # each pin lies within two float64 spacings of the extended-precision
    # direct-sum value
    w = oracles.walsh_samples(14, bits)
    for t, err in zip((3, 4, 5), errs):
        exact = oracles.mollified_samples(14, bits, 4, t).real
        truth = np.sqrt(np.mean((exact - w) ** 2))
        assert abs(err - truth) <= 2 * np.spacing(err)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_fft_synthesis_matches_direct_sum(t):
    # every mask of the tail window [6, 10) against a float64 direct sum
    for top in range(16):
        bits = top << 6
        ap = build_approximant(WalshMask(bits, 10), ApproximantConfig(10, 4, t))
        ref = oracles.mollified_samples(10, bits, 4, t, dtype=np.complex128)
        assert np.abs(ap.values - ref.real).max() <= 1e-12
        assert np.abs(ref.imag).max() <= 1e-12
