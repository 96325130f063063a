import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from walshlab import (
    BilinearConfig,
    SplitConfig,
    bilinear_sum,
    carry_report,
    carry_truncation_rate,
    cauchy_schwarz_chain,
    coefficient_table,
    correlation_report,
    quadform_report,
    sequence,
    shifted_quadratic_form,
    spectral_split,
    split_report,
    theorem_scan,
    type1_report,
    walsh_table,
)
from walshlab.walsh import WalshMask


# ---------------------------------------------------------------------------
# configuration validation


def test_bilinear_config_rejects_inverted_ranges():
    with pytest.raises(ValueError):
        BilinearConfig(s_bits=1, mu=5, nu=4)


def test_bilinear_config_mask_width():
    BilinearConfig(s_bits=(1 << 10) - 1, mu=4, nu=4)  # lam' = 10 bits available
    with pytest.raises(ValueError):
        BilinearConfig(s_bits=1 << 10, mu=4, nu=4)


def test_shift_scale_admissibility():
    # mu=4, rho=1: admissible K is 0 or 3 <= K < 9 at nu=10
    BilinearConfig(s_bits=1, mu=4, nu=10, rho=1, k_shift=0)
    BilinearConfig(s_bits=1, mu=4, nu=10, rho=1, k_shift=3)
    BilinearConfig(s_bits=1, mu=4, nu=10, rho=1, k_shift=8)
    with pytest.raises(ValueError, match="admissible"):
        BilinearConfig(s_bits=1, mu=4, nu=10, rho=1, k_shift=2)
    with pytest.raises(ValueError, match="admissible"):
        BilinearConfig(s_bits=1, mu=4, nu=10, rho=1, k_shift=9)


def test_shift_span_must_stay_below_inner_range():
    # K=0 skips the admissibility gate, so rho >= nu exercises the span check
    with pytest.raises(ValueError, match="below N"):
        BilinearConfig(s_bits=1, mu=1, nu=3, rho=3, k_shift=0)


def test_coefficient_bounds_enforced():
    with pytest.raises(ValueError, match="length"):
        BilinearConfig(s_bits=1, mu=2, nu=3, beta=np.ones(5))
    with pytest.raises(ValueError, match="<= 1"):
        BilinearConfig(s_bits=1, mu=2, nu=3, beta=2.0 * np.ones(8))


def test_coefficient_table_kinds():
    assert coefficient_table("ones", 8, 0) is None
    tab = coefficient_table("random", 64, 5)
    assert set(np.unique(tab)) <= {-1.0, 1.0}
    assert np.array_equal(tab, coefficient_table("random", 64, 5))
    # the seed key every recorded --coef random manifest was drawn with
    expect = np.random.default_rng([5, 2, 64]).integers(0, 2, size=64) * 2 - 1
    assert np.array_equal(tab, expect)
    with pytest.raises(ValueError):
        coefficient_table("gaussian", 8, 0)


def test_advisories_are_reported_not_enforced():
    cfg = BilinearConfig(s_bits=1, mu=4, nu=10, rho=1, epsilon=0.5)
    assert any("rho" in a for a in cfg.advisories)
    assert any("eps" in a for a in cfg.advisories)


# ---------------------------------------------------------------------------
# type-I and bilinear sums


def test_type1_frozen_anchor_and_oracle():
    # the type-I sum is the bilinear sum with all-ones beta
    value = bilinear_sum(BilinearConfig(s_bits=0x045A, mu=4, nu=10))
    assert value == 192.0
    small = bilinear_sum(BilinearConfig(s_bits=0b1011, mu=3, nu=5))
    assert small == oracles.naive_type1(0b1011, 3, 5)


def test_type1_report_trivial_bound():
    rep = type1_report(0x045A, 4, 10)
    assert rep.passed
    assert rep.rhs == float((1 << 4) * (1 << 10))
    assert rep.lhs == 192.0


def test_bilinear_matches_naive_loop():
    cfg = BilinearConfig(s_bits=0b10110, mu=3, nu=5)
    assert bilinear_sum(cfg) == oracles.naive_bilinear(0b10110, 3, 5)
    beta = coefficient_table("random", 1 << 5, 7)
    cfg2 = BilinearConfig(s_bits=0b10110, mu=3, nu=5, beta=beta)
    assert bilinear_sum(cfg2) == pytest.approx(
        oracles.naive_bilinear(0b10110, 3, 5, beta), abs=1e-9
    )


def test_bilinear_trivial_bound():
    cfg = BilinearConfig(s_bits=0x1F3, mu=4, nu=6)
    assert bilinear_sum(cfg) <= (1 << 4) * (1 << 6) + 1e-9


# ---------------------------------------------------------------------------
# shifted quadratic form


def test_quadform_frozen_anchors():
    q3 = shifted_quadratic_form(
        BilinearConfig(s_bits=0x045A, mu=4, nu=10, rho=1, k_shift=3)
    )
    assert q3.value == 22808.0 and q3.clipped_terms == 0
    q0 = shifted_quadratic_form(
        BilinearConfig(s_bits=0x045A, mu=4, nu=10, rho=1, k_shift=0)
    )
    assert q0.value == 21616.0


def test_quadform_matches_naive_loop():
    cfg = BilinearConfig(s_bits=0b100101, mu=3, nu=6, rho=1, k_shift=2)
    mine = shifted_quadratic_form(cfg)
    ref, clipped = oracles.naive_quadform(0b100101, 3, 6, 1, 2)
    assert mine.value == ref and mine.clipped_terms == clipped


@pytest.mark.parametrize("mu, nu, rho, k_shift", [(3, 6, 2, 2), (3, 5, 3, 0)])
def test_quadform_wide_shifts_match_naive_loop(mu, nu, rho, k_shift):
    cfg = BilinearConfig(s_bits=0b1011001, mu=mu, nu=nu, rho=rho, k_shift=k_shift)
    mine = shifted_quadratic_form(cfg)
    ref, clipped = oracles.naive_quadform(0b1011001, mu, nu, rho, k_shift)
    assert mine.value == ref and mine.clipped_terms == clipped


def test_quadform_clips_nonpositive_shifts_like_naive_loop():
    # validation keeps L*2^K < N; forcing K past it makes some n + l*2^K <= 0
    cfg = BilinearConfig(s_bits=0b1011001, mu=3, nu=4, rho=2, k_shift=0)
    object.__setattr__(cfg, "k_shift", 3)
    mine = shifted_quadratic_form(cfg)
    ref, clipped = oracles.naive_quadform(0b1011001, 3, 4, 2, 3)
    assert clipped > 0
    assert mine.value == ref and mine.clipped_terms == clipped


def test_quadform_empty_mask_identity():
    # S = {} makes every sign +1: the form is exactly (2L-1) * N * M
    cfg = BilinearConfig(s_bits=0, mu=3, nu=6, rho=2, k_shift=0)
    q = shifted_quadratic_form(cfg)
    assert q.value == float((2 * 4 - 1) * (1 << 6) * (1 << 3))
    assert q.clipped_terms == 0
    assert q.prefactor == (1 << 3) * (1 << 6) / 4


def test_quadform_diagonal_term():
    # rho=0 keeps only l=0: sum_n |sum_m 1| = N*M regardless of mask
    cfg = BilinearConfig(s_bits=0, mu=4, nu=5, rho=0, k_shift=0)
    assert shifted_quadratic_form(cfg).value == float((1 << 5) * (1 << 4))


def test_quadform_report_trivial_bound():
    rep = quadform_report(BilinearConfig(s_bits=0x045A, mu=4, nu=10, rho=1, k_shift=3))
    assert rep.passed
    assert rep.rhs == float(3 * (1 << 10) * (1 << 4))


@given(
    st.integers(0, (1 << 8) - 1),
    st.integers(2, 3),
    st.sampled_from([(0,), (2, 0)]),
)
def test_cauchy_schwarz_chain_inequality(s_bits, mu, shifts):
    nu = mu + 3
    for k in shifts:
        cfg = BilinearConfig(s_bits=s_bits, mu=mu, nu=nu, rho=1, k_shift=k)
        rep = cauchy_schwarz_chain(cfg)
        assert rep.passed
        assert rep.lhs <= rep.rhs + 1e-6


def test_chain_anchor_ratio():
    cfg = BilinearConfig(s_bits=0x045A, mu=4, nu=10, rho=1, k_shift=3)
    rep = cauchy_schwarz_chain(cfg)
    assert rep.passed
    assert rep.ratio == pytest.approx(6.58e-5, rel=0.01)


# ---------------------------------------------------------------------------
# carry truncation


def test_carry_frozen_anchor():
    cfg = BilinearConfig(s_bits=0x045A, mu=4, nu=8, rho=2, epsilon=0.5, k_shift=4)
    res = carry_truncation_rate(cfg)
    assert res.rate == 0.181884765625
    assert res.low_rate == 0.0
    assert res.first_checked_bit == 12


def test_carry_matches_naive_loop():
    cfg = BilinearConfig(s_bits=0b1011, mu=3, nu=6, rho=1, epsilon=0.5, k_shift=2)
    res = carry_truncation_rate(cfg)
    rate, low = oracles.naive_carry_rate(3, 6, 1, 0.5, 2)
    assert res.rate == rate and res.low_rate == low


def test_carry_low_rate_always_zero():
    # adding l*2^K cannot move digits below position K
    for mu, rho, k in [(4, 1, 3), (4, 2, 2), (5, 1, 4), (5, 2, 3)]:
        cfg = BilinearConfig(
            s_bits=1, mu=mu, nu=mu + 4, rho=rho, epsilon=0.5, k_shift=k
        )
        assert carry_truncation_rate(cfg).low_rate == 0.0


@pytest.mark.parametrize(
    "mu,nu,rho,k_shift,epsilon",
    [(3, 6, 2, 0, 0.5), (3, 7, 1, 3, 1.0), (4, 7, 0, 4, 0.5), (3, 6, 1, 0, 40.0)],
)
def test_carry_matches_naive_loop_grid(mu, nu, rho, k_shift, epsilon):
    # epsilon 40 puts the first checked bit above the int64 sign bit
    cfg = BilinearConfig(s_bits=1, mu=mu, nu=nu, rho=rho, epsilon=epsilon,
                         k_shift=k_shift)
    res = carry_truncation_rate(cfg)
    if rho == 0:
        assert res.total == 0
        return
    rate, low = oracles.naive_carry_rate(mu, nu, rho, epsilon, k_shift)
    assert (res.rate, res.low_rate) == (rate, low)
    assert res.total == (1 << (mu + nu)) * (2 * (1 << rho) - 2)


def test_carry_blocked_anchor_and_bounded_memory():
    # 128 m-rows in blocks of 8; counts are the whole-table implementation's
    cfg = BilinearConfig(s_bits=0x6, mu=7, nu=14, rho=3, epsilon=0.5)
    tracemalloc.start()
    res = carry_truncation_rate(cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (res.bad_count, res.low_count, res.total) == (5490688, 0, 29360128)
    assert res.first_checked_bit == 12
    assert peak < 4 << 20, peak


def test_carry_report_bracket():
    cfg = BilinearConfig(s_bits=0x045A, mu=4, nu=8, rho=2, epsilon=0.5, k_shift=4)
    rep = carry_report(cfg)
    assert rep.passed
    assert rep.rhs == 8.0 * 2.0 ** (-0.5 * 2)


def test_carry_zero_shifts_defined():
    cfg = BilinearConfig(s_bits=1, mu=3, nu=5, rho=0, epsilon=0.5, k_shift=0)
    res = carry_truncation_rate(cfg)
    assert res.total == 0 and res.rate == 0.0


# ---------------------------------------------------------------------------
# spectral split


def test_split_config_partition():
    cfg = SplitConfig(s_bits=(1 << 12) | (1 << 13) | 0b101, lam=14, mu=1, h_param=4)
    assert cfg.split_position == 12
    assert cfg.s1_bits == 0b101
    assert cfg.s2_bits == (1 << 12) | (1 << 13)
    assert cfg.s2_weight == 2


def test_split_caps():
    # mu=7 pushes the split position to 0, so all 14 set bits land in S2
    with pytest.raises(ValueError, match="cap"):
        SplitConfig(s_bits=(1 << 14) - 1, lam=14, mu=7, h_param=1)
    with pytest.raises(ValueError, match="2\\^20"):
        SplitConfig(s_bits=1 << 13, lam=14, mu=1, h_param=21)
    # mu < 1 would put the whole mask in S1 and pass vacuously
    for mu in (0, -2):
        with pytest.raises(ValueError, match="mu must be >= 1"):
            SplitConfig(s_bits=1 << 13, lam=14, mu=mu, h_param=4)


def test_split_frozen_anchor():
    rep = split_report(SplitConfig(s_bits=(1 << 12) | (1 << 13), lam=14, mu=1, h_param=4))
    assert rep.passed
    assert rep.lhs == 0.1075414791420256
    assert rep.fitted_constant == 1.7206636662724095
    assert rep.params["set_size"] == 46
    # the pin lies within two float64 spacings of the extended-precision
    # direct-sum value
    s2 = (1 << 12) | (1 << 13)
    freqs, coefs = oracles.split_spectrum(s2, 14, 4, dtype=np.clongdouble)
    synth = oracles.direct_synthesis(freqs, coefs, 1 << 14)
    truth = np.mean(np.abs(synth - oracles.walsh_samples(14, s2)))
    assert abs(rep.lhs - truth) <= 2 * np.spacing(rep.lhs)


@pytest.mark.parametrize(
    "s_bits, mu, cancelled",
    [(0b101, 1, 0), ((1 << 8) | 0b1, 1, 0), ((1 << 7) | (1 << 9), 2, 2),
     ((1 << 6) | (1 << 7) | (1 << 9) | 0b11, 2, 0)],
)
def test_split_spectrum_matches_tuple_enumeration(s_bits, mu, cancelled):
    # |S2| = 0, 1, 2, 3; the oracle enumerates every mode tuple into a dict.
    # Frequencies whose merged coefficients cancel stay in the set.
    cfg = SplitConfig(s_bits=s_bits, lam=10, mu=mu, h_param=3)
    res = spectral_split(cfg)
    freqs, coefs = oracles.split_spectrum(cfg.s2_bits, 10, 3)
    assert np.array_equal(res.frequencies, freqs)
    assert np.abs(res.coefficients - coefs).max() <= 1e-15
    assert (np.abs(res.coefficients) <= 1e-15).sum() == cancelled


def test_split_matches_time_domain_truncation():
    # independent route: truncate each top-half square-wave factor in the
    # time domain and multiply pointwise; the package convolves spectra
    cfg = SplitConfig(s_bits=(1 << 8) | (1 << 9), lam=10, mu=1, h_param=3)
    res = spectral_split(cfg)
    n = 1 << 10
    xs = np.arange(n)
    product = np.ones(n, dtype=np.complex128)
    for j in (8, 9):
        acc = np.zeros(n, dtype=np.complex128)
        order = []
        r = 1
        while len(order) < (1 << cfg.h_param):
            order.extend([r, -r])
            r += 2
        for rr in order[: 1 << cfg.h_param]:
            c = -2j / (np.pi * rr)
            freq = (rr * (1 << (10 - j - 1))) % n
            acc += c * np.exp(2j * np.pi * freq * xs / n)
        product *= acc
    synth = np.zeros(n, dtype=np.complex128)
    for freq, coef in zip(res.frequencies, res.coefficients):
        synth += coef * np.exp(2j * np.pi * freq * xs / n)
    assert np.abs(product - synth).max() < 1e-9


def test_split_error_tracks_exact_table():
    cfg = SplitConfig(s_bits=(1 << 8) | (1 << 9), lam=10, mu=1, h_param=3)
    res = spectral_split(cfg)
    n = 1 << 10
    xs = np.arange(n)
    synth = np.zeros(n, dtype=np.complex128)
    for freq, coef in zip(res.frequencies, res.coefficients):
        synth += coef * np.exp(2j * np.pi * freq * xs / n)
    exact = walsh_table(WalshMask((1 << 8) | (1 << 9), 10)).astype(np.float64)
    manual = float(np.mean(np.abs(synth - exact)))
    assert res.l1_error == pytest.approx(manual, rel=1e-12)


def test_split_single_bit_mask():
    rep = split_report(SplitConfig(s_bits=1 << 8, lam=10, mu=1, h_param=2))
    assert rep.passed
    assert rep.params["set_size"] == 4


# ---------------------------------------------------------------------------
# theorem scan


def test_correlation_report_small_lambda_fails_honestly():
    rep = correlation_report(sequence("moebius", 2))
    assert not rep.passed
    assert rep.lhs == 3.0
    assert rep.params["exponent"] == pytest.approx(np.log2(3) / 2)


def test_correlation_report_lambda_8():
    rep = correlation_report(sequence("moebius", 8))
    assert rep.passed
    assert rep.lhs == 43.0
    assert rep.params["exponent"] == pytest.approx(0.6782830943377622)


def test_theorem_scan_kinds():
    reps = theorem_scan("liouville", [6, 8])
    assert [r.params["lambda"] for r in reps] == [6, 8]
    with pytest.raises(ValueError):
        theorem_scan("von_mangoldt", [8])


def test_zero_sequence_exponent_is_none():
    from walshlab import custom_sequence

    rep = correlation_report(custom_sequence(4, np.zeros(16)))
    assert rep.params["exponent"] is None
    assert rep.passed
