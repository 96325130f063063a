import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from walshlab import (
    FullRange,
    Interval,
    ResidueClass,
    WalshMask,
    all_mask_l1,
    all_mask_sup,
    check_lemma1,
    l1_accumulate,
    sup_norm,
    walsh_eval,
    walsh_signs,
    walsh_table,
)
from walshlab.walsh import coefficient_values, magnitude_row, mask_sweep


# ---------------------------------------------------------------------------
# masks and sign values


def test_mask_members_and_weight():
    m = WalshMask(0b101001, 6)
    assert m.weight == 3
    assert m.members() == (0, 3, 5)


def test_mask_validation():
    with pytest.raises(ValueError):
        WalshMask(1 << 6, 6)
    with pytest.raises(ValueError):
        WalshMask(-1, 6)


@pytest.mark.parametrize("bits", [0, 1, 0b100, 0b1011, 0b11111111])
def test_walsh_eval_matches_bit_product_oracle(bits):
    lam = 8
    ref = oracles.walsh_samples(lam, bits)
    mine = walsh_table(WalshMask(bits, lam))
    assert np.array_equal(mine.astype(np.int64), ref)
    for x in (0, 1, 77, 255):
        assert walsh_eval(WalshMask(bits, lam), x) == ref[x]


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_walsh_multiplicativity(a_bits, b_bits, x):
    lam = 8
    wa = walsh_eval(WalshMask(a_bits, lam), x)
    wb = walsh_eval(WalshMask(b_bits, lam), x)
    wxor = walsh_eval(WalshMask(a_bits ^ b_bits, lam), x)
    assert wa * wb == wxor


def test_walsh_signs_vector_matches_scalar():
    xs = np.arange(64, dtype=np.int64)
    signs = walsh_signs(0b10110, xs)
    assert signs.dtype == np.int8
    ref = [walsh_eval(WalshMask(0b10110, 6), int(x)) for x in xs]
    assert np.array_equal(signs.astype(int), ref)


# ---------------------------------------------------------------------------
# trigonometric coefficients


def test_coefficient_hand_values():
    # lam=1, A={0}: w(x) = (-1)^x = e(x/2), so c_0 = 0 and c_1 = 1
    assert abs(coefficient_values(1, 1, np.array([0]))[0]) < 1e-15
    assert abs(coefficient_values(1, 1, np.array([1]))[0] - 1.0) < 1e-15
    # lam=2, A={1}: c_1 = (1 - i)/2 by direct two-factor expansion
    c1 = coefficient_values(2, 0b10, np.array([1]))[0]
    assert abs(c1 - (0.5 - 0.5j)) < 1e-15


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
def test_coefficients_match_dft_all_masks(lam):
    n = 1 << lam
    ks = np.arange(n)
    for bits in range(n):
        truth = oracles.dft_coefficients(oracles.walsh_samples(lam, bits))
        mine = coefficient_values(lam, bits, ks)
        assert np.abs(mine - truth).max() < 1e-12
        mags = magnitude_row(lam, bits, ks)
        assert np.abs(mags - np.abs(truth)).max() < 1e-12


@pytest.mark.parametrize("lam", [1, 2, 3, 10, 16])
def test_magnitude_row_equals_trig_product_oracle(lam):
    n = 1 << lam
    rng = np.random.default_rng(lam)
    # every frequency, plus negative ones and ones at or past 2^lam
    ks = np.concatenate([np.arange(n), rng.integers(-4 * n, 4 * n, 200), [-1, -n, n, 2 * n + 1]])
    masks = range(n) if lam <= 3 else [0, 1, n - 1, n >> 1, *rng.integers(0, n, 6)]
    for bits in map(int, masks):
        assert np.array_equal(magnitude_row(lam, bits, ks), oracles.trig_magnitudes(lam, bits, ks))


def test_magnitude_agrees_with_value():
    lam, bits = 10, 0b0110000000
    ks = np.arange(1 << lam)
    values = coefficient_values(lam, bits, ks)
    assert np.abs(np.abs(values) - magnitude_row(lam, bits, ks)).max() < 1e-15


def test_synthesis_from_coefficients_reconstructs_walsh():
    lam, bits = 8, 0b11000001
    n = 1 << lam
    coef = coefficient_values(lam, bits, np.arange(n))
    xs = np.arange(n)
    rebuilt = np.exp(2j * np.pi * np.outer(xs, np.arange(n)) / n) @ coef
    assert np.abs(rebuilt - walsh_table(WalshMask(bits, lam))).max() < 1e-10


def test_frozen_magnitude_anchor():
    # pinned regression value, cross-validated against the DFT oracle above:
    # lam=3, A={2}, k=1 has |c| = cos(pi/8) cos(pi/4) = 0.6532...
    got = magnitude_row(3, 0b100, np.array([1]))[0]
    truth = abs(oracles.dft_coefficients(oracles.walsh_samples(3, 0b100))[1])
    assert abs(got - truth) < 1e-14
    assert got == 0.6532814824381883


# ---------------------------------------------------------------------------
# selectors and norms


def test_fullrange_l1_equals_dft_l1():
    lam, bits = 6, 0b101100
    truth = np.abs(oracles.dft_coefficients(oracles.walsh_samples(lam, bits))).sum()
    assert l1_accumulate(WalshMask(bits, lam)) == pytest.approx(truth, abs=1e-12)


def test_residue_selector_matches_manual_subset():
    lam, bits = 8, 0b1010
    ks = np.arange(1 << lam)
    mags = magnitude_row(lam, bits, ks)
    for r, a in [(2, 1), (4, 3), (6, 0)]:
        manual = mags[ks % (1 << r) == a].sum()
        got = l1_accumulate(WalshMask(bits, lam), ResidueClass(a, r))
        assert got == pytest.approx(manual, abs=1e-12)


def test_interval_selector_matches_manual_subset():
    lam, bits = 8, 0b1010
    ks = np.arange(1 << lam)
    mags = magnitude_row(lam, bits, ks)
    got = l1_accumulate(WalshMask(bits, lam), Interval(17, 130))
    assert got == pytest.approx(mags[17:130].sum(), abs=1e-12)


_NORM_CASES = [
    (10, FullRange()), (10, ResidueClass(0, 1)), (10, ResidueClass(3, 2)),
    (10, ResidueClass(21, 7)), (10, ResidueClass(511, 9)), (10, Interval(0, 1)),
    (10, Interval(17, 130)), (10, Interval(300, 1024)),
    (16, FullRange()), (16, ResidueClass(5, 3)), (16, Interval(1001, 60000)),
]


def _selected(lam, selector):
    ks = np.arange(1 << lam)
    if isinstance(selector, ResidueClass):
        return ks[ks % (1 << selector.r) == selector.a]
    if isinstance(selector, Interval):
        return ks[(ks >= selector.lo) & (ks < selector.hi)]
    return ks


@pytest.mark.parametrize("lam,selector", _NORM_CASES, ids=repr)
def test_norms_equal_oracle_subset(lam, selector):
    ks = _selected(lam, selector)
    n = 1 << lam
    for bits in (0, 1, n - 1, 0b1011001 & (n - 1), n >> 1, 0x5A5A & (n - 1)):
        mags = oracles.trig_magnitudes(lam, bits, ks)
        mask = WalshMask(bits, lam)
        assert l1_accumulate(mask, selector) == float(mags.sum())
        assert sup_norm(mask, selector) == float(mags.max())


def test_selector_validation_on_use():
    mask = WalshMask(0b11, 6)
    with pytest.raises(ValueError):
        l1_accumulate(mask, Interval(5, 5))
    with pytest.raises(ValueError):
        l1_accumulate(mask, Interval(-1, 4))
    with pytest.raises(ValueError):
        # residue must sit below the modulus 2^r
        l1_accumulate(mask, ResidueClass(4, 2))
    with pytest.raises(ValueError):
        l1_accumulate(mask, ResidueClass(0, 6))


def test_character_masks_have_unit_sup():
    # the constant mask and the lone lowest bit are additive characters:
    # their spectra are point masses, sup norm exactly 1 even in floats
    assert sup_norm(WalshMask(0, 10)) == 1.0
    assert sup_norm(WalshMask(1, 10)) == 1.0


def test_sup_norm_is_max_of_magnitudes():
    lam, bits = 7, 0b0110010
    ks = np.arange(1 << lam)
    assert sup_norm(WalshMask(bits, lam)) == magnitude_row(lam, bits, ks).max()


# ---------------------------------------------------------------------------
# exhaustive sweeps


def test_sweep_matches_per_mask_rows_bit_identical():
    lam = 8
    l1 = all_mask_l1(lam)
    sup = all_mask_sup(lam)
    for bits in range(0, 1 << lam, 17):
        assert l1[bits] == l1_accumulate(WalshMask(bits, lam))
        assert sup[bits] == sup_norm(WalshMask(bits, lam))


def test_sweep_with_selector():
    lam = 6
    out = mask_sweep(lam, FullRange(), lambda v: float(v.sum()))
    for bits in (0, 1, 0b111, 0b101010):
        assert out[bits] == l1_accumulate(WalshMask(bits, lam))


@pytest.mark.parametrize(
    "selector", [ResidueClass(3, 2), ResidueClass(0, 5), Interval(5, 200), Interval(0, 256)],
    ids=repr,
)
def test_sweep_with_residue_and_interval_selectors(selector):
    lam = 8
    l1 = all_mask_l1(lam, selector)
    sup = all_mask_sup(lam, selector)
    for bits in range(1 << lam):
        assert l1[bits] == l1_accumulate(WalshMask(bits, lam), selector)
        assert sup[bits] == sup_norm(WalshMask(bits, lam), selector)


def test_per_mask_norms_keep_no_rows():
    # one lambda=16 row is 512 KiB; caching rows across masks would pass 32 MiB
    lam = 16
    rng = np.random.default_rng(64)
    masks = [WalshMask(int(b), lam) for b in rng.choice(1 << lam, 64, replace=False)]
    tracemalloc.start()
    try:
        for mask in masks:
            check_lemma1(lam, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_sweep_determinism():
    a = all_mask_sup(10)
    b = all_mask_sup(10)
    assert np.array_equal(a, b)
