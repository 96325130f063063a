import math
import functools
import tempfile
import tracemalloc
from pathlib import Path

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
    walsh_signs,
    walsh_table,
)
from walshlab import approximant, fwht, lemmas, limits, sieve, sums, walsh
from walshlab.walsh import _selector_slice, coefficient_values, magnitude_row


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
    # walsh_table and walsh_signs at scattered points, against the oracle
    lam = 8
    ref = oracles.walsh_samples(lam, bits)
    mine = walsh_table(WalshMask(bits, lam))
    assert np.array_equal(mine.astype(np.int64), ref)
    xs = np.array([0, 1, 77, 255])
    assert np.array_equal(walsh_signs(bits, xs), ref[xs])


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_walsh_multiplicativity(a_bits, b_bits, x):
    wa, wb, wxor = (int(walsh_signs(bits, x)) for bits in (a_bits, b_bits, a_bits ^ b_bits))
    assert wa * wb == wxor


def test_walsh_signs_vector_matches_scalar():
    xs = np.arange(64, dtype=np.int64)
    signs = walsh_signs(0b10110, xs)
    assert signs.dtype == np.int8
    assert np.array_equal(signs.astype(np.int64), oracles.walsh_samples(6, 0b10110))


@pytest.mark.parametrize("bits", [(1 << 30) | 0b1011, (1 << 40) | 0b1011,
                                  (1 << 40) | (1 << 30) | 0b101, 1 << 40])
def test_walsh_signs_keep_a_narrow_argument_width(bits):
    # mask bits at or above an argument's width match no set bit of a
    # nonnegative argument: int32 and int64 give the same signs
    xs = np.random.default_rng(3).integers(0, 1 << 31, size=4096)
    xs[:3] = 0, (1 << 30) | 0b1011, (1 << 31) - 1
    wide = walsh_signs(bits, xs)
    narrow = walsh_signs(bits, xs.astype(np.int32))
    assert wide.dtype == narrow.dtype == np.int8
    assert np.array_equal(narrow, wide)
    ref = [1 - 2 * ((int(x) & bits).bit_count() & 1) for x in xs]
    assert np.array_equal(wide, ref)


@pytest.mark.parametrize("lam", [1, 10, 16])
def test_walsh_table_unchanged_with_int32_indices(lam):
    for bits in {0, 1, 1 << (lam - 1), (1 << lam) - 1, 0x5A5A & ((1 << lam) - 1)}:
        table = walsh_table(WalshMask(bits, lam))
        assert table.dtype == np.int8
        assert np.array_equal(table, walsh_signs(bits, np.arange(1 << lam, dtype=np.int64)))
        assert np.array_equal(table.astype(np.int64), oracles.walsh_samples(lam, bits))


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


def _near(value: float):
    """The l1 sum fold adds in another order than a row's own sum."""
    return pytest.approx(value, rel=1e-15, abs=0)


def test_sweep_matches_per_mask_rows_bit_identical():
    lam = 8
    l1 = all_mask_l1(lam)
    sup = all_mask_sup(lam)
    for bits in range(0, 1 << lam, 17):
        assert l1[bits] == _near(l1_accumulate(WalshMask(bits, lam)))
        assert sup[bits] == sup_norm(WalshMask(bits, lam))


def test_sweep_with_selector():
    lam = 6
    out = all_mask_l1(lam, FullRange())
    for bits in (0, 1, 0b111, 0b101010):
        assert out[bits] == _near(l1_accumulate(WalshMask(bits, lam)))


def _fold_selectors(lam):
    top = 1 << lam
    return [FullRange(), ResidueClass(0, 0), ResidueClass((top >> 1) - 1, lam - 1),
            Interval(0, 1), Interval(top - 1, top)]


@pytest.mark.parametrize("lam", range(1, 13))
def test_sup_fold_equals_every_per_mask_row(lam):
    for selector in _fold_selectors(lam):
        sup = all_mask_sup(lam, selector)
        assert sup.shape == (1 << lam,)
        for bits in range(1 << lam):
            assert sup[bits] == sup_norm(WalshMask(bits, lam), selector)


def test_sup_fold_at_the_exhaustive_cap():
    lam = 14
    sup = all_mask_sup(lam)
    for bits in [0, 1, (1 << lam) - 1, *range(0, 1 << lam, 97)]:
        assert sup[bits] == sup_norm(WalshMask(bits, lam))


def test_l1_sweep_at_the_exhaustive_cap():
    lam = 14
    l1 = all_mask_l1(lam)
    for bits in [0, 1, (1 << lam) - 1, *range(0, 1 << lam, 97)]:
        assert l1[bits] == _near(l1_accumulate(WalshMask(bits, lam)))


@pytest.mark.parametrize("lam", range(1, 9))
def test_sup_fold_against_trig_oracle(lam):
    ks = np.arange(1 << lam)
    for selector in (FullRange(), ResidueClass(1 % (1 << (lam - 1)), lam - 1)):
        sel = ks[_selector_slice(lam, selector)]
        want = [oracles.trig_magnitudes(lam, bits, sel).max() for bits in range(1 << lam)]
        np.testing.assert_allclose(all_mask_sup(lam, selector), want, rtol=1e-12)


@pytest.mark.parametrize("lam", range(1, 9))
def test_l1_fold_against_trig_oracle(lam):
    ks = np.arange(1 << lam)
    for selector in (FullRange(), ResidueClass(1 % (1 << (lam - 1)), lam - 1)):
        sel = ks[_selector_slice(lam, selector)]
        want = [oracles.trig_magnitudes(lam, bits, sel).sum() for bits in range(1 << lam)]
        np.testing.assert_allclose(all_mask_l1(lam, selector), want, rtol=1e-12)


def _oracle_selectors(lam):
    """FullRange, ResidueClass(3, 2) and Interval(5, 200) where lam admits them."""
    return [FullRange()] + [ResidueClass(3, 2)] * (lam > 2) + [Interval(5, 200)] * (lam >= 8)


@pytest.mark.parametrize("lam", [*range(1, 13), 14])
def test_l1_fold_within_four_ulp_of_fsum(lam):
    masks = range(1 << lam) if lam <= 12 else [0, 1, (1 << lam) - 1, *range(0, 1 << lam, 97)]
    for selector in _oracle_selectors(lam):
        l1 = all_mask_l1(lam, selector)
        sel = _selector_slice(lam, selector)
        for bits in masks:
            exact = math.fsum(walsh._row(lam, bits)[sel].tolist())
            assert abs(l1[bits] - exact) <= 4 * np.spacing(exact), (selector, bits)


@pytest.mark.parametrize(
    "selector", [ResidueClass(3, 2), ResidueClass(0, 5), Interval(5, 200), Interval(0, 256)],
    ids=repr,
)
def test_sweep_with_residue_and_interval_selectors(selector):
    lam = 8
    l1 = all_mask_l1(lam, selector)
    sup = all_mask_sup(lam, selector)
    for bits in range(1 << lam):
        assert l1[bits] == _near(l1_accumulate(WalshMask(bits, lam), selector))
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


@pytest.mark.parametrize("lam", [16, 17, 18])
@pytest.mark.parametrize("sweep", [all_mask_l1, all_mask_sup])
def test_fold_charge_covers_its_measured_peak(sweep, lam):
    walsh._period_tables.cache_clear()  # the first fold at a lambda builds them
    tracemalloc.start()
    try:
        sweep(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 <= peak / limits.require_table_bytes(lam, walsh._FOLD_BYTES) <= 1.0


def _bilinear_chain(mu, nu):
    # as the bilinear command runs it: beta is drawn under its own charge
    cfg = sums.BilinearConfig(0x6, mu, nu, rho=3)
    beta = sums.coefficient_table("random", cfg.n_count, 0)
    return sums.cauchy_schwarz_chain(cfg, beta)


def _streamed_dump(kind, lam):
    # as the sieve command runs it with a .bin --out
    with tempfile.TemporaryDirectory() as work:
        return sieve.stream_sequence(kind, lam, Path(work) / "t.bin")


def _loaded_dump(kind, lam):
    # the dump is written beforehand; its directory goes with the returned call
    work = tempfile.TemporaryDirectory()
    sieve.stream_sequence(kind, lam, Path(work.name) / "t.bin")
    return lambda: sieve.load_sequence(Path(work.name) / "t.bin")


# every path that charges the memory budget, as (name, sizes, make) with
# make(size) giving the call to measure; its inputs are built beforehand
CHARGED_PATHS = [
    ("moebius table", (18, 19, 20, 21), lambda lam: lambda: sieve.sequence("moebius", lam)),
    ("liouville table", (18, 21), lambda lam: lambda: sieve.sequence("liouville", lam)),
    ("sign transform", (18, 19, 20, 21),
     lambda lam: lambda: fwht.sign_max_correlations("moebius", [lam])),
    ("plain spectrum", (18, 19, 20, 21),
     lambda lam: functools.partial(fwht.spectrum, sieve.sequence("liouville", lam).values)),
    ("float spectrum", (18, 21), lambda lam: functools.partial(
        fwht.spectrum, sieve.sequence("moebius", lam).values.astype(np.float64))),
    ("prefix peaks", (18, 21), lambda lam: functools.partial(
        fwht.prefix_max_correlations, sieve.sequence("moebius", lam).values, [lam - 4, lam])),
    ("von mangoldt table", (18, 19, 20, 21),
     lambda lam: lambda: sieve.sequence("von_mangoldt", lam)),
    *((f"{kind.replace('_', ' ')} dump stream", (18, 19, 20, 21),
       lambda lam, kind=kind: functools.partial(_streamed_dump, kind, lam))
      for kind in ("moebius", "liouville", "von_mangoldt")),
    *((f"{kind.replace('_', ' ')} loaded dump", (18, 19, 20, 21),
       lambda lam, kind=kind: _loaded_dump(kind, lam))
      for kind in ("moebius", "liouville", "von_mangoldt")),
    ("magnitude row", (14, 16, 18), lambda lam: functools.partial(
        magnitude_row, lam, 0b1011, np.arange(4))),
    ("per-mask rows", (14, 15, 16, 17, 18), lambda lam: lambda: lemmas.run_scan(
        lemmas.ScanConfig(lam, lam, "random", 4, 0, (1, 2, 3, 4, 6)))),
    # one lambda's period tables are cached at a time through a scan
    ("per-mask rows from lambda 14", (18,), lambda lam: lambda: lemmas.run_scan(
        lemmas.ScanConfig(14, lam, "random", 4, 0, (1, 2, 3, 4, 6)))),
    ("structured rows", (14, 16), lambda lam: lambda: lemmas.run_scan(
        lemmas.ScanConfig(lam, lam, "structured", lemmas=(1, 2, 3, 4, 6)))),
    # lemma 5 synthesizes and audits beside the other lemmas' reports
    ("structured rows with lemma 5", (14, 16), lambda lam: lambda: lemmas.run_scan(
        lemmas.ScanConfig(lam, lam, "structured"))),
    ("all-mask lemma 2", (14, 15), lambda lam: lambda: lemmas.run_scan(
        lemmas.ScanConfig(lam, lam, "all", lemmas=(2,)))),
    ("all-mask lemma 3", (14, 15), lambda lam: lambda: lemmas.run_scan(
        lemmas.ScanConfig(lam, lam, "all", lemmas=(3,)))),
    ("lemma 5 audit", (14, 15, 16, 20), lambda lam: lambda: lemmas.check_lemma5(
        approximant.ApproximantConfig(lam, 4, 4), WalshMask(0b1011 << (lam - 4), lam))),
    ("lemma 5 scan", (14, 15, 16), lambda lam: lambda: lemmas.scan_lemma_at(
        lemmas.ScanConfig(lam, lam, "structured", lemmas=(5,)), 5, lam)),
    ("band audit", (14, 16), lambda lam: functools.partial(
        approximant.band_profile, approximant.build_approximant(
            WalshMask(1 << (lam - 1), lam), approximant.ApproximantConfig(lam, 4, 4)))),
    ("split", (14, 15, 16, 18, 20), lambda lam: lambda: sums.split_report(
        sums.SplitConfig(0b11 << (lam - 2), lam, 1, 4))),
    ("split sumset", (14, 16), lambda lam: lambda: sums.split_report(
        sums.SplitConfig(0b1111 << (lam - 4), lam, 2, 5))),
    # 2^22 mode tuples, from two factors of 2^11 modes
    ("split of 2^22 tuples", (16,), lambda lam: lambda: sums.split_report(
        sums.SplitConfig(0b11 << (lam - 2), lam, 1, 11))),
    # one factor: its 2^21 modes are the tuples
    ("split of 2^21 modes", (14,), lambda lam: lambda: sums.split_report(
        sums.SplitConfig(1 << (lam - 1), lam, 1, 21))),
    ("bilinear", ((7, 14), (8, 16)), lambda mn: lambda: _bilinear_chain(*mn)),
    ("quadform", ((7, 14), (8, 16)), lambda mn: lambda: sums.quadform_report(
        sums.BilinearConfig(0x6, *mn, rho=3))),
    ("carry-rate", ((7, 14), (8, 16)), lambda mn: lambda: sums.carry_report(
        sums.BilinearConfig(0x6, *mn, rho=3))),
    ("type1", ((7, 14), (8, 16)), lambda mn: lambda: sums.type1_report(0x6, *mn)),
]


@pytest.mark.parametrize("make, size", [(make, size) for _, sizes, make in CHARGED_PATHS
                                        for size in sizes],
                         ids=[f"{name}-{size}" for name, sizes, _ in CHARGED_PATHS
                              for size in sizes])
def test_charge_covers_its_measured_peak(monkeypatch, make, size):
    # the largest charge a path makes is what decides whether it runs: it
    # must cover the path's traced peak, and not by more than a factor of
    # two.  One warm-up run first, so imports and FFT plans are not counted
    # as the path's own; the period tables are then built again, as at the
    # first call at a lambda
    charges = []
    real = limits.require_bytes

    def spy(need, *rest, **kw):
        charges.append(need)
        return real(need, *rest, **kw)

    for mod in (limits, sieve, lemmas, sums):
        monkeypatch.setattr(mod, "require_bytes", spy)
    run = make(size)
    run()
    walsh._period_tables.cache_clear()
    charges.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 <= peak / max(charges) <= 1.0, (peak, charges)


def test_scan_holds_one_lambdas_period_tables():
    # a scan over 14..18 peaks about where lambda 18 alone does: a finished
    # lambda's tables are dropped before the next lambda's are built
    def peak(lo):
        walsh._period_tables.cache_clear()
        tracemalloc.start()
        try:
            lemmas.run_scan(lemmas.ScanConfig(lo, 18, "random", 4, 0, (1, 2, 3, 4, 6)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(14) <= 1.2 * peak(18)
    assert walsh._period_tables.cache_info().currsize == 1


@pytest.mark.parametrize("sweep", [all_mask_l1, all_mask_sup])
def test_fold_refuses_before_allocating(monkeypatch, sweep):
    walsh._period_tables.cache_clear()
    monkeypatch.setenv(limits.ENV_MAX_MEM, "0.0005")  # 512 KiB; lam=14 needs 1 MiB
    tracemalloc.start()
    try:
        with pytest.raises(limits.ResourceLimitError, match="all-mask fold at lambda=14"):
            sweep(14)
        monkeypatch.delenv(limits.ENV_MAX_MEM)
        with pytest.raises(limits.ResourceLimitError, match="lambda=30"):
            sweep(30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("call", [lambda: magnitude_row(22, 5, np.arange(4)),
                                  lambda: l1_accumulate(WalshMask(5, 22)),
                                  lambda: sup_norm(WalshMask(5, 22), ResidueClass(1, 3))],
                         ids=["magnitude_row", "l1_accumulate", "sup_norm"])
def test_row_refuses_before_allocating(monkeypatch, call):
    # one lambda=22 row is 32 MiB, and its period tables 128 MiB more
    walsh._period_tables.cache_clear()
    monkeypatch.setenv(limits.ENV_MAX_MEM, "0.001")
    tracemalloc.start()
    try:
        with pytest.raises(limits.ResourceLimitError, match="magnitude row at lambda=22"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
