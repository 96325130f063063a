import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import oracles
import walshlab.lemmas
import walshlab.walsh
from walshlab import (
    ApproximantConfig,
    CheckReport,
    ScanConfig,
    WalshMask,
    all_mask_l1,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    l1_accumulate,
    report_from_dict,
    run_scan,
    scan_lemma_at,
    summarize,
)
from walshlab.lemmas import DEFAULT_BRACKETS, EXPLICIT_BASE, mask_family
from walshlab.report import ReportColumns, expand
from walshlab.limits import ResourceLimitError


# ---------------------------------------------------------------------------
# report plumbing


def test_report_rejects_unknown_id():
    with pytest.raises(ValueError):
        CheckReport("L9", {}, 1.0, 2.0, None, True)


def test_report_dict_round_trip():
    rep = check_lemma3(8, WalshMask(0b1011, 8))
    again = report_from_dict(rep.as_dict())
    assert again == rep
    assert rep.as_dict()["pass"] is True


def test_report_coerces_numeric_fields():
    rep = CheckReport("L3", {}, np.float64(1.5), 2, None, np.True_)
    assert isinstance(rep.lhs, float) and isinstance(rep.rhs, float)
    assert type(rep.ratio) is float and rep.ratio == 0.75
    assert isinstance(rep.passed, bool)


# ---------------------------------------------------------------------------
# individual checkers


def test_lemma1_fitted_constant_small():
    rep = check_lemma1(10, WalshMask(0b1100101, 10))
    assert rep.passed
    assert rep.fitted_constant < 1.0  # measured max over lam<=14 is 0.4814
    assert rep.lhs == pytest.approx(l1_accumulate(WalshMask(0b1100101, 10)))


def test_lemma1_empty_mask_degenerate():
    rep = check_lemma1(10, WalshMask(0, 10))
    assert rep.passed and rep.params.get("degenerate")
    assert rep.fitted_constant is None
    # point mass at k=0; the off-peak entries are cos(pi/2) rounding dust
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)


def test_lemma2_exponent_floor():
    rep = check_lemma2(10, WalshMask(0b1111, 10))
    assert rep.passed
    assert rep.fitted_constant >= DEFAULT_BRACKETS["L2"]


def test_lemma2_character_masks_flagged():
    for bits in (0, 1):
        rep = check_lemma2(10, WalshMask(bits, 10))
        assert rep.passed and rep.params.get("degenerate")
        assert rep.fitted_constant == 0.0 or rep.fitted_constant is None


def test_lemma3_explicit_bound_holds_everywhere_small():
    lam = 8
    l1 = all_mask_l1(lam)
    bound = EXPLICIT_BASE ** (lam / 4.0) + 1e-9
    assert float(l1.max()) <= bound
    worst = int(np.argmax(l1))
    rep = check_lemma3(lam, WalshMask(worst, lam))
    # the sweep's sum fold and the mask's own row sum add in different orders
    assert rep.passed and rep.lhs == pytest.approx(float(l1[worst]), rel=1e-15, abs=0)


def test_lemma4_residue_class():
    rep = check_lemma4(10, 4, 3, WalshMask(0b1010011, 10))
    assert rep.passed
    assert rep.params["r"] == 4 and rep.params["a"] == 3
    assert rep.rhs == pytest.approx(
        DEFAULT_BRACKETS["L4"] * EXPLICIT_BASE ** ((10 - 4) / 4.0)
    )


def test_lemma5_tail_quartet_passes():
    cfg = ApproximantConfig(10, 4, 4)
    for bits in (0x0, 0x200, 0x240, 0x3C0):
        rep = check_lemma5(cfg, WalshMask(bits, 10))
        assert rep.passed, (hex(bits), rep.params["subchecks"])


def test_lemma5_empty_mask_slope_is_degenerate_dust():
    rep = check_lemma5(ApproximantConfig(10, 4, 4), WalshMask(0, 10))
    assert rep.passed
    assert rep.params["error_slope"] is None
    assert max(rep.params["rms_errors"]) < 1e-12


def test_lemma5_slope_strictly_negative_on_content():
    rep = check_lemma5(ApproximantConfig(12, 4, 4), WalshMask(0b11 << 10, 12))
    assert rep.passed
    assert rep.params["error_slope"] < -0.5


def test_lemma5_subcheck_keys():
    rep = check_lemma5(ApproximantConfig(10, 4, 4), WalshMask(0x300, 10))
    assert set(rep.params["subchecks"]) == {
        "fitted_in_bracket",
        "error_slope_negative",
        "support_clean",
        "dominated",
        "sup_bounded",
    }


def test_lemma6_interval_bound():
    rng = np.random.default_rng(5)
    lam = 10
    for _ in range(50):
        bits = int(rng.integers(0, 1 << lam))
        lo = int(rng.integers(1, (1 << lam) - 1))
        hi = int(rng.integers(lo + 1, 1 << lam))
        rep = check_lemma6(lam, lo, hi, WalshMask(bits, lam))
        assert rep.passed
        size = hi - lo
        m = (size - 1).bit_length()
        assert rep.params["m"] == m
        assert rep.rhs == pytest.approx(EXPLICIT_BASE ** (m / 4.0) + 0.0, abs=1e-12)


def test_lemma6_rejects_bad_interval():
    with pytest.raises(ValueError):
        check_lemma6(10, 0, 4, WalshMask(1, 10))  # must start at k >= 1
    with pytest.raises(ValueError):
        check_lemma6(10, 7, 7, WalshMask(1, 10))


# ---------------------------------------------------------------------------
# scans


def test_mask_family_all_is_exhaustive():
    cfg = ScanConfig(6, 6, mask_family="all")
    fam = mask_family(cfg, 6)
    assert list(fam) == list(range(64))


def test_mask_family_random_is_seeded():
    cfg_a = ScanConfig(10, 10, mask_family="random", count=16, seed=3)
    cfg_b = ScanConfig(10, 10, mask_family="random", count=16, seed=3)
    assert mask_family(cfg_a, 10) == mask_family(cfg_b, 10)
    cfg_c = ScanConfig(10, 10, mask_family="random", count=16, seed=4)
    assert mask_family(cfg_a, 10) != mask_family(cfg_c, 10)


def test_mask_family_structured_includes_adversaries():
    cfg = ScanConfig(10, 10, mask_family="structured")
    fam = set(mask_family(cfg, 10))
    assert 0 in fam                    # empty mask
    assert (1 << 10) - 1 in fam        # full mask
    assert any(bits and bits == (bits & -bits) for bits in fam)  # singletons


def test_exhaustive_scan_matches_per_mask_checks():
    # whole reports for every mask, the degenerate and character masks included
    for lam in (6, 8):
        for lemma, check in ((1, check_lemma1), (2, check_lemma2), (3, check_lemma3)):
            cfg = ScanConfig(lam, lam, mask_family="all", lemmas=(lemma,))
            sweep = scan_lemma_at(cfg, lemma, lam)
            direct = [check(lam, WalshMask(bits, lam)) for bits in range(1 << lam)]
            oracles.assert_reports_match(sweep, direct)


@pytest.mark.parametrize("lam", range(1, 13))
def test_all_mask_rows_equal_the_per_mask_checks_bit_for_bit(monkeypatch, lam):
    # with the fold's l1 sums as the per-mask measurement, every row of the
    # column verdicts is the one-mask check's report and the scalar oracle's
    # (Python floats, math's libm), -0.0 and all
    fulls, tops = all_mask_l1(lam), walshlab.walsh.all_mask_sup(lam)
    monkeypatch.setattr(walshlab.lemmas, "l1_accumulate", lambda mask: float(fulls[mask.bits]))
    rows = {}
    for lemma, check, lhs in ((1, check_lemma1, fulls), (2, check_lemma2, tops),
                              (3, check_lemma3, fulls)):
        parts = scan_lemma_at(ScanConfig(lam, lam, mask_family="all"), lemma, lam)
        rows[lemma] = [repr(r) for r in expand(parts)]
        assert rows[lemma] == [repr(check(lam, WalshMask(b, lam))) for b in range(1 << lam)]
        assert rows[lemma] == [repr(oracles.scalar_report(lemma, lam, b, x))
                               for b, x in enumerate(lhs.tolist())]
    # mask 1's fitted decay exponent is -log2(1.0) / 1
    assert "'degenerate': True}, lhs=1.0, rhs=1.0, ratio=1.0, fitted_constant=-0.0" in rows[2][1]


def test_all_mask_scan_keeps_its_rows_as_blocks():
    # the degenerate masks are reports in their place, the rest one block
    parts = scan_lemma_at(ScanConfig(10, 10, mask_family="all"), 2, 10)
    assert [type(p) for p in parts] == [CheckReport, CheckReport, ReportColumns]
    assert [p.params["mask"] for p in parts[:2]] == [0, 1]
    assert parts[2].params["mask"].tolist() == list(range(2, 1 << 10))
    assert parts[2].params["lambda"] == 10


def test_summarize_reads_blocks_as_their_rows():
    parts = scan_lemma_at(ScanConfig(8, 8, mask_family="all"), 2, 8)
    summary = summarize(parts)
    assert repr(summary) == repr(summarize(expand(parts)))
    assert repr(summary.params["min_fitted"]) == "-0.0"
    # of equal extremes the first is kept, as min and max keep it
    block = ReportColumns("L1", {"mask": np.arange(4)}, np.ones(4), 1.0,
                          np.array([0.0, -0.0, 2.0, 2.0 + 0.0]), np.array([1, 0, 1, 1], bool))
    for reports in ([block], [block, check_lemma3(6, WalshMask(3, 6))],
                    [CheckReport("L1", {}, 1.0, 1.0, -0.0, True), block]):
        summary = summarize(reports)
        assert repr(summary) == repr(summarize(expand(reports)))
        assert summary.params["n_failures"] == 1


def test_random_scan_keeps_character_masks_in_their_draw_order():
    cfg = ScanConfig(3, 4, mask_family="random", count=16, seed=2, lemmas=(1, 2, 3))
    for lam in (3, 4):
        family = mask_family(cfg, lam)
        assert {0, 1} <= set(family) and family[:2] != [0, 1]
    parts = run_scan(cfg)
    assert {type(p) for p in parts} == {CheckReport, ReportColumns}
    reports = expand(parts)
    assert reports == oracles.per_mask_scan(cfg)
    masks = [r.params["mask"] for r in reports if r.lemma_id == "L2"]
    assert masks == mask_family(cfg, 3) + mask_family(cfg, 4)


def test_exhaustive_scan_is_refused_by_its_charge():
    # no lambda cap: 2^15 masks construct, and 2^25 masks' block rows and
    # period tables (3.0 GiB) exceed the default budget before any fold or
    # row is allocated
    ScanConfig(15, 15, mask_family="all")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="all-mask scan of 33554432 masks"):
            run_scan(ScanConfig(25, 25, mask_family="all", lemmas=(3,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_run_scan_appends_summary_and_is_deterministic():
    cfg = ScanConfig(8, 9, mask_family="random", count=8, seed=11, lemmas=(1, 3, 6))
    a = expand(run_scan(cfg))
    b = expand(run_scan(cfg))
    assert a == b
    assert a[-1].lemma_id == "SUMMARY"
    assert a[-1].passed
    assert a[-1].lhs == 0.0  # failure count
    body = a[:-1]
    assert {r.lemma_id for r in body} == {"L1", "L3", "L6"}


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("family, lam_max, lemmas", [
    ("random", 10, (1, 2, 3, 4, 5, 6)),
    ("structured", 10, (1, 2, 3, 4, 5, 6)),
    ("all", 7, (1, 2, 3, 4, 5, 6)),
    ("random", 8, (6, 1, 4, 2)),  # any order (a repeat is refused)
])
def test_run_scan_matches_per_mask_oracle(seed, family, lam_max, lemmas):
    # count 64 at lam=6 repeats masks, and r=6 is skipped at lam=6
    cfg = ScanConfig(6, lam_max, mask_family=family, count=64, seed=seed, lemmas=lemmas)
    if family == "random":
        assert len(set(mask_family(cfg, 6))) < 64
    if family == "all":
        # L1, L3 and L5 read their l1 sums from the all-mask fold
        oracles.assert_reports_match(run_scan(cfg), oracles.per_mask_scan(cfg))
    else:
        assert expand(run_scan(cfg)) == oracles.per_mask_scan(cfg)


def _count_rows(monkeypatch) -> Counter:
    built = Counter()
    row = walshlab.walsh._row

    def counting_row(lam, bits):
        built[lam] += 1
        return row(lam, bits)

    monkeypatch.setattr(walshlab.walsh, "_row", counting_row)
    monkeypatch.setattr(walshlab.lemmas, "_row", counting_row, raising=False)
    return built


def test_scan_builds_one_row_per_mask_occurrence(monkeypatch):
    built = _count_rows(monkeypatch)
    cfg = ScanConfig(8, 10, count=16, seed=5, lemmas=(1, 2, 3, 4, 6))
    reports = expand(run_scan(cfg))
    assert built == {8: 16, 9: 16, 10: 16}
    assert len(reports) == 3 * 16 * (3 + 3 + 4) + 1


def test_scan_rejects_oversized_lambda_before_any_row(monkeypatch):
    # 4 MiB holds a lambda=12 scan, but not the lambda=17 period tables and
    # lemma 5's band audit there, which the scan charges before lambda 12 runs
    built = _count_rows(monkeypatch)
    monkeypatch.setenv("WSL_MAX_MEM_GIB", str(4 / 1024))
    with pytest.raises(ResourceLimitError, match="period tables and one band audit at lambda=17"):
        run_scan(ScanConfig(12, 17, count=4))
    assert not built


def test_summarize_counts_failures():
    good = check_lemma3(6, WalshMask(0b11, 6))
    bad = CheckReport("L1", {"lambda": 6}, 5.0, 1.0, 99.0, False)
    summary = summarize([good, bad])
    assert not summary.passed
    assert summary.lhs == 1.0
    assert summary.params["n_reports"] == 2
    assert summary.params["n_failures"] == 1


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(9, 8)
    with pytest.raises(ValueError):
        ScanConfig(0, 4)
    with pytest.raises(ValueError):
        ScanConfig(8, 8, mask_family="everything")
    with pytest.raises(ValueError):
        ScanConfig(8, 8, lemmas=(7,))
    for count in (0, -3):
        with pytest.raises(ValueError, match="count"):
            ScanConfig(8, 8, count=count)
    # no lambda cap: the scan's charge is the size guard
    ScanConfig(12, 17)


def test_scan_config_refuses_repeated_selectors():
    # a repeat would write its lemma's reports twice and count both in SUMMARY
    for lemmas, named in [((1, 1, 2), r"\[1\]"), ((3, 5, 3, 5, 3), r"\[3, 5\]")]:
        with pytest.raises(ValueError, match="repeated lemma selectors " + named):
            ScanConfig(8, 8, lemmas=lemmas)
    assert ScanConfig(8, 8, lemmas=(6, 1, 4, 2)).lemmas == (6, 1, 4, 2)


def test_lemma5_scan_uses_shrunk_sigma_at_small_lambda():
    cfg = ScanConfig(8, 8, mask_family="structured", lemmas=(5,))
    reps = scan_lemma_at(cfg, 5, 8)
    assert reps and all(r.passed for r in reps)
    assert all(r.params["sigma"] == 2 for r in reps)  # min(4, lam-6)


@pytest.mark.parametrize("lam, lemmas", [(8, (1, 2, 3, 4, 6)), (12, (1, 2, 3, 4, 6)),
                                         (16, (6,)), (12, (2,))])
def test_random_scan_charge_covers_its_peak(monkeypatch, lam, lemmas):
    # the masks and reports, the rows and the period tables are held at once,
    # and the scan charges them together before any draw: that one charge
    # covers the scan's traced peak within a factor of two
    config = ScanConfig(lam, lam, "random", 2000, 0, lemmas)
    charges = []
    monkeypatch.setattr(walshlab.limits, "require_bytes",
                        lambda need, *rest, **kw: charges.append(need))
    monkeypatch.setattr(walshlab.lemmas, "require_bytes",
                        lambda need, *rest, **kw: charges.append(need))
    walshlab.walsh._period_tables.cache_clear()
    tracemalloc.start()
    run_scan(config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    [charge] = charges
    assert peak <= charge <= 2 * peak, (peak, charges)
