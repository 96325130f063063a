import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from walshlab import (
    ResourceLimitError,
    WalshMask,
    max_correlation,
    prefix_max_correlations,
    sequence,
    spectrum,
    theorem_scan,
    walsh_table,
)
from walshlab import fwht
from walshlab.fwht import _CHUNK, _NARROW, DEFAULT_BLOCK, _peak
from walshlab.fwht import _correlation_check


def test_delta_transforms_to_all_ones():
    assert np.array_equal(spectrum(np.array([1, 0, 0, 0])), [1, 1, 1, 1])


def test_constant_transforms_to_point_mass():
    entries = spectrum(np.ones(8, dtype=np.int64))
    assert entries[0] == 8 and not entries[1:].any()


def test_character_input_gives_point_mass():
    lam, bits = 8, 0b1011_0010
    entries = spectrum(walsh_table(WalshMask(bits, lam)))
    assert entries[bits] == 1 << lam
    entries[bits] = 0
    assert not entries.any()


def test_moebius_dc_entry_is_mertens():
    values = sequence("moebius", 3).values
    assert np.array_equal(values, [0, 1, -1, -1, 0, -1, 1, -1])
    assert spectrum(values)[0] == -2  # M(7)


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
def test_matches_naive_matmul_on_random_integers(lam, rng):
    for _ in range(8):
        vals = rng.integers(-3, 4, size=1 << lam).astype(np.int64)
        assert np.array_equal(spectrum(vals), oracles.naive_fwht(vals))


def test_matches_naive_on_floats(rng):
    vals = rng.normal(size=1 << 9)
    np.testing.assert_allclose(spectrum(vals), oracles.naive_fwht(vals), atol=1e-9, rtol=0)


def test_involution_and_parseval_lambda_16(rng):
    lam = 16
    vals = (rng.integers(0, 2, size=1 << lam) * 2 - 1).astype(np.int64)
    once = spectrum(vals)
    assert int((once.astype(object) ** 2).sum()) == (1 << lam) * int(
        (vals.astype(object) ** 2).sum()
    )
    assert np.array_equal(spectrum(once), vals << lam)


def test_blocked_and_full_stages_match_axis_oracle(rng):
    # lambda 1..18 covers tables narrower than the transposed width
    # (2^_NARROW), exactly that width, one block (DEFAULT_BLOCK = 2^16) and
    # several blocks followed by cross-block stages (17 and 18); sign tables
    # transform in int32 whatever their dtype, floats in float64
    assert DEFAULT_BLOCK.bit_length() <= 18
    for lam in range(1, 19):
        vals = rng.integers(-1, 2, size=1 << lam)
        truth = oracles.axis_fwht(vals)
        for dtype, out in ((np.int8, np.int32), (np.int64, np.int32), (np.float64, np.float64)):
            got = spectrum(vals.astype(dtype))
            assert got.dtype == out
            assert np.array_equal(got, truth), (lam, dtype)


def test_rejects_non_power_of_two():
    for table in (np.zeros(6, dtype=np.int8), np.zeros(6), np.zeros(0, dtype=np.int8)):
        with pytest.raises(ValueError, match="power of two"):
            spectrum(table)
        with pytest.raises(ValueError, match="power of two"):
            max_correlation(table)


def test_overflow_precheck():
    with pytest.raises(ResourceLimitError, match="64-bit"):
        spectrum(np.full(1 << 4, 1 << 60, dtype=np.int64))


def test_spectrum_normalized_indicator():
    lam, bits = 6, 0b10110
    entries = spectrum(walsh_table(WalshMask(bits, lam)).astype(np.float64)) / float(1 << lam)
    assert entries[bits] == pytest.approx(1.0)
    assert np.abs(np.delete(entries, bits)).max() < 1e-12


def test_spectrum_raw_constant():
    entries = spectrum(np.ones(8))
    assert entries.dtype == np.float64
    assert entries[0] == 8 and not entries[1:].any()


def test_max_correlation_small_moebius():
    mask, value = max_correlation(sequence("moebius", 2).values)
    assert (mask.bits, value) == (0b10, 3)


def test_max_correlation_zero_sequence_tie_break():
    mask, value = max_correlation(np.zeros(16, dtype=np.int8))
    assert (mask.bits, value) == (0, 0)


def test_max_correlation_character_input():
    lam, bits = 9, 0b1_0010_0110
    mask, value = max_correlation(walsh_table(WalshMask(bits, lam)))
    assert (mask.bits, value) == (bits, 1 << lam)


def test_max_correlation_rejects_wide_values():
    with pytest.raises(ValueError, match="entries"):
        max_correlation(np.array([0, 1, 2, 0, 0, 1, 0, 1]))
    # a float table is refused even when its values are signs
    for table in (np.array([0.5, 0, 0, 0]), np.array([0, 1.0, -1.0, 1.0])):
        with pytest.raises(ValueError, match="integer"):
            max_correlation(table)


@given(st.integers(0, (1 << 10) - 1))
def test_spot_consistency_with_walsh_eval(bits):
    values = sequence("liouville", 10).values
    direct = int(
        np.dot(
            values.astype(np.int64),
            walsh_table(WalshMask(bits, 10)).astype(np.int64),
        )
    )
    assert spectrum(values)[bits] == direct


# ---------------------------------------------------------------------------
# int32 sign transform, chunked peak and the prefix scan


@pytest.mark.parametrize("lam", [1, 2, 3, 5, 8, 11, 14, 17])
def test_int32_matches_int64_on_random_sign_tables(lam, rng):
    for _ in range(4):
        vals = rng.integers(-1, 2, size=1 << lam)
        narrow = spectrum(vals)
        assert narrow.dtype == np.int32
        assert np.array_equal(narrow, oracles.axis_fwht(vals))
    if lam <= 10:
        assert np.array_equal(narrow, oracles.naive_fwht(vals))


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_sign_spectrum_is_int32_and_equals_int64_at_lambda_20(kind):
    values = sequence(kind, 20).values
    entries = spectrum(values)
    wide = oracles.axis_fwht(values)
    assert entries.dtype == np.int32 and wide.dtype == np.int64
    assert np.array_equal(entries, wide)
    mask, value = max_correlation(values)
    idx = int(np.argmax(np.abs(wide)))
    assert (mask.bits, value) == (idx, int(wide[idx]))


def test_large_integer_tables_stay_int64():
    vals = np.zeros(1 << 6, dtype=np.int64)
    vals[3] = 1 << 40
    entries = spectrum(vals)
    assert entries.dtype == np.int64
    assert np.array_equal(entries, oracles.naive_fwht(vals))


def _tied_entries(lam, dtype, rng):
    entries = rng.integers(-50, 51, size=1 << lam).astype(dtype)
    # equal |values| of both signs, in several chunks, the first not the
    # first in its chunk
    ties = [_CHUNK + 17, 5, 3 * _CHUNK, _CHUNK + 16, (1 << lam) - 1]
    for i, pos in enumerate(ties):
        entries[pos] = 99 if i % 2 else -99
    return entries


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_chunked_peak_matches_argmax_with_ties(dtype, rng):
    lam = 18
    entries = _tied_entries(lam, dtype, rng)
    value, idx = _peak(entries)
    expect = int(np.argmax(np.abs(entries)))
    assert idx == expect == 5
    assert value == entries[expect] == 99
    # a tie that sits only in later chunks still goes to the smallest mask
    entries[5] = 0
    _, idx = _peak(entries)
    assert idx == int(np.argmax(np.abs(entries))) == _CHUNK + 16


def _direct_report(kind, lam):
    """The THM1 report from a transform of the kind's own table at lam."""
    return _correlation_check(lam, kind, *max_correlation(sequence(kind, lam).values))


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_prefix_scan_equals_per_lambda_reports(kind):
    lambdas = list(range(2, 17))
    scanned = theorem_scan(kind, lambdas)
    direct = [_direct_report(kind, lam) for lam in lambdas]
    assert scanned == direct


def test_prefix_scan_keeps_the_given_order():
    lambdas = [13, 3, 9, 3, 17]
    scanned = theorem_scan("moebius", lambdas)
    assert [r.params["lambda"] for r in scanned] == lambdas
    assert scanned == [_direct_report("moebius", lam) for lam in lambdas]
    assert theorem_scan("moebius", []) == []


def test_prefix_max_correlations_reads_each_prefix():
    values = sequence("liouville", 12).values
    got = prefix_max_correlations(values, [1, 4, 5, 12])
    for lam, (mask, value) in zip([1, 4, 5, 12], got):
        prefix = values[: 1 << lam].astype(np.int64)
        ref = oracles.naive_fwht(prefix)
        idx = int(np.argmax(np.abs(ref)))
        assert (mask.lam, mask.bits, value) == (lam, idx, int(ref[idx]))


def test_prefix_steps_straddling_the_transposed_width(rng):
    # steps that start below, at and above 2^_NARROW, in one block and past it
    steps = [1, 3, 6, 7, 8, 11, 17]
    assert steps[2] < _NARROW <= steps[3]
    vals = rng.integers(-1, 2, size=1 << 17).astype(np.int8)
    got = prefix_max_correlations(vals, steps)
    for lam, (mask, value) in zip(steps, got):
        ref = oracles.axis_fwht(vals[: 1 << lam])
        idx = int(np.argmax(np.abs(ref)))
        assert (mask.lam, mask.bits, value) == (lam, idx, int(ref[idx]))


def test_prefix_max_correlations_match_each_prefix_transform(monkeypatch):
    lambdas = [1, 2, 3, 6, 7, 8, 11]
    values = sequence("moebius", 12).values
    calls = []
    stages = fwht._stages

    def spy(buffer, first, last):
        if len(buffer) == len(values):
            calls.append((first, last))
        stages(buffer, first, last)

    monkeypatch.setattr(fwht, "_stages", spy)
    got = prefix_max_correlations(values, lambdas)
    monkeypatch.undo()
    for lam, peak in zip(lambdas, got):
        assert peak == max_correlation(values[: 1 << lam])
    # prefixes below 2^_NARROW read copies, so the whole table runs its
    # transposed stages in one pass and every stage once
    assert calls == [(0, 7), (7, 8), (8, 11)]


@pytest.mark.parametrize("lambdas", [[4, 4], [5, 3], [0, 3], [3, 13]])
def test_prefix_max_correlations_rejects_bad_lambdas(lambdas):
    with pytest.raises(ValueError, match="increase"):
        prefix_max_correlations(sequence("moebius", 12).values, lambdas)


# ---------------------------------------------------------------------------
# int16 in-block stages and the in-place widening


# bound * 2^k < 2^15: stages 0..k-1 run in int16
@pytest.mark.parametrize("bound, k", [(1, 14), (3, 13), (4, 12), (2**14 - 1, 1), (2**14, 0)])
def test_int16_stages_match_the_naive_oracle(bound, k, rng):
    assert fwht._int16_stages(bound) == k
    for lam in (1, 5, 10):
        n = 1 << lam
        # constant tables reach bound * 2^s at index 0 after stage s
        for vals in (np.full(n, bound), np.full(n, -bound), rng.integers(-bound, bound + 1, n)):
            got = spectrum(vals)
            assert got.dtype == np.int32
            assert np.array_equal(got, oracles.naive_fwht(vals)), (lam, vals[:4])
    # the widening and the int32 stages past k, in one block and across
    # blocks; index 0 holds bound * 2^k after stage k-1, and would overflow
    # int16 one stage later
    for lam in (15, 17):
        vals = np.full(1 << lam, bound)
        vals[rng.integers(1 << (lam - 1), 1 << lam, 100)] = -bound
        assert np.array_equal(spectrum(vals), oracles.axis_fwht(vals)), lam


@pytest.mark.parametrize("wide", [np.int32, np.int64])
@pytest.mark.parametrize("n", [1, 1 << 10, _CHUNK, 2 * _CHUNK, 1 << 19])
def test_widen_survives_the_overlap_a_direct_cast_does_not(rng, wide, n):
    vals = rng.integers(-(2**15), 2**15, size=n)

    def narrow_part():
        part = np.empty(n, dtype=wide)
        part.view(np.int16)[:n] = vals
        return part

    part = narrow_part()
    fwht._widen(part)
    assert np.array_equal(part, vals)
    if n < 64:
        return
    # numpy 2.4 casts an int16 view of the array's own bytes into it front
    # to back with no overlap check: both direct copies corrupt entries and
    # raise nothing, which is why _widen goes through a separate buffer
    for copy in (lambda p: p.__setitem__(slice(None), p.view(np.int16)[:n]),
                 lambda p: np.copyto(p, p.view(np.int16)[:n])):
        part = narrow_part()
        copy(part)
        assert not np.array_equal(part, vals)
