import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from walshlab import (
    ArithmeticSequence,
    ResourceLimitError,
    Spectrum,
    WalshMask,
    correlation_report,
    custom_sequence,
    fwht_in_place,
    max_correlation,
    prefix_max_correlations,
    sequence,
    spectrum,
    theorem_scan,
    walsh_table,
)
from walshlab.fwht import _CHUNK, DEFAULT_BLOCK


def test_delta_transforms_to_all_ones():
    buf = np.array([1, 0, 0, 0], dtype=np.int64)
    fwht_in_place(buf)
    assert np.array_equal(buf, [1, 1, 1, 1])


def test_constant_transforms_to_point_mass():
    buf = np.ones(8, dtype=np.int64)
    fwht_in_place(buf)
    assert buf[0] == 8 and not buf[1:].any()


def test_character_input_gives_point_mass():
    lam, bits = 8, 0b1011_0010
    buf = walsh_table(WalshMask(bits, lam)).astype(np.int64)
    fwht_in_place(buf)
    assert buf[bits] == 1 << lam
    buf[bits] = 0
    assert not buf.any()


def test_moebius_dc_entry_is_mertens():
    buf = sequence("moebius", 3).values.astype(np.int64)
    assert np.array_equal(buf, [0, 1, -1, -1, 0, -1, 1, -1])
    fwht_in_place(buf)
    assert buf[0] == -2  # M(7)


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
def test_matches_naive_matmul_on_random_integers(lam, rng):
    for _ in range(8):
        vals = rng.integers(-3, 4, size=1 << lam).astype(np.int64)
        buf = vals.copy()
        fwht_in_place(buf)
        assert np.array_equal(buf, oracles.naive_fwht(vals))


def test_matches_naive_on_floats(rng):
    vals = rng.normal(size=1 << 9)
    buf = vals.copy()
    fwht_in_place(buf)
    np.testing.assert_allclose(buf, oracles.naive_fwht(vals), atol=1e-9, rtol=0)


def test_involution_and_parseval_lambda_16(rng):
    lam = 16
    vals = (rng.integers(0, 2, size=1 << lam) * 2 - 1).astype(np.int64)
    buf = vals.copy()
    fwht_in_place(buf)
    assert int((buf.astype(object) ** 2).sum()) == (1 << lam) * int(
        (vals.astype(object) ** 2).sum()
    )
    fwht_in_place(buf)
    assert np.array_equal(buf, vals << lam)


def test_blocked_and_full_stages_match_axis_oracle(rng):
    # lambda 17 and 18 (DEFAULT_BLOCK = 2^16) are the first sizes where
    # full-array stages follow the blocked ones
    first = DEFAULT_BLOCK.bit_length()
    for lam in (first, first + 1):
        vals = rng.integers(-1, 2, size=1 << lam)
        truth = oracles.axis_fwht(vals)
        for dtype in (np.int32, np.int64):
            assert np.array_equal(fwht_in_place(vals.astype(dtype)), truth)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht_in_place(np.zeros(6, dtype=np.int64))


def test_rejects_narrow_dtype():
    with pytest.raises(TypeError):
        fwht_in_place(np.zeros(8, dtype=np.int8))


def test_overflow_precheck():
    buf = np.full(1 << 4, 1 << 60, dtype=np.int64)
    with pytest.raises(ResourceLimitError):
        fwht_in_place(buf)


def test_spectrum_normalized_indicator():
    lam, bits = 6, 0b10110
    seq = custom_sequence(lam, walsh_table(WalshMask(bits, lam)).astype(np.float64))
    entries = spectrum(seq).entries / float(1 << lam)
    assert entries[bits] == pytest.approx(1.0)
    assert np.abs(np.delete(entries, bits)).max() < 1e-12


def test_spectrum_raw_constant():
    seq = custom_sequence(3, np.ones(8))
    spec = spectrum(seq)
    assert spec.entries[0] == 8 and not np.asarray(spec.entries[1:]).any()


def test_max_correlation_small_moebius():
    mask, value = max_correlation(sequence("moebius", 2))
    assert (mask.bits, value) == (0b10, 3)


def test_max_correlation_zero_sequence_tie_break():
    mask, value = max_correlation(custom_sequence(4, np.zeros(16)))
    assert (mask.bits, value) == (0, 0)


def test_max_correlation_character_input():
    lam, bits = 9, 0b1_0010_0110
    seq = custom_sequence(lam, walsh_table(WalshMask(bits, lam)).astype(np.float64))
    mask, value = max_correlation(seq)
    assert (mask.bits, value) == (bits, 1 << lam)


def test_max_correlation_rejects_wide_values():
    with pytest.raises(ValueError):
        max_correlation(custom_sequence(3, np.array([0, 1, 2, 0, 0, 1, 0, 1.0])))
    with pytest.raises(ValueError):
        max_correlation(custom_sequence(2, np.array([0.5, 0, 0, 0])))


@given(st.integers(0, (1 << 10) - 1))
def test_spot_consistency_with_walsh_eval(bits):
    seq = sequence("liouville", 10)
    spec = spectrum(seq)
    direct = int(
        np.dot(
            seq.values.astype(np.int64),
            walsh_table(WalshMask(bits, 10)).astype(np.int64),
        )
    )
    assert spec.entries[bits] == direct


# ---------------------------------------------------------------------------
# int32 sign transform, chunked peak and the prefix scan


@pytest.mark.parametrize("lam", [1, 2, 3, 5, 8, 11, 14, 17])
def test_int32_matches_int64_on_random_sign_tables(lam, rng):
    for _ in range(4):
        vals = rng.integers(-1, 2, size=1 << lam)
        wide = vals.astype(np.int64)
        narrow = vals.astype(np.int32)
        fwht_in_place(wide)
        fwht_in_place(narrow)
        assert np.array_equal(narrow, wide)
    if lam <= 10:
        assert np.array_equal(narrow, oracles.naive_fwht(vals))


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_sign_spectrum_is_int32_and_equals_int64_at_lambda_20(kind):
    seq = sequence(kind, 20)
    spec = spectrum(seq)
    wide = fwht_in_place(seq.values.astype(np.int64))
    assert spec.entries.dtype == np.int32
    assert np.array_equal(spec.entries, wide)
    mask, value = max_correlation(seq)
    idx = int(np.argmax(np.abs(wide)))
    assert (mask.bits, value) == (idx, int(wide[idx]))


def test_int32_overflow_precheck():
    buf = np.full(1 << 4, 1 << 28, dtype=np.int32)
    with pytest.raises(ResourceLimitError, match="32-bit"):
        fwht_in_place(buf)


def test_large_integer_tables_stay_int64():
    vals = np.zeros(1 << 6, dtype=np.int64)
    vals[3] = 1 << 40
    spec = spectrum(ArithmeticSequence(6, "custom", vals))
    assert spec.entries.dtype == np.int64
    assert np.array_equal(spec.entries, oracles.naive_fwht(vals))


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
    mask, value = Spectrum(lam, entries).peak()
    expect = int(np.argmax(np.abs(entries)))
    assert mask.bits == expect == 5
    assert value == entries[expect] == 99
    # a tie that sits only in later chunks still goes to the smallest mask
    entries[5] = 0
    mask, _ = Spectrum(lam, entries).peak()
    assert mask.bits == int(np.argmax(np.abs(entries))) == _CHUNK + 16


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_prefix_scan_equals_per_lambda_reports(kind):
    lambdas = list(range(2, 17))
    scanned = theorem_scan(kind, lambdas)
    direct = [correlation_report(sequence(kind, lam)) for lam in lambdas]
    assert scanned == direct


def test_prefix_scan_keeps_the_given_order():
    lambdas = [13, 3, 9, 3, 17]
    scanned = theorem_scan("moebius", lambdas)
    assert [r.params["lambda"] for r in scanned] == lambdas
    assert scanned == [correlation_report(sequence("moebius", lam)) for lam in lambdas]
    assert theorem_scan("moebius", []) == []


def test_prefix_max_correlations_reads_each_prefix():
    seq = sequence("liouville", 12)
    got = prefix_max_correlations(seq, [1, 4, 5, 12])
    for lam, (mask, value) in zip([1, 4, 5, 12], got):
        prefix = seq.values[: 1 << lam].astype(np.int64)
        ref = oracles.naive_fwht(prefix)
        idx = int(np.argmax(np.abs(ref)))
        assert (mask.lam, mask.bits, value) == (lam, idx, int(ref[idx]))


@pytest.mark.parametrize("lambdas", [[4, 4], [5, 3], [0, 3], [3, 13]])
def test_prefix_max_correlations_rejects_bad_lambdas(lambdas):
    with pytest.raises(ValueError, match="increase"):
        prefix_max_correlations(sequence("moebius", 12), lambdas)
