import tracemalloc

import numpy as np
import pytest

import oracles
from walshlab import (
    ResourceLimitError,
    custom_sequence,
    dump_sequence,
    load_sequence,
    sequence,
)
from walshlab.sieve import DEFAULT_SEGMENT

MERTENS_SMALL = [1, 0, -1, -1, -2, -1, -2, -2, -2, -1]  # M(1)..M(10)


@pytest.mark.parametrize("kind", ["moebius", "liouville", "von_mangoldt"])
def test_sieve_matches_factorization_oracle(kind):
    lam = 12
    seq = sequence(kind, lam)
    ref = {
        "moebius": oracles.moebius_values,
        "liouville": oracles.liouville_values,
        "von_mangoldt": oracles.von_mangoldt_values,
    }[kind](1 << lam)
    if kind == "von_mangoldt":
        np.testing.assert_allclose(seq.values, ref, atol=1e-12, rtol=0)
    else:
        assert np.array_equal(seq.values.astype(np.int64), ref)


def test_sign_tables_are_int8_lambda_is_float():
    assert sequence("moebius", 8).values.dtype == np.int8
    assert sequence("liouville", 8).values.dtype == np.int8
    assert sequence("von_mangoldt", 8).values.dtype == np.float64


def test_zero_and_one_conventions():
    for kind in ("moebius", "liouville"):
        vals = sequence(kind, 4).values
        assert vals[0] == 0
        assert vals[1] == 1
    lam_vals = sequence("von_mangoldt", 4).values
    assert lam_vals[0] == 0.0 and lam_vals[1] == 0.0


def test_mertens_prefixes():
    vals = sequence("moebius", 4).values
    sums = np.cumsum(vals)
    assert list(sums[1:11]) == MERTENS_SMALL


def test_mertens_at_2_16_matches_oracle():
    vals = sequence("moebius", 16).values
    ref = oracles.moebius_values(1 << 16)
    assert int(vals.sum()) == int(ref.sum())


def test_liouville_complete_multiplicativity():
    vals = sequence("liouville", 12).values.astype(int)
    for n in range(1, 1 << 11):
        assert vals[2 * n] == -vals[n]
        if 3 * n < (1 << 12):
            assert vals[3 * n] == -vals[n]


@pytest.mark.parametrize("lam", [1, 2, 3, 5, 8, 11, 14, 16])
def test_factor_pass_matches_oracle(lam):
    n = 1 << lam
    assert np.array_equal(sequence("moebius", lam).values, oracles.moebius_values(n))
    assert np.array_equal(sequence("liouville", lam).values, oracles.liouville_values(n))


# a table of two segments (lambda = 21): every n within 256 of the segment
# boundary, and the top 256 entries, where the last prime-power levels land
_TWO_SEGMENTS = DEFAULT_SEGMENT.bit_length()
_SEGMENT_EDGES = [*range(DEFAULT_SEGMENT - 256, DEFAULT_SEGMENT + 256),
                  *range(2 * DEFAULT_SEGMENT - 256, 2 * DEFAULT_SEGMENT)]


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_factor_pass_across_segment_boundaries(kind):
    vals = sequence(kind, _TWO_SEGMENTS).values
    slot = 0 if kind == "moebius" else 1
    for n in _SEGMENT_EDGES:
        assert vals[n] == oracles.trial_division_signs(n)[slot], n


def test_von_mangoldt_across_segment_boundaries():
    vals = sequence("von_mangoldt", _TWO_SEGMENTS).values
    for n in _SEGMENT_EDGES:
        assert vals[n] == pytest.approx(oracles.trial_division_von_mangoldt(n), abs=1e-12), n


def test_factor_pass_spot_check_lambda_24():
    rng = np.random.default_rng(24)
    ns = np.concatenate([rng.integers(2, 1 << 24, size=300), [(1 << 24) - 1, 4093**2, 4099]])
    mu = sequence("moebius", 24).values
    lio = sequence("liouville", 24).values
    for n in ns:
        assert (mu[n], lio[n]) == oracles.trial_division_signs(int(n)), int(n)


def test_dump_streams_without_copying_the_table(tmp_path):
    seq = sequence("von_mangoldt", 20)
    tracemalloc.start()
    dump_sequence(seq, tmp_path / "vm.bin")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert np.array_equal(load_sequence(tmp_path / "vm.bin").values, seq.values)


@pytest.mark.parametrize("kind", ["moebius", "liouville", "von_mangoldt"])
def test_dump_load_round_trip(tmp_path, kind):
    seq = sequence(kind, 9)
    path = tmp_path / f"{kind}.bin"
    dump_sequence(seq, path)
    back = load_sequence(path)
    assert back.kind == kind and back.lam == 9
    assert back.values.dtype == seq.values.dtype
    assert np.array_equal(back.values, seq.values)


def test_dump_header_layout(tmp_path):
    seq = sequence("liouville", 5)
    path = tmp_path / "seq.bin"
    dump_sequence(seq, path)
    raw = path.read_bytes()
    assert raw[:4] == b"AWS1"
    assert raw[4] == 5
    assert raw[5] == 1  # liouville kind code
    assert len(raw) == 6 + (1 << 5)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes([4, 0]) + bytes(16))
    with pytest.raises(ValueError, match="magic"):
        load_sequence(path)


def test_load_rejects_truncated_payload(tmp_path):
    seq = sequence("moebius", 6)
    path = tmp_path / "trunc.bin"
    dump_sequence(seq, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        load_sequence(path)


def test_load_rejects_unknown_kind_code(tmp_path):
    path = tmp_path / "kind.bin"
    path.write_bytes(b"AWS1" + bytes([3, 9]) + bytes(8))
    with pytest.raises(ValueError, match="kind"):
        load_sequence(path)


def test_load_rejects_short_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"AWS1" + bytes([3]))
    with pytest.raises(ValueError, match="header") as err:
        load_sequence(path)
    assert str(path) in str(err.value)


def test_load_rejects_zero_lambda_header(tmp_path):
    # lambda 0 with a matching one-entry body used to load as a 1-entry table
    path = tmp_path / "lam0.bin"
    path.write_bytes(b"AWS1" + bytes([0, 0]) + bytes([0]))
    with pytest.raises(ValueError, match="lambda") as err:
        load_sequence(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("code", [0, 1])
def test_load_rejects_sign_bytes_outside_unit(tmp_path, code):
    # body 00 01 05 fe used to load as [0, 1, 5, -2]
    path = tmp_path / "signs.bin"
    path.write_bytes(b"AWS1" + bytes([2, code]) + bytes([0x00, 0x01, 0x05, 0xFE]))
    with pytest.raises(ValueError, match="sign table") as err:
        load_sequence(path)
    assert str(path) in str(err.value)
    path.write_bytes(b"AWS1" + bytes([2, code]) + bytes([0x00, 0x01, 0xFF, 0x01]))
    assert load_sequence(path).values.tolist() == [0, 1, -1, 1]


def test_custom_sequence_round_trip(tmp_path):
    vals = np.array([0.5, -1.0, 0.25, 1.0], dtype=np.float64)
    seq = custom_sequence(2, vals)
    assert seq.kind == "custom"
    path = tmp_path / "c.bin"
    dump_sequence(seq, path)
    back = load_sequence(path)
    assert np.array_equal(back.values, vals)


def test_custom_sequence_length_validation():
    with pytest.raises(ValueError):
        custom_sequence(3, np.zeros(7))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        sequence("mertens", 8)


def test_memory_guard_trips():
    with pytest.raises(ResourceLimitError, match="bytes"):
        sequence("moebius", 40)


def test_sequence_is_frozen():
    seq = sequence("moebius", 4)
    with pytest.raises(AttributeError):
        seq.lam = 5
