import functools
import os
import time
import tracemalloc

import numpy as np
import pytest

import oracles
import walshlab
from walshlab import (
    ArithmeticSequence,
    ResourceLimitError,
    dump_sequence,
    load_sequence,
    sequence,
)
from walshlab import limits, sieve
from walshlab.sieve import DEFAULT_SEGMENT, PRIME_BYTES, STREAM_BYTES, stream_sequence

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


# lambda <= 5 puts wheel primes above sqrt(2^lam); every table below lambda
# 16 is shorter than one wheel period
@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 8, 11, 14, 16])
def test_factor_pass_matches_oracle(lam):
    n = 1 << lam
    assert np.array_equal(sequence("moebius", lam).values, oracles.moebius_values(n))
    assert np.array_equal(sequence("liouville", lam).values, oracles.liouville_values(n))


_PERIOD = 2 * 3 * 5 * 7 * 2 * 3 * 5 * 7
_KERNEL_LAM = 18
_KERNEL_TRUTH = {True: oracles.moebius_values(1 << _KERNEL_LAM),
                 False: oracles.liouville_values(1 << _KERNEL_LAM)}


def _int8_table(m):
    # the sieve's layout: an int8 table and a separate int32 product workspace
    return np.zeros(m, np.int8), np.zeros(m, np.int32)


def _int16_in_int32(m):
    # the transform's layout: int16 signs in the first half of the bytes of
    # the int32 part whose bytes hold the products
    work = np.zeros(m, np.int32)
    return work.view(np.int16)[:m], work


def _int32_in_place(m):
    work = np.zeros(m, np.int32)
    return work, work


# starts on, off and one short of a wheel period, runs longer and shorter
# than one period and one tail chunk, and a run that ends at 2^lam
@pytest.mark.parametrize("lo, m", [(0, 5000), (2 * _PERIOD, 3 * _PERIOD), (3 * _PERIOD + 17, 70001),
                                   (_PERIOD - 1, 2), (123457, 40000),
                                   ((1 << _KERNEL_LAM) - 50000, 50000)])
@pytest.mark.parametrize("layout", [_int8_table, _int16_in_int32, _int32_in_place])
@pytest.mark.parametrize("squarefree", [True, False])
def test_sign_kernel_matches_oracle_at_any_offset(lo, m, layout, squarefree):
    assert sieve._PERIOD == _PERIOD and sieve.SIGN_CHUNK < 40000
    view, work = layout(m)
    count = sieve._sign_kernel(_KERNEL_LAM, squarefree)(view, lo, work)
    truth = _KERNEL_TRUTH[squarefree][lo : lo + m]
    assert np.array_equal(view, truth)
    assert count == np.count_nonzero(truth)


def _flags_apart(m):
    # the table's and the stream's layout: a float64 view and separate flags
    return np.full(m, np.nan), np.full(m, 0xFF, np.uint8)


def _flags_in_view(m):
    view = np.full(m, np.nan)
    return view, view


@functools.lru_cache(maxsize=None)
def _von_mangoldt_truth(lo, m):
    return np.array([oracles.trial_division_von_mangoldt(n) if n else 0.0
                     for n in range(lo, lo + m)])


# from 0 and 1; on, off and across a segment edge; across the stamp 4093^2;
# and a run that ends at 2^lam, each shorter than one segment
@pytest.mark.parametrize("lam, lo, m", [(18, 0, 5000), (18, 1, 3), (24, DEFAULT_SEGMENT, 2000),
                                        (24, DEFAULT_SEGMENT + 17, 2000),
                                        (24, 2 * DEFAULT_SEGMENT - 1000, 2000),
                                        (24, 4093**2 - 1000, 2000), (24, (1 << 24) - 2000, 2000)])
@pytest.mark.parametrize("layout", [_flags_apart, _flags_in_view])
def test_von_mangoldt_kernel_matches_oracle_at_any_offset(lam, lo, m, layout):
    view, work = layout(m)
    count = sieve._von_mangoldt_kernel(lam)(view, lo, work)
    truth = _von_mangoldt_truth(lo, m)
    np.testing.assert_allclose(view, truth, atol=1e-12, rtol=0)
    assert count == np.count_nonzero(truth)


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


@pytest.mark.parametrize("lam", range(1, 17))
def test_von_mangoldt_support_and_bits(lam):
    n = 1 << lam
    vals = sequence("von_mangoldt", lam).values
    support = np.flatnonzero(vals)
    assert np.array_equal(support, np.flatnonzero(oracles.von_mangoldt_values(n)))
    # each entry is log p of the prime p it is a power of, to the bit
    p = oracles.spf_table(n)[support].astype(np.float64)
    assert vals[support].tobytes() == np.log(p).tobytes()


def test_von_mangoldt_peak_is_the_table_plus_one_segment():
    sequence("von_mangoldt", 4)
    tracemalloc.start()
    sequence("von_mangoldt", 20)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the 8 MiB float64 table plus the segment's few MiB of scratch
    assert peak <= (8 + 4) << 20, peak


class _Charged(Exception):
    pass


def _stream_charge(monkeypatch, lam: int) -> int:
    """The bytes stream_sequence charges a von Mangoldt stream at lam,
    caught at its guard, before any sieving."""
    def stop(need, *rest):
        raise _Charged(need)

    with monkeypatch.context() as m, pytest.raises(_Charged) as exc:
        m.setattr(sieve, "require_bytes", stop)
        stream_sequence("von_mangoldt", lam)
    return exc.value.args[0]


@pytest.mark.parametrize("lam", [12, 16, 20, 23])
def test_von_mangoldt_stream_charge_covers_its_peak(tmp_path, monkeypatch, lam):
    charge = _stream_charge(monkeypatch, lam)
    tracemalloc.start()
    stream_sequence("von_mangoldt", lam, tmp_path / "vm.bin")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= charge, (peak, charge)
    # one segment and the sieving primes: far below the 8 B/entry table
    assert charge <= (STREAM_BYTES + PRIME_BYTES) * min(1 << lam, DEFAULT_SEGMENT)


def test_von_mangoldt_stream_charge_covers_its_sieving_primes(monkeypatch):
    # at lam 42 the sieving primes to 2^21 and their prime-power stamps
    # outgrow a charge for the segment alone; the kernel's setup and first
    # segment hold the stream's peak
    charge = _stream_charge(monkeypatch, 42)
    make, _, width = sieve._kernel("von_mangoldt", 42)
    tracemalloc.start()
    make()(np.empty(DEFAULT_SEGMENT), 0, np.empty(width * DEFAULT_SEGMENT, np.uint8))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert STREAM_BYTES * DEFAULT_SEGMENT < peak <= charge, (peak, charge)


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


# less than one segment, exactly one, two and four
@pytest.mark.parametrize("lam", [1, 2, 19, 20, 21, 22])
@pytest.mark.parametrize("kind", ["moebius", "liouville", "von_mangoldt"])
def test_streamed_dump_sum_and_count_equal_the_table_path(tmp_path, kind, lam):
    seq = sequence(kind, lam)
    dump_sequence(seq, tmp_path / "table.bin")
    total, nonzero = stream_sequence(kind, lam, tmp_path / "stream.bin")
    assert (tmp_path / "stream.bin").read_bytes() == (tmp_path / "table.bin").read_bytes()
    # bit for bit: the segment sums pair up as numpy's pairwise sum splits
    # the whole table, so this also catches a change to numpy's summation
    assert total.hex() == float(seq.values.sum()).hex()
    assert nonzero == np.count_nonzero(seq.values)
    assert stream_sequence(kind, lam) == (total, nonzero)


@pytest.mark.parametrize("scale", [2, 0.5], ids=["longer", "shorter"])
@pytest.mark.parametrize("kind", ["moebius", "von_mangoldt"])
def test_dump_over_an_existing_file_holds_exactly_the_new_bytes(tmp_path, kind, scale):
    # both writers overwrite in place: a longer file is cut to the dump's
    # size, a shorter one grows, and no old byte is left either way
    seq = sequence(kind, 12)
    dump_sequence(seq, tmp_path / "fresh.bin")
    want = (tmp_path / "fresh.bin").read_bytes()
    path = tmp_path / "over.bin"
    for write in (lambda: stream_sequence(kind, 12, path), lambda: dump_sequence(seq, path)):
        path.write_bytes(b"\xab" * int(scale * len(want)))
        write()
        assert path.read_bytes() == want


@pytest.mark.parametrize("where", ["parent", "child"])
@pytest.mark.parametrize("kind", ["moebius", "von_mangoldt"])
def test_failed_stream_leaves_a_dump_the_loader_refuses(tmp_path, monkeypatch, kind, where):
    # a fill raising in a later segment, over a valid dump of the same
    # table: the file is cut to nothing, none of the old dump left
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 1 << 11)  # 8 segments
    path = tmp_path / "t.bin"
    stream_sequence(kind, 14, path)
    assert load_sequence(path).kind == kind
    # the child case forks, and the caller's slow fills leave it the later segments
    monkeypatch.setattr(limits, "SPLIT_MIN", 1 << 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if where == "child" else {0},
                        raising=False)
    caller, real = os.getpid(), sieve._kernel

    def failing(kind, lam):
        make, scratch, width = real(kind, lam)

        def make_failing():
            fill = make()

            def fill_or_fail(view, lo, work):
                if (os.getpid() == caller) == (where == "parent"):
                    if lo:
                        raise RuntimeError("fill failed")
                else:
                    time.sleep(0.1)
                return fill(view, lo, work)

            return fill_or_fail

        return make_failing, scratch, width

    monkeypatch.setattr(sieve, "_kernel", failing)
    with pytest.raises(RuntimeError if where == "parent" else ChildProcessError,
                       match="fill failed"):
        stream_sequence(kind, 14, path)
    assert path.stat().st_size == 0
    with pytest.raises(ValueError, match="bad header"):
        load_sequence(path)


def test_unknown_kind_is_refused_before_the_dump_exists(tmp_path):
    with pytest.raises(ValueError, match="no sieve for kind 'bogus'"):
        sieve._kernel("bogus", 8)
    with pytest.raises(ValueError, match="no sieve for kind 'bogus'"):
        stream_sequence("bogus", 8, tmp_path / "t.bin")
    assert not (tmp_path / "t.bin").exists()


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
    # code 3 once named user-supplied float tables
    for code in (3, 9):
        path.write_bytes(b"AWS1" + bytes([3, code]) + bytes(64))
        with pytest.raises(ValueError, match=f"unknown kind code {code}"):
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_load_rejects_von_mangoldt_entries_that_are_not_finite_logs(tmp_path, bad):
    # a von Mangoldt body [0, bad, log 2, 0] used to load as it stood
    path = tmp_path / "vm.bin"
    body = np.array([0.0, bad, np.log(2.0), 0.0], dtype="<f8").tobytes()
    path.write_bytes(b"AWS1" + bytes([2, 2]) + body)
    with pytest.raises(ValueError, match="non-finite or negative") as err:
        load_sequence(path)
    assert str(path) in str(err.value)
    path.write_bytes(b"AWS1" + bytes([2, 2]) + body.replace(body[8:16], bytes(8)))
    assert load_sequence(path).values.tolist() == [0.0, 0.0, np.log(2.0), 0.0]


def test_sequence_length_validation():
    with pytest.raises(ValueError, match="length"):
        ArithmeticSequence(3, "moebius", np.zeros(7, dtype=np.int8))


def test_public_names_resolve_once_without_removed_surface():
    names = walshlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(walshlab, name) is not None, name
    for gone in ("Spectrum", "custom_sequence", "correlation_report", "fwht_in_place",
                 "walsh_eval", "sieve_moebius", "sieve_liouville", "sieve_von_mangoldt",
                 "mask_sweep"):
        assert gone not in names and not hasattr(walshlab, gone)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        sequence("mertens", 8)
    # only sieved kinds make a sequence
    with pytest.raises(ValueError, match="kind"):
        ArithmeticSequence(2, "custom", np.zeros(4))


def test_memory_guard_trips():
    with pytest.raises(ResourceLimitError, match="bytes"):
        sequence("moebius", 40)


def test_sequence_is_frozen():
    seq = sequence("moebius", 4)
    with pytest.raises(AttributeError):
        seq.lam = 5
