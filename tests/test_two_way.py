"""Sieve and transform tasks: two processes or in order.

Every sieve and transform is worked as numbered tasks (the spectrum
command and the theorem scan sieve each segment straight into the transform
buffer in its in-block task); a forked child and the caller share them when
the table reaches limits.SPLIT_MIN entries and two CPUs are usable.  The
split tests force the fork by reporting two CPUs, so they run on a one-CPU
machine too, and take their reference with one CPU reported, where the
tasks run in order in-process.  Smaller tables always run the tasks in
order; the tests below SPLIT_MIN forbid the fork and compare the task path
with oracles.axis_fwht, whose whole-array stages run in the same order, so
even float spectra agree byte for byte.  Tables and spectra are also
checked against independent oracles.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from walshlab import (
    WalshMask,
    max_correlation,
    sequence,
    spectrum,
    theorem_scan,
    walsh_table,
)
from walshlab import fwht, limits, manifest_from_json
from walshlab.cli import dispatch
from walshlab.sieve import DEFAULT_SEGMENT, SIGN_KINDS

LAM = limits.SPLIT_MIN.bit_length() - 1


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def _both(monkeypatch, run):
    """run() with a forked child sharing the tasks, then in one process."""
    _cpus(monkeypatch, {0, 1})
    split = run()
    _cpus(monkeypatch, {0})
    return split, run()


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch) -> list:
    calls = []
    real_fork = os.fork

    def counting():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def test_split_tables_hold_whole_sieve_segments():
    assert limits.SPLIT_MIN == 1 << LAM
    assert limits.SPLIT_MIN % (2 * DEFAULT_SEGMENT) == 0


@pytest.mark.parametrize("lam", [LAM, LAM + 1])
@pytest.mark.parametrize("kind", ["moebius", "liouville", "von_mangoldt"])
def test_split_sign_tables_equal_one_process(monkeypatch, kind, lam):
    forks = _count_forks(monkeypatch)
    split, ref = _both(monkeypatch, lambda: sequence(kind, lam).values)
    assert forks == [1] and split.tobytes() == ref.tobytes()
    rng = np.random.default_rng([lam, len(kind)])
    ns = np.concatenate([rng.integers(2, 1 << lam, size=200), [(1 << lam) - 1, 2039**2]])
    for n in ns:
        if kind == "von_mangoldt":
            truth = oracles.trial_division_von_mangoldt(int(n))
            assert split[n] == pytest.approx(truth, abs=1e-12), int(n)
        else:
            column = 0 if kind == "moebius" else 1
            assert split[n] == oracles.trial_division_signs(int(n))[column], int(n)
    _no_children()


def _int64_table():
    vals = np.random.default_rng(64).integers(-2000, 2001, size=1 << LAM)
    assert 2000 * (1 << LAM) >= 2**31
    return vals


@pytest.mark.parametrize("table", ["moebius", "int64", "von_mangoldt"])
def test_split_spectrum_bytes_equal_one_process(monkeypatch, table):
    vals = _int64_table() if table == "int64" else sequence(table, LAM).values
    split, ref = _both(monkeypatch, lambda: spectrum(vals))
    dtype = {"moebius": np.int32, "int64": np.int64, "von_mangoldt": np.float64}[table]
    assert split.dtype == ref.dtype == dtype
    assert split.tobytes() == ref.tobytes()
    # the whole-array stages of the stage-order oracle
    assert split.tobytes() == oracles.axis_fwht(vals).astype(dtype).tobytes()


def _no_fork(monkeypatch):
    """Report two CPUs and make any fork fail the test."""
    _cpus(monkeypatch, {0, 1})

    def forbidden():
        raise AssertionError("a table below SPLIT_MIN forked")

    monkeypatch.setattr(os, "fork", forbidden)


def _table(dtype: str, lam: int) -> np.ndarray:
    rng = np.random.default_rng([lam, 7])
    if dtype == "float64":
        return rng.normal(size=1 << lam)
    # int64 entries up to 2^31 make even a two-entry table transform in int64
    top = 2 if dtype == "int8" else 2**31
    return rng.integers(1 - top, top, size=1 << lam).astype(dtype)


# one pair; spans below the transposed width only; one transposed width; one
# block; the first cross-block stage; one DEFAULT_SEGMENT; and two in-block
# tasks, one short of SPLIT_MIN
@pytest.mark.parametrize("lam", [1, 2, 7, 16, 17, 20, LAM - 1])
@pytest.mark.parametrize("table", ["int8", "int64", "float64"])
def test_in_order_tasks_equal_whole_array_stages(monkeypatch, table, lam):
    _no_fork(monkeypatch)
    vals = _table(table, lam)
    got = spectrum(vals)
    # the stage-order oracle sums integers in int64; int8 sign tables
    # transform in int32.  float64 bytes agree because both give each entry
    # the same additions in the same order
    ref = oracles.axis_fwht(vals)
    assert got.dtype == (np.int32 if table == "int8" else ref.dtype)
    assert got.tobytes() == ref.astype(got.dtype).tobytes()


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_split_theorem_scan_equals_one_process(monkeypatch, kind):
    for lambdas in ([13, 3, 9, 3, LAM + 1], range(12, LAM + 2)):
        split, ref = _both(monkeypatch, lambda: theorem_scan(kind, lambdas))
        assert split == ref
        assert [r.params["lambda"] for r in split] == list(lambdas)


def _fused_reports(capsys, kind: str, lam: int) -> tuple:
    """The spectrum command's (peak mask, peak value, rhs) and theorem_scan's
    reports at 1, lam/2 and lam: both sieve into the transform buffer."""
    assert dispatch(["spectrum", "--lambda", str(lam), "--kind", kind]) in (0, 1)
    rep = manifest_from_json(capsys.readouterr().out).reports[0]
    lams = sorted({1, (lam + 1) // 2, lam})
    return (rep.params["peak_mask"], rep.params["peak_value"], rep.rhs), theorem_scan(kind, lams)


def _table_reports(kind: str, lam: int) -> tuple:
    """_fused_reports from the sieved table: max_correlation of each prefix,
    and rhs = sum |values|."""
    values = sequence(kind, lam).values
    mask, value = max_correlation(values)
    scan = [fwht._correlation_check(k, kind, *max_correlation(values[: 1 << k]))
            for k in sorted({1, (lam + 1) // 2, lam})]
    return (mask.bits, float(value), float(np.abs(values).sum())), scan


# one pair; spans below the transposed width; the int16 stages alone; one
# block, no longer than fwht._CHUNK; the first cross-block stage; one
# DEFAULT_SEGMENT
@pytest.mark.parametrize("lam", [1, 2, 7, 14, 15, 16, 17, 20])
@pytest.mark.parametrize("kind", SIGN_KINDS)
def test_in_order_fused_sieve_equals_table_path(monkeypatch, capsys, kind, lam):
    _no_fork(monkeypatch)
    assert _fused_reports(capsys, kind, lam) == _table_reports(kind, lam)


# SPLIT_MIN lowered so that small tables fork: one in-block task, shared by
# two processes, with or without cross-block stages
@pytest.mark.parametrize("lam", [15, 16, 17])
@pytest.mark.parametrize("kind", SIGN_KINDS)
def test_split_small_tables_equal_one_process(monkeypatch, capsys, kind, lam):
    monkeypatch.setattr(limits, "SPLIT_MIN", 1 << 15)
    forks = _count_forks(monkeypatch)
    split, ref = _both(monkeypatch, lambda: _fused_reports(capsys, kind, lam))
    assert forks and split == ref == _table_reports(kind, lam)
    values = sequence(kind, lam).values
    split, ref = _both(monkeypatch, lambda: spectrum(values))
    assert split.tobytes() == ref.tobytes() == oracles.axis_fwht(values).astype(np.int32).tobytes()
    _no_children()


@pytest.mark.parametrize("lam", [LAM, LAM + 1])
@pytest.mark.parametrize("kind", SIGN_KINDS)
def test_split_fused_sieve_equals_table_path(monkeypatch, capsys, kind, lam):
    split, ref = _both(monkeypatch, lambda: _fused_reports(capsys, kind, lam))
    assert split == ref == _table_reports(kind, lam)
    _no_children()


def _two_peaks(low: int, high: int, lam: int) -> np.ndarray:
    """(w_low - w_high) / 2: its spectrum is +2^(lam-1) at low, -2^(lam-1)
    at high and 0 elsewhere, so the two tie in |entry|."""
    vals = (walsh_table(WalshMask(low, lam)) - walsh_table(WalshMask(high, lam))) // 2
    return vals.astype(np.int8)


# bit 15 picks the column half that runs an entry's cross-block stages
_TIES = [
    (1 << 16, 1 << 15, 1 << 15),                       # smaller index in half 1
    ((1 << 16) + 5, (1 << 16) + (1 << 15) + 3, (1 << 16) + 5),  # in half 0
]


@pytest.mark.parametrize("low, high, winner", _TIES)
def test_cross_half_tie_goes_to_the_smaller_mask(monkeypatch, low, high, winner):
    assert (low >> 15) & 1 == 0 and (high >> 15) & 1 == 1
    vals = _two_peaks(low, high, LAM)
    split, ref = _both(monkeypatch, lambda: max_correlation(vals))
    half = 1 << (LAM - 1)
    assert split == ref == (WalshMask(winner, LAM), half if winner == low else -half)
    assert fwht._peak(spectrum(vals))[1] == winner


@pytest.mark.parametrize("low, high, winner", _TIES)
def test_in_order_cross_half_tie_goes_to_the_smaller_mask(monkeypatch, low, high, winner):
    lam = 17  # the smallest table whose transform has a cross-block stage
    assert fwht._BLOCK_BITS + 1 == lam and max(low, high) < 1 << lam
    _no_fork(monkeypatch)
    vals = _two_peaks(low, high, lam)
    half = 1 << (lam - 1)
    assert max_correlation(vals) == (WalshMask(winner, lam), half if winner == low else -half)


def _fail_in(monkeypatch, where, failure):
    """Make the transform's stages call failure() in the parent or the child
    only; the other process first sleeps in its task, so the failing one is
    sure to take a task of its own."""
    parent, stages = os.getpid(), fwht._stages

    def failing(buffer, first, last):
        if (os.getpid() == parent) == (where == "parent"):
            failure()
        time.sleep(0.3)
        stages(buffer, first, last)

    monkeypatch.setattr(fwht, "_stages", failing)


def _raise(where):
    def failure():
        raise RuntimeError(f"stage failure in the {where}")
    return failure


def _small_split(monkeypatch) -> int:
    """Fork from 2^15 entries with DEFAULT_BLOCK-entry transform parts, so a
    lam-17 table splits into two in-block tasks; returns that lam."""
    monkeypatch.setattr(limits, "SPLIT_MIN", 1 << 15)
    monkeypatch.setattr(fwht, "DEFAULT_SEGMENT", fwht.DEFAULT_BLOCK)
    _cpus(monkeypatch, {0, 1})
    return fwht._BLOCK_BITS + 1


def test_failed_child_raises_child_process_error(monkeypatch, capsys):
    lam = _small_split(monkeypatch)
    values = sequence("moebius", lam).values
    _fail_in(monkeypatch, "child", _raise("child"))
    with pytest.raises(ChildProcessError, match="stage failure in the child"):
        spectrum(values)
    _no_children()
    assert dispatch(["spectrum", "--lambda", str(lam)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "stage failure in the child" in err
    assert "Traceback" not in err
    _no_children()


def test_signalled_child_raises_child_process_error(monkeypatch):
    values = sequence("moebius", _small_split(monkeypatch)).values
    _fail_in(monkeypatch, "child", lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(ChildProcessError, match="signal 9"):
        spectrum(values)
    _no_children()


def test_parent_failure_still_reaps_the_child(monkeypatch):
    # the one failure case at the real SPLIT_MIN and segment
    _cpus(monkeypatch, {0, 1})
    values = sequence("moebius", LAM).values
    _fail_in(monkeypatch, "parent", _raise("parent"))
    with pytest.raises(RuntimeError, match="stage failure in the parent"):
        spectrum(values)
    _no_children()


@pytest.mark.parametrize("where, error", [("child", ChildProcessError),
                                          ("parent", RuntimeError)])
def test_fused_task_failure_reaches_the_caller(monkeypatch, where, error):
    """A failure in a task that sieves into the transform buffer raises in
    the caller, and no worker is left."""
    lam = _small_split(monkeypatch)
    _fail_in(monkeypatch, where, _raise(where))
    with pytest.raises(error, match=f"stage failure in the {where}"):
        theorem_scan("moebius", [lam])
    _no_children()


@pytest.mark.parametrize("lam, cpus, forks", [
    (LAM - 1, {0, 1}, 0),   # below SPLIT_MIN
    (LAM + 1, {0}, 0),      # one usable CPU
    (LAM + 1, {0, 1}, 2),   # sieve into in-block stages, cross-block stages
])
def test_fork_count(monkeypatch, lam, cpus, forks):
    _cpus(monkeypatch, cpus)
    calls = _count_forks(monkeypatch)
    theorem_scan("moebius", [lam])
    assert len(calls) == forks
    _no_children()


def test_exhaustive_lemma_check_never_forks(monkeypatch, capsys):
    """The all-mask sums and maxima are folds in one process; only sieves
    and transforms reach _two_way."""
    _cpus(monkeypatch, {0, 1})
    calls = _count_forks(monkeypatch)
    assert dispatch(["lemma-check", "--lemma", "3", "--lambda", "14", "--masks", "all"]) == 0
    assert '"lemma_id": "L3"' in capsys.readouterr().out
    assert not calls
    _no_children()


@pytest.mark.parametrize("cpus", [{0, 1}, {0}])
def test_two_way_runs_each_task_once_and_in_order(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    table = limits._shared_empty(limits.SPLIT_MIN, np.int8)
    table[:] = 0
    parent, stalled = os.getpid(), []

    def task(i):
        # the child stalls in its first task, as on a CPU the host took away
        if os.getpid() != parent and not stalled:
            stalled.append(i)
            time.sleep(0.3)
        table[i] += 1
        return i * i, os.getpid() == parent

    results = limits._two_way(task, 64, limits.SPLIT_MIN)
    assert [square for square, _ in results] == [i * i for i in range(64)]
    assert table[:64].tolist() == [1] * 64 and not table[64:].any()
    # the caller took every task the stalled child could not
    assert sum(not in_caller for _, in_caller in results) <= 1
    _no_children()


def test_two_way_queues_many_tasks_without_blocking(monkeypatch):
    """More task numbers than a pipe buffers (16,384 at 64 KiB) once made
    the caller's queue write wait forever for a reader that forks after it."""
    _cpus(monkeypatch, {0, 1})

    def hung(signum, frame):
        raise TimeoutError("_two_way did not finish 100000 tasks in 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        results = limits._two_way(lambda i: i, 100_000, limits.SPLIT_MIN)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert results == list(range(100_000))
    _no_children()


_STRANDED = """
import os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
from walshlab import limits
caller, pidfile = os.getpid(), sys.argv[1]

def task(i):
    if os.getpid() == caller:
        time.sleep(60)  # killed in here
    with open(pidfile + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pidfile + ".tmp", pidfile)
    time.sleep(0.3)

limits._two_way(task, 64, limits.SPLIT_MIN)
"""


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_killed_caller_leaves_no_worker(tmp_path):
    """SIGKILL skips the caller's finally; its child still leaves once the
    task it is running ends, not after the 63 left in the queue."""
    import walshlab

    env = dict(os.environ, PYTHONPATH=str(Path(walshlab.__file__).parents[1]))
    pidfile = tmp_path / "child"
    caller = subprocess.Popen([sys.executable, "-c", _STRANDED, str(pidfile)], env=env)
    child = None
    try:
        deadline = time.monotonic() + 30
        while not pidfile.exists():
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        child = int(pidfile.read_text())
        caller.kill()
        caller.wait()
        deadline = time.monotonic() + 5
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(child)
    finally:
        caller.kill()
        caller.wait()
        if child is not None and _running(child):
            os.kill(child, signal.SIGKILL)
