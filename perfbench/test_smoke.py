"""Smoke test of the benchmark harness at tiny lambda.

    python3 -m pytest -q perfbench/test_smoke.py

It lives beside the benchmark, outside the repository's test suite, so it
adds nothing to that suite's run time.  It makes tiny references, runs
every workload untraced and traced, and checks the result contract, the
reference and oracle checks, the repeatability of kernel counts, compare
mode, and the refusal to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import make_refs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    root = tmp_path_factory.mktemp("refs")
    assert make_refs.main(["--size", "tiny", "--refs", str(root)]) == 0
    return root


def bench(tmp_path, refs, workload, seed, trace) -> tuple:
    results = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         "--refs", str(refs), "--results", str(results)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(max(results.glob("*.json"), key=lambda p: p.stat().st_mtime).read_text())
    return result, record


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_untraced_run_meets_the_result_contract(tmp_path, refs, workload):
    # seed 3 has no reference: seeded jobs go to the oracles, the others
    # to the seed-0 reference
    result, record = bench(tmp_path, refs, workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= len(jobs.workload_jobs(workload, 3, "tiny"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    meta = record["meta"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "seed", "source_sha256"):
        assert key in meta


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_runs_match_and_repeat(tmp_path, refs, workload):
    first, record = bench(tmp_path / "a", refs, workload, jobs.HELD_OUT_SEED, 1)
    second, again = bench(tmp_path / "b", refs, workload, jobs.HELD_OUT_SEED, 1)
    assert first["correct"] and second["correct"], record["failures"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record["counts"] == again["counts"]
    assert record["counts_repeat"]


def test_checks_catch_a_wrong_float(refs, tmp_path):
    job = jobs.workload_jobs("lemma-scan", 0, "tiny")[0]
    ref = verify.read_ref(verify.ref_path(refs / "lemma-scan", 0, 0))
    view = {"stdout": ref["stdout"], "file": ref["file"]}
    assert verify.check_job(job, 0, 0, 0, view, refs / "lemma-scan") == []
    row = view["stdout"]["reports"][5]
    row["lhs"] *= 1 + 1e-6
    problems = verify.check_job(job, 0, 0, 0, view, refs / "lemma-scan")
    assert any(p.startswith("oracle") for p in problems)
    assert any(p.startswith(".stdout") for p in problems)
    assert verify.check_job(job, 0, 0, 1, view, refs / "lemma-scan") == [
        "exit code 1, expected 0"]


def test_a_float_within_tolerance_is_not_a_failure():
    assert verify.compare({"x": 0.15257219256907187}, {"x": 0.1525721925690748}) == []
    assert verify.compare({"x": 1e-17}, {"x": 3e-16}) == []
    assert verify.compare({"x": 1.0}, {"x": 1.0 + 1e-6}) != []
    assert verify.compare({"n": 3}, {"n": 4}) != []


def test_compare_mode_prints_every_metric(tmp_path, refs, capsys):
    _, _ = bench(tmp_path / "old", refs, "mollifier", 0, 0)
    _, _ = bench(tmp_path / "new", refs, "mollifier", 0, 0)
    assert run.main(["--compare", str(tmp_path / "old" / "results"),
                     str(tmp_path / "new" / "results")]) == 0
    out = capsys.readouterr().out
    for metric in SPEC["end_to_end"]:
        assert f" {metric['name']} " in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
