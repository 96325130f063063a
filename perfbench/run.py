"""walshlab benchmark: fixed CLI job lists, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectrum --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --compare OLD_RESULTS NEW_RESULTS

A run measures one workload (see jobs.py) for about --seconds seconds.

--trace 0 runs the job list in passes, one fresh `python -m walshlab`
process per job, jobs back to back (a closed loop with one client).  It
reports wall_s (the whole job list's wall time, interpreter start included:
the sum of each job's median over the passes), peak_rss_mib (largest child peak RSS in a pass, from
os.wait4, median over passes), setup_s (wall time of
`python -m walshlab --version`, median of samples taken between passes) and
ok_frac (jobs correct over jobs attempted, i.e. 1 - failed_frac; a metric
must never read 0, so the failure fraction is reported as its complement).

The machine is shared and its speed drifts by a fifth or more over
minutes, so a speed probe (probe.py, fixed work that does not touch
walshlab) runs in its own process after every job and set-up sample, and
wall_s and setup_s
are scaled by PROBE_REF_S over the run's median probe time: they read as
seconds on a machine where the probe takes PROBE_REF_S.  The raw times and
the probe times are kept in the full record.

--trace 1 alternates an untraced pass with a traced pass of the same jobs
run in this process through `walshlab.cli.dispatch`, with every public
function of each layer wrapped from tracer.py.  It reports per-layer self
times, computed kernel counts, memory peaks, guard charges against measured
peaks and the tracing overhead, and checks that every traced output is
byte-identical to the untraced one and that the layers' self times add up
to the traced wall time.

Every output is checked against the shipped references or the oracles in
verify.py.  The last line of stdout is the JSON result; the full record
(quartiles, sample counts, per-job figures, span tree, run metadata) goes to
perfbench/results/.  The run exits 2 without a result when the checkout
holds no walshlab source.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# One BLAS thread for the jobs, the probe and the traced pass: a second
# OpenBLAS thread buys the lemma-5 job about 5% on two cores but makes it
# wait on whatever else runs on the second core.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import compare  # noqa: E402
import jobs as jobs_mod  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import verify  # noqa: E402

JOB_TIMEOUT_S = 120.0
SETUP_SAMPLES = 3
# typical probe time on a 2-core x86-64 machine with Python 3.11 and
# numpy 2.4; scaled times read as seconds on a machine at that speed
PROBE_REF_S = 0.30


# -- child processes -----------------------------------------------------

def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("WSL_MAX_MEM_GIB", None)  # the default budget is part of the workload
    return env


def walshlab_cmd(args) -> list:
    return [sys.executable, "-m", "walshlab", *args]


PROBE_CMD = [sys.executable, str(HERE / "probe.py")]


class Launcher:
    """The small process (launch.py) that starts every measured child."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, command, workdir: Path, tag: str) -> dict:
        out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
        request = {"argv": command, "cwd": str(workdir),
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job launcher exited")
        res = json.loads(reply)
        res["stdout"] = out_path.read_bytes()
        return res

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


# -- correctness ---------------------------------------------------------

def file_sha256(path: Path):
    if not path.is_file():
        return None
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class Checker:
    """Checks job outputs, remembering verdicts of byte-identical outputs."""

    def __init__(self, walshlab, refdir: Path, seed: int):
        self.walshlab, self.refdir, self.seed = walshlab, refdir, seed
        self.seconds = 0.0  # time spent checking, mostly on first sight
        self._seen: dict = {}

    def __call__(self, index, job, code, stdout: bytes, workdir: Path) -> list:
        out_path = workdir / job.out if job.out else None
        key = (index, code, hashlib.sha256(stdout).hexdigest(),
               file_sha256(out_path) if out_path else None)
        if key not in self._seen:
            start = time.perf_counter()
            try:
                view = verify.output_view(stdout, out_path, self.walshlab)
                self._seen[key] = verify.check_job(job, index, self.seed, code, view,
                                                   self.refdir)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                self._seen[key] = [f"unreadable output: {exc!r}"]
            self.seconds += time.perf_counter() - start
        return self._seen[key]


def untraced_pass(jobs, launcher, workdir, check, tag, probes) -> list:
    """Every job in its own process; a speed probe follows each job."""
    results = []
    for i, job in enumerate(jobs):
        res = launcher.run(walshlab_cmd(job.argv(workdir)), workdir, f"{tag}-job{i}")
        probes.append(launcher.run(PROBE_CMD, workdir, "probe")["wall_s"])
        res["problems"] = (["timed out"] if res["timed_out"] else
                           check(i, job, res["exit"], res["stdout"], workdir))
        res["job"] = job.label
        if job.out:
            res["out_sha256"] = file_sha256(workdir / job.out)
        results.append(res)
    return results


def traced_pass(jobs, walshlab, workdir: Path) -> tuple:
    """All jobs in this process through the wrapped cli.dispatch."""
    tracer = tracer_mod.Tracer()
    tracer.install(walshlab)
    outputs = []
    try:
        start = time.perf_counter()
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            tracer.begin_job(job.label)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = walshlab.cli.dispatch(job.argv(workdir))
            tracer.end_job(time.perf_counter() - t0)
            outputs.append((code, out.getvalue().encode()))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, outputs, wall


# -- metrics -------------------------------------------------------------

def summary(values) -> dict:
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes, setup, probes) -> dict:
    """Times are scaled to the reference machine speed by PROBE_REF_S over
    the run's median probe time (see probe.py); raw values are kept too.
    wall_s is the sum over jobs of each job's median over the passes, which
    a single slow job in one pass cannot move; its quartiles are those of
    the pass totals."""
    jobs_run = [job for p in passes for job in p]
    failed = sum(1 for job in jobs_run if job["problems"])
    scale = PROBE_REF_S / statistics.median(probes)
    walls = summary(sum(j["wall_s"] for j in p) for p in passes)
    walls["median"] = sum(statistics.median(p[i]["wall_s"] for p in passes)
                          for i in range(len(passes[0])))
    setup_walls = [s["wall_s"] for s in setup]
    return {
        "wall_s": {k: v * scale if k != "n" else v for k, v in walls.items()},
        "peak_rss_mib": summary(max(j["rss_mib"] for j in p) for p in passes),
        "setup_s": summary(w * scale for w in setup_walls),
        "ok_frac": summary([(len(jobs_run) - failed) / len(jobs_run)]),
        "raw_wall_s": walls,
        "raw_setup_s": summary(setup_walls),
        "probe_s": summary(probes),
    }


def layer_metrics(tracer, traced_wall, untraced, setup_rss, setup_wall) -> dict:
    selfs = tracer.self_by_layer()
    fn = tracer.self_by_function()
    c = tracer.counts
    others = sum(v for layer, v in selfs.items() if layer != "cli")
    def per(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    def fsum(names):
        return sum(fn[name] for name in names)

    walsh_sign = fsum(tracer_mod.SIGN_FUNCS)
    dump_s = fn["sieve.dump_sequence"]
    report_s = selfs["report"]
    charges = [j["charge_bytes"] for j in tracer.jobs]
    rss_ratio = [(u["rss_mib"] - setup_rss) * tracer_mod.MIB / ch
                 for u, ch in zip(untraced, charges) if ch]
    traced_ratio = [j["traced_peak_mib"] * tracer_mod.MIB / j["charge_bytes"]
                    for j in tracer.jobs if j["charge_bytes"]]
    # the traced pass runs in one process, so it pays interpreter start once
    untraced_work = sum(u["wall_s"] for u in untraced) - len(untraced) * setup_wall
    return {
        "sieve.self_s": selfs["sieve"],
        "sieve.entries": c["sieve.entries"],
        "sieve.ns_per_entry": per(selfs["sieve"] - dump_s, c["sieve.entries"], 1e9),
        "sieve.dump_s": dump_s,
        "sieve.dump_bytes": c["sieve.dump_bytes"],
        "sieve.peak_mib": tracer.layer_peak["sieve"],
        "fwht.self_s": selfs["fwht"],
        "fwht.butterflies": c["fwht.butterflies"],
        "fwht.bytes_computed": c["fwht.bytes_computed"],
        "fwht.ns_per_butterfly": per(selfs["fwht"], c["fwht.butterflies"], 1e9),
        "fwht.peak_mib": tracer.layer_peak["fwht"],
        "walsh.coeff_s": selfs["walsh"] - walsh_sign,
        "walsh.coeff_evals": c["walsh.coeff_evals"],
        "walsh.ns_per_coeff_eval": per(selfs["walsh"] - walsh_sign, c["walsh.coeff_evals"], 1e9),
        "walsh.sweep_s": fsum(tracer_mod.SWEEP_FUNCS),
        "walsh.sign_s": walsh_sign,
        "walsh.sign_evals": c["walsh.sign_evals"],
        "approximant.self_s": selfs["approximant"],
        "approximant.calls": c["approximant.calls"],
        "approximant.window_freqs": c["approximant.window_freqs"],
        "approximant.phase_evals": c["approximant.phase_evals"],
        "approximant.audit_s": fn["approximant.band_profile"] + fn["approximant.l2_error"],
        "approximant.peak_mib": tracer.layer_peak["approximant"],
        "sums.self_s": selfs["sums"],
        "sums.quadform_s": fn["sums.shifted_quadratic_form"],
        "sums.bilinear_s": fn["sums.bilinear_sum"],
        "sums.carry_s": fn["sums.carry_truncation_rate"],
        "sums.split_s": fn["sums.spectral_split"],
        "sums.split_freqs": c["sums.split_freqs"],
        "sums.split_mode_tuples": c["sums.split_mode_tuples"],
        "lemmas.self_s": selfs["lemmas"],
        "lemmas.reports": c["lemmas.reports"],
        "report.json_s": fn["report.manifest_to_json"],
        "report.csv_s": fn["report.emit_csv"],
        "report.rows": c["report.rows"],
        "report.bytes": c["report.bytes"],
        "report.us_per_row": per(report_s, c["report.rows"], 1e6),
        "cli.self_s": traced_wall - others,
        "cli.cpu_s": sum(u["cpu_s"] for u in untraced),
        "limits.charged_mib": max(charges) / tracer_mod.MIB,
        "limits.peak_over_charge": max(rss_ratio, default=0.0),
        "limits.traced_peak_over_charge": max(traced_ratio, default=0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_work if untraced_work > 0 else 0.0,
    }


def accounting_problems(tracer, traced_wall) -> list:
    """The layers' self times must cover the traced wall time: the cli
    leftover (wall minus other layers) may exceed the cli spans' own self
    time only by the harness's glue between jobs."""
    selfs = tracer.self_by_layer()
    others = sum(v for layer, v in selfs.items() if layer != "cli")
    leftover = traced_wall - others
    gap = leftover - selfs["cli"]
    if leftover < 0 or abs(gap) > 0.02 * traced_wall + 0.05:
        return [f"self times do not add up: wall {traced_wall:.3f}s, layers "
                f"{others:.3f}s, cli spans {selfs['cli']:.3f}s"]
    if any(v < -1e-6 for v in selfs.values()):
        return [f"negative self time: {selfs}"]
    return []


# -- run metadata --------------------------------------------------------

def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(args, src: Path) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source_digest(src),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- main ----------------------------------------------------------------

def load_program(src: Path):
    """Import walshlab from this checkout's src/ and nowhere else."""
    if not (src / "walshlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import walshlab
    if Path(walshlab.__file__).resolve().parent != (src / "walshlab").resolve():
        return None
    return walshlab


def measure(args, walshlab, launcher, workdir: Path) -> dict:
    jobs = jobs_mod.workload_jobs(args.workload, args.seed, args.size)
    check = Checker(walshlab, args.refs / args.workload, args.seed)
    launcher.run(walshlab_cmd(["--version"]), workdir, "warmup")  # compiles bytecode once
    setup, probes, passes, traced = [], [], [], []

    def sample_setup():
        for _ in range(SETUP_SAMPLES):
            setup.append(launcher.run(walshlab_cmd(["--version"]), workdir, "setup"))
            probes.append(launcher.run(PROBE_CMD, workdir, "probe")["wall_s"])

    start = time.perf_counter()
    longest = 0.0
    while True:
        begun, checked = time.perf_counter(), check.seconds
        sample_setup()
        passes.append(untraced_pass(jobs, launcher, workdir, check, f"p{len(passes)}", probes))
        if args.trace:
            traced.append(traced_run(jobs, walshlab, workdir, passes[-1], setup))
        # identical outputs are not checked twice, so later passes skip that time
        longest = max(longest, time.perf_counter() - begun - (check.seconds - checked))
        if time.perf_counter() - start + longest > args.seconds:
            break
    sample_setup()
    return {"jobs": jobs, "setup": setup, "probes": probes, "passes": passes,
            "traced": traced}


def traced_run(jobs, walshlab, workdir, untraced, setup) -> dict:
    """One traced pass, checked against the untraced pass before it."""
    tdir = workdir / "traced"
    tdir.mkdir(exist_ok=True)
    tracer, outputs, wall = traced_pass(jobs, walshlab, tdir)
    problems = accounting_problems(tracer, wall)
    for job, (code, stdout), plain in zip(jobs, outputs, untraced):
        same = code == plain["exit"] and stdout == plain["stdout"]
        if job.out:
            path = tdir / job.out
            same = same and file_sha256(path) == plain["out_sha256"]
        if not same:
            problems.append(f"traced output differs from untraced: {job.label}")
    setup_rss = statistics.median(s["rss_mib"] for s in setup)
    setup_wall = statistics.median(s["wall_s"] for s in setup)
    return {"metrics": layer_metrics(tracer, wall, untraced, setup_rss, setup_wall),
            "counts": {name: tracer.counts[name] for name in tracer_mod.COUNT_NAMES},
            "jobs": tracer.jobs, "spans": tracer.span_table(), "problems": problems,
            "outputs": len(outputs)}


def build_record(args, meta, run, spec) -> dict:
    passes, traced = run["passes"], run["traced"]
    e2e = end_to_end(passes, run["setup"], run["probes"])
    failures = [f"{j['job']}: {p}" for pas in passes for j in pas for p in j["problems"]]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for j in p if j["problems"])
    per_job = [
        {"job": job.label,
         "wall_s": summary(p[i]["wall_s"] for p in passes),
         "rss_mib": summary(p[i]["rss_mib"] for p in passes),
         "cpu_s": summary(p[i]["cpu_s"] for p in passes)}
        for i, job in enumerate(run["jobs"])
    ]
    record = {"meta": meta, "end_to_end": e2e, "jobs": per_job, "failures": failures[:50]}
    if args.trace:
        for t in traced:
            attempted += t["outputs"]
            failed += len(t["problems"])
            failures.extend(t["problems"])
        layers = {name: summary(t["metrics"][name] for t in traced)
                  for name in traced[0]["metrics"]}
        counts_repeat = all(t["counts"] == traced[0]["counts"] for t in traced)
        if not counts_repeat:
            failures.append("kernel counts differ between traced passes")
            failed += 1
        record.update(per_layer=layers, counts=traced[0]["counts"],
                      counts_repeat=counts_repeat, traced_jobs=traced[-1]["jobs"],
                      spans=traced[-1]["spans"], failures=failures[:50])
        chosen = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record["result"] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in chosen.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(jobs_mod.SIZES), default="full",
                        help="tiny runs the same commands at small lambda (smoke test)")
    parser.add_argument("--refs", type=Path, default=HERE / "refs",
                        help="reference outputs, one directory per workload")
    parser.add_argument("--results", type=Path, default=HERE / "results",
                        help="directory for the full result record")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two result files or directories and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    src = ROOT / "src"
    walshlab = load_program(src)
    if walshlab is None:
        print(f"perfbench: no walshlab package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(args, src)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    launcher = Launcher(child_env(src))
    try:
        run = measure(args, walshlab, launcher, workdir)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record = build_record(args, meta, run, spec)

    args.results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (args.results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in record["failures"][:10]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
