"""Regenerate the reference outputs under perfbench/refs/.

    python3 perfbench/make_refs.py [--size tiny] [--refs DIR] [WORKLOAD ...]

Runs every job of each workload once per reference seed and stores the
comparable view of its output (see verify.py).  References pin the
program's outputs at the commit they are made from; regenerate them only
together with an independent reason that the new outputs are right.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import jobs as jobs_mod
import run
import verify


def make_refs(workloads, size: str, refroot: Path) -> int:
    src = run.ROOT / "src"
    walshlab = run.load_program(src)
    if walshlab is None:
        print(f"no walshlab package under {src}", file=sys.stderr)
        return 2
    workdir = run.HERE / ".work" / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = run.Launcher(run.child_env(src))
    try:
        for name in workloads:
            refdir = refroot / name
            for seed in jobs_mod.REFERENCE_SEEDS:
                for i, job in enumerate(jobs_mod.workload_jobs(name, seed, size)):
                    res = launcher.run(run.walshlab_cmd(job.argv(workdir)), workdir, f"job{i}")
                    view = verify.output_view(
                        res["stdout"], workdir / job.out if job.out else None, walshlab)
                    verify.write_ref(verify.ref_path(refdir, i, seed),
                                     {"job": job.label, "exit": res["exit"], **view})
                    print(f"{name} seed {seed} job {i}: exit {res['exit']}, "
                          f"{res['wall_s']:.2f}s  {job.label}")
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--size", choices=tuple(jobs_mod.SIZES), default="full")
    parser.add_argument("--refs", type=Path, default=run.HERE / "refs")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(jobs_mod.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    return make_refs(args.workloads or jobs_mod.WORKLOADS, args.size, args.refs)


if __name__ == "__main__":
    sys.exit(main())
