#!/usr/bin/env python3
"""Pin the output bytes of the README commands and the tiny benchmark jobs.

Each run of RUNS goes through `walshlab.cli.dispatch` in its own temporary
working directory, with WSL_MAX_MEM_GIB unset.  This script writes
tests/manifest_digests.json: per run its exit code and the sha256 of its
stdout, its stderr and the file it wrote with --out, plus the numpy version
the pin was made with.  tests/test_manifest_digests.py runs the same list
and compares.  Regenerate only when an output is meant to change:

    PYTHONPATH=src python3 scripts/manifest_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from readme_manifests import README, readme_commands  # puts perfbench/ on sys.path

from jobs import REFERENCE_SEEDS, WORKLOADS, workload_jobs  # noqa: E402
from walshlab.cli import dispatch  # noqa: E402

PIN = Path(__file__).resolve().parent.parent / "tests" / "manifest_digests.json"

# the README's commands as written, every tiny job at both reference seeds,
# then the all-mask scan of lemmas 4-6 and its SUMMARY in both formats, and
# the smallest all-mask L1 and L2 checks whose floats a numpy power or log2
# in place of Python's ** or math.log2 would change
RUNS = readme_commands(README.read_text()) + [
    " ".join(job.args) + (f" --out {job.out}" if job.out else "")
    for seed in REFERENCE_SEEDS for workload in WORKLOADS
    for job in workload_jobs(workload, seed, "tiny")
] + [
    "scan --lambda-min 6 --lambda-max 9 --masks all",
    "scan --lambda-min 6 --lambda-max 9 --masks all --out all.csv",
    "lemma-check --lemma 1 --lambda 12 --masks all",
    "lemma-check --lemma 2 --lambda 13 --masks all --out l2.csv",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(command: str) -> dict:
    """The exit code and the sha256 of stdout, stderr and the --out file
    (None without one) of one dispatch run in the current directory."""
    argv = shlex.split(command)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    return {
        "code": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "out": _sha(written.read_bytes()) if written and written.exists() else None,
    }


def digest_in_tempdir(command: str) -> dict:
    """digest(command) in a fresh temporary working directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return digest(command)
        finally:
            os.chdir(here)


def main() -> None:
    os.environ.pop("WSL_MAX_MEM_GIB", None)
    runs = {}
    for command in RUNS:
        runs[command] = digest_in_tempdir(command)
        print(f"{runs[command]['code']}  {command}", file=sys.stderr)
    PIN.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
