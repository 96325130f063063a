#!/usr/bin/env python3
"""Run the README's example commands and keep every output they make.

Each `walshlab ...` line of the README's command block (plus any --also
command, then the full-size job list of each perfbench --workload) runs as
its own `python -m walshlab` process, entry point and exit included, in its
own working directory OUT_DIR/NN, which then holds the command line
(`argv`), the exit code (`code`), stdout (`stdout`), stderr (`stderr`) and
whatever file the command wrote with a relative --out.  The processes run
the walshlab package that this script's interpreter imports.  Two runs of
different checkouts are byte-identical in every output when `diff -r`
between their OUT_DIRs is empty:

    PYTHONPATH=src python3 scripts/readme_manifests.py /tmp/new --seed 7919 \\
        --also "scan --lambda-min 6 --lambda-max 9 --masks all" \\
        --workload spectrum --workload lemma-scan --workload mollifier

To check the in-order path of the two-process tasks, rerun the same command
under `taskset -c 0` into a second OUT_DIR and `diff -r` the two.
"""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

import walshlab

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
sys.path.insert(0, str(ROOT / "perfbench"))

from jobs import WORKLOADS, workload_jobs  # noqa: E402


def readme_commands(text: str) -> list[str]:
    """The `walshlab` lines of the first code block under "Command line",
    without the program name and trailing comments."""
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line.split("#", 1)[0].strip()[len("walshlab "):]
            for line in block.splitlines() if line.startswith("walshlab ")]


def run(command: str, workdir: Path, env: dict) -> None:
    workdir.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "walshlab", *shlex.split(command)],
                          cwd=workdir, env=env, capture_output=True)
    (workdir / "argv").write_text(command + "\n")
    (workdir / "code").write_text(f"{proc.returncode}\n")
    (workdir / "stdout").write_bytes(proc.stdout)
    (workdir / "stderr").write_bytes(proc.stderr)
    print(f"{proc.returncode}  {command}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seed", type=int, default=None,
                    help="append --seed N to every command")
    ap.add_argument("--also", action="append", default=[], metavar="COMMAND",
                    help="one more command to run after the README's (repeatable)")
    ap.add_argument("--workload", action="append", default=[], choices=WORKLOADS,
                    help="also run this benchmark workload's full-size jobs (repeatable)")
    args = ap.parse_args()
    if args.out_dir.exists():
        sys.exit(f"{args.out_dir} already exists")
    commands = readme_commands(README.read_text()) + args.also
    # a job's label is its command without the seed; --seed is appended
    # below like every other command's
    commands += [job.label + (f" --out {job.out}" if job.out else "")
                 for workload in args.workload for job in workload_jobs(workload, 0)]
    suffix = "" if args.seed is None else f" --seed {args.seed}"
    # an absolute path: the children run in OUT_DIR/NN
    env = dict(os.environ, PYTHONPATH=str(Path(walshlab.__file__).parents[1]))
    for i, command in enumerate(commands):
        run(command + suffix, args.out_dir.resolve() / f"{i:02d}", env)


if __name__ == "__main__":
    main()
