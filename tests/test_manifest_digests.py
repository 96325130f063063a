"""Pinned output bytes of the README commands and the tiny benchmark jobs.

scripts/manifest_digests.py made tests/manifest_digests.json from the same
run list.  Each run executes twice through dispatch: with two CPUs reported
and limits.SPLIT_MIN lowered to 2^15, so tables from 2^15 entries up share
their sieve and transform tasks with a forked child, and with one CPU
reported, so every task runs in order in-process.  Both must give the
pinned exit code and bytes.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from walshlab import limits

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from manifest_digests import PIN, RUNS, digest  # noqa: E402

PINNED = json.loads(PIN.read_text())


def test_the_pin_covers_every_run():
    assert list(PINNED["runs"]) == RUNS


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "in-order"])
@pytest.mark.parametrize("command", RUNS)
def test_outputs_match_the_pin(monkeypatch, tmp_path, command, cpus):
    if PINNED["numpy"] != np.__version__:
        pytest.skip(f"pinned with numpy {PINNED['numpy']}, running numpy {np.__version__}")
    monkeypatch.delenv(limits.ENV_MAX_MEM, raising=False)
    monkeypatch.setattr(limits, "SPLIT_MIN", 1 << 15)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.chdir(tmp_path)
    assert digest(command) == PINNED["runs"][command]
