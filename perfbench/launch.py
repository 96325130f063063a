"""Starts benchmark jobs from a process that stays small.

On Linux a child's ru_maxrss includes the resident set of the process it
was forked from, so a harness that has loaded numpy and 128 MiB tables
would inflate every job's measured peak.  run.py therefore starts this
script once (it imports no numpy) and sends it one JSON request per line:
{"argv", "cwd", "stdout", "stderr", "timeout"}.  For each it runs the
command, waits with os.wait4, and answers with one JSON line holding the
exit code, wall seconds, peak RSS and CPU seconds of that child alone.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return {"exit": code, "wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "timed_out": code == -signal.SIGKILL}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
