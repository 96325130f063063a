"""Resource guards shared by sieves, transforms, synthesis, and the CLI.

Each function that allocates a dense object charges it, from its dtype and
shape plus measured scratch, to one byte budget before allocating.  The
budget is the WSL_MAX_MEM_GIB environment variable, read at each charge;
it defaults to 2 GiB (a lam = 28 sign transform with int32 accumulators),
and the CLI sets it from --max-mem-gib for the run.

Sieves and transforms are worked as numbered tasks of _two_way at every
size; _splits alone decides whether a forked child and the caller share
them (SPLIT_MIN entries or more and two usable CPUs) or the caller runs
them in order.  Sieve and transform tasks write an anonymous shared
mapping (a table, or a transform buffer that the sign sieve may fill in
its in-block tasks) or, streaming a sieve, a dump file at their own
offsets; they return small results such as peaks, sums and nonzero
counts.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle

import numpy as np

DEFAULT_MAX_MEM_GIB = 2.0
ENV_MAX_MEM = "WSL_MAX_MEM_GIB"


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured memory budget."""


def resolve_max_mem_gib(explicit: float | None = None) -> float:
    """Budget resolution order: explicit argument, environment, default.
    A budget that is not a positive number with a finite byte count raises
    ValueError."""
    if explicit is None:
        explicit = os.environ.get(ENV_MAX_MEM) or DEFAULT_MAX_MEM_GIB
    try:
        gib = float(explicit)
    except ValueError:
        gib = math.nan
    if not (math.isfinite(gib * 2**30) and gib > 0):
        raise ValueError(
            f"memory budget must be a finite positive GiB count, got {explicit!r} "
            f"(--max-mem-gib or {ENV_MAX_MEM})"
        )
    return gib


# the latest charge as (what, need), which the CLI names when the OS then
# refuses memory that the charge allowed
last_charge = None


def require_bytes(need: int, what: str, how: str) -> int:
    """Check that need bytes fit the memory budget.

    Returns need; raises ResourceLimitError naming what, need and how need
    was counted when it exceeds the budget.
    """
    global last_charge
    last_charge = (what, need)
    budget = int(resolve_max_mem_gib() * 2**30)
    if need > budget:
        raise ResourceLimitError(
            f"{what} requires {need} bytes ({how}); "
            f"budget is {budget} bytes "
            f"(raise --max-mem-gib or {ENV_MAX_MEM} to override)"
        )
    return need


def require_table_bytes(lam: int, bytes_per_entry: int, what: str = "table",
                        scratch: int = 0) -> int:
    """require_bytes for bytes_per_entry over 2^lam entries plus scratch."""
    if lam < 1:
        raise ValueError(f"lam must be a positive bit length, got {lam}")
    return require_bytes((bytes_per_entry << lam) + scratch, f"{what} at lambda={lam}",
                         f"{bytes_per_entry} per entry over 2^{lam}"
                         + (f" plus {scratch} of scratch" if scratch else ""))


# sign sieve plus max_correlation, split against one process on a quiet 2-vCPU
# x86 box: lam 21 loses (medians 41.4 vs 40.3 ms in-process), lam 22 wins
# every alternating run (67 vs 80 ms; whole spectrum jobs 208 vs 235 ms)
SPLIT_MIN = 1 << 22


def _splits(n: int) -> bool:
    """Whether a table of n entries is worked by two processes: it has at
    least SPLIT_MIN entries and two CPUs are usable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return n >= SPLIT_MIN and cpus >= 2


def _shared_empty(n: int, dtype) -> np.ndarray:
    """An uninitialised table of n entries: an anonymous shared mapping when
    _splits(n), else a private array."""
    if not _splits(n):
        return np.empty(n, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, n * np.dtype(dtype).itemsize), dtype=dtype)


# the most task tokens the queue pipe holds at once: 4 KiB, one page, the
# least a pipe buffers, so the caller's one write never waits for a reader
_QUEUE_TOKENS = 1024


def _claim(queue: int, fn, run: int, tasks: int, parent: int | None = None) -> dict:
    """{i: fn(i)} for each task number i in the runs taken from the queue
    pipe until it is empty: token r stands for tasks r*run up to (r+1)*run,
    short of tasks, and a 4-byte read takes one whole token, so no task runs
    twice.

    A child passes its parent's pid and leaves through os._exit before the
    next task once that parent is gone, so a killed caller strands at most
    the task its child is running."""
    done = {}
    while True:
        token = os.read(queue, 4)
        if not token:
            return done
        first = int.from_bytes(token, "little") * run
        for i in range(first, min(first + run, tasks)):
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            done[i] = fn(i)


def _two_way(fn, tasks: int, n: int) -> list:
    """[fn(0), ..., fn(tasks - 1)] for work of n entries, where fn(i) writes
    only task i's part of a table made by _shared_empty(n, ...) or of a
    file, and may return a small result, which a child pickles back.

    When _splits(n), a forked child and the caller each take the next
    untaken run of task numbers from one pipe until none is left, so when
    one of them stalls on a busy CPU the other takes its share.  A run is
    one task up to _QUEUE_TOKENS tasks and ceil(tasks / _QUEUE_TOKENS)
    beyond, so the pipe never holds more tokens than that.  The child sends
    back its pickled results and leaves only through os._exit; the caller
    reaps it in every case, killing it first when its own tasks raised.  A
    child that fails or dies raises ChildProcessError.  Otherwise the tasks
    run in order in-process.
    """
    if not _splits(n):
        return [fn(i) for i in range(tasks)]
    run = -(-tasks // _QUEUE_TOKENS)
    queue, fill = os.pipe()
    try:
        os.write(fill, b"".join(r.to_bytes(4, "little") for r in range(-(-tasks // run))))
    finally:
        os.close(fill)
    rfd, wfd = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                result, failed = _claim(queue, fn, run, tasks, parent), False
            except Exception as exc:
                result, failed = f"{type(exc).__name__}: {exc}", True
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(result, fh)
            code = int(failed)
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            done = _claim(queue, fn, run, tasks)
            payload = fh.read()
    except BaseException:
        import signal  # only here: every CLI start would pay for it

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        status = os.waitpid(pid, 0)[1]
    if os.WIFSIGNALED(status):
        raise ChildProcessError(f"worker killed by signal {os.WTERMSIG(status)}")
    if os.WEXITSTATUS(status):
        detail = pickle.loads(payload) if payload else "no message"
        raise ChildProcessError(f"worker failed: {detail}")
    done.update(pickle.loads(payload))
    return [done[i] for i in range(tasks)]
