"""Machine-speed probe: fixed work that does not touch walshlab.

The machine the benchmark runs on is shared, and its speed drifts by a
fifth or more over minutes, for the program and for this probe alike.
run.py runs the probe in a fresh process after every job and set-up
sample, and scales the run's times by PROBE_REF_S over the run's median
probe time.  The work mixes what the workloads do: interpreter start and
numpy import, memory-bound passes over a large int64 table, small-array
numpy calls in a Python loop, plain Python arithmetic, and a BLAS matrix
product.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(20111092784)
    table = rng.integers(-1, 2, size=1 << 21).astype(np.int64)
    for _ in range(3):
        table[: 1 << 20] += table[1 << 20 :]
        np.abs(table, out=table)
    small = np.arange(1 << 12, dtype=np.int64)
    acc = int(table.sum())
    for i in range(1500):
        acc += int(np.bitwise_count(small * i).sum() & 1)
    for i in range(100_000):
        acc += i * i % 7
    mat = rng.standard_normal((384, 384))
    for _ in range(4):
        mat = mat @ mat
        mat /= np.abs(mat).max()
    print(acc, float(mat[0, 0]))


if __name__ == "__main__":
    main()
