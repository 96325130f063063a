"""Compare two sets of benchmark results.

    python3 perfbench/run.py --compare OLD NEW

OLD and NEW are result files written by run.py, or directories of them.
For each workload and metric, the value of each run (its median) is
collected per side; the table gives the median ratio NEW/OLD and both
sides' quartiles and run counts.  Kernel counts must repeat exactly between
runs of one side at one seed; the table marks any that do not.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def collect(records) -> tuple:
    """{(workload, metric): [run values]} and the set of (workload, count)
    pairs whose value differs between runs at one seed."""
    values = defaultdict(list)
    counts = defaultdict(set)
    for rec in records:
        meta = rec["meta"]
        workload = meta["workload"]
        sections = [rec["end_to_end"]] + ([rec["per_layer"]] if "per_layer" in rec else [])
        for section in sections:
            for name, s in section.items():
                values[(workload, name)].append(s["median"])
        for name, value in rec.get("counts", {}).items():
            counts[(workload, meta["seed"], name)].add(value)
    unsteady = {(w, name) for (w, _, name), seen in counts.items() if len(seen) > 1}
    return values, unsteady


def quartiles(vals) -> tuple:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4, method="inclusive"))


def table(old, new) -> list:
    old_vals, old_unsteady = collect(old)
    new_vals, new_unsteady = collect(new)
    rows = []
    for key in sorted(old_vals.keys() & new_vals.keys()):
        o, n = old_vals[key], new_vals[key]
        oq, nq = quartiles(o), quartiles(n)
        ratio = nq[1] / oq[1] if oq[1] else float("nan")
        flag = "counts differ between runs" if key in old_unsteady | new_unsteady else ""
        rows.append((key[0], key[1], ratio, oq, len(o), nq, len(n), flag))
    return rows


def fmt(q, n) -> str:
    return f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g} ({n})"


def main(old_path: Path, new_path: Path) -> int:
    rows = table(load(old_path), load(new_path))
    print(f"{'workload':11s} {'metric':32s} {'new/old':>8s}  "
          f"{'old q1 / median / q3 (n)':>36s}  {'new q1 / median / q3 (n)':>36s}")
    for workload, metric, ratio, oq, on, nq, nn, flag in rows:
        print(f"{workload:11s} {metric:32s} {ratio:8.3f}  {fmt(oq, on):>36s}  "
              f"{fmt(nq, nn):>36s}  {flag}")
    return 0
