"""Correctness of every job's output.

Two independent sources of truth:

* references made from the program at the commit that added the benchmark,
  for seeds 0 and `jobs.HELD_OUT_SEED`, stored per job under
  `refs/<workload>/`.  A job whose output does not depend on the seed is
  checked against the seed-0 reference at every seed.
* oracles written here in plain numpy for the two seeded jobs (the
  random-mask scan and the random-coefficient bilinear chain), so that
  every seed is checked.  Coefficients come from a dense FFT of the Walsh
  table instead of the package's per-bit product formula, and the sums
  from whole-matrix parity tables instead of its per-row loops.

Manifests are compared field by field, not by digest: exit code, command,
config, each report's lemma_id and pass exactly, integers and strings
exactly, and every float within FLOAT_RTOL (or FLOAT_ATOL near zero), so a
change that moves the 14th digit of a float is not a failure.  AWS1 sign
tables are loaded back with `walshlab.load_sequence` and compared byte for
byte through their digest; the von Mangoldt table is compared through its
support digest, its sum and fixed samples within tolerance.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

FLOAT_RTOL = 1e-9
# below this a float is rounding dust: the program's own EXPLICIT_TOL is 1e-9
FLOAT_ATOL = 1e-12
# oracle sums are FFTs over up to 2^16 points, so they carry more rounding
ORACLE_RTOL = 1e-7
ORACLE_ATOL = 1e-10
MAX_PROBLEMS = 5

EXPLICIT_BASE = 2.0 + math.sqrt(2.0)


# -- views of one output -------------------------------------------------

def manifest_view(text: str) -> dict:
    """The comparable part of a JSON manifest; seed fields are dropped so
    that seed-independent jobs match across seeds."""
    payload = json.loads(text)
    config = {k: v for k, v in payload["config"].items() if k != "seed"}
    return {"command": payload["command"], "config": config,
            "reports": payload["reports"]}


def csv_view(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    reports = [
        {"lemma_id": r[0], "params": json.loads(r[2]), "lhs": float(r[3]),
         "rhs": float(r[4]), "ratio": float(r[5]),
         "fitted_constant": float(r[6]) if r[6] else None, "pass": r[7] == "true"}
        for r in rows[1:]
    ]
    return {"header": rows[0] if rows else [], "reports": reports}


def _sample_index(n: int) -> np.ndarray:
    rng = np.random.default_rng(20111092784)
    picks = rng.integers(0, n, size=min(n, 960))
    return np.unique(np.concatenate([np.arange(min(n, 64)), picks, [n - 1]]))


def dump_view(path: Path, walshlab) -> dict:
    seq = walshlab.load_sequence(path)
    view = {"lam": seq.lam, "kind": seq.kind}
    if seq.values.dtype == np.int8:
        view["sha256"] = hashlib.sha256(seq.values.tobytes()).hexdigest()
    else:
        values = seq.values
        view["support_sha256"] = hashlib.sha256(np.packbits(values != 0)).hexdigest()
        view["sum"] = float(values.sum())
        view["samples"] = values[_sample_index(len(values))].tolist()
    return view


def output_view(stdout: bytes, out_path: Path | None, walshlab) -> dict:
    """What a job produced: its stdout manifest and its --out file."""
    view = {"stdout": manifest_view(stdout.decode()) if stdout.strip() else None,
            "file": None}
    if out_path is not None:
        if out_path.suffix == ".bin":
            view["file"] = dump_view(out_path, walshlab)
        elif out_path.suffix == ".csv":
            with open(out_path, newline="") as fh:
                view["file"] = csv_view(fh.read())
        else:
            view["file"] = manifest_view(out_path.read_text())
    return view


# -- comparison ----------------------------------------------------------

def compare(expected, actual, path="", problems=None, rtol=FLOAT_RTOL,
            atol=FLOAT_ATOL, subset=False) -> list:
    """Field-by-field differences, as readable strings.  With subset=True,
    only the keys present in `expected` dicts are compared."""
    if problems is None:
        problems = []
    if len(problems) >= MAX_PROBLEMS:
        return problems
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = expected.keys() if subset else expected.keys() | actual.keys()
        for key in sorted(keys, key=str):
            if key not in expected or key not in actual:
                problems.append(f"{path}.{key}: present on one side only")
                continue
            compare(expected[key], actual[key], f"{path}.{key}", problems,
                    rtol, atol, subset)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            problems.append(f"{path}: {len(actual)} items, expected {len(expected)}")
            return problems
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare(e, a, f"{path}[{i}]", problems, rtol, atol, subset)
    elif _is_float_pair(expected, actual):
        e, a = float(expected), float(actual)
        if not (e == a or abs(e - a) <= max(rtol * max(abs(e), abs(a)), atol)):
            problems.append(f"{path}: {a!r}, expected {e!r}")
    elif type(expected) is not type(actual) or expected != actual:
        problems.append(f"{path}: {actual!r}, expected {expected!r}")
    return problems


def _is_float_pair(a, b) -> bool:
    numbers = (int, float)
    return (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)
            and (isinstance(a, float) or isinstance(b, float)))


# -- references ----------------------------------------------------------

def ref_path(refdir: Path, index: int, seed: int) -> Path:
    return refdir / f"job{index}-seed{seed}.json.gz"


def write_ref(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file identical across regenerations
    path.write_bytes(gzip.compress(text.encode(), mtime=0))


def read_ref(path: Path) -> dict | None:
    if not path.is_file():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def check_job(job, index, seed, code, view, refdir: Path) -> list:
    """Problems with one job's outcome; empty when it is correct."""
    ref = read_ref(ref_path(refdir, index, seed))
    if ref is None and not job.seeded:
        ref = read_ref(ref_path(refdir, index, 0))
    expected_exit = ref["exit"] if ref else 0
    if code != expected_exit:
        return [f"exit code {code}, expected {expected_exit}"]
    problems = []
    if ref is not None:
        compare({"stdout": ref["stdout"], "file": ref["file"]}, view, "", problems)
    if job.oracle is not None:
        ORACLES[job.oracle](job, seed, view, problems)
    if ref is None and job.oracle is None:
        problems.append("no reference and no oracle for this job")
    return problems


# -- oracles -------------------------------------------------------------

def _flags(job) -> dict:
    args = job.args
    return {args[i]: args[i + 1] for i in range(1, len(args) - 1)
            if args[i].startswith("--")}


def _signs(bits: int, values: np.ndarray) -> np.ndarray:
    parity = np.bitwise_count(np.bitwise_and(values, np.int64(bits))) & 1
    return 1 - 2 * parity.astype(np.int64)


def _magnitudes(lam: int, bits: int) -> np.ndarray:
    """|c_k| for w_A(x) = sum_k c_k e(kx/2^lam), by a dense FFT."""
    n = 1 << lam
    w = _signs(bits, np.arange(n, dtype=np.int64)).astype(np.float64)
    return np.abs(np.fft.fft(w)) / n


def _row(lemma_id, params, lhs, rhs, fitted, passed) -> dict:
    ratio = lhs / rhs if rhs else float(lhs)
    return {"lemma_id": lemma_id, "params": params, "lhs": lhs, "rhs": rhs,
            "ratio": ratio, "fitted_constant": fitted, "pass": passed}


def _scan_rows(lam: int, count: int, lemmas, seed: int) -> list:
    n = 1 << lam
    masks = [int(b) for b in np.random.default_rng([seed, lam]).integers(0, n, size=count)]
    mags = {bits: _magnitudes(lam, bits) for bits in set(masks)}
    rows = []
    for lemma in lemmas:
        rng = np.random.default_rng([seed, lam, lemma])
        for r in ((2, 4, 6) if lemma == 4 else (None,)):
            if r is not None and r >= lam:
                continue
            for bits in masks:
                w = bits.bit_count()
                base = {"lambda": lam, "mask": bits, "weight": w}
                mag = mags[bits]
                if lemma == 1:
                    lhs = float(mag.sum())
                    if w == 0:
                        rows.append(_row("L1", dict(base, degenerate=True), lhs, 1.0, None, True))
                    else:
                        fitted = lhs ** (1.0 / w) / lam
                        rows.append(_row("L1", base, lhs, (10.0 * lam) ** w, fitted, fitted <= 10.0))
                elif lemma == 2:
                    lhs = float(mag.max())
                    if bits in (0, 1):
                        fitted = None if w == 0 else -math.log2(lhs) / w
                        rows.append(_row("L2", dict(base, degenerate=True), lhs, 1.0, fitted, True))
                    else:
                        fitted = -math.log2(lhs) / w
                        rows.append(_row("L2", base, lhs, 2.0 ** (-0.2 * w), fitted, fitted >= 0.2))
                elif lemma == 3:
                    lhs = float(mag.sum())
                    rhs = EXPLICIT_BASE ** (lam / 4.0)
                    rows.append(_row("L3", base, lhs, rhs, None, lhs <= rhs + 1e-9))
                elif lemma == 4:
                    a = int(rng.integers(0, 1 << r))
                    lhs = float(mag[a :: 1 << r].sum())
                    scale = EXPLICIT_BASE ** ((lam - r) / 4.0)
                    rows.append(_row("L4", dict(base, r=r, a=a), lhs, 4.0 * scale,
                                     lhs / scale, lhs / scale <= 4.0))
                elif lemma == 6:
                    for _ in range(4):
                        lo = int(rng.integers(1, n))
                        hi = int(rng.integers(lo + 1, n + 1))
                        m = max(0, (hi - lo - 1).bit_length())
                        lhs = float(mag[lo:hi].sum())
                        rhs = EXPLICIT_BASE ** (m / 4.0)
                        rows.append(_row("L6", dict(base, j_lo=lo, j_hi=hi, m=m),
                                         lhs, rhs, None, lhs <= rhs + 1e-9))
    return rows


def oracle_scan(job, seed, view, problems) -> None:
    """Every row of `scan --masks random`, recomputed from the seed."""
    f = _flags(job)
    lemmas = [int(x) for x in f["--lemmas"].split(",")]
    rows = []
    for lam in range(int(f["--lambda-min"]), int(f["--lambda-max"]) + 1):
        rows.extend(_scan_rows(lam, int(f["--count"]), lemmas, seed))
    fitted = [r["fitted_constant"] for r in rows if r["fitted_constant"] is not None]
    summary = {"summary": True, "n_reports": len(rows), "n_failures": 0,
               "min_fitted": min(fitted), "max_fitted": max(fitted)}
    rows.append(_row("SUMMARY", summary, 0.0, 1.0, None, True))
    compare({"reports": rows}, view["stdout"] or {}, "oracle", problems,
            ORACLE_RTOL, ORACLE_ATOL, subset=True)


def oracle_bilinear(job, seed, view, problems) -> None:
    """The Cauchy-Schwarz chain of `bilinear --coef random` from whole
    parity matrices (k_shift 0)."""
    f = _flags(job)
    bits = int(f["--mask"], 0)
    mu, nu, rho = int(f["--mu"]), int(f["--nu"]), int(f["--rho"])
    big_m, big_n, big_l = 1 << mu, 1 << nu, 1 << rho
    m = np.arange(big_m, 2 * big_m, dtype=np.int64)
    n = np.arange(big_n, 2 * big_n, dtype=np.int64)
    beta = np.random.default_rng([seed, 2, big_n]).integers(0, 2, size=big_n) * 2 - 1
    bil = float(np.abs(_signs(bits, np.outer(m, n)) @ beta).sum())
    # rows v = n + l for every shift l, |l| < L
    v = np.arange(big_n - big_l + 1, 2 * big_n + big_l - 1, dtype=np.int64)
    table = _signs(bits, np.outer(v, m))
    base = table[big_l - 1 : big_l - 1 + big_n]
    quad = 0.0
    for ell in range(-big_l + 1, big_l):
        other = table[big_l - 1 + ell : big_l - 1 + ell + big_n]
        quad += float(np.abs((base * other).sum(axis=1)).sum())
    prefactor = big_m * big_n / big_l
    lhs = bil * bil
    rhs = prefactor * (2 * big_l - 1) * quad
    expected = _row("BILIN", {"bilinear": bil, "quadform": quad,
                              "prefactor": prefactor, "clipped_terms": 0},
                    lhs, rhs, lhs / rhs, lhs <= rhs * (1.0 + 1e-12))
    compare({"reports": [expected]}, view["stdout"] or {}, "oracle", problems,
            ORACLE_RTOL, ORACLE_ATOL, subset=True)


ORACLES = {"scan": oracle_scan, "bilinear": oracle_bilinear}
