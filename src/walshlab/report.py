"""Deterministic serialization of check runs.

A CheckReport is one check's outcome, whatever layer made it.  JSON is
the canonical format: a RunManifest captures the command, its config, the
seed, and every CheckReport, and serializes with sorted keys
so identical runs produce byte-identical output, streamed to files in
chunks.  CSV is a lossy tabular projection for plotting: per-check params
are flattened into one JSON string column (they differ across lemmas).

Every manifest is stamped with the package version and null started /
finished timestamps; wall-clock values would break the byte-identity
guarantee that the determinism tests pin.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._version import __version__

# the sieved kinds; a kind's AWS1 code is its index in KINDS
SIGN_KINDS = ("moebius", "liouville")
KINDS = SIGN_KINDS + ("von_mangoldt",)

LEMMA_IDS = (
    "L1", "L2", "L3", "L4", "L5", "L6",
    "THM1", "CARRY", "TYPE1", "SPLIT",
    "BILIN", "QUAD", "SIEVE", "SPECTRUM", "SUMMARY",
)

CSV_HEADER = (
    "lemma_id",
    "lambda",
    "params_json",
    "lhs",
    "rhs",
    "ratio",
    "fitted_constant",
    "pass",
)


@dataclass(frozen=True)
class CheckReport:
    """One check outcome: inputs, both sides, and the verdict.

    fitted_constant is None for explicit-constant checks.  passed maps to
    the JSON/CSV field "pass".
    """

    lemma_id: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    fitted_constant: float | None
    passed: bool

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma_id {self.lemma_id!r}")
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "ratio", float(self.ratio))
        if self.fitted_constant is not None:
            object.__setattr__(self, "fitted_constant", float(self.fitted_constant))
        object.__setattr__(self, "passed", bool(self.passed))

    def as_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "fitted_constant": self.fitted_constant,
            "pass": self.passed,
        }


def report_from_dict(d: dict) -> CheckReport:
    return CheckReport(
        lemma_id=d["lemma_id"],
        params=d["params"],
        lhs=d["lhs"],
        rhs=d["rhs"],
        ratio=d["ratio"],
        fitted_constant=d["fitted_constant"],
        passed=d["pass"],
    )


def _ratio(lhs: float, rhs: float) -> float:
    return lhs / rhs if rhs else float(lhs)


@dataclass(frozen=True)
class RunManifest:
    """One CLI invocation's inputs and results."""

    command: str
    config: dict
    seed: int
    reports: tuple

    def __post_init__(self):
        object.__setattr__(self, "reports", tuple(self.reports))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _jsonable(value):
    # numpy scalars leak into params from vector kernels; JSON needs natives
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


class _ReportDicts(list):
    # json's Python encoder takes any list; each dict is built as it is reached
    def __iter__(self):
        return (r.as_dict() for r in super().__iter__())


# the one manifest encoder; a write joins _WRITE_BATCH chunks of ~6 characters
_manifest_encoder = json.JSONEncoder(sort_keys=True, indent=2, default=_jsonable)
_WRITE_BATCH = 1 << 10


def manifest_to_json(manifest: RunManifest) -> str:
    fh = io.StringIO()
    write_manifest_json(manifest, fh)
    return fh.getvalue()


def write_manifest_json(manifest: RunManifest, fh) -> None:
    """manifest_to_json(manifest) to a text file, never held whole."""
    payload = {
        "command": manifest.command,
        "config": manifest.config,
        "seed": manifest.seed,
        "artifact_version": __version__,
        "started": None,
        "finished": None,
        "reports": _ReportDicts(manifest.reports),
    }
    chunks = itertools.chain(_manifest_encoder.iterencode(payload), "\n")
    while batch := "".join(itertools.islice(chunks, _WRITE_BATCH)):
        fh.write(batch)


def manifest_from_json(text: str) -> RunManifest:
    payload = json.loads(text)
    return RunManifest(
        command=payload["command"],
        config=payload["config"],
        seed=payload["seed"],
        reports=tuple(report_from_dict(d) for d in payload["reports"]),
    )


# one encoder for every CSV row: json.dumps builds one per call given these arguments
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_jsonable).encode


def emit_csv(reports) -> str:
    """Flatten reports to an RFC-4180 table; floats keep round-trip repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_HEADER)
    for rep in reports:
        lam = rep.params.get("lambda")
        writer.writerow(
            [
                rep.lemma_id,
                "" if lam is None else int(lam),
                _compact_json(rep.params),
                repr(rep.lhs),
                repr(rep.rhs),
                repr(rep.ratio),
                "" if rep.fitted_constant is None else repr(rep.fitted_constant),
                "true" if rep.passed else "false",
            ]
        )
    return buf.getvalue()


def parse_csv(text: str) -> list[CheckReport]:
    """Inverse of emit_csv up to the params JSON round trip."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing or malformed header row")
    out = []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"expected {len(CSV_HEADER)} columns, got {len(row)}")
        out.append(
            CheckReport(
                lemma_id=row[0],
                params=json.loads(row[2]),
                lhs=float(row[3]),
                rhs=float(row[4]),
                ratio=float(row[5]),
                fitted_constant=float(row[6]) if row[6] else None,
                passed=row[7] == "true",
            )
        )
    return out
