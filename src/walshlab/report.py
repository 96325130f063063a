"""Deterministic serialization of check runs.

A CheckReport is one check's outcome, whatever layer made it.  JSON is
the canonical format: a RunManifest captures the command, its config, the
seed, and every CheckReport, and serializes with sorted keys
so identical runs produce byte-identical output.  CSV is a lossy tabular
projection for plotting: per-check params are flattened into one JSON
string column (they differ across lemmas).  Both stream to files in
batches of reports.  json writes every byte: each params shape is laid
out once with a hole per scalar, and a batch's scalars come from one call
of json's C encoder per column.

Every manifest is stamped with the package version and null started /
finished timestamps; wall-clock values would break the byte-identity
guarantee that the determinism tests pin.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field

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

    ratio is lhs/rhs, or lhs when rhs is 0, derived from the two sides.
    fitted_constant is None for explicit-constant checks.  passed maps to
    the JSON/CSV field "pass".
    """

    lemma_id: str
    params: dict
    lhs: float
    rhs: float
    ratio: float = field(init=False)
    fitted_constant: float | None
    passed: bool

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma_id {self.lemma_id!r}")
        lhs, rhs = float(self.lhs), float(self.rhs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "ratio", lhs / rhs if rhs else lhs)
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
        fitted_constant=d["fitted_constant"],
        passed=d["pass"],
    )


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


# one layout per params shape: the keys in order and each value's exact type
_SCALARS = frozenset((str, int, float, bool, type(None)))
# a hole in a skeleton, as json writes it; no scalar that json writes holds a newline
_HOLE = "\x00"
_HOLE_TEXT = json.dumps(_HOLE)
_ENTRY_INDENT = "\n    "  # a report sits two levels deep in its manifest
_BATCH = 256  # reports encoded and written at once

_manifest_encoder = json.JSONEncoder(sort_keys=True, indent=2, default=_jsonable)
_compact_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_jsonable)
# a column of scalars as one C-encoded list, one value per line
_column_encoder = json.JSONEncoder(separators=("\n", ": "))


def _column(values: list) -> list[str]:
    return _column_encoder.encode(values)[1:-1].split("\n")


def _holes(encoder, skeleton: dict, count: int) -> str | None:
    """skeleton's text with each hole a %s, or None when a key holds a hole too."""
    text = encoder.encode(skeleton)
    if text.count(_HOLE_TEXT) != count:
        return None
    return text.replace("%", "%%").replace(_HOLE_TEXT, "%s")


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple) -> tuple | None:
    """(sorted keys, manifest entry layout, CSV params layout) of a params
    shape whose keys are strings and values scalars, else None.  The entry's
    holes are fitted_constant, lemma_id, lhs, the params in sorted key
    order, pass, ratio and rhs, json's sorted order."""
    keys, types = shape
    if not (all(type(k) is str for k in keys) and _SCALARS.issuperset(types)):
        return None
    params = dict.fromkeys(keys, _HOLE)
    entry = dict.fromkeys(("fitted_constant", "lemma_id", "lhs", "pass", "ratio", "rhs"), _HOLE)
    entry = _holes(_manifest_encoder, {**entry, "params": params}, 6 + len(keys))
    csv_params = _holes(_compact_encoder, params, len(keys))
    if entry is None or csv_params is None:
        return None
    return tuple(sorted(keys)), entry.replace("\n", _ENTRY_INDENT), csv_params


def _texts(reports, csv_params: bool) -> list[str]:
    """Each report's manifest entry, or its CSV params_json: a report with
    a cached layout takes its scalars from one C-encoded column per hole
    across the reports of its shape, any other is encoded whole."""
    out = [None] * len(reports)
    groups = {}
    for i, rep in enumerate(reports):
        params = rep.params
        layout = _layout((tuple(params), tuple(map(type, params.values()))))
        if layout is not None:
            groups.setdefault(layout, []).append(i)
        elif csv_params:
            out[i] = _compact_encoder.encode(params)
        else:
            out[i] = _manifest_encoder.encode(rep.as_dict()).replace("\n", _ENTRY_INDENT)
    for (keys, entry, csv_layout), idx in groups.items():
        group = [reports[i] for i in idx]
        cols = [[rep.params[k] for rep in group] for k in keys]
        if not csv_params:
            head = ([r.fitted_constant for r in group], [r.lemma_id for r in group],
                    [r.lhs for r in group])
            cols = [*head, *cols, [r.passed for r in group], [r.ratio for r in group],
                    [r.rhs for r in group]]
        layout = csv_layout if csv_params else entry
        rows = zip(*map(_column, cols)) if cols else [()] * len(idx)
        for i, row in zip(idx, rows):
            out[i] = layout % row
    return out


def manifest_to_json(manifest: RunManifest) -> str:
    fh = io.StringIO()
    write_manifest_json(manifest, fh)
    return fh.getvalue()


def write_manifest_json(manifest: RunManifest, fh) -> None:
    """manifest_to_json(manifest) to a text file, _BATCH reports at a time,
    never held whole: json.dumps(payload, sort_keys=True, indent=2) + "\n"."""
    payload = {
        "command": manifest.command,
        "config": manifest.config,
        "seed": manifest.seed,
        "artifact_version": __version__,
        "started": None,
        "finished": None,
        "reports": [],
    }
    text = _manifest_encoder.encode(payload) + "\n"
    reports = manifest.reports
    if not reports:
        fh.write(text)
        return
    # only "seed" and "started" sort after "reports", so its list is the last []
    head, _, tail = text.rpartition('"reports": []')
    fh.write(head + '"reports": [')
    for start in range(0, len(reports), _BATCH):
        sep = "," if start else ""
        fh.write(sep + _ENTRY_INDENT + ("," + _ENTRY_INDENT).join(
            _texts(reports[start:start + _BATCH], False)))
    fh.write("\n  ]" + tail)


def manifest_from_json(text: str) -> RunManifest:
    payload = json.loads(text)
    return RunManifest(
        command=payload["command"],
        config=payload["config"],
        seed=payload["seed"],
        reports=tuple(report_from_dict(d) for d in payload["reports"]),
    )


def emit_csv(reports) -> str:
    fh = io.StringIO()
    write_csv(reports, fh)
    return fh.getvalue()


def write_csv(reports, fh) -> None:
    """Flatten a sequence of reports to an RFC-4180 table on a text file,
    _BATCH rows at a time; floats keep round-trip repr, and the params are
    one compact JSON column."""
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(CSV_HEADER)
    for start in range(0, len(reports), _BATCH):
        batch = reports[start:start + _BATCH]
        writer.writerows(zip(
            [r.lemma_id for r in batch],
            ["" if (lam := r.params.get("lambda")) is None else int(lam) for r in batch],
            _texts(batch, True),
            map(repr, [r.lhs for r in batch]),
            map(repr, [r.rhs for r in batch]),
            map(repr, [r.ratio for r in batch]),
            ["" if r.fitted_constant is None else repr(r.fitted_constant) for r in batch],
            ["true" if r.passed else "false" for r in batch],
        ))


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
                fitted_constant=float(row[6]) if row[6] else None,
                passed=row[7] == "true",
            )
        )
    return out
