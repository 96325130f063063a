"""Deterministic serialization of check runs.

A CheckReport is one check's outcome, whatever layer made it.  JSON is
the canonical format: a RunManifest captures the command, its config, the
seed, and every CheckReport, and serializes with sorted keys
so identical runs produce byte-identical output.  CSV is a lossy tabular
projection for plotting: per-check params are flattened into one JSON
string column (they differ across lemmas).  Both stream to files in
batches of reports.  json writes every byte: each params shape is laid
out once with a hole per scalar, and a batch's scalars come from one call
of json's C encoder per column.  A ReportColumns block holds one lemma's
rows as columns; the writers take blocks beside CheckReports and give
each row the bytes of its CheckReport.

Every manifest is stamped with the package version and null started /
finished timestamps; wall-clock values would break the byte-identity
guarantee that the determinism tests pin.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
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


class ReportColumns:
    """The outcomes of one lemma's checks over many rows, field by field,
    read-only: each param (in a row's key order), lhs, rhs and
    fitted_constant is a constant or an array, and passed a bool array.
    ratio is derived as in CheckReport: numpy's division is the same IEEE
    operation as Python's.  A plain class: a frozen dataclass would cost
    every command's start its generated methods."""

    __slots__ = ("lemma_id", "params", "lhs", "rhs", "ratio", "fitted_constant", "passed")

    def __init__(self, lemma_id: str, params: dict, lhs, rhs, fitted_constant, passed):
        if lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma_id {lemma_id!r}")
        lhs, rhs, fitted = (v if v is None else np.asarray(v, np.float64) if np.ndim(v)
                            else float(v) for v in (lhs, rhs, fitted_constant))
        passed = np.asarray(passed, dtype=bool)
        if any(isinstance(v, np.ndarray) and v.shape != passed.shape
               for v in (*params.values(), lhs, rhs, fitted)):
            raise ValueError(f"a column's shape is not {passed.shape}")
        with np.errstate(all="ignore"):  # Python's float division does not warn
            ratio = (np.where(rhs != 0, lhs / np.where(rhs != 0, rhs, 1.0), lhs) if np.ndim(rhs)
                     else lhs / rhs if rhs else lhs)
        for name, value in zip(self.__slots__, (lemma_id, params, lhs, rhs, ratio, fitted,
                                                passed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ReportColumns is read-only: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.passed)

    def reports(self) -> list[CheckReport]:
        """The rows as CheckReports, built _BATCH at a time."""
        cols = (*self.params.values(), self.lhs, self.rhs, self.fitted_constant, self.passed)
        return [CheckReport(self.lemma_id, dict(zip(self.params, row)), *row[-4:])
                for lo in range(0, len(self), _BATCH)
                for row in zip(*(_values(v, lo, lo + _BATCH) for v in cols))]


def _values(value, lo: int, hi: int) -> list:
    """A column's rows lo..hi as Python scalars; a constant repeats."""
    return value[lo:hi].tolist() if isinstance(value, np.ndarray) else [value] * (hi - lo)


def expand(reports) -> list[CheckReport]:
    """The reports with every block expanded into its rows, in order."""
    return [row for rep in reports
            for row in (rep.reports() if isinstance(rep, ReportColumns) else [rep])]


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
        return all(r.passed.all() if isinstance(r, ReportColumns) else r.passed
                   for r in self.reports)


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


def _block_texts(block: ReportColumns, csv_params: bool):
    """The texts of _texts for each _BATCH rows of a block in turn: its
    layout and its constants' texts are made once, and each array is one
    C-encoded column per batch."""
    params, n = block.params, len(block)
    layout = n and _layout((tuple(params), tuple(
        type(v[0].item()) if isinstance(v, np.ndarray) else type(v) for v in params.values())))
    if not layout:  # its rows are encoded as CheckReports
        rows = block.reports()
        for lo in range(0, n, _BATCH):
            yield _texts(rows[lo:lo + _BATCH], csv_params)
        return
    keys, entry, csv_layout = layout
    cols = [params[k] for k in keys]
    if not csv_params:
        cols = [block.fitted_constant, block.lemma_id, block.lhs, *cols, block.passed,
                block.ratio, block.rhs]
    constant = [None if isinstance(v, np.ndarray) else _column([v]) for v in cols]
    for lo in range(0, n, _BATCH):
        k = min(_BATCH, n - lo)
        texts = [_column(v[lo:lo + k].tolist()) if c is None else c * k
                 for v, c in zip(cols, constant)]
        yield [(csv_layout if csv_params else entry) % row
               for row in (zip(*texts) if texts else [()] * k)]


def _batches(reports, csv_params: bool):
    """(part, lo, texts) for each _BATCH rows of reports and blocks, in
    order: part is a block or a run of CheckReports, and texts the manifest
    entries or CSV params_json of its rows from lo on."""
    for blocks, group in itertools.groupby(reports, lambda r: isinstance(r, ReportColumns)):
        for part in group if blocks else [list(group)]:
            starts = range(0, len(part), _BATCH)
            texts = (_block_texts(part, csv_params) if blocks
                     else (_texts(part[lo:lo + _BATCH], csv_params) for lo in starts))
            yield from zip(itertools.repeat(part), starts, texts)


def _field(part, name: str, lo: int, hi: int) -> list:
    """The values of a field (of the lambda param, for "lambda") in rows
    lo..hi of a block or a run of CheckReports."""
    if isinstance(part, ReportColumns):
        return _values(part.params.get(name) if name == "lambda" else getattr(part, name), lo, hi)
    return [r.params.get(name) if name == "lambda" else getattr(r, name) for r in part[lo:hi]]


def manifest_to_json(manifest: RunManifest) -> str:
    fh = io.StringIO()
    write_manifest_json(manifest, fh)
    return fh.getvalue()


def write_manifest_json(manifest: RunManifest, fh) -> None:
    """manifest_to_json(manifest) to a text file, _BATCH reports at a time,
    never held whole: json.dumps(payload, sort_keys=True, indent=2) + "\n",
    a block's rows written as its CheckReports would be."""
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
    # only "seed" and "started" sort after "reports", so its list is the last []
    head, _, tail = text.rpartition('"reports": []')
    sep = head + '"reports": ['
    for _, _, texts in _batches(manifest.reports, False):
        fh.write(sep + _ENTRY_INDENT + ("," + _ENTRY_INDENT).join(texts))
        sep = ","
    fh.write("\n  ]" + tail if sep == "," else text)  # no rows: the empty list


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
    """Flatten a sequence of reports and blocks to an RFC-4180 table on a
    text file, _BATCH rows at a time; floats keep round-trip repr, and the
    params are one compact JSON column."""
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(CSV_HEADER)
    for part, lo, texts in _batches(reports, True):
        hi = lo + len(texts)
        ids, lams, lhs, rhs, ratio, fitted, passed = (_field(part, f, lo, hi) for f in (
            "lemma_id", "lambda", "lhs", "rhs", "ratio", "fitted_constant", "passed"))
        writer.writerows(zip(
            ids, ["" if lam is None else int(lam) for lam in lams], texts,
            map(repr, lhs), map(repr, rhs), map(repr, ratio),
            ["" if f is None else repr(f) for f in fitted],
            ["true" if p else "false" for p in passed],
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
