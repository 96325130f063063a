"""Deterministic serialization of check runs.

A CheckReport is one check's outcome, whatever layer made it.  JSON is
the canonical format: a RunManifest captures the command, its config, the
seed, and every CheckReport, and serializes with sorted keys
so identical runs produce byte-identical output.  CSV is a lossy tabular
projection for plotting: per-check params are flattened into one JSON
string column (they differ across lemmas).  A ReportColumns block holds
one lemma's rows as columns, and blocks are all the writers see: each run
of consecutive CheckReports with one lemma id and params shape becomes
one block, its params kept whole.
Both writers stream a block's rows in batches, each row with the bytes of
its CheckReport.  json writes every byte: each params shape is laid out
once with a hole per scalar, and a batch's scalars come from one call of
json's C encoder per column; a block whose params shape has no layout
has each row encoded whole.  CSV rows are laid out the same way when no
param is a string, their params cell quoted in the layout; the others go
through csv.writer.  Every output file, a manifest, a CSV table or an AWS1
dump, is opened by _overwrite, which writes over it in place.

Every manifest is stamped with the package version and null started /
finished timestamps; wall-clock values would break the byte-identity
guarantee that the determinism tests pin.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import os
import stat
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
    fitted_constant is a constant or an array, and passed a one-dimensional
    bool array.
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
        if passed.ndim != 1:
            raise ValueError(f"passed must be one-dimensional, not of shape {passed.shape}")
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
        return all(np.all(r.passed) for r in self.reports)


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


def _reprs(values: list) -> list[str]:
    """CSV float cells: round-trip repr, empty for None."""
    return ["" if v is None else repr(v) for v in values]


def _ints(values: list) -> list[str]:
    """CSV lambda cells: the value as an int, empty for None."""
    return ["" if v is None else str(int(v)) for v in values]


def _holes(encoder, skeleton: dict, count: int) -> str | None:
    """skeleton's text with each hole a %s, or None when a key holds a hole too."""
    text = encoder.encode(skeleton)
    if text.count(_HOLE_TEXT) != count:
        return None
    return text.replace("%", "%%").replace(_HOLE_TEXT, "%s")


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple) -> tuple | None:
    """(sorted keys, manifest entry layout, CSV params layout, CSV row
    layout) of a params shape whose keys are strings and values scalars,
    else None.  The entry's holes are fitted_constant, lemma_id, lhs, the
    params in sorted key order, pass, ratio and rhs, json's sorted order.
    The row's are CSV_HEADER's, the params in sorted key order in place of
    params_json, whose cell is quoted and its quotes doubled once, as
    csv.writer would: no number, bool or null that json writes holds a
    comma, quote or line break.  A string param can, so with one the row
    layout is None."""
    keys, types = shape
    if not (all(type(k) is str for k in keys) and _SCALARS.issuperset(types)):
        return None
    params = dict.fromkeys(keys, _HOLE)
    entry = dict.fromkeys(("fitted_constant", "lemma_id", "lhs", "pass", "ratio", "rhs"), _HOLE)
    entry = _holes(_manifest_encoder, {**entry, "params": params}, 6 + len(keys))
    csv_params = _holes(_compact_encoder, params, len(keys))
    if entry is None or csv_params is None:
        return None
    row = None
    if str not in types:
        cell = '"%s"' % csv_params.replace('"', '""') if keys else csv_params
        row = "%s,%s," + cell + ",%s,%s,%s,%s,%s\r\n"
    return tuple(sorted(keys)), entry.replace("\n", _ENTRY_INDENT), csv_params, row


def _run_key(part) -> tuple | None:
    """What a report shares with the reports it is merged with: its lemma
    id, params shape and whether it has a fitted constant; None for a block."""
    if isinstance(part, ReportColumns):
        return None
    return (part.lemma_id, tuple(part.params), tuple(map(type, part.params.values())),
            part.fitted_constant is None)


def _blocks(reports):
    """reports and blocks as blocks, in order: a block as it is, and each
    run of consecutive reports with one _run_key as one block, each param an
    object column holding its values whole, so that an array param stays
    one value."""
    for key, run in itertools.groupby(reports, _run_key):
        if key is None:
            yield from run
            continue
        run = list(run)
        params = {k: np.fromiter((r.params[k] for r in run), object, len(run))
                  for k in run[0].params}
        yield ReportColumns(key[0], params, [r.lhs for r in run], [r.rhs for r in run],
                            None if key[-1] else [r.fitted_constant for r in run],
                            [r.passed for r in run])


def _formatted(layout: str, cols: list, n: int):
    """layout % (one text per column) for each of n rows, _BATCH rows at a
    time.  cols are (value, texts): texts maps a list of values to their
    texts, once for a constant value and once per batch for an array."""
    constant = [None if isinstance(v, np.ndarray) else texts([v]) for v, texts in cols]
    for lo in range(0, n, _BATCH):
        k = min(_BATCH, n - lo)
        row_texts = [texts(v[lo:lo + k].tolist()) if c is None else c * k
                     for (v, texts), c in zip(cols, constant)]
        yield [layout % row for row in (zip(*row_texts) if row_texts else [()] * k)]


def _block_texts(block: ReportColumns, csv_rows: bool):
    """The manifest entries, or CSV lines, of each _BATCH rows of a block in
    turn.  With a cached layout for its params shape, the layout and the
    constants' texts are made once, and each array is one column of texts
    per batch, C-encoded where json writes them; without one, each row is
    encoded whole.  A CSV line whose shape has a row layout is laid out
    whole; the others' params_json cells go through csv.writer."""
    params, n = block.params, len(block)
    layout = n and _layout((tuple(params), tuple(
        type(v[:1].tolist()[0]) if isinstance(v, np.ndarray) else type(v)
        for v in params.values())))
    if not layout:
        rows = block.reports()
        texts = ([_compact_encoder.encode(r.params) if csv_rows else
                  _manifest_encoder.encode(r.as_dict()).replace("\n", _ENTRY_INDENT)
                  for r in rows[lo:lo + _BATCH]] for lo in range(0, n, _BATCH))
        return _written(block, texts) if csv_rows else texts
    keys, entry, csv_params, csv_row = layout
    cols = [(params[k], _column) for k in keys]
    if not csv_rows:
        return _formatted(entry, [(block.fitted_constant, _column), (block.lemma_id, _column),
                                  (block.lhs, _column), *cols, (block.passed, _column),
                                  (block.ratio, _column), (block.rhs, _column)], n)
    if csv_row is None:
        return _written(block, _formatted(csv_params, cols, n))
    return _formatted(csv_row, [(block.lemma_id, list), (params.get("lambda"), _ints), *cols,
                                (block.lhs, _reprs), (block.rhs, _reprs), (block.ratio, _reprs),
                                (block.fitted_constant, _reprs), (block.passed, _column)], n)


def _written(block: ReportColumns, params_texts):
    """A block's CSV lines, _BATCH rows at a time, from their params_json
    cells in params_texts, as csv.writer quotes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    for lo, texts in zip(itertools.count(0, _BATCH), params_texts):
        hi = lo + len(texts)
        ids, lams, lhs, rhs, ratio, fitted, passed = (_field(block, f, lo, hi) for f in (
            "lemma_id", "lambda", "lhs", "rhs", "ratio", "fitted_constant", "passed"))
        writer.writerows(zip(ids, _ints(lams), texts, _reprs(lhs), _reprs(rhs), _reprs(ratio),
                             _reprs(fitted), _column(passed)))
        yield [buf.getvalue()]
        buf.seek(0)
        buf.truncate()


def _batches(reports, csv_rows: bool):
    """The manifest entries, or CSV lines, of reports and blocks, _BATCH
    rows of a block at a time, in order."""
    for block in _blocks(reports):
        yield from _block_texts(block, csv_rows)


def _field(block: ReportColumns, name: str, lo: int, hi: int) -> list:
    """The values of a field (of the lambda param, for "lambda") in rows
    lo..hi of a block."""
    return _values(block.params.get(name) if name == "lambda" else getattr(block, name), lo, hi)


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
    for texts in _batches(manifest.reports, False):
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
    fh.write(",".join(CSV_HEADER) + "\r\n")
    for lines in _batches(reports, True):
        fh.write("".join(lines))


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


@contextlib.contextmanager
def _overwrite(path):
    """A write descriptor for path, created if missing, whose old bytes are
    written over in place rather than truncated first: on ext4 a file cut
    to zero and written again starts its writeback at close, and the next
    run's truncation waits for that I/O.  However the block ends, a regular
    file (only: a device such as /dev/null keeps no size) is then cut to
    the descriptor's offset, the end of what was written, so no tail of a
    longer old file stays."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        yield fd
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)
