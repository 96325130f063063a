"""Serialization: manifest JSON byte-identity and the CSV round trip."""

import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from walshlab import report
from walshlab import (
    CSV_HEADER,
    CheckReport,
    RunManifest,
    ScanConfig,
    __version__,
    emit_csv,
    manifest_from_json,
    manifest_to_json,
    parse_csv,
    scan_lemma_at,
)
from walshlab.report import LEMMA_IDS, _jsonable, write_csv, write_manifest_json


def _sample_reports():
    return (
        CheckReport(
            lemma_id="L1",
            params={"lambda": 8, "mask": "0x3"},
            lhs=12.5,
            rhs=31.0,
            fitted_constant=0.91,
            passed=True,
        ),
        CheckReport(
            lemma_id="L5",
            params={"lambda": 12, "sigma": 4, "t_grid": [3, 4, 5]},
            lhs=0.1 + 0.2,  # repr is the 17-digit 0.30000000000000004
            rhs=1.0,
            fitted_constant=None,
            passed=False,
        ),
    )


def _sample_manifest():
    return RunManifest(
        command="scan",
        config={"lambda_min": 8, "lambda_max": 12, "mask_family": "random"},
        seed=7,
        reports=_sample_reports(),
    )


# ---------------------------------------------------------------------------
# the record


def test_ratio_is_derived_from_both_sides():
    assert [f.name for f in dataclasses.fields(CheckReport) if f.init] == [
        "lemma_id", "params", "lhs", "rhs", "fitted_constant", "passed"]
    assert CheckReport("L3", {}, 3.0, 4.0, None, True).ratio == 0.75
    assert CheckReport("L3", {}, 3.0, 0.0, None, True).ratio == 3.0  # rhs 0 gives the lhs
    assert CheckReport("L3", {}, 3.0, -0.0, None, True).ratio == 3.0
    rep = CheckReport("L3", {}, np.float32(0.1), np.int64(3), None, True)
    assert type(rep.ratio) is float and rep.ratio == float(np.float32(0.1)) / 3.0
    with pytest.raises(TypeError):
        CheckReport("L3", {}, 3.0, 4.0, 0.75, None, True)


def test_readers_rebuild_the_ratio_rather_than_read_it():
    reports = _sample_reports()
    stored = repr(reports[0].ratio)
    text = emit_csv(reports)
    assert parse_csv(text) == list(reports)
    assert parse_csv(text.replace(stored, "7.0", 1))[0].ratio == reports[0].ratio
    text = manifest_to_json(_sample_manifest())
    assert manifest_from_json(text).reports == reports
    assert manifest_from_json(text.replace(stored, "7.0", 1)).reports == reports


# ---------------------------------------------------------------------------
# JSON manifests


def test_manifest_json_round_trip_is_byte_identical():
    text = manifest_to_json(_sample_manifest())
    again = manifest_to_json(manifest_from_json(text))
    assert again == text


def test_manifest_json_shape():
    text = manifest_to_json(_sample_manifest())
    assert text.endswith("\n") and not text.endswith("\n\n")
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert payload["started"] is None and payload["finished"] is None
    assert payload["artifact_version"]
    assert payload["seed"] == 7
    assert len(payload["reports"]) == 2
    assert payload["reports"][0]["pass"] is True
    # indent=2: the second line starts with two spaces
    assert text.splitlines()[1].startswith("  ")


def test_manifest_round_trip_preserves_reports():
    m = _sample_manifest()
    back = manifest_from_json(manifest_to_json(m))
    assert back.command == m.command
    assert back.config == m.config
    assert back.seed == m.seed
    assert back.reports == m.reports
    assert not back.all_passed


def test_manifest_all_passed():
    ok = _sample_reports()[0]
    assert RunManifest("x", {}, 0, (ok,)).all_passed
    assert RunManifest("x", {}, 0, ()).all_passed  # vacuous
    assert not _sample_manifest().all_passed


def test_manifest_coerces_numpy_scalars():
    rep = CheckReport(
        lemma_id="L3",
        params={"lambda": np.int64(10), "peak": np.float64(0.5)},
        lhs=np.float64(3.0),
        rhs=np.float64(4.0),
        fitted_constant=None,
        passed=bool(np.bool_(True)),
    )
    m = RunManifest("sweep", {"count": np.int32(3)}, np.int64(5), (rep,))
    text = manifest_to_json(m)
    payload = json.loads(text)
    assert payload["config"]["count"] == 3
    assert payload["reports"][0]["params"]["lambda"] == 10
    assert manifest_to_json(manifest_from_json(text)) == text


def _numpy_manifest():
    # array params stay one value each, whatever their shape
    rep = CheckReport("L4", {"lambda": np.int64(9), "sums": np.arange(3.0),
                             "ok": np.bool_(True), "rows": np.eye(2, dtype=np.int32),
                             "one": np.array([7]), "zero_d": np.array(7)},
                      np.float64(0.25), 1.0, np.float32(0.5), True)
    return RunManifest("scan", {"count": np.int32(3)}, 7, (rep,) + _sample_reports())


def _manifest_oracle(manifest) -> str:
    """json.dumps of the manifest's payload, its reports as dicts."""
    payload = {"command": manifest.command, "config": manifest.config, "seed": manifest.seed,
               "artifact_version": __version__, "started": None, "finished": None,
               "reports": [r.as_dict() for r in manifest.reports]}
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"


@pytest.mark.parametrize("manifest", [_numpy_manifest(), RunManifest("x", {}, 0, ())],
                         ids=["numpy", "empty"])
def test_streamed_manifest_equals_one_shot_text(manifest):
    out = io.StringIO()
    write_manifest_json(manifest, out)
    assert out.getvalue() == manifest_to_json(manifest) == _manifest_oracle(manifest)


def test_streamed_manifest_holds_neither_text_nor_payload():
    lam = 12
    config = ScanConfig(lambda_min=lam, lambda_max=lam, mask_family="all", lemmas=(2,))
    manifest = RunManifest("lemma-check", {}, 0, scan_lemma_at(config, 2, lam))
    text = manifest_to_json(manifest)

    class Discard:
        written = 0

        def write(self, chunk):
            self.written += len(chunk)

    sink = Discard()
    tracemalloc.start()
    try:
        write_manifest_json(manifest, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == len(text)
    assert peak < len(text) / 2


# ---------------------------------------------------------------------------
# both writers against one-report-at-a-time oracles

_TEXT = ("", "%s", "%%", "%(k)s", '"', '"\x00"', "\x00", "a\nb", "\\", "ü λ", "a,b", "\r\n")
_FLOAT = (0.1 + 0.2, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, float("nan"),
          float("inf"), float("-inf"))
_DRAW = {
    int: lambda rng: int(rng.integers(-1 << 62, 1 << 62)) << int(rng.integers(0, 10)),
    float: lambda rng: (float(rng.standard_normal()) if rng.random() < 0.5
                        else _FLOAT[rng.integers(len(_FLOAT))]),
    str: lambda rng: _TEXT[rng.integers(len(_TEXT))] + _TEXT[rng.integers(len(_TEXT))],
    bool: lambda rng: bool(rng.integers(2)),
    None: lambda rng: None,
    list: lambda rng: [int(rng.integers(9)), [float(rng.random()), None], {"k": "%s\n"}],
    dict: lambda rng: {"b": float(rng.random()), "a": [True, "\x00"]},
    np.int64: lambda rng: np.int64(rng.integers(-99, 99)),
    np.float64: lambda rng: np.float64(rng.standard_normal()),
    np.bool_: lambda rng: np.bool_(rng.integers(2)),
    np.ndarray: lambda rng: rng.integers(0, 9, size=(2, 2)).astype(np.int32),
    "whole": lambda rng: float(rng.integers(2, 30)),  # a float lambda the CSV column takes
}
# params shapes, as keys and value types; "any" draws a type per report
_SHAPES = (
    (("lambda", "mask", "weight"), (int, int, int)),
    ((), ()),
    (("lambda", "mask", "weight", "r", "a"), (int, int, int, int, int)),
    (("z", "a", "m"), (float, str, bool)),
    (("%s", 'q"k', "ü", "line\nbreak", "100%"), (str, float, None, int, bool)),
    (("\x00",), (int,)),  # the key is the hole itself
    (('"\x00', "x"), (str, float)),  # the key's text holds a hole
    (("lambda", "t_grid", "subchecks"), (int, list, dict)),
    (("lambda", "peak", "ok"), (np.int64, np.float64, np.bool_)),
    (("rows",), (np.ndarray,)),
    (("lambda",), ("whole",)),
    (("v", "lambda"), ("any", bool)),
)


def _corpus(seed, count):
    rng = np.random.default_rng(seed)
    types = list(_DRAW)
    reports = []
    for _ in range(count):
        keys, kinds = _SHAPES[rng.integers(len(_SHAPES))]
        kinds = [types[rng.integers(len(types))] if k == "any" else k for k in kinds]
        params = {k: _DRAW[t](rng) for k, t in zip(keys, kinds)}
        # the third draw once fed the ratio; it stays so each seed's corpus is unchanged
        lhs, rhs, _, fitted = (_DRAW[float](rng) for _ in range(4))
        reports.append(CheckReport(LEMMA_IDS[rng.integers(len(LEMMA_IDS))], params, lhs, rhs,
                                   None if rng.random() < 0.3 else fitted,
                                   bool(rng.integers(2))))
    return reports


@pytest.mark.parametrize("seed", [0, 7919])
def test_writers_match_their_oracles(seed):
    reports = _corpus(seed, 2 * report._BATCH + 77)
    config = {"reports": [], "a": {"%s": [1, None]}, "count": np.int32(3)}
    manifest = RunManifest("scan", config, seed, reports)
    assert manifest_to_json(manifest) == _manifest_oracle(manifest)
    assert emit_csv(reports) == oracles.csv_text(reports)


def test_runs_of_like_reports_are_written_as_one_block():
    # a run shares its lemma id, params shape (keys in order, value types)
    # and whether a fitted constant is set; array params stay whole
    def rep(i, lemma="THM1", fitted=None, **extra):
        return CheckReport(lemma, {"lambda": 6 + i % 3, "kind": "moebius", "value": -i,
                                   "exponent": 0.5 + i / 7, **extra}, i / 3, 7.0, fitted, i % 5)

    reports = ([rep(i) for i in range(600)] + [rep(0, fitted=0.25), rep(1, fitted=-0.0)]
               + [rep(i, lemma="L1") for i in range(3)] + [rep(9, rows=np.arange(3.0))]
               + [rep(i, rows=np.array([[i, 2]])) for i in range(2)]
               + [CheckReport("THM1", {"lambda": 6, "kind": "moebius", "value": 0,
                                       "exponent": None}, 0.0, 7.0, None, True)])
    assert [len(b) for b in report._blocks(reports)] == [600, 2, 3, 3, 1]
    manifest = RunManifest("theorem-scan", {}, 0, reports)
    assert manifest_to_json(manifest) == _manifest_oracle(manifest)
    assert emit_csv(reports) == oracles.csv_text(reports)


def _block(n, seed, **params):
    """A block of n rows with varying and constant columns, awkward floats
    included."""
    rng = np.random.default_rng(seed)
    floats = np.array([_DRAW[float](rng) for _ in range(n)])
    return report.ReportColumns(
        "L2", {"lambda": 11, "mask": np.arange(n) * 3, "weight": rng.integers(0, 9, n),
               "x": -floats, "ok": rng.integers(0, 2, n).astype(bool), **params},
        floats, rng.standard_normal(n) if seed % 2 else 0.0,
        None if seed % 3 else np.abs(floats), rng.integers(0, 2, n).astype(bool))


@pytest.mark.parametrize("n", [1, 255, 256, 257])
@pytest.mark.parametrize("params", [{}, {"%s": "a%", "z": None}, {"grid": [1, 2]},
                                    {"lambda": np.int64(11)},
                                    {'q"k,100%': 2.5, "line\nbreak": None, "%s": True}],
                         ids=["plain", "text", "list", "numpy", "quoted keys"])
def test_writers_give_a_block_the_bytes_of_its_rows(n, params):
    for seed in range(3):
        block = _block(n, seed, **params)
        rows = block.reports()
        assert len(rows) == len(block) == n
        manifest = RunManifest("scan", {}, 0, [block])
        assert manifest_to_json(manifest) == _manifest_oracle(RunManifest("scan", {}, 0, rows))
        assert emit_csv([block]) == oracles.csv_text(rows)


def test_writers_mix_blocks_and_reports():
    parts = [_block(300, 1), *_sample_reports(), _block(1, 2), _block(256, 3, s="t"),
             _sample_reports()[0], _block(0, 4)]
    rows = report.expand(parts)
    assert len(rows) == 300 + 2 + 1 + 256 + 1
    manifest = RunManifest("scan", {"k": 1}, 5, parts)
    assert manifest_to_json(manifest) == manifest_to_json(RunManifest("scan", {"k": 1}, 5, rows))
    assert emit_csv(parts) == emit_csv(rows)
    assert manifest.all_passed is all(r.passed for r in rows) is False
    passing = report.ReportColumns("L3", {"mask": np.arange(3)}, np.ones(3), 2.0, None,
                                   np.ones(3, bool))
    assert RunManifest("scan", {}, 0, [passing, _sample_reports()[0]]).all_passed


def test_empty_blocks_write_an_empty_manifest():
    empty = RunManifest("scan", {}, 0, [_block(0, 1)])
    assert manifest_to_json(empty) == manifest_to_json(RunManifest("scan", {}, 0, ()))


def test_block_ratio_is_derived_as_a_reports_and_the_block_is_read_only():
    lhs = np.array([3.0, -0.0, 1e308, 2.0])
    rhs = np.array([2.0, 0.0, 1e-10, -0.0])
    block = report.ReportColumns("L1", {}, lhs, rhs, None, np.ones(4, bool))
    assert [repr(x) for x in block.ratio.tolist()] == [repr(r.ratio) for r in block.reports()]
    with pytest.raises(ValueError, match="shape"):
        report.ReportColumns("L1", {"mask": np.arange(3)}, lhs, rhs, None, np.ones(4, bool))
    for passed in (True, np.ones((2, 2), bool)):
        with pytest.raises(ValueError, match="one-dimensional"):
            report.ReportColumns("L1", {"lambda": 5}, 1.0, 2.0, None, passed)
    with pytest.raises(AttributeError, match="read-only"):
        block.lhs = lhs


def test_layouts_only_for_string_keys_and_scalar_values():
    assert report._layout((("lambda", "mask"), (int, float))) is not None
    assert report._layout(((), ())) is not None
    for shape in [(("\x00",), (int,)), (('"\x00',), (int,)), ((1,), (int,)),
                  (("lambda",), (np.int64,)), (("grid",), (list,))]:
        assert report._layout(shape) is None, shape


def test_streamed_csv_holds_neither_text_nor_rows():
    lam = 14
    config = ScanConfig(lambda_min=lam, lambda_max=lam, mask_family="all", lemmas=(2,))
    reports = scan_lemma_at(config, 2, lam)
    text = emit_csv(reports)

    class Discard:
        written = 0

        def write(self, chunk):
            self.written += len(chunk)

    sink = Discard()
    tracemalloc.start()
    try:
        write_csv(reports, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == len(text)
    assert peak < len(text) / 4


def test_manifest_determinism_across_report_objects():
    # two independently constructed but equal manifests serialize identically
    assert manifest_to_json(_sample_manifest()) == manifest_to_json(_sample_manifest())


# ---------------------------------------------------------------------------
# CSV projection


def test_csv_header_and_line_endings():
    text = emit_csv(_sample_reports())
    lines = text.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4  # header + 2 rows + terminator
    assert "\n" not in text.replace("\r\n", "")  # no bare LFs


def test_csv_empty_is_header_only():
    text = emit_csv([])
    assert text == ",".join(CSV_HEADER) + "\r\n"
    assert parse_csv(text) == []


def test_csv_quotes_params_json():
    text = emit_csv(_sample_reports())
    row = text.split("\r\n")[1]
    # params JSON holds commas, so the field must arrive quoted
    assert '"{""lambda""' in row


def test_csv_float_repr_round_trips():
    reports = _sample_reports()
    back = parse_csv(emit_csv(reports))
    assert back[1].lhs == 0.1 + 0.2  # exact, not approximate
    assert back[1].fitted_constant is None
    assert back[0].fitted_constant == 0.91


def test_csv_round_trip_many_random_reports(rng):
    reports = []
    for i in range(100):
        lhs = float(rng.uniform(0, 1e6))
        rhs = float(rng.uniform(1e-6, 1e6))
        reports.append(
            CheckReport(
                lemma_id=f"L{1 + i % 6}",
                params={"lambda": int(rng.integers(2, 21)), "i": i},
                lhs=lhs,
                rhs=rhs,
                fitted_constant=None if i % 7 == 0 else float(rng.uniform(0, 10)),
                passed=bool(i % 3),
            )
        )
    back = parse_csv(emit_csv(reports))
    assert back == reports


def test_csv_lambda_column():
    text = emit_csv(_sample_reports())
    rows = text.split("\r\n")
    assert rows[1].startswith("L1,8,")
    no_lam = CheckReport("SPECTRUM", {"kind": "moebius"}, 1.0, 2.0, None, True)
    assert emit_csv([no_lam]).split("\r\n")[1].startswith("SPECTRUM,,")


def test_csv_rejects_malformed_header():
    with pytest.raises(ValueError, match="header"):
        parse_csv("lemma,lhs\r\nL1,1.0\r\n")
    with pytest.raises(ValueError, match="header"):
        parse_csv("")


def test_csv_rejects_wrong_column_count():
    good = emit_csv(_sample_reports())
    mangled = good.split("\r\n")
    mangled[1] = "L1,8,{}"
    with pytest.raises(ValueError, match="columns"):
        parse_csv("\r\n".join(mangled))
