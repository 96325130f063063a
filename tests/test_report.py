"""Serialization: manifest JSON byte-identity and the CSV round trip."""

import io
import json
import tracemalloc

import numpy as np
import pytest

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
from walshlab.report import _jsonable, write_manifest_json


def _sample_reports():
    return (
        CheckReport(
            lemma_id="L1",
            params={"lambda": 8, "mask": "0x3"},
            lhs=12.5,
            rhs=31.0,
            ratio=12.5 / 31.0,
            fitted_constant=0.91,
            passed=True,
        ),
        CheckReport(
            lemma_id="L5",
            params={"lambda": 12, "sigma": 4, "t_grid": [3, 4, 5]},
            lhs=0.1 + 0.2,  # repr is the 17-digit 0.30000000000000004
            rhs=1.0,
            ratio=0.1 + 0.2,
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
        ratio=np.float64(0.75),
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
    rep = CheckReport("L4", {"lambda": np.int64(9), "sums": np.arange(3.0),
                             "ok": np.bool_(True), "rows": np.eye(2, dtype=np.int32)},
                      np.float64(0.25), 1.0, 0.25, np.float32(0.5), True)
    return RunManifest("scan", {"count": np.int32(3)}, 7, (rep,) + _sample_reports())


@pytest.mark.parametrize("manifest", [_numpy_manifest(), RunManifest("x", {}, 0, ())],
                         ids=["numpy", "empty"])
def test_streamed_manifest_equals_one_shot_text(manifest):
    out = io.StringIO()
    write_manifest_json(manifest, out)
    assert out.getvalue() == manifest_to_json(manifest)
    payload = {"command": manifest.command, "config": manifest.config,
               "seed": manifest.seed, "artifact_version": __version__, "started": None,
               "finished": None, "reports": [r.as_dict() for r in manifest.reports]}
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2,
                                        default=_jsonable) + "\n"


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
                ratio=lhs / rhs,
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
    no_lam = CheckReport("SPECTRUM", {"kind": "moebius"}, 1.0, 2.0, 0.5, None, True)
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
