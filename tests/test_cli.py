"""CLI: exit codes, output formats, binary dumps, and determinism."""

import json
import subprocess
import sys

import pytest

from walshlab import load_sequence, manifest_from_json, parse_csv
from walshlab.cli import dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_sieve_exit_zero_and_manifest(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "10")
    assert code == 0
    manifest = manifest_from_json(out)
    assert manifest.command == "sieve"
    assert len(manifest.reports) == 1
    rep = manifest.reports[0]
    assert rep.lemma_id == "SIEVE"
    assert rep.params["lambda"] == 10
    assert rep.passed


def test_spectrum_small_moebius(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--lambda", "2")
    assert code == 0
    rep = manifest_from_json(out).reports[0]
    assert rep.lemma_id == "SPECTRUM"
    assert rep.params["peak_mask"] == 0b10
    assert rep.lhs == 3.0


def test_failed_check_exits_one(capsys):
    # at lambda=2 the Moebius peak is the full mass: the 3/4-exponent
    # criterion cannot hold that low, and the run must say so via rc=1
    code, out, _ = run_cli(capsys, "theorem-scan", "--lambda-min", "2",
                           "--lambda-max", "2")
    assert code == 1
    manifest = manifest_from_json(out)
    assert not manifest.all_passed


def test_passing_theorem_scan_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "theorem-scan", "--lambda-min", "8",
                           "--lambda-max", "10")
    assert code == 0
    manifest = manifest_from_json(out)
    assert len(manifest.reports) == 3
    assert manifest.all_passed


def test_usage_error_exits_two(capsys):
    assert run_cli(capsys, "sieve", "--no-such-flag")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "sieve")[0] == 2  # --lambda is required


def test_value_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "theorem-scan", "--lambda-min", "5",
                           "--lambda-max", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("mu", ["0", "-2"])
def test_split_rejects_nonpositive_mu(capsys, mu):
    # mu < 1 puts the split at or above lam: S2 is empty and the check vacuous
    code, out, err = run_cli(capsys, "split", "--mask", "0x3000", "--lambda", "14",
                             "--mu", mu, "--h", "4")
    assert code == 2 and out == ""
    assert "mu must be >= 1" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_count_exits_two(capsys, count):
    for argv in (("lemma-check", "--lemma", "1", "--lambda", "12"),
                 ("scan", "--lambda-min", "8", "--lambda-max", "9")):
        code, out, err = run_cli(capsys, *argv, "--count", count)
        assert code == 2 and out == ""
        assert f"count must be >= 1, got {count}" in err


def test_scan_lambda_cap_exits_two(capsys):
    code, out, err = run_cli(capsys, "scan", "--lambda-min", "12", "--lambda-max", "17")
    assert code == 2 and out == ""
    assert "per-mask coefficient rows are capped at lam <= 16, got 17" in err


def test_resource_limit_exits_three(capsys):
    code, _, err = run_cli(capsys, "sieve", "--lambda", "99")
    assert code == 3
    assert "bytes" in err


def test_max_mem_flag_tightens_limit(capsys):
    code, _, _ = run_cli(capsys, "sieve", "--lambda", "22",
                         "--max-mem-gib", "0.001")
    assert code == 3


def test_env_var_limits_and_flag_overrides(capsys, monkeypatch):
    monkeypatch.setenv("WSL_MAX_MEM_GIB", "0.001")
    assert run_cli(capsys, "sieve", "--lambda", "22")[0] == 3
    # explicit flag wins over the environment
    assert run_cli(capsys, "sieve", "--lambda", "22", "--max-mem-gib", "2")[0] == 0


@pytest.mark.parametrize("argv", ["spectrum --lambda 14",
                                  "theorem-scan --lambda-min 12 --lambda-max 14"])
def test_transform_guard_honours_max_mem_flag(capsys, monkeypatch, argv):
    # the environment alone refuses a 2^14 transform buffer; the flag must
    # reach the transform's guard as it reaches the sieve's
    monkeypatch.setenv("WSL_MAX_MEM_GIB", "0.0001")
    assert run_cli(capsys, *argv.split())[0] == 3
    code, out, err = run_cli(capsys, *argv.split(), "--max-mem-gib", "10")
    assert code == 0 and err == ""


BAD_NUMBERS = [
    ("carry-rate --mask 0x6 --mu 4 --nu 6 --epsilon inf", None, "epsilon must be finite"),
    ("bilinear --mask 0x6 --mu 4 --nu 6 --epsilon nan", None, "epsilon must be finite"),
    ("sieve --lambda 8 --max-mem-gib inf", None, "memory budget"),
    ("sieve --lambda 8 --max-mem-gib nan", None, "memory budget"),
    ("sieve --lambda 8 --max-mem-gib -1", None, "memory budget"),
    ("sieve --lambda 8 --max-mem-gib 0", None, "memory budget"),
    ("sieve --lambda 8", "inf", "memory budget"),
    ("sieve --lambda 8", "-1", "memory budget"),
]


@pytest.mark.parametrize("argv, env, message", BAD_NUMBERS,
                         ids=[a + (f" WSL_MAX_MEM_GIB={e}" if e else "") for a, e, _ in BAD_NUMBERS])
def test_non_finite_or_nonpositive_numbers_exit_two(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("WSL_MAX_MEM_GIB", env)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip()


def test_bad_lemma_list_exits_two(capsys):
    code, _, _ = run_cli(capsys, "scan", "--lambda-min", "8", "--lambda-max", "8",
                         "--lemmas", "nope")
    assert code == 2


def test_lemma_check_without_checks_exits_two(capsys):
    # lemma 5 audits only tail masks, which 8 random draws at lam=12 miss
    code, out, err = run_cli(capsys, "lemma-check", "--lemma", "5", "--lambda", "12",
                             "--count", "8")
    assert code == 2 and out == ""
    assert "error: lemma 5 has no check on the random mask family at lambda 12" in err


def test_scan_without_checks_exits_two(capsys):
    # below lam=7 the lemma-5 window is empty, so only the summary row is left
    code, out, err = run_cli(capsys, "scan", "--lambda-min", "5", "--lambda-max", "6",
                             "--lemmas", "5")
    assert code == 2 and out == ""
    assert "error: lemma 5 has no check on the random mask family at lambda 5..6" in err


def test_scan_with_one_lemma_unchecked_exits_two(capsys):
    # lemma 1 has rows at lam 5..6 but lemma 5 has none: no partial vacuous pass
    code, out, err = run_cli(capsys, "scan", "--lambda-min", "5", "--lambda-max", "6",
                             "--lemmas", "1,5", "--count", "4")
    assert code == 2 and out == ""
    assert "error: lemma 5 has no check on the random mask family at lambda 5..6" in err


# every subcommand once: the exact manifest config and its table guard
SUBCOMMAND_CONFIGS = [
    ("sieve --lambda 8 --kind liouville --seed 3",
     {"kind": "liouville", "lam": 8, "seed": 3}),
    ("sieve --lambda 8 --out table.bin",
     {"kind": "moebius", "lam": 8, "seed": 0}),
    ("spectrum --lambda 8",
     {"kind": "moebius", "lam": 8, "seed": 0}),
    ("theorem-scan --lambda-min 8 --lambda-max 10 --kind liouville",
     {"kind": "liouville", "lambda_max": 10, "lambda_min": 8, "seed": 0}),
    ("lemma-check --lemma 3 --lambda 8 --masks structured",
     {"count": 64, "lam": 8, "lemma": 3, "masks": "structured", "seed": 0}),
    ("scan --lambda-min 8 --lambda-max 9 --count 4 --lemmas 3,1",
     {"count": 4, "lambda_max": 9, "lambda_min": 8, "lemmas": [3, 1],
      "masks": "random", "seed": 0}),
    ("bilinear --mask 0x6 --mu 4 --nu 6 --coef random --seed 5",
     {"coef": "random", "epsilon": 0.5, "k_shift": 0, "mask": 6, "mu": 4, "nu": 6,
      "rho": 1, "seed": 5}),
    ("quadform --mask 0x6 --mu 4 --nu 6 --rho 2 --k-shift 2",
     {"coef": "ones", "epsilon": 0.5, "k_shift": 2, "mask": 6, "mu": 4, "nu": 6,
      "rho": 2, "seed": 0}),
    ("carry-rate --mask 0x6 --mu 4 --nu 6 --rho 2 --epsilon 0.25",
     {"coef": "ones", "epsilon": 0.25, "k_shift": 0, "mask": 6, "mu": 4, "nu": 6,
      "rho": 2, "seed": 0}),
    ("type1 --mask 0x6 --mu 4 --nu 6",
     {"mask": 6, "mu": 4, "nu": 6, "seed": 0}),
    ("split --mask 0x3000 --lambda 14 --mu 1 --h 4",
     {"h_param": 4, "lam": 14, "mask": 12288, "mu": 1, "seed": 0}),
]


@pytest.mark.parametrize("command, config", SUBCOMMAND_CONFIGS,
                         ids=[c for c, _ in SUBCOMMAND_CONFIGS])
def test_subcommand_config_and_guard(capsys, tmp_path, monkeypatch, command, config):
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config
    code, out, err = run_cli(capsys, *argv, "--max-mem-gib", "1e-9")
    assert code == 3 and out == ""
    assert f"resource limit: {argv[0]} table at lambda=" in err


# ---------------------------------------------------------------------------
# per-subcommand smoke runs


def test_lemma_check_exhaustive_count(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--lemma", "3",
                           "--lambda", "10", "--masks", "all")
    assert code == 0
    manifest = manifest_from_json(out)
    assert len(manifest.reports) == 1 << 10
    assert all(r.lemma_id == "L3" for r in manifest.reports)


def test_scan_emits_summary_last(capsys):
    code, out, _ = run_cli(capsys, "scan", "--lambda-min", "8", "--lambda-max", "9",
                           "--count", "4", "--lemmas", "1,3")
    assert code == 0
    manifest = manifest_from_json(out)
    assert manifest.reports[-1].lemma_id == "SUMMARY"


def test_bilinear_quadform_carry_type1_split(capsys):
    bil = ("--mask", "0x6", "--mu", "4", "--nu", "6")
    for command, lemma_id in (
        ("bilinear", "BILIN"),
        ("quadform", "QUAD"),
        ("carry-rate", "CARRY"),
    ):
        code, out, _ = run_cli(capsys, command, *bil)
        assert code == 0, command
        rep = manifest_from_json(out).reports[0]
        assert rep.lemma_id == lemma_id
        assert rep.passed

    code, out, _ = run_cli(capsys, "type1", "--mask", "0x6", "--mu", "4", "--nu", "6")
    assert code == 0
    assert manifest_from_json(out).reports[0].lemma_id == "TYPE1"

    code, out, _ = run_cli(capsys, "split", "--mask", "0x3000", "--lambda", "14",
                           "--mu", "1", "--h", "4")
    assert code == 0
    assert manifest_from_json(out).reports[0].lemma_id == "SPLIT"


# ---------------------------------------------------------------------------
# output routing


def test_out_json_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "8", "--out", str(path))
    assert code == 0
    assert out == ""  # routed to the file, not stdout
    manifest = manifest_from_json(path.read_text())
    assert manifest.command == "sieve"


def test_out_csv_by_extension(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "theorem-scan", "--lambda-min", "8",
                         "--lambda-max", "10", "--out", str(path))
    assert code == 0
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 4  # header + 3 rows
    reports = parse_csv(raw.decode())
    assert len(reports) == 3
    assert [r.params["lambda"] for r in reports] == [8, 9, 10]


def test_format_flag_beats_extension(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "sieve", "--lambda", "8", "--out", str(path),
                         "--format", "json")
    assert code == 0
    json.loads(path.read_text())  # despite the .csv name


def test_format_csv_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "8", "--format", "csv")
    assert code == 0
    assert out.startswith("lemma_id,")
    assert parse_csv(out)[0].lemma_id == "SIEVE"


def test_sieve_binary_dump_round_trip(tmp_path, capsys):
    path = tmp_path / "table.bin"
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "10", "--kind", "liouville",
                           "--out", str(path))
    assert code == 0
    # manifest still lands on stdout next to the binary artifact
    manifest = manifest_from_json(out)
    assert manifest.reports[0].params["kind"] == "liouville"
    assert path.read_bytes()[:4] == b"AWS1"
    seq = load_sequence(path)
    assert seq.kind == "liouville"
    assert len(seq.values) == 1 << 10


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_byte_identical(capsys):
    argv = ("lemma-check", "--lemma", "1", "--lambda", "8",
            "--masks", "random", "--count", "8", "--seed", "5")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert len(manifest_from_json(first).reports) == 8


def test_seed_changes_mask_draw(capsys):
    argv = ("lemma-check", "--lemma", "1", "--lambda", "8", "--count", "8")
    _, a, _ = run_cli(capsys, *argv, "--seed", "1")
    _, b, _ = run_cli(capsys, *argv, "--seed", "2")
    assert a != b


def test_subprocess_matches_in_process(capsys):
    argv = ["scan", "--lambda-min", "8", "--lambda-max", "8",
            "--count", "4", "--lemmas", "1,2", "--seed", "3"]
    _, inproc, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "walshlab", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == inproc
