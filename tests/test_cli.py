"""CLI: exit codes, output formats, binary dumps, and determinism."""

import errno
import gc
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import oracles
import pytest

import walshlab
from walshlab import fwht, limits, load_sequence, manifest_from_json, parse_csv, sieve
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


@pytest.mark.parametrize("argv", ["spectrum --lambda 22",
                                  "theorem-scan --lambda-min 2 --lambda-max 22"])
def test_sign_commands_refuse_von_mangoldt_before_sieving(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("a von Mangoldt table was sieved")

    monkeypatch.setitem(sieve._SIEVES, "von_mangoldt", never)
    code, out, err = run_cli(capsys, *argv.split(), "--kind", "von_mangoldt")
    assert code == 2 and not out
    assert "argument --kind: invalid choice: 'von_mangoldt'" in err


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


# a split's frequencies are int64, which hold 2^lam up to lam = 62
_WIDE_SPLITS = ["split --mask 0x4000000000000000 --lambda 63 --mu 1 --h 1",
                "split --mask 0xC000000000000000 --lambda 64 --mu 1 --h 4"]


@pytest.mark.parametrize("flag", ["", " --max-mem-gib 1e30"], ids=["default", "1e30"])
@pytest.mark.parametrize("argv", _WIDE_SPLITS)
def test_split_beyond_int64_frequencies_exits_two(capsys, argv, flag):
    code, out, err = run_cli(capsys, *(argv + flag).split())
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: lam = 6") and "exceeds 62" in err


def test_split_at_lambda_62_is_refused_by_its_synthesis_charge(capsys, monkeypatch):
    monkeypatch.delenv("WSL_MAX_MEM_GIB", raising=False)
    code, out, err = run_cli(capsys, "split", "--mask", "0x2000000000000000", "--lambda", "62",
                             "--mu", "1", "--h", "1")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: synthesis at lambda=62")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_count_exits_two(capsys, count):
    for argv in (("lemma-check", "--lemma", "1", "--lambda", "12"),
                 ("scan", "--lambda-min", "8", "--lambda-max", "9")):
        code, out, err = run_cli(capsys, *argv, "--count", count)
        assert code == 2 and out == ""
        assert f"count must be >= 1, got {count}" in err


def test_oversized_all_mask_scan_exits_three(capsys):
    # 2^25 masks' block rows and period tables (3.0 GiB) exceed the default
    # budget: the scan's charge refuses before any fold, row or block is
    # allocated
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "lemma-check", "--lemma", "3", "--lambda", "25",
                                 "--masks", "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("resource limit: all-mask scan of 33554432 masks")
    assert peak < 1 << 20


def test_resource_limit_exits_three(capsys):
    code, _, err = run_cli(capsys, "sieve", "--lambda", "99")
    assert code == 3
    assert "bytes" in err


@pytest.mark.parametrize("command", ["bilinear", "quadform", "carry-rate"])
def test_oversized_random_beta_exits_three(capsys, command):
    # the bilinear sum's 2^40-entry beta table is charged before it is drawn;
    # the quadratic form and the carry rate read no beta, draw none, and
    # their own charges refuse before they allocate
    code, out, err = run_cli(capsys, command, "--mask", "0x6", "--mu", "4", "--nu", "40",
                             "--coef", "random")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", ["bilinear --mask 0x6 --mu 4 --nu 40 --coef ones",
                                  "type1 --mask 0x6 --mu 4 --nu 40"])
def test_oversized_all_ones_beta_is_charged_before_it_is_built(capsys, argv):
    # the bilinear sum builds its all-ones table only after its own charge
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    assert err.startswith("resource limit: bilinear sum at mu=4, nu=40 requires ")


@pytest.mark.parametrize("argv", [
    "scan --lambda-min 8 --lambda-max 8 --masks random --count 10000000000000 --lemmas 1",
    "lemma-check --lemma 1 --lambda 8 --masks random --count 10000000000000",
])
def test_oversized_mask_count_exits_three(capsys, argv):
    # the masks and reports are charged before any mask is drawn
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    assert err.startswith("resource limit: random-mask scan of 10000000000000 masks")
    assert "Traceback" not in err


@pytest.mark.parametrize("count, want", [("1000", 0), ("2000", 3)])
def test_mask_count_charge_honours_max_mem_flag(capsys, count, want):
    # 0.001 GiB holds 1000 masks at 128 + 768 B each, not 2000
    code, out, err = run_cli(capsys, "lemma-check", "--lemma", "1", "--lambda", "8",
                             "--count", count, "--max-mem-gib", "0.001")
    assert code == want
    assert ("resource limit: random-mask scan" in err) == (want == 3)


# the charge that allowed each refused table, which the message names
_LAST_CHARGE = {"spectrum --lambda 10": "transform buffer at lambda=10",
                "sieve --lambda 10": "moebius table at lambda=10"}


@pytest.mark.parametrize("module, argv", [(fwht, "spectrum --lambda 10"),
                                          (sieve, "sieve --lambda 10")])
@pytest.mark.parametrize("refusal", [
    lambda: MemoryError("Unable to allocate 1.00 KiB for an array"),
    MemoryError,
    lambda: OSError(errno.ENOMEM, "Cannot allocate memory"),
], ids=["MemoryError", "bare-MemoryError", "ENOMEM"])
def test_memory_the_os_refuses_exits_three(capsys, monkeypatch, module, argv, refusal):
    # a table that fits the budget but not the machine (a ulimit, a full
    # box) is a resource limit too, not a usage error or a traceback
    def refuse(n, dtype):
        raise refusal()

    monkeypatch.setattr(module, "_shared_empty", refuse)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and "Traceback" not in err
    message, last = err.removeprefix("resource limit: ").rstrip("\n").split(" (last charge: ")
    assert message.strip()
    assert re.fullmatch(rf"{_LAST_CHARGE[argv]}, \d+ bytes\)", last), err


def test_max_mem_flag_tightens_limit(capsys):
    code, _, _ = run_cli(capsys, "sieve", "--lambda", "22",
                         "--max-mem-gib", "0.001")
    assert code == 3


def test_env_var_limits_and_flag_overrides(capsys, monkeypatch):
    monkeypatch.setenv("WSL_MAX_MEM_GIB", "0.001")
    assert run_cli(capsys, "sieve", "--lambda", "22")[0] == 3
    # explicit flag wins over the environment
    assert run_cli(capsys, "sieve", "--lambda", "22", "--max-mem-gib", "2")[0] == 0


def test_library_functions_take_no_budget_argument():
    # the budget's one channel is WSL_MAX_MEM_GIB, read at each charge
    funcs = [getattr(walshlab, name) for name in walshlab.__all__]
    funcs += [sieve.stream_sequence, fwht.sign_max_correlations, limits.require_bytes,
              limits.require_table_bytes]
    taking = [f.__qualname__ for f in funcs if inspect.isfunction(f)
              and "max_mem_gib" in inspect.signature(f).parameters]
    assert not taking


@pytest.mark.parametrize("argv, want", [("sieve --lambda 8 --max-mem-gib 1", 0),
                                        ("bilinear --mask 0x6 --mu 0 --nu 4 --max-mem-gib 1", 2),
                                        ("spectrum --lambda 22 --max-mem-gib 1e-9", 3)])
@pytest.mark.parametrize("env", [None, "0.5"], ids=["unset", "0.5"])
def test_flag_leaves_the_budget_variable_as_it_found_it(capsys, monkeypatch, argv, want, env):
    if env is None:
        monkeypatch.delenv("WSL_MAX_MEM_GIB", raising=False)
    else:
        monkeypatch.setenv("WSL_MAX_MEM_GIB", env)
    assert run_cli(capsys, *argv.split())[0] == want
    assert os.environ.get("WSL_MAX_MEM_GIB") == env


@pytest.mark.parametrize("argv", ["spectrum --lambda 14",
                                  "theorem-scan --lambda-min 12 --lambda-max 14"])
def test_transform_guard_honours_max_mem_flag(capsys, monkeypatch, argv):
    # the environment alone refuses a 2^14 transform buffer; the flag must
    # reach the transform's guard as it reaches the sieve's
    monkeypatch.setenv("WSL_MAX_MEM_GIB", "0.0001")
    assert run_cli(capsys, *argv.split())[0] == 3
    code, out, err = run_cli(capsys, *argv.split(), "--max-mem-gib", "10")
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv, env, flag, want", [
    ("lemma-check --lemma 3 --lambda 14 --masks all", None, "0.0005", 3),
    ("scan --lambda-min 14 --lambda-max 14 --masks all --lemmas 2", None, "0.0005", 3),
    ("lemma-check --lemma 3 --lambda 14 --masks all", "0.0005", "1", 0),
])
def test_all_mask_fold_guard_honours_max_mem_flag(capsys, monkeypatch, argv, env, flag, want):
    # 0.0005 GiB (512 KiB) is refused by the scan's charge for 2^14 masks'
    # reports (about 15 MiB), which comes before the fold's 64 B/entry, and
    # the flag wins over the environment there too; the fold's own refusal
    # is pinned in test_walsh
    if env is not None:
        monkeypatch.setenv("WSL_MAX_MEM_GIB", env)
    code, out, err = run_cli(capsys, *argv.split(), "--max-mem-gib", flag)
    assert code == want
    if want == 3:
        assert not out and err.startswith("resource limit: all-mask scan of 16384 masks")
    else:
        assert err == ""


BAD_NUMBERS = [
    ("carry-rate --mask 0x6 --mu 4 --nu 6 --epsilon inf", None, "epsilon must be finite"),
    ("bilinear --mask 0x6 --mu 4 --nu 6 --epsilon nan", None, "epsilon must be finite"),
    ("sieve --lambda 8 --max-mem-gib inf", None, "memory budget"),
    ("sieve --lambda 8 --max-mem-gib nan", None, "memory budget"),
    ("sieve --lambda 8 --max-mem-gib -1", None, "memory budget"),
    ("sieve --lambda 8 --max-mem-gib 0", None, "memory budget"),
    ("sieve --lambda 8", "inf", "memory budget"),
    ("sieve --lambda 8", "-1", "memory budget"),
    ("sieve --lambda 8", "abc", "memory budget"),
    # finite GiB counts whose byte counts are not
    ("sieve --lambda 4 --max-mem-gib 2e299", None, "memory budget"),
    ("sieve --lambda 4", "2e299", "memory budget"),
    # brackets 2^(-epsilon*rho) that underflow to 0
    ("carry-rate --mask 0x6 --mu 2 --nu 4 --rho 1 --epsilon 1100", None, "epsilon*rho"),
    ("carry-rate --mask 0x6 --mu 2 --nu 4 --rho 3 --epsilon 400", None, "epsilon*rho"),
]


@pytest.mark.parametrize("argv, env, message", BAD_NUMBERS,
                         ids=[a + (f" WSL_MAX_MEM_GIB={e}" if e else "") for a, e, _ in BAD_NUMBERS])
def test_non_finite_or_nonpositive_numbers_exit_two(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("WSL_MAX_MEM_GIB", env)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("env", [None, "1e299"], ids=["flag", "variable"])
def test_largest_finite_budgets_still_run(capsys, monkeypatch, env):
    argv = ["sieve", "--lambda", "4"] + (["--max-mem-gib", "1e299"] if env is None else [])
    if env is not None:
        monkeypatch.setenv("WSL_MAX_MEM_GIB", env)
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", ["carry-rate --mask 0x6 --mu 2 --nu 4 --rho 1 --epsilon 1074",
                                  "bilinear --mask 0x6 --mu 2 --nu 4 --rho 1 --epsilon 1100",
                                  "quadform --mask 0x6 --mu 2 --nu 4 --rho 1 --epsilon 1100"])
def test_huge_epsilon_runs_where_its_bracket_is_a_float(capsys, argv):
    # 2^-1074 is the smallest subnormal; bilinear and quadform never read epsilon
    code, out, err = run_cli(capsys, *argv.split())
    assert code in (0, 1) and out and "Traceback" not in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip()


def test_bad_lemma_list_exits_two(capsys):
    code, _, _ = run_cli(capsys, "scan", "--lambda-min", "8", "--lambda-max", "8",
                         "--lemmas", "nope")
    assert code == 2


@pytest.mark.parametrize("lemmas", ["1,,2", "1,2,", ",1", ""])
def test_lemma_list_with_an_empty_item_exits_two(capsys, lemmas):
    code, out, err = run_cli(capsys, "scan", "--lambda-min", "6", "--lambda-max", "6",
                             "--count", "2", "--lemmas", lemmas)
    assert code == 2 and out == ""
    assert f"bad lemma list {lemmas!r}" in err


def test_negative_bilinear_mask_is_out_of_range(capsys):
    code, out, err = run_cli(capsys, "bilinear", "--mask", "-1", "--mu", "2", "--nu", "3")
    assert code == 2 and out == ""
    assert err == "error: mask -0x1 out of range for 7 bits\n"


def test_repeated_lemma_selector_exits_two(capsys):
    # a repeat would write lemma 1's reports twice and count both in SUMMARY
    code, out, err = run_cli(capsys, "scan", "--lambda-min", "8", "--lambda-max", "8",
                             "--lemmas", "1,1,2")
    assert code == 2 and out == ""
    assert err == "error: repeated lemma selectors [1]\n"


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


# every subcommand once: the exact manifest config, and the library guard
# its run meets first
SUBCOMMAND_CONFIGS = [
    ("sieve --lambda 8 --kind liouville --seed 3",
     {"kind": "liouville", "lam": 8, "seed": 3}, "liouville table at lambda=8"),
    ("sieve --lambda 8 --out table.bin",
     {"kind": "moebius", "lam": 8, "seed": 0}, "moebius table at lambda=8"),
    ("spectrum --lambda 8",
     {"kind": "moebius", "lam": 8, "seed": 0}, "transform buffer at lambda=8"),
    ("theorem-scan --lambda-min 8 --lambda-max 10 --kind liouville",
     {"kind": "liouville", "lambda_max": 10, "lambda_min": 8, "seed": 0},
     "transform buffer at lambda=10"),
    ("lemma-check --lemma 3 --lambda 8 --masks structured",
     {"count": 64, "lam": 8, "lemma": 3, "masks": "structured", "seed": 0},
     "structured-mask scan of 47 masks"),
    ("scan --lambda-min 8 --lambda-max 9 --count 4 --lemmas 3,1",
     {"count": 4, "lambda_max": 9, "lambda_min": 8, "lemmas": [3, 1],
      "masks": "random", "seed": 0}, "random-mask scan of 4 masks"),
    ("bilinear --mask 0x6 --mu 4 --nu 6 --coef random --seed 5",
     {"coef": "random", "epsilon": 0.5, "k_shift": 0, "mask": 6, "mu": 4, "nu": 6,
      "rho": 1, "seed": 5}, "beta table of 64 entries"),
    ("quadform --mask 0x6 --mu 4 --nu 6 --rho 2 --k-shift 2",
     {"coef": "ones", "epsilon": 0.5, "k_shift": 2, "mask": 6, "mu": 4, "nu": 6,
      "rho": 2, "seed": 0}, "quadratic form at mu=4, nu=6"),
    ("carry-rate --mask 0x6 --mu 4 --nu 6 --rho 2 --epsilon 0.25",
     {"coef": "ones", "epsilon": 0.25, "k_shift": 0, "mask": 6, "mu": 4, "nu": 6,
      "rho": 2, "seed": 0}, "carry rate at mu=4, nu=6"),
    ("type1 --mask 0x6 --mu 4 --nu 6",
     {"mask": 6, "mu": 4, "nu": 6, "seed": 0}, "bilinear sum at mu=4, nu=6"),
    ("split --mask 0x3000 --lambda 14 --mu 1 --h 4",
     {"h_param": 4, "lam": 14, "mask": 12288, "mu": 1, "seed": 0},
     "split sumset of 256 mode tuples"),
]


@pytest.mark.parametrize("command, config, guard", SUBCOMMAND_CONFIGS,
                         ids=[c for c, _, _ in SUBCOMMAND_CONFIGS])
def test_subcommand_config_and_guard(capsys, tmp_path, monkeypatch, command, config, guard):
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config
    code, out, err = run_cli(capsys, *argv, "--max-mem-gib", "1e-9")
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: {guard} requires ") and "Traceback" not in err


# every subcommand that takes a lambda, with the lambda put in place of {}
LAMBDA_COMMANDS = [
    "sieve --kind moebius --lambda {}",
    "sieve --kind liouville --lambda {}",
    "sieve --kind von_mangoldt --lambda {}",
    "spectrum --lambda {}",
    "theorem-scan --lambda-min {0} --lambda-max {0}",
    "lemma-check --lemma 1 --lambda {}",
    "scan --lambda-min {0} --lambda-max {0}",
    "split --mask 0x0 --lambda {} --mu 1 --h 1",
]


@pytest.mark.parametrize("lam", ["0", "-3"])
@pytest.mark.parametrize("template", LAMBDA_COMMANDS)
def test_nonpositive_lambda_exits_two(capsys, tmp_path, monkeypatch, template, lam):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *template.format(lam).split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize("mask", [0, 1, 2, 3, 7])
def test_type1_at_smallest_ranges_matches_naive_sum(capsys, mask):
    # type1 has no shifts, so N = 2 needs no room for any
    code, out, err = run_cli(capsys, "type1", "--mask", hex(mask), "--mu", "1", "--nu", "1")
    assert code == 0, err
    rep = manifest_from_json(out).reports[0]
    assert rep.lhs == oracles.naive_type1(mask, 1, 1)


def test_von_mangoldt_stream_is_charged_its_segment(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("sieve", "--kind", "von_mangoldt", "--lambda", "23")
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    code, tight, err = run_cli(capsys, *argv, "--max-mem-gib", "0.05")
    assert code == 0, err
    assert tight == default
    # a sign sieve holds its whole int8 table, 8 MiB, and in each process 4 B
    # per entry of one 2^20-entry segment plus the wheel, chunk scratch and
    # sieving primes: it fits 0.05 GiB as well, and is refused at 0.01 GiB
    argv = ("sieve", "--kind", "moebius", "--lambda", "23")
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    code, tight, err = run_cli(capsys, *argv, "--max-mem-gib", "0.05")
    assert code == 0, err
    assert tight == default
    code, out, err = run_cli(capsys, *argv, "--max-mem-gib", "0.01")
    assert code == 3 and out == ""
    products = 4 * sieve.DEFAULT_SEGMENT  # one segment's int32 workspace
    need = (1 << 23) + (sieve._sign_scratch(23) + products) * (1 + limits._splits(1 << 23))
    assert f"resource limit: moebius table at lambda=23 requires {need} bytes" in err


@pytest.mark.parametrize("lam", ["60", "99"])
def test_von_mangoldt_stream_guard_counts_its_sieving_primes(capsys, tmp_path, monkeypatch, lam):
    # the primes to sqrt(2^lam) outgrow the default budget long before any
    # segment is sieved, so the guard refuses the run
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WSL_MAX_MEM_GIB", raising=False)
    code, out, err = run_cli(capsys, "sieve", "--kind", "von_mangoldt", "--lambda", lam,
                             "--out", "vm.bin")
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: von mangoldt stream at lambda={lam} requires ")
    assert "sieving range" in err and not (tmp_path / "vm.bin").exists()


@pytest.mark.parametrize("lam", ["0", "-3"])
def test_von_mangoldt_stream_rejects_empty_tables(capsys, lam):
    code, out, err = run_cli(capsys, "sieve", "--kind", "von_mangoldt", "--lambda", lam)
    assert code == 2 and out == ""
    assert f"lam must be a positive bit length, got {lam}" in err


@pytest.mark.parametrize("lam", ["0", "-3"])
@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_spectrum_names_a_nonpositive_lambda_as_sieve_does(capsys, kind, lam):
    # the kernel's check runs before the prefix check, so no empty prefix
    # range like 1..0 is named
    for command in ("spectrum", "sieve"):
        code, out, err = run_cli(capsys, command, "--kind", kind, "--lambda", lam)
        assert code == 2 and out == ""
        assert err == f"error: lam must be a positive bit length, got {lam}\n", command


# ---------------------------------------------------------------------------
# output routing


def test_out_json_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "8", "--out", str(path))
    assert code == 0
    assert out == ""  # routed to the file, not stdout
    manifest = manifest_from_json(path.read_text())
    assert manifest.command == "sieve"


def test_stdout_and_out_file_bytes_are_identical(tmp_path, capsys):
    # 256 reports stream in many batches on both routes
    argv = ("lemma-check", "--lemma", "2", "--lambda", "8", "--masks", "all")
    path = tmp_path / "x.json"
    _, out, _ = run_cli(capsys, *argv)
    code, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()
    assert len(manifest_from_json(out).reports) == 256


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


@pytest.mark.parametrize("fmt", [None, "json", "csv"])
def test_dumped_sieve_manifest_follows_the_format_flag(tmp_path, capsys, fmt):
    # the AWS1 dump takes --out, and the stdout manifest keeps --format
    path = tmp_path / "table.bin"
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "8", "--out", str(path),
                           *(("--format", fmt) if fmt else ()))
    assert code == 0
    assert path.read_bytes()[:4] == b"AWS1"
    if fmt == "csv":
        assert [r.lemma_id for r in parse_csv(out)] == ["SIEVE"]
    else:
        assert manifest_from_json(out).reports[0].lemma_id == "SIEVE"


def test_output_suffixes_match_in_any_case(tmp_path, capsys):
    # T.BIN takes the AWS1 dump and T.CSV the CSV table, as their lower-case names do
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "6", "--out", str(tmp_path / "T.BIN"))
    assert code == 0
    assert (tmp_path / "T.BIN").read_bytes()[:4] == b"AWS1"
    assert manifest_from_json(out).reports[0].lemma_id == "SIEVE"
    code, out, _ = run_cli(capsys, "sieve", "--lambda", "6", "--out", str(tmp_path / "T.CSV"))
    assert code == 0 and out == ""
    assert [r.lemma_id for r in parse_csv((tmp_path / "T.CSV").read_text())] == ["SIEVE"]


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


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(walshlab.__file__).parents[1]))


# (command, the file it writes with a relative --out or None); the second
# manifest (about 1.1 MB) is larger than a pipe buffer
SUBPROCESS_CASES = [
    ("scan --lambda-min 8 --lambda-max 8 --count 4 --lemmas 1,2 --seed 3", None),
    ("lemma-check --lemma 3 --lambda 12 --masks all", None),
    ("lemma-check --lemma 2 --lambda 10 --masks all --out rows.csv", "rows.csv"),
    ("sieve --lambda 16 --kind von_mangoldt --out table.bin", "table.bin"),
]


def test_subprocess_matches_in_process(capsys, tmp_path, monkeypatch):
    # a `python -m walshlab` process writes every byte that dispatch does
    # in-process, exit included, to stdout, stderr and --out alike
    for i, (command, written) in enumerate(SUBPROCESS_CASES):
        inproc, child = tmp_path / f"{i}-inproc", tmp_path / f"{i}-child"
        inproc.mkdir()
        child.mkdir()
        monkeypatch.chdir(inproc)
        code, out, err = run_cli(capsys, *command.split())
        proc = subprocess.run([sys.executable, "-m", "walshlab", *command.split()], cwd=child,
                              env=_child_env(), capture_output=True, timeout=120)
        assert code == 0, command
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
        if written:
            assert (child / written).read_bytes() == (inproc / written).read_bytes()


# (argv, exit code): a pass, a failed check (1 < 1 at lambda 1), a usage
# error and a resource limit
EXIT_CASES = [
    ("--version", 0),
    ("theorem-scan --lambda-min 1 --lambda-max 1", 1),
    ("--no-such-flag", 2),
    ("spectrum --lambda 22 --max-mem-gib 1e-9", 3),
]

# runs main() as `python -m walshlab` does; the atexit hook runs after
# main's sys.exit and says whether the heap was frozen by then
_FROZEN_AT_EXIT = """
import atexit, gc
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
from walshlab.cli import main
main()
"""


@pytest.mark.parametrize("argv, want", EXIT_CASES, ids=[a for a, _ in EXIT_CASES])
def test_main_freezes_the_heap_and_keeps_the_exit_code(tmp_path, argv, want):
    proc = subprocess.run([sys.executable, "-c", _FROZEN_AT_EXIT, *argv.split()], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == want
    assert proc.stdout.splitlines()[-1] == "frozen True"


def test_dispatch_leaves_the_collector_as_it_was(capsys):
    # in-process callers (tests, scripts, a traced benchmark pass) keep
    # collecting: only main() freezes, on its way out
    before = gc.get_freeze_count(), gc.isenabled()
    for argv, want in EXIT_CASES:
        assert run_cli(capsys, *argv.split())[0] == want
        assert (gc.get_freeze_count(), gc.isenabled()) == before


# starts its command and reports the child's own exit code and peak RSS (KiB
# on Linux); it imports no numpy, since a child's ru_maxrss counts the
# resident set of the process it was forked from
_PEAK = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_kib(cwd, *argv) -> tuple:
    proc = subprocess.run([sys.executable, "-c", _PEAK, sys.executable, "-m", "walshlab", *argv],
                          cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    code, kib = proc.stdout.split()
    return int(code), int(kib)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_spectrum_rss_stays_within_its_charge(capsys, tmp_path):
    # at lambda 22 the transform buffer is a shared mapping, which
    # tracemalloc cannot see: the run's peak RSS above an interpreter that
    # has imported numpy (--version) must fit what the guard charged
    argv = ("spectrum", "--lambda", "22")
    code, _, err = run_cli(capsys, *argv, "--max-mem-gib", "1e-9")
    assert code == 3
    charge = int(err.split(" requires ")[1].split()[0])
    _, base = _peak_kib(tmp_path, "--version")
    code, peak = _peak_kib(tmp_path, *argv)
    assert code == 0
    assert (peak - base) << 10 <= charge, (peak, base, charge)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_von_mangoldt_dump_holds_one_segment_not_the_table(tmp_path):
    _, base = _peak_kib(tmp_path, "--version")
    code, peak = _peak_kib(tmp_path, "sieve", "--kind", "von_mangoldt", "--lambda", "22",
                           "--out", "vm.bin")
    assert code == 0
    assert (tmp_path / "vm.bin").stat().st_size == 6 + (8 << 22)
    # the float64 table alone is 32 MiB; one 8 MiB segment plus scratch fits
    assert peak - base < 16 << 10, (peak, base)
