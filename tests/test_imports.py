"""Start-up: each CLI command imports only its own modules, and the package
resolves its public names lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import walshlab
from walshlab import cli, fwht, lemmas, sieve, sums

# runs one CLI command (or none) in a fresh interpreter and prints its exit
# code, whether numpy was imported, and the walshlab.* modules it loaded
_PROBE = """
import contextlib, io, sys
import walshlab
code = 0
if sys.argv[1:]:
    from walshlab.cli import dispatch
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(sys.argv[1:])
print(code, "numpy" in sys.modules, *sorted(m for m in sys.modules if m.startswith("walshlab.")))
"""


def _loaded(cwd, *argv) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(Path(walshlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, numpy, *modules = proc.stdout.split()
    return int(code), numpy == "True", {m.removeprefix("walshlab.") for m in modules}


_BASE = {"_version", "cli", "limits", "report"}
_TRANSFORM = _BASE | {"sieve", "fwht", "walsh"}
# only lemma 5's audit and the split synthesize, so only they load approximant
_LEMMAS = _BASE | {"lemmas", "walsh"}
_SUMS = _BASE | {"sums", "walsh"}

COMMAND_MODULES = [
    ("--version", _BASE),
    ("sieve --lambda 8", _BASE | {"sieve"}),
    ("sieve --lambda 8 --kind von_mangoldt --out table.bin", _BASE | {"sieve"}),
    ("spectrum --lambda 8", _TRANSFORM),
    ("theorem-scan --lambda-min 6 --lambda-max 8", _TRANSFORM),
    ("lemma-check --lemma 3 --lambda 8 --masks structured", _LEMMAS),
    ("scan --lambda-min 8 --lambda-max 8 --count 4 --lemmas 1,2", _LEMMAS),
    ("lemma-check --lemma 3 --lambda 8 --masks all", _LEMMAS),
    ("lemma-check --lemma 5 --lambda 8 --masks structured", _LEMMAS | {"approximant"}),
    ("bilinear --mask 0x6 --mu 4 --nu 6", _SUMS),
    ("quadform --mask 0x6 --mu 4 --nu 6", _SUMS),
    ("carry-rate --mask 0x6 --mu 4 --nu 6", _SUMS),
    ("type1 --mask 0x6 --mu 4 --nu 6", _SUMS),
    ("split --mask 0x3000 --lambda 14 --mu 1 --h 4", _SUMS | {"approximant"}),
]


@pytest.mark.parametrize("command, modules", COMMAND_MODULES,
                         ids=[c for c, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(tmp_path, command, modules):
    code, _, loaded = _loaded(tmp_path, *command.split())
    assert code == 0
    assert loaded == modules


def test_package_import_loads_only_the_version(tmp_path):
    code, numpy, loaded = _loaded(tmp_path)
    assert code == 0 and not numpy
    assert loaded == {"_version"}


def test_package_names_are_listed_and_unknown_names_raise():
    assert dir(walshlab) == sorted(walshlab.__all__)
    with pytest.raises(AttributeError, match="no attribute 'fwht_in_place'"):
        getattr(walshlab, "fwht_in_place")
    assert walshlab.theorem_scan is fwht.theorem_scan
    assert walshlab.CheckReport is lemmas.CheckReport is sums.CheckReport


# a command's functions are looked up on its module when it runs, so a
# function rebound there (as a tracer does) is the one called
@pytest.mark.parametrize("module, name, argv", [
    (sieve, "stream_sequence", "sieve --lambda 6"),
    (fwht, "sign_max_correlations", "spectrum --lambda 6"),
    (fwht, "theorem_scan", "theorem-scan --lambda-min 6 --lambda-max 8"),
    (lemmas, "run_scan", "scan --lambda-min 8 --lambda-max 8 --count 4 --lemmas 1"),
    (lemmas, "scan_lemma_at", "lemma-check --lemma 1 --lambda 8"),
    (sums, "cauchy_schwarz_chain", "bilinear --mask 0x6 --mu 4 --nu 6"),
    (sums, "type1_report", "type1 --mask 0x6 --mu 4 --nu 6"),
    (sums, "split_report", "split --mask 0x3000 --lambda 14 --mu 1 --h 4"),
])
def test_commands_call_the_module_function_of_the_moment(capsys, monkeypatch,
                                                         module, name, argv):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    assert cli.dispatch(argv.split()) == 0
    capsys.readouterr()
    assert calls == [name]
