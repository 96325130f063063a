"""Command-line surface.

Every subcommand builds a RunManifest and writes it to stdout as JSON, or
to --out as JSON/CSV picked by --format or the file extension.  `sieve
--out table.bin` writes the binary sequence dump instead and keeps the
manifest on stdout, as JSON unless --format says csv.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error (a
run with nothing to check included), 3 resource limit: a charge that the
library functions a command calls make themselves (--max-mem-gib), or
memory the OS refuses.
"""

from __future__ import annotations

import argparse
import errno
import gc
import importlib
import os
import sys
from pathlib import Path

from ._version import __version__
from . import limits
from .limits import ResourceLimitError
from .report import (KINDS, SIGN_KINDS, CheckReport, RunManifest, _overwrite, write_csv,
                     write_manifest_json)

# Rosser-Schoenfeld: psi(x) < 1.04 x for all x > 0, so the Lambda prefix
# sum gets a real (not merely trivial) ceiling to report against
_PSI_CEILING = 1.04


def _mask_int(text: str) -> int:
    return int(text, 0)


def _lemma_list(text: str) -> tuple:
    # every comma-separated item is a number: an empty one is refused too
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lemma list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Correlation bounds laboratory for Walsh-function sums.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=Path, default=None)
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--max-mem-gib", type=float, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="tabulate an arithmetic function")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="moebius")

    p = sub.add_parser("spectrum", parents=[common], help="full Walsh spectrum and peak")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--kind", choices=SIGN_KINDS, default="moebius")

    p = sub.add_parser("theorem-scan", parents=[common], help="peak correlation across lambdas")
    p.add_argument("--lambda-min", type=int, required=True)
    p.add_argument("--lambda-max", type=int, required=True)
    p.add_argument("--kind", choices=SIGN_KINDS, default="moebius")

    p = sub.add_parser("lemma-check", parents=[common], help="one lemma at one lambda")
    p.add_argument("--lemma", type=int, required=True, choices=range(1, 7))
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--masks", choices=("all", "random", "structured"), default="random")
    p.add_argument("--count", type=int, default=64)

    p = sub.add_parser("scan", parents=[common], help="seeded grid over lemmas and lambdas")
    p.add_argument("--lambda-min", type=int, required=True)
    p.add_argument("--lambda-max", type=int, required=True)
    p.add_argument("--masks", choices=("all", "random", "structured"), default="random")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--lemmas", type=_lemma_list, default=(1, 2, 3, 4, 5, 6))

    bil = argparse.ArgumentParser(add_help=False)
    bil.add_argument("--mask", type=_mask_int, required=True)
    bil.add_argument("--mu", type=int, required=True)
    bil.add_argument("--nu", type=int, required=True)
    bil.add_argument("--rho", type=int, default=1)
    bil.add_argument("--k-shift", type=int, default=0)
    bil.add_argument("--epsilon", type=float, default=0.5)
    bil.add_argument("--coef", choices=("ones", "random"), default="ones")

    sub.add_parser("bilinear", parents=[common, bil], help="Cauchy-Schwarz chain check")
    sub.add_parser("quadform", parents=[common, bil], help="shifted quadratic form vs trivial bound")
    sub.add_parser("carry-rate", parents=[common, bil], help="carry-escape rate vs bracket")

    p = sub.add_parser("type1", parents=[common], help="type-I sum vs trivial bound")
    p.add_argument("--mask", type=_mask_int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)

    p = sub.add_parser("split", parents=[common], help="two-scale spectral truncation check")
    p.add_argument("--mask", type=_mask_int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--h", dest="h_param", type=int, required=True)

    return parser


def _dumps(args) -> bool:
    """Whether the run writes the AWS1 dump to --out (the manifest then goes
    to stdout)."""
    return args.command == "sieve" and args.out is not None and args.out.suffix.lower() == ".bin"


def _sieve_reports(args, sieve):
    total, nonzero = sieve.stream_sequence(args.kind, args.lam, args.out if _dumps(args) else None)
    lhs = abs(total)
    n = float(1 << args.lam)
    rhs = _PSI_CEILING * n if args.kind == "von_mangoldt" else n
    params = {
        "lambda": args.lam,
        "kind": args.kind,
        "prefix_sum": total,
        "nonzero": nonzero,
    }
    return [CheckReport("SIEVE", params, lhs, rhs, None, lhs <= rhs)]


def _spectrum_reports(args, fwht):
    peaks, nonzero = fwht.sign_max_correlations(args.kind, [args.lam])
    mask, value = peaks[0]
    lhs = float(abs(value))
    rhs = float(nonzero)
    params = {
        "lambda": args.lam,
        "kind": args.kind,
        "peak_mask": mask.bits,
        "peak_weight": mask.weight,
        "peak_value": float(value),
    }
    return [CheckReport("SPECTRUM", params, lhs, rhs, None, lhs <= rhs)]


def _theorem_scan(args, fwht):
    lo, hi = args.lambda_min, args.lambda_max
    if lo < 1 or hi < lo:
        raise ValueError(f"bad lambda range [{lo}, {hi}]")
    return fwht.theorem_scan(args.kind, range(lo, hi + 1))


def _lemma_scan(args, lemmas, lo: int, hi: int, selected: tuple, scan):
    """lemma-check and scan; a selected lemma with nothing to check is an
    error, not a vacuous pass."""
    reports = scan(lemmas.ScanConfig(lambda_min=lo, lambda_max=hi, mask_family=args.masks,
                                     count=args.count, seed=args.seed, lemmas=selected))
    checked = {r.lemma_id for r in reports}
    missing = [str(k) for k in selected if f"L{k}" not in checked]
    if missing:
        raise ValueError(f"lemma {','.join(missing)} has no check on the {args.masks} mask "
                         f"family at lambda {lo}" + (f"..{hi}" if hi > lo else ""))
    return reports


def _bilinear(args, sums, report):
    """The sum command's report of its validated config."""
    return [report(sums.BilinearConfig(args.mask, args.mu, args.nu, args.rho, args.k_shift,
                                       args.epsilon))]


# subcommand -> (its module, run(args, module) giving the reports).  Only
# the command's own module is imported, when the command runs, and its
# functions are looked up on it then, never bound at import.
_COMMANDS = {
    "sieve": ("sieve", _sieve_reports),
    "spectrum": ("fwht", _spectrum_reports),
    "theorem-scan": ("fwht", _theorem_scan),
    "lemma-check": ("lemmas", lambda a, m: _lemma_scan(
        a, m, a.lam, a.lam, (a.lemma,), lambda c: m.scan_lemma_at(c, a.lemma, a.lam))),
    "scan": ("lemmas", lambda a, m: _lemma_scan(
        a, m, a.lambda_min, a.lambda_max, a.lemmas, m.run_scan)),
    # only the bilinear sum reads beta, drawn once the config is valid
    "bilinear": ("sums", lambda a, m: _bilinear(a, m, lambda cfg: m.cauchy_schwarz_chain(
        cfg, m.coefficient_table(a.coef, cfg.n_count, a.seed)))),
    "quadform": ("sums", lambda a, m: _bilinear(a, m, m.quadform_report)),
    "carry-rate": ("sums", lambda a, m: _bilinear(a, m, m.carry_report)),
    "type1": ("sums", lambda a, m: [m.type1_report(a.mask, a.mu, a.nu)]),
    "split": ("sums", lambda a, m: [m.split_report(m.SplitConfig(
        s_bits=a.mask, lam=a.lam, mu=a.mu, h_param=a.h_param))]),
}

# parsed arguments that route output rather than shape the run
_NOT_CONFIG = ("command", "out", "format", "max_mem_gib")


def _run(args) -> RunManifest:
    """The run's manifest; a sieve's AWS1 dump is written while it runs."""
    module, run = _COMMANDS[args.command]
    reports = run(args, importlib.import_module(f"{__package__}.{module}"))
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    return RunManifest(command=args.command, config=config, seed=args.seed, reports=reports)


def _write_output(args, manifest: RunManifest) -> None:
    out, fmt = (None if _dumps(args) else args.out), args.format
    if fmt is None:
        fmt = "csv" if out is not None and out.suffix.lower() == ".csv" else "json"
    write, what = (write_csv, manifest.reports) if fmt == "csv" else (write_manifest_json, manifest)
    if out is None:
        write(what, sys.stdout)  # read here, so a caller's redirect_stdout applies
        return
    # the text file is closed, its last bytes written, before _overwrite cuts
    # the file to them; newline="" so csv keeps its CRLF endings verbatim
    with _overwrite(out) as fd, open(fd, "w", newline="", closefd=False) as fh:
        write(what, fh)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    # the flag is the budget of every charge of this run, through the
    # environment; the caller's value comes back whatever the exit
    caller = os.environ.get(limits.ENV_MAX_MEM)
    limits.last_charge = None
    try:
        if args.max_mem_gib is not None:
            os.environ[limits.ENV_MAX_MEM] = repr(limits.resolve_max_mem_gib(args.max_mem_gib))
        manifest = _run(args)
        _write_output(args, manifest)
    except (ResourceLimitError, MemoryError, ValueError, OSError) as exc:
        # memory the OS refuses is a resource limit like a charge over the
        # budget, named by the last charge, which allowed it; a forked
        # child's failure stays an error, whatever its cause
        refused = isinstance(exc, MemoryError) or getattr(exc, "errno", None) == errno.ENOMEM
        if refused or isinstance(exc, ResourceLimitError):
            last = limits.last_charge if refused else None
            note = " (last charge: {}, {} bytes)".format(*last) if last else ""
            # the interpreter's own MemoryError has no message
            print(f"resource limit: {str(exc) or type(exc).__name__}{note}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if caller is None:
            os.environ.pop(limits.ENV_MAX_MEM, None)
        else:
            os.environ[limits.ENV_MAX_MEM] = caller
    return 0 if manifest.all_passed else 1


def main() -> None:
    code = dispatch(sys.argv[1:])
    # the process ends here: frozen objects are left out of the collections
    # that interpreter teardown would otherwise run over numpy's whole heap
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
