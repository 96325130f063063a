"""Command-line surface.

Every subcommand builds a RunManifest and writes it to stdout as JSON, or
to --out as JSON/CSV picked by --format or the file extension.  `sieve
--out table.bin` writes the binary sequence dump instead and keeps the
manifest on stdout.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error (a
run with nothing to check included), 3 resource limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .fwht import max_correlation
from .lemmas import CheckReport, ScanConfig, _ratio, run_scan, scan_lemma_at
from .limits import ResourceLimitError, require_table_bytes
from .report import RunManifest, emit_csv, manifest_to_json
from .sieve import dump_sequence, sequence
from .sums import (
    BilinearConfig,
    SplitConfig,
    carry_report,
    cauchy_schwarz_chain,
    coefficient_table,
    quadform_report,
    split_report,
    theorem_scan,
    type1_report,
)

_SIEVE_KINDS = ("moebius", "liouville", "von_mangoldt")

# Rosser-Schoenfeld: psi(x) < 1.04 x for all x > 0, so the Lambda prefix
# sum gets a real (not merely trivial) ceiling to report against
_PSI_CEILING = 1.04


def _mask_int(text: str) -> int:
    return int(text, 0)


def _lemma_list(text: str) -> tuple:
    try:
        items = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lemma list {text!r}") from exc
    if not items:
        raise argparse.ArgumentTypeError("empty lemma list")
    return items


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
    p.add_argument("--kind", choices=_SIEVE_KINDS, default="moebius")

    p = sub.add_parser("spectrum", parents=[common], help="full Walsh spectrum and peak")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--kind", choices=_SIEVE_KINDS, default="moebius")

    p = sub.add_parser("theorem-scan", parents=[common], help="peak correlation across lambdas")
    p.add_argument("--lambda-min", type=int, required=True)
    p.add_argument("--lambda-max", type=int, required=True)
    p.add_argument("--kind", choices=("moebius", "liouville"), default="moebius")

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


def _sieve_reports(args):
    seq = sequence(args.kind, args.lam, max_mem_gib=args.max_mem_gib)
    total = float(seq.values.sum())
    lhs = abs(total)
    n = float(1 << args.lam)
    rhs = _PSI_CEILING * n if args.kind == "von_mangoldt" else n
    params = {
        "lambda": args.lam,
        "kind": args.kind,
        "prefix_sum": total,
        "nonzero": int(np.count_nonzero(seq.values)),
    }
    report = CheckReport("SIEVE", params, lhs, rhs, _ratio(lhs, rhs), None, lhs <= rhs)
    dump = args.out is not None and args.out.suffix == ".bin"
    return [report], seq if dump else None


def _spectrum_reports(args):
    seq = sequence(args.kind, args.lam, max_mem_gib=args.max_mem_gib)
    mask, value = max_correlation(seq, max_mem_gib=args.max_mem_gib)
    lhs = float(abs(value))
    rhs = float(np.abs(seq.values).sum())
    params = {
        "lambda": args.lam,
        "kind": args.kind,
        "peak_mask": mask.bits,
        "peak_weight": mask.weight,
        "peak_value": float(value),
    }
    report = CheckReport("SPECTRUM", params, lhs, rhs, _ratio(lhs, rhs), None, lhs <= rhs)
    return [report], None


def _theorem_scan(args):
    lo, hi = args.lambda_min, args.lambda_max
    if lo < 1 or hi < lo:
        raise ValueError(f"bad lambda range [{lo}, {hi}]")
    return hi, lambda: (
        theorem_scan(args.kind, range(lo, hi + 1), max_mem_gib=args.max_mem_gib), None)


def _lemma_scan(args, lo: int, hi: int, lemmas: tuple, scan):
    """lemma-check and scan; a selected lemma with nothing to check is an
    error, not a vacuous pass."""
    def run():
        reports = scan(ScanConfig(lambda_min=lo, lambda_max=hi, mask_family=args.masks,
                                  count=args.count, seed=args.seed, lemmas=lemmas))
        checked = {r.lemma_id for r in reports}
        missing = [str(k) for k in lemmas if f"L{k}" not in checked]
        if missing:
            raise ValueError(
                f"lemma {','.join(missing)} has no check on the "
                f"{args.masks} mask family at lambda {lo}" + (f"..{hi}" if hi > lo else "")
            )
        return reports, None

    return hi, run


def _bilinear(args, report):
    # the config is validated before the table guard runs
    cfg = BilinearConfig(
        s_bits=args.mask,
        mu=args.mu,
        nu=args.nu,
        rho=args.rho,
        k_shift=args.k_shift,
        epsilon=args.epsilon,
        beta=coefficient_table(args.coef, 1 << args.nu, args.seed),
    )
    return cfg.lam, lambda: ([report(cfg)], None)


# subcommand -> prepare(args), which returns the lambda its table guard
# charges and a run() giving (reports, AWS1 payload or None)
_COMMANDS = {
    "sieve": lambda a: (a.lam, lambda: _sieve_reports(a)),
    "spectrum": lambda a: (a.lam, lambda: _spectrum_reports(a)),
    "theorem-scan": _theorem_scan,
    "lemma-check": lambda a: _lemma_scan(
        a, a.lam, a.lam, (a.lemma,), lambda c: scan_lemma_at(c, a.lemma, a.lam)),
    "scan": lambda a: _lemma_scan(a, a.lambda_min, a.lambda_max, a.lemmas, run_scan),
    "bilinear": lambda a: _bilinear(a, cauchy_schwarz_chain),
    "quadform": lambda a: _bilinear(a, quadform_report),
    "carry-rate": lambda a: _bilinear(a, carry_report),
    "type1": lambda a: (a.mu + a.nu, lambda: ([type1_report(a.mask, a.mu, a.nu)], None)),
    "split": lambda a: (a.lam, lambda: ([split_report(SplitConfig(
        s_bits=a.mask, lam=a.lam, mu=a.mu, h_param=a.h_param))], None)),
}

# parsed arguments that route output rather than shape the run
_NOT_CONFIG = ("command", "out", "format", "max_mem_gib")


def _run(args):
    """Returns (manifest, binary_payload or None)."""
    lam, run = _COMMANDS[args.command](args)
    require_table_bytes(lam, max_mem_gib=args.max_mem_gib, what=f"{args.command} table")
    reports, binary_out = run()
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    manifest = RunManifest(
        command=args.command, config=config, seed=args.seed, reports=tuple(reports)
    )
    return manifest, binary_out


def _write_output(args, manifest: RunManifest, binary_payload) -> None:
    if binary_payload is not None:
        dump_sequence(binary_payload, args.out)
        sys.stdout.write(manifest_to_json(manifest))
        return
    fmt = args.format
    if fmt is None and args.out is not None:
        fmt = "csv" if args.out.suffix == ".csv" else "json"
    if fmt is None:
        fmt = "json"
    text = emit_csv(manifest.reports) if fmt == "csv" else manifest_to_json(manifest)
    if args.out is None:
        sys.stdout.write(text)
    else:
        # newline="" so csv keeps its CRLF endings verbatim on every platform
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        manifest, binary_payload = _run(args)
        _write_output(args, manifest, binary_payload)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if manifest.all_passed else 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
