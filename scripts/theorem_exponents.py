#!/usr/bin/env python3
"""Tabulate the peak Walsh-correlation exponent of a sign sequence.

For each lambda, sieves the sequence on [0, 2^lambda), finds the mask with
the largest |sum f(n) w_A(n)| by fast transform, and prints the empirical
exponent log2(peak)/lambda next to the 2^(lam - lam^0.1) ceiling.  The
exponent hovering near 0.6 (and drifting down) at desk scales is the
square-root-cancellation picture; it is NOT monotone step by step, which
is exactly the wobble the acceptance gate keeps red as a reminder.

    python3 scripts/theorem_exponents.py --kind moebius --lambda-max 22
"""

import argparse
import sys
from pathlib import Path

from walshlab import emit_csv, theorem_scan
from walshlab.sieve import SIGN_KINDS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=SIGN_KINDS, default="moebius")
    ap.add_argument("--lambda-min", type=int, default=8)
    ap.add_argument("--lambda-max", type=int, default=20)
    ap.add_argument("--step", type=int, default=2)
    ap.add_argument("--csv", type=Path, default=None,
                    help="also write the raw rows as CSV")
    args = ap.parse_args()

    lambdas = range(args.lambda_min, args.lambda_max + 1, args.step)
    reports = theorem_scan(args.kind, lambdas)
    print(f"{'lam':>4} {'peak':>12} {'mask':>10} {'|A|':>4} "
          f"{'exponent':>10} {'ceiling':>14} {'ok':>3}")
    for rep in reports:
        p = rep.params
        expo = p["exponent"]
        print(f"{p['lambda']:>4} {rep.lhs:>12.1f} {p['mask']:>#10x} "
              f"{p['weight']:>4} "
              f"{'-' if expo is None else f'{expo:>10.6f}'} "
              f"{rep.rhs:>14.1f} {'y' if rep.passed else 'N':>3}")
    if args.csv is not None:
        # newline="" keeps the writer's CRLF row endings intact
        with open(args.csv, "w", newline="") as fh:
            fh.write(emit_csv(reports))
    sys.exit(0 if all(r.passed for r in reports) else 1)


if __name__ == "__main__":
    main()
