#!/usr/bin/env python3
"""Fit the empirical constants behind the lemma inequalities.

Sweeps every mask at each lambda and prints, per lambda and cumulatively:

  c_l1    smallest c with  ||w_A^||_1 <= c^(lam/4)          (growth base)
  L1_C    largest lemma-1 fitted constant ||w_A^||_1^(1/|A|) / lam over
          the non-empty masks (the value DEFAULT_BRACKETS["L1"] cites)
  c_sup   largest  c with  ||w_A^||_inf <= 2^(c) * 2^(-c|A|) (decay rate,
          the two exact-character masks absorbed into the leading constant)
  carry   largest measured rate * 2^(eps*rho) over the desk grid, i.e. the
          bracket constant the carry criterion must clear

The l1 row converging comfortably below 2+sqrt(2) ~ 3.414 and the sup row
holding above 0.2 are what the frozen acceptance values encode.
"""

import argparse
import math

import numpy as np

from walshlab import BilinearConfig, all_mask_l1, all_mask_sup, carry_truncation_rate


def l1_base(lam: int) -> float:
    return float(all_mask_l1(lam).max()) ** (4.0 / lam)


def _weights(lam: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << lam, dtype=np.uint64)).astype(float)


def l1_fitted(lam: int) -> float:
    l1 = all_mask_l1(lam)
    return float((l1[1:] ** (1.0 / _weights(lam)[1:])).max()) / lam


def sup_rate(lam: int) -> float:
    sups = all_mask_sup(lam)
    return float((-np.log2(sups[2:]) / _weights(lam)[2:]).min())


def carry_bracket(mu_values=(4, 5), rho_values=(1, 2), epsilon=0.5) -> float:
    worst = 0.0
    for mu in mu_values:
        for rho in rho_values:
            for k_shift in (0, mu - rho):
                cfg = BilinearConfig(s_bits=1, mu=mu, nu=mu + 4, rho=rho,
                                     k_shift=k_shift, epsilon=epsilon)
                res = carry_truncation_rate(cfg)
                worst = max(worst, res.rate * 2.0 ** (epsilon * rho))
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambda-min", type=int, default=2)
    ap.add_argument("--lambda-max", type=int, default=12)
    args = ap.parse_args()

    print(f"{'lam':>4} {'c_l1':>10} {'L1_C':>10} {'c_sup':>10}")
    base_worst, rate_worst = 0.0, math.inf
    for lam in range(args.lambda_min, args.lambda_max + 1):
        base, fitted, rate = l1_base(lam), l1_fitted(lam), sup_rate(lam)
        base_worst, rate_worst = max(base_worst, base), min(rate_worst, rate)
        print(f"{lam:>4} {base:>10.6f} {fitted:>10.6f} {rate:>10.6f}")
    print(f"\nl1 growth base sup over sweep : {base_worst:.6f}"
          f"  (explicit bound uses {2 + math.sqrt(2):.6f})")
    print(f"sup-norm decay rate inf       : {rate_worst:.17g}")
    print(f"carry bracket constant        : {carry_bracket():.6f}"
          f"  (acceptance bracket uses 8)")


if __name__ == "__main__":
    main()
