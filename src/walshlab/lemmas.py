"""Inequality checkers for the coefficient-norm lemmas, plus batch scans.

Two regimes, matching what each inequality actually pins down:

* explicit-constant checks (lemma 3, lemma 6): the right-hand side is a
  closed form with no free constant, so pass means lhs <= rhs + 1e-9, hard.
* fitted-constant checks (lemmas 1, 2, 4, 5): the inequality only claims
  "some constant"; the checker computes the implied constant and passes if
  it stays inside an empirically frozen bracket.  The brackets were
  confirmed against exhaustive sweeps before being frozen here.

Each checker is a measurement (scalars taken from one mask's magnitude
row) followed by a pure verdict that builds the CheckReport.  run_scan
drives seeded grids: it builds each mask's row once per lam, hands every
selected lemma its scalars, and appends one summary row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .approximant import (
    _AUDIT_BYTES,
    _FFT_SCRATCH,
    ApproximantConfig,
    build_approximant,
    band_profile,
    l2_error,
)
from .limits import require_bytes
from .report import CheckReport
from .walsh import (
    Interval,
    ResidueClass,
    WalshMask,
    _row,
    _table_bytes,
    all_mask_l1,
    all_mask_sup,
    l1_accumulate,
    sup_norm,
)

EXPLICIT_BASE = 2.0 + math.sqrt(2.0)
EXPLICIT_TOL = 1e-9

DEFAULT_BRACKETS = {
    "L1": 10.0,   # exhaustive fitted C maxes at 0.4814 for lam <= 14
    "L2": 0.2,    # floor; exhaustive min over exponent-carrying masks is 0.2047
    "L4": 4.0,    # residue-class implied constant maxes at 0.9228 on the grid
    "L5": 10.0,   # tail-mask fitted C maxes at 1.27 at (lam=14, sigma=4)
}

# the scan grid: L4 residue moduli 2^r, the L5 audit's t values (the
# approximant itself uses the middle one), L6 intervals drawn per mask
R_VALUES = (2, 4, 6)
T_GRID = (3, 4, 5)
INTERVALS_PER_MASK = 4

# bytes a scan of any family holds per mask and per report it keeps,
# rounded up from tracemalloc peaks of random-family run_scan at lam 8-16
# and counts 1000-4000: about 65 B per mask with no report, 450-710 B per report
_MASK_BYTES = 128
_REPORT_BYTES = 768
# a scan's draws, lists and few reports beside its row and period tables
# (tracemalloc: 84 KiB with 4 random masks, 41 reports, at lam 14-16)
_SCAN_SCRATCH = 1 << 17

# masks whose Walsh function is itself an additive character: the empty mask
# (the constant 1) and the lone lowest bit, whose sign function is exactly
# e(2^(lam-1) x / 2^lam).  Their coefficient tables are point masses, so a
# decay exponent fitted on them carries no information.
_CHARACTER_MASKS = (0, 1)


@dataclass(frozen=True)
class ScanConfig:
    """Seeded parameter grid for batch verification."""

    lambda_min: int
    lambda_max: int
    mask_family: str = "random"  # all | random | structured
    count: int = 64
    seed: int = 0
    lemmas: tuple = (1, 2, 3, 4, 5, 6)

    def __post_init__(self):
        if self.lambda_min < 1:
            raise ValueError("lambda_min must be >= 1")
        if self.lambda_max < self.lambda_min:
            raise ValueError(
                f"empty lambda range [{self.lambda_min}, {self.lambda_max}]"
            )
        if self.mask_family not in ("all", "random", "structured"):
            raise ValueError(f"unknown mask family {self.mask_family!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        bad = [x for x in self.lemmas if x not in (1, 2, 3, 4, 5, 6)]
        if bad:
            raise ValueError(f"unknown lemma selectors {bad}")
        repeated = sorted({x for x in self.lemmas if self.lemmas.count(x) > 1})
        if repeated:
            raise ValueError(f"repeated lemma selectors {repeated}")


def mask_family(config: ScanConfig, lam: int) -> list[int]:
    """The mask bits a scan visits at one lam, in deterministic order."""
    n = 1 << lam
    if config.mask_family == "all":
        return list(range(n))
    if config.mask_family == "random":
        rng = np.random.default_rng([config.seed, lam])
        return [int(b) for b in rng.integers(0, n, size=config.count)]
    masks = {0, n - 1}
    masks.update(1 << j for j in range(lam))
    for i in range(lam):
        for j in range(i + 1, lam + 1):
            masks.add(((1 << j) - 1) ^ ((1 << i) - 1))  # contiguous run [i, j)
    for stride in (2, 3):
        for phase in range(stride):
            bits = 0
            for j in range(phase, lam, stride):
                bits |= 1 << j
            masks.add(bits)
    sigma = min(4, lam)
    for sub in range(1 << sigma):
        masks.add(sub << (lam - sigma))  # tail-window subsets
    return sorted(masks)


# ---------------------------------------------------------------------------
# verdicts: pure functions of the measured scalars, shared by the per-mask
# checkers and the scans (per-mask rows and exhaustive sweeps alike)


def _l1_verdict(lam: int, bits: int, lhs: float) -> CheckReport:
    w = bits.bit_count()
    params = {"lambda": lam, "mask": bits, "weight": w}
    if w == 0:
        # l1 of the constant character is 1; the bound degenerates to 1^0
        params["degenerate"] = True
        return CheckReport("L1", params, lhs, 1.0, None, True)
    fitted = lhs ** (1.0 / w) / lam
    rhs = (DEFAULT_BRACKETS["L1"] * lam) ** w
    return CheckReport("L1", params, lhs, rhs, fitted, fitted <= DEFAULT_BRACKETS["L1"])


def _l2_verdict(lam: int, bits: int, lhs: float) -> CheckReport:
    w = bits.bit_count()
    params = {"lambda": lam, "mask": bits, "weight": w}
    if bits in _CHARACTER_MASKS:
        params["degenerate"] = True
        fitted = None if w == 0 else -math.log2(lhs) / w
        return CheckReport("L2", params, lhs, 1.0, fitted, True)
    fitted = -math.log2(lhs) / w
    rhs = 2.0 ** (-DEFAULT_BRACKETS["L2"] * w)
    return CheckReport("L2", params, lhs, rhs, fitted, fitted >= DEFAULT_BRACKETS["L2"])


def _l3_verdict(lam: int, bits: int, lhs: float) -> CheckReport:
    rhs = EXPLICIT_BASE ** (lam / 4.0)
    params = {"lambda": lam, "mask": bits, "weight": bits.bit_count()}
    return CheckReport("L3", params, lhs, rhs, None, lhs <= rhs + EXPLICIT_TOL)


def _l4_verdict(lam: int, r: int, a: int, bits: int, lhs: float) -> CheckReport:
    scale = EXPLICIT_BASE ** ((lam - r) / 4.0)
    fitted = lhs / scale
    rhs = DEFAULT_BRACKETS["L4"] * scale
    params = {"lambda": lam, "mask": bits, "weight": bits.bit_count(), "r": r, "a": a}
    return CheckReport("L4", params, lhs, rhs, fitted, fitted <= DEFAULT_BRACKETS["L4"])


def _l6_verdict(lam: int, lo: int, hi: int, bits: int, lhs: float) -> CheckReport:
    m = max(0, (hi - lo - 1).bit_length())  # ceil(log2 |J|), 0 for singletons
    rhs = EXPLICIT_BASE ** (m / 4.0)
    params = {"lambda": lam, "mask": bits, "weight": bits.bit_count(),
              "j_lo": lo, "j_hi": hi, "m": m}
    return CheckReport("L6", params, lhs, rhs, None, lhs <= rhs + EXPLICIT_TOL)


# ---------------------------------------------------------------------------
# the six checkers: one measurement each, then the verdict


def check_lemma1(lam: int, mask: WalshMask) -> CheckReport:
    """Full-range l1 norm against (C*lam)^|A| with fitted C."""
    _require_mask_lam(lam, mask)
    return _l1_verdict(lam, mask.bits, l1_accumulate(mask))


def check_lemma2(lam: int, mask: WalshMask) -> CheckReport:
    """Coefficient sup norm against 2^(-c|A|) with fitted decay exponent c.

    The two character masks are excluded from the fit: their sup norm is
    exactly 1 (a point-mass spectrum has no decay to measure), so they pass
    by convention with a degenerate flag, mirroring the empty-mask skip.
    """
    _require_mask_lam(lam, mask)
    return _l2_verdict(lam, mask.bits, sup_norm(mask))


def check_lemma3(lam: int, mask: WalshMask) -> CheckReport:
    """Full-range l1 norm against the explicit bound (2+sqrt(2))^(lam/4)."""
    _require_mask_lam(lam, mask)
    return _l3_verdict(lam, mask.bits, l1_accumulate(mask))


def check_lemma4(lam: int, r: int, a: int, mask: WalshMask) -> CheckReport:
    """Residue-class l1 norm, implied constant against (2+sqrt(2))^((lam-r)/4)."""
    _require_mask_lam(lam, mask)
    lhs = l1_accumulate(mask, ResidueClass(a, r))
    return _l4_verdict(lam, r, a, mask.bits, lhs)


def check_lemma5(config: ApproximantConfig, mask: WalshMask) -> CheckReport:
    """Aggregated tail-mask audit: coefficient mass, substitute quality,
    and band limits.

    Sub-checks: (1) full l1 norm of the tail mask against
    (2^sigma)^(1/4) * C^((ln lam)^2) with fitted C; (2) RMS error of the
    substitute strictly decreasing in log2 across the t grid; (3) the
    synthesized substitute keeps spectral support inside 2^(sigma+t), never
    exceeds the exact coefficients, and stays below sup norm 3.
    """
    _require_mask_lam(config.lam, mask)
    return _lemma5_audit(config, mask, l1_accumulate(mask))


def _lemma5_audit(config: ApproximantConfig, mask: WalshMask, lhs: float) -> CheckReport:
    """Lemma 5's report from the measured l1 norm; synthesizes the substitute
    once per t and audits config.t's (normally on the grid) before the next."""
    lam, sigma = config.lam, config.sigma
    scale = (2.0**sigma) ** 0.25
    log_sq = math.log(lam) ** 2
    fitted = math.exp(math.log(max(lhs, 1e-300) / scale) / log_sq)
    rhs = scale * DEFAULT_BRACKETS["L5"] ** log_sq

    grid = tuple(t for t in T_GRID if sigma + t <= lam - 1)
    errors, profile = [], None
    for t in grid:
        ap = build_approximant(mask, replace(config, t=t))
        errors.append(l2_error(ap))
        if t == config.t:
            profile = band_profile(ap)
    slope = _fit_slope(grid, errors)
    if profile is None:
        profile = band_profile(build_approximant(mask, config))

    sub_ok = {
        "fitted_in_bracket": fitted <= DEFAULT_BRACKETS["L5"],
        "error_slope_negative": slope is None or slope < 0.0,
        "support_clean": profile["support_leak"] <= EXPLICIT_TOL,
        "dominated": profile["domination_excess"] <= EXPLICIT_TOL,
        "sup_bounded": profile["sup_norm"] <= 3.0 + EXPLICIT_TOL,
    }
    params = {
        "lambda": lam,
        "mask": mask.bits,
        "weight": mask.weight,
        "sigma": sigma,
        "t": config.t,
        "t_grid": list(grid),
        "rms_errors": errors,
        "error_slope": slope,
        "support_leak": profile["support_leak"],
        "domination_excess": profile["domination_excess"],
        "sup_norm": profile["sup_norm"],
        "in_asymptotic_regime": config.in_asymptotic_regime,
        "subchecks": sub_ok,
    }
    return CheckReport("L5", params, lhs, rhs, fitted, all(sub_ok.values()))


def check_lemma6(lam: int, lo: int, hi: int, mask: WalshMask) -> CheckReport:
    """Interval l1 norm against the explicit bound at the interval's dyadic
    size class: (2+sqrt(2))^(m/4) with m = ceil(log2 |J|)."""
    _require_mask_lam(lam, mask)
    if not 1 <= lo < hi <= (1 << lam):
        raise ValueError(f"interval [{lo}, {hi}) must be nonempty inside [1, 2^{lam})")
    return _l6_verdict(lam, lo, hi, mask.bits, l1_accumulate(mask, Interval(lo, hi)))


def _require_mask_lam(lam: int, mask: WalshMask):
    if mask.lam != lam:
        raise ValueError(f"mask lam {mask.lam} does not match lam={lam}")


# errors this small mean the substitute reproduced the mask exactly; slope
# fits on rounding dust are meaningless, so treat them as converged
ERROR_DUST = 1e-12


def _fit_slope(grid, errors) -> float | None:
    """Least-squares slope of log2(error) against t; None when degenerate."""
    if len(grid) < 2 or any(e <= ERROR_DUST for e in errors):
        return None
    ts = np.asarray(grid, dtype=np.float64)
    ys = np.log2(np.asarray(errors, dtype=np.float64))
    ts = ts - ts.mean()
    return float((ts * (ys - ys.mean())).sum() / (ts * ts).sum())


# ---------------------------------------------------------------------------
# batch scans


def _draw_interval(rng, lam: int) -> tuple[int, int]:
    lo = int(rng.integers(1, 1 << lam))
    return lo, int(rng.integers(lo + 1, (1 << lam) + 1))


def _scan_at(config: ScanConfig, lam: int) -> list[list[CheckReport]]:
    """The reports of each lemma in config.lemmas at one lam, in that order.

    Measure once, judge many: each mask occurrence gets at most one row, and
    every lemma takes its scalars from it (full sum for L1, L3 and L5, max
    for L2, residue-class and interval slice sums for L4 and L6); only the
    scalars outlive the mask.  The exhaustive family reads full sums and
    maxima from the all-mask folds: the maxima are the rows' floats, the sums
    add in another order and can differ from a row's sum in the last bits.
    The L4 and L6 draws come first, one check per (lemma, mask).
    """
    want = set(config.lemmas)
    family = mask_family(config, lam)
    # generators only where drawn: importing numpy.random adds ~5 MiB of RSS
    rs, residues, intervals = [], [], [()] * len(family)
    if 4 in want:
        rng = np.random.default_rng([config.seed, lam, 4])
        rs = [r for r in R_VALUES if r < lam]
        residues = [[int(rng.integers(0, 1 << r)) for _ in family] for r in rs]
    if 6 in want:
        rng = np.random.default_rng([config.seed, lam, 6])
        intervals = [[_draw_interval(rng, lam) for _ in range(INTERVALS_PER_MASK)]
                     for _ in family]
    acfg, tail, sigma = None, set(), min(4, lam - 6)
    if 5 in want and sigma >= 1:
        acfg = ApproximantConfig(lam, sigma, T_GRID[len(T_GRID) // 2])
        # every tail mask in the exhaustive family, else a canonical quartet
        high = 1 << (lam - 1)
        tail = ({sub << (lam - sigma) for sub in range(1 << sigma)} if config.mask_family == "all"
                else {0, high, high | (1 << (lam - sigma)), acfg.tail_window_mask})

    sweep, want_full, want_top = config.mask_family == "all", bool(want & {1, 3}), 2 in want
    fulls = all_mask_l1(lam).tolist() if sweep and want_full else [None] * len(family)
    tops = all_mask_sup(lam).tolist() if sweep and want_top else [None] * len(family)
    l4 = [[] for _ in rs]
    l6 = []
    for i, bits in enumerate(family):
        full = fulls[i] is None and (want_full or bits in tail)
        top = tops[i] is None and want_top
        if not (full or top or rs or intervals[i]):
            continue
        row = _row(lam, bits)
        if full:
            fulls[i] = float(row.sum())
        if top:
            tops[i] = float(row.max())
        for k, r in enumerate(rs):
            a = residues[k][i]
            l4[k].append(_l4_verdict(lam, r, a, bits, float(row[a::1 << r].sum())))
        for lo, hi in intervals[i]:
            l6.append(_l6_verdict(lam, lo, hi, bits, float(row[lo:hi].sum())))
        del row  # before the next row is built

    judge = {
        1: lambda: [_l1_verdict(lam, b, fulls[i]) for i, b in enumerate(family)],
        2: lambda: [_l2_verdict(lam, b, tops[i]) for i, b in enumerate(family)],
        3: lambda: [_l3_verdict(lam, b, fulls[i]) for i, b in enumerate(family)],
        4: lambda: [rep for reps in l4 for rep in reps],
        5: lambda: [_lemma5_audit(acfg, WalshMask(b, lam), fulls[i])
                    for i, b in enumerate(family) if b in tail],
        6: lambda: list(l6),
    }
    return [judge[lemma]() for lemma in config.lemmas]


def _require_scan_bytes(config: ScanConfig) -> None:
    """Charge a scan, before any mask is drawn, everything it holds at once:
    at each lam its masks (count for the random family, 2^lam for the all
    family, mask_family's list for the structured one) and their kept
    reports, and at the largest lam the period tables (one lam's are cached
    at a time) and one row, or lemma 5's band audit, which runs after the
    rows are gone.  Lemma 5 rows come from at most 2^sigma tail masks, so
    they are not charged per mask."""
    lams = range(config.lambda_min, config.lambda_max + 1)
    masks = need = 0
    for lam in lams:
        at = {"random": config.count, "all": 1 << lam}.get(config.mask_family)
        at = at or len(mask_family(config, lam))
        reports = sum({4: sum(r < lam for r in R_VALUES), 5: 0, 6: INTERVALS_PER_MASK}.get(k, 1)
                      for k in config.lemmas)
        masks, need = max(masks, at), need + at * (_MASK_BYTES + reports * _REPORT_BYTES)
    top = config.lambda_max
    work = (_AUDIT_BYTES << top) + _FFT_SCRATCH if 5 in config.lemmas else 8 << top
    need += _table_bytes(top) + work + _SCAN_SCRATCH
    require_bytes(need, what=f"{config.mask_family}-mask scan of {masks} masks",
                  how=f"{_MASK_BYTES} B per mask and lambda, {_REPORT_BYTES} B per report, "
                      f"period tables and one {'band audit' if 5 in config.lemmas else 'row'} "
                      f"at lambda={top}")


def scan_lemma_at(config: ScanConfig, lemma: int, lam: int) -> list[CheckReport]:
    """One lemma's reports at one lam."""
    config = replace(config, lambda_min=lam, lambda_max=lam, lemmas=(lemma,))
    _require_scan_bytes(config)
    return _scan_at(config, lam)[0]


def summarize(reports: list[CheckReport]) -> CheckReport:
    """One aggregate row: failure count, fitted-constant extremes."""
    fitted = [r.fitted_constant for r in reports if r.fitted_constant is not None]
    failures = sum(1 for r in reports if not r.passed)
    params = {
        "summary": True,
        "n_reports": len(reports),
        "n_failures": failures,
        "min_fitted": min(fitted) if fitted else None,
        "max_fitted": max(fitted) if fitted else None,
    }
    return CheckReport("SUMMARY", params, failures, 1.0, None, failures == 0)


def run_scan(config: ScanConfig) -> list[CheckReport]:
    """Run every selected lemma over the grid; lam-major, then the order of
    config.lemmas; a summary row is appended last."""
    _require_scan_bytes(config)
    reports: list[CheckReport] = []
    for lam in range(config.lambda_min, config.lambda_max + 1):
        for part in _scan_at(config, lam):
            reports.extend(part)
    reports.append(summarize(reports))
    return reports
