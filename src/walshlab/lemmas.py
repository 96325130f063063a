"""Inequality checkers for the coefficient-norm lemmas, plus batch scans.

Two regimes, matching what each inequality actually pins down:

* explicit-constant checks (lemma 3, lemma 6): the right-hand side is a
  closed form with no free constant, so pass means lhs <= rhs + 1e-9, hard.
* fitted-constant checks (lemmas 1, 2, 4, 5): the inequality only claims
  "some constant"; the checker computes the implied constant and passes if
  it stays inside an empirically frozen bracket.  The brackets were
  confirmed against exhaustive sweeps before being frozen here.

Each checker is a measurement (scalars taken from one mask's magnitude
row) followed by its lemma's verdict, a pure function over columns of
such scalars that the scans share.  run_scan drives seeded grids: it
builds each mask's row once per lam (the all family reads the all-mask
folds instead), judges each selected lemma's gathered scalars once, and
appends one summary row.  Every family keeps each verdict's rows as
report blocks (report.ReportColumns), with a CheckReport in place of each
degenerate row and of each lemma 5 audit.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .limits import require_bytes
from .report import CheckReport, ReportColumns, expand
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

# bytes a scan holds per mask: a random or structured scan's mask list
# (about 65 B per mask), or the all family's mask column and fold working
# set; and per row of each lemma's blocks (8 B per column the row owns).
# They cover tracemalloc peaks of all-family run_scan at lam 14-18 (65-81 B
# per mask for lemma 3, 91-99 for lemma 1 or 2, 295 for lemma 4 and 345 for
# lemma 6), and random and structured run_scan peaks read 0.69-0.998 of
# the charge at lam 8-18
_MASK_BYTES = 128
_COLUMN_MASK_BYTES = 32
_ROW_BYTES = {1: 48, 2: 48, 3: 24, 4: 80, 5: 0, 6: 80}
# numpy.random's modules, which a process's first drawing scan imports
# (tracemalloc: a 0.93-1.04 MB peak, 0.66-0.77 MB of it kept)
_GENERATOR_IMPORT_BYTES = 1 << 20
# a scan's draws, lists and few reports beside its row and period tables
# (tracemalloc: 74 KiB with 4 random masks at lam 14-18, 109 KiB over 14..18)
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


def mask_family(config: ScanConfig, lam: int) -> Sequence[int]:
    """The mask bits a scan visits at one lam, in deterministic order."""
    n = 1 << lam
    if config.mask_family == "all":
        return range(n)
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
# verdicts: pure functions over columns of measured scalars, one row per
# check, shared by the per-mask checkers (one-element columns) and the scans.
# Only + - * / and comparisons run as numpy ufuncs, whose results are the
# IEEE results of Python's operators; powers and logarithms of a column
# are Python's, mapped or tabulated per weight, since numpy's power and
# log2 differ from them in the last bits.


def _weights(bits: np.ndarray) -> np.ndarray:
    return np.bitwise_count(bits).astype(np.int64)


def _table(fn, column: np.ndarray) -> np.ndarray:
    """fn of each entry of a column of small non-negative ints, computed
    once per value up to the largest."""
    return np.array([fn(k) for k in range(int(column.max(initial=0)) + 1)])[column]


def _map(fn, *columns: np.ndarray, dtype=np.float64) -> np.ndarray:
    """fn of each row's Python scalars, as a column, mapped 4096 rows at a
    time so that no column is held as Python objects."""
    out, step = np.empty(len(columns[0]), dtype=dtype), 1 << 12
    for lo in range(0, len(out), step):
        out[lo:lo + step] = list(map(fn, *(c[lo:lo + step].tolist() for c in columns)))
    return out


def _columns(lemma_id: str, params: dict, lhs, rhs, fitted, passed, degenerate=None) -> list:
    """The verdict's rows as blocks, but for each row i in degenerate a
    report in its place, flagged degenerate: its bound degenerates to 1, it
    passes by convention, and its fitted constant is degenerate[i]."""
    degenerate, cols, parts, lo = degenerate or {}, (*params.values(), lhs, rhs, fitted), [], 0
    for i in [*sorted(degenerate), len(passed)]:
        cut = [v[lo:i] if np.ndim(v) else v for v in cols]
        if lo < i:
            parts.append(ReportColumns(lemma_id, dict(zip(params, cut)), *cut[-3:], passed[lo:i]))
        if i in degenerate:
            row = {k: v[i].item() if np.ndim(v) else v for k, v in params.items()}
            parts.append(CheckReport(lemma_id, {**row, "degenerate": True}, lhs[i].item(), 1.0,
                                     degenerate[i], True))
        lo = i + 1
    return parts


def _l1_verdict(lam: int, bits: np.ndarray, lhs: np.ndarray) -> list:
    w = _weights(bits)
    fitted = _map(lambda x, k: x ** (1.0 / k) if k else 0.0, lhs, w) / lam
    rhs = _table(lambda k: (DEFAULT_BRACKETS["L1"] * lam) ** k, w)
    # l1 of the constant character is 1; the bound degenerates to 1^0
    return _columns("L1", {"lambda": lam, "mask": bits, "weight": w}, lhs, rhs, fitted,
                    fitted <= DEFAULT_BRACKETS["L1"], dict.fromkeys(np.flatnonzero(w == 0)))


def _l2_verdict(lam: int, bits: np.ndarray, lhs: np.ndarray) -> list:
    w = _weights(bits)
    fitted = _map(lambda x: -math.log2(x), lhs)
    np.divide(fitted, w, out=fitted, where=w > 0)
    rhs = _table(lambda k: 2.0 ** (-DEFAULT_BRACKETS["L2"] * k), w)
    characters = {i: fitted[i].item() if w[i] else None
                  for i in np.flatnonzero(np.isin(bits, _CHARACTER_MASKS))}
    return _columns("L2", {"lambda": lam, "mask": bits, "weight": w}, lhs, rhs, fitted,
                    fitted >= DEFAULT_BRACKETS["L2"], characters)


def _l3_verdict(lam: int, bits: np.ndarray, lhs: np.ndarray) -> list:
    rhs = EXPLICIT_BASE ** (lam / 4.0)
    return _columns("L3", {"lambda": lam, "mask": bits, "weight": _weights(bits)}, lhs, rhs,
                    None, lhs <= rhs + EXPLICIT_TOL)


def _l4_verdict(lam: int, r: np.ndarray, a: np.ndarray, bits: np.ndarray,
                lhs: np.ndarray) -> list:
    scale = _table(lambda k: EXPLICIT_BASE ** ((lam - k) / 4.0), r)
    fitted = lhs / scale
    params = {"lambda": lam, "mask": bits, "weight": _weights(bits), "r": r, "a": a}
    return _columns("L4", params, lhs, DEFAULT_BRACKETS["L4"] * scale, fitted,
                    fitted <= DEFAULT_BRACKETS["L4"])


def _l6_verdict(lam: int, lo: np.ndarray, hi: np.ndarray, bits: np.ndarray,
                lhs: np.ndarray) -> list:
    # ceil(log2 |J|), 0 for singletons
    m = _map(lambda j, h: (h - j - 1).bit_length(), lo, hi, dtype=np.int64)
    rhs = _table(lambda k: EXPLICIT_BASE ** (k / 4.0), m)
    params = {"lambda": lam, "mask": bits, "weight": _weights(bits),
              "j_lo": lo, "j_hi": hi, "m": m}
    return _columns("L6", params, lhs, rhs, None, lhs <= rhs + EXPLICIT_TOL)


def _one(verdict, lam: int, *scalars) -> CheckReport:
    """One check's report: the verdict of one-element columns."""
    [rep] = expand(verdict(lam, *(np.array([x]) for x in scalars)))
    return rep


# ---------------------------------------------------------------------------
# the six checkers: one measurement each, then the verdict


def check_lemma1(lam: int, mask: WalshMask) -> CheckReport:
    """Full-range l1 norm against (C*lam)^|A| with fitted C."""
    _require_mask_lam(lam, mask)
    return _one(_l1_verdict, lam, mask.bits, l1_accumulate(mask))


def check_lemma2(lam: int, mask: WalshMask) -> CheckReport:
    """Coefficient sup norm against 2^(-c|A|) with fitted decay exponent c.

    The two character masks are excluded from the fit: their sup norm is
    exactly 1 (a point-mass spectrum has no decay to measure), so they pass
    by convention with a degenerate flag, mirroring the empty-mask skip.
    """
    _require_mask_lam(lam, mask)
    return _one(_l2_verdict, lam, mask.bits, sup_norm(mask))


def check_lemma3(lam: int, mask: WalshMask) -> CheckReport:
    """Full-range l1 norm against the explicit bound (2+sqrt(2))^(lam/4)."""
    _require_mask_lam(lam, mask)
    return _one(_l3_verdict, lam, mask.bits, l1_accumulate(mask))


def check_lemma4(lam: int, r: int, a: int, mask: WalshMask) -> CheckReport:
    """Residue-class l1 norm, implied constant against (2+sqrt(2))^((lam-r)/4)."""
    _require_mask_lam(lam, mask)
    return _one(_l4_verdict, lam, r, a, mask.bits, l1_accumulate(mask, ResidueClass(a, r)))


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
    from .approximant import band_profile, build_approximant, l2_error

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
    return _one(_l6_verdict, lam, lo, hi, mask.bits, l1_accumulate(mask, Interval(lo, hi)))


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


def _scan_at(config: ScanConfig, lam: int) -> list[list]:
    """The parts of each lemma in config.lemmas at one lam, in that order:
    its verdict's blocks and degenerate rows' CheckReports, or lemma 5's
    audit reports, alike for every family.

    Measure once, judge many: each mask occurrence gets at most one row, and
    every lemma takes its scalars from it (full sum for L1, L3 and L5, max
    for L2, residue-class and interval slice sums for L4 and L6); only the
    scalars outlive the mask, and each lemma's verdict runs once over them.
    The exhaustive family reads full sums and maxima from the all-mask
    folds: the maxima are the rows' floats, the sums add in another order
    and can differ from a row's sum in the last bits.  The L4 and L6 draws
    come first, one check per (lemma, mask).
    """
    want = set(config.lemmas)
    sweep = config.mask_family == "all"
    family = mask_family(config, lam)
    n = len(family)
    bits = np.arange(n) if sweep else np.array(family, dtype=np.int64)
    # generators only where drawn: importing numpy.random adds ~5 MiB of RSS
    rs, residues, intervals = [], None, None
    if 4 in want:
        rng = np.random.default_rng([config.seed, lam, 4])
        rs = [r for r in R_VALUES if r < lam]
        residues = np.fromiter((rng.integers(0, 1 << r) for r in rs for _ in family),
                               np.int64, len(rs) * n).reshape(len(rs), n)
    if 6 in want:
        rng = np.random.default_rng([config.seed, lam, 6])
        intervals = np.fromiter((x for _ in range(INTERVALS_PER_MASK * n)
                                 for x in _draw_interval(rng, lam)),
                                np.int64, 2 * INTERVALS_PER_MASK * n).reshape(-1, 2)
    acfg, tail, sigma = None, [], min(4, lam - 6)
    if 5 in want and sigma >= 1:
        from .approximant import ApproximantConfig
        acfg = ApproximantConfig(lam, sigma, T_GRID[len(T_GRID) // 2])
        # every tail mask in the exhaustive family, else a canonical quartet
        high = 1 << (lam - 1)
        keep = ({sub << (lam - sigma) for sub in range(1 << sigma)} if sweep
                else {0, high, high | (1 << (lam - sigma)), acfg.tail_window_mask})
        # a mask's index in the all family is the mask itself
        tail = sorted(keep) if sweep else [i for i, b in enumerate(family) if b in keep]

    want_full, want_top = bool(want & {1, 3}), 2 in want
    # the folds' values, or each measured mask's at its index
    fulls = all_mask_l1(lam) if sweep and want_full else np.empty(n if want_full or tail else 0)
    tops = all_mask_sup(lam) if sweep and want_top else np.empty(n if want_top else 0)
    slices = 6 in want
    sums4 = np.empty((len(rs), n))
    sums6 = np.empty(INTERVALS_PER_MASK * n if slices else 0)
    row_full, top = not (sweep and want_full), not sweep and want_top
    for i in range(n) if rs or slices or not sweep else tail:
        full = row_full and (want_full or i in tail)
        if not (full or top or rs or slices):
            continue
        row = _row(lam, family[i])
        if full:
            fulls[i] = row.sum()
        if top:
            tops[i] = row.max()
        for k, r in enumerate(rs):
            sums4[k, i] = row[residues[k, i]::1 << r].sum()
        if slices:
            at = INTERVALS_PER_MASK * i
            for j, (lo, hi) in enumerate(intervals[at:at + INTERVALS_PER_MASK].tolist()):
                sums6[at + j] = row[lo:hi].sum()
        del row  # before the next row is built

    judge = {
        1: lambda: _l1_verdict(lam, bits, fulls),
        2: lambda: _l2_verdict(lam, bits, tops),
        3: lambda: _l3_verdict(lam, bits, fulls),
        4: lambda: _l4_verdict(lam, np.repeat(np.array(rs, dtype=np.int64), n),
                               residues.reshape(-1), np.tile(bits, len(rs)), sums4.reshape(-1)),
        5: lambda: [_lemma5_audit(acfg, WalshMask(family[i], lam), float(fulls[i]))
                    for i in tail],
        6: lambda: _l6_verdict(lam, *intervals.T, np.repeat(bits, INTERVALS_PER_MASK), sums6),
    }
    return [judge[lemma]() for lemma in config.lemmas]


def _require_scan_bytes(config: ScanConfig) -> None:
    """Charge a scan, before any mask is drawn, everything it holds at once:
    at each lam its masks (count for the random family, 2^lam for the all
    family, mask_family's list for the structured one) and their block
    rows, at the largest lam the period tables (one lam's are cached at a
    time) and one row, or lemma 5's band audit, which runs after the rows
    are gone, and numpy.random where the scan draws and the process has
    not imported it.  Lemma 5 rows come from at most 2^sigma tail masks,
    so they are not charged per mask."""
    sweep = config.mask_family == "all"
    per_mask = _COLUMN_MASK_BYTES if sweep else _MASK_BYTES
    masks = need = 0
    for lam in range(config.lambda_min, config.lambda_max + 1):
        at = {"random": config.count, "all": 1 << lam}.get(config.mask_family)
        at = at or len(mask_family(config, lam))
        rows = sum({4: sum(r < lam for r in R_VALUES), 5: 0, 6: INTERVALS_PER_MASK}.get(k, 1)
                   * _ROW_BYTES[k] for k in config.lemmas)
        masks, need = max(masks, at), need + at * (per_mask + rows)
    top = config.lambda_max
    if 5 in config.lemmas:
        from .approximant import _AUDIT_BYTES, _FFT_SCRATCH
        work = (_AUDIT_BYTES << top) + _FFT_SCRATCH
    else:
        work = 8 << top
    draws = config.mask_family == "random" or {4, 6} & set(config.lemmas)
    imports = bool(draws) and "numpy.random" not in sys.modules
    need += _table_bytes(top) + work + _SCAN_SCRATCH + imports * _GENERATOR_IMPORT_BYTES
    require_bytes(need, what=f"{config.mask_family}-mask scan of {masks} masks",
                  how=f"{per_mask} B per mask and lambda, {rows} B per mask for its "
                      f"rows at lambda={top}, "
                      f"period tables and one {'band audit' if 5 in config.lemmas else 'row'} "
                      f"at lambda={top}" + ", numpy.random's import" * imports)


def scan_lemma_at(config: ScanConfig, lemma: int, lam: int) -> list:
    """One lemma's parts at one lam, as _scan_at gives them: blocks and
    the degenerate masks' CheckReports, or lemma 5's audit reports."""
    config = replace(config, lambda_min=lam, lambda_max=lam, lemmas=(lemma,))
    _require_scan_bytes(config)
    return _scan_at(config, lam)[0]


def summarize(reports) -> CheckReport:
    """One aggregate row over reports and blocks, a report's passed read
    as one row's and a block's as its rows': the row and failure counts,
    and the fitted-constant extremes (of equal values, the first, as min
    and max keep it)."""
    rows = failures = 0
    fitted = []
    for r in reports:
        f, n = r.fitted_constant, np.size(r.passed)
        rows, failures = rows + n, failures + n - int(np.count_nonzero(r.passed))
        if isinstance(f, np.ndarray):
            fitted += [f[f.argmin()].item(), f[f.argmax()].item()] if len(f) else []
        elif f is not None:
            fitted.append(f)
    params = {
        "summary": True,
        "n_reports": rows,
        "n_failures": failures,
        "min_fitted": min(fitted) if fitted else None,
        "max_fitted": max(fitted) if fitted else None,
    }
    return CheckReport("SUMMARY", params, failures, 1.0, None, failures == 0)


def run_scan(config: ScanConfig) -> list:
    """Run every selected lemma over the grid; lam-major, then the order of
    config.lemmas; a summary row is appended last.  The parts are as in
    scan_lemma_at, for every family; report.expand gives their rows."""
    _require_scan_bytes(config)
    reports = []
    for lam in range(config.lambda_min, config.lambda_max + 1):
        for part in _scan_at(config, lam):
            reports.extend(part)
    reports.append(summarize(reports))
    return reports
