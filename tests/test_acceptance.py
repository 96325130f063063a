"""Acceptance gate: the pinned end-to-end criteria, one verdict line each.

Every test prints a single PASS/FAIL line through _verdict(); conftest
replays the collected lines in the terminal summary so the gate's outcome
is readable at a glance.  Criterion 8b is a known honest failure: the
empirical correlation exponent is not monotone on the measured grid (it
rises from lambda=16 to lambda=18); the test states the criterion as
specified and is expected to stay red until the criterion itself is
revisited at larger scales.
"""

import itertools
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from walshlab import (
    ApproximantConfig,
    BilinearConfig,
    WalshMask,
    all_mask_l1,
    all_mask_sup,
    carry_truncation_rate,
    check_lemma5,
    check_lemma6,
    coefficient_values,
    magnitude_row,
    sequence,
    spectrum,
    theorem_scan,
)
from walshlab.cli import dispatch

_VERDICTS: list[str] = []

# flips to the measured oracle value only through the frozen constant below
SUP_NORM_CONSTANT = 0.20474111613939797


def _verdict(name: str, ok: bool, detail: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    _VERDICTS.append(line)
    return ok


@pytest.fixture(scope="module")
def theorem_grid():
    return theorem_scan("moebius", (12, 14, 16, 18, 20))


# ---------------------------------------------------------------------------
# criterion 1: trig coefficients vs the direct exponential-sum oracle


def test_criterion_01_product_formula_vs_dft_oracle():
    start = time.time()
    worst = 0.0
    for lam in range(2, 11):
        n = 1 << lam
        signs = oracles.sign_matrix(lam).astype(np.float64)
        x = np.arange(n)
        dft = (signs @ np.exp(-2j * np.pi * np.outer(x, x) / n)) / n
        ks = np.arange(n)
        for bits in range(n):
            vals = coefficient_values(lam, bits, ks)
            mags = magnitude_row(lam, bits, ks)
            worst = max(
                worst,
                float(np.abs(vals - dft[bits]).max()),
                float(np.abs(mags - np.abs(dft[bits])).max()),
            )
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 60
    assert _verdict(
        "criterion 1",
        ok,
        f"product formula vs exponential-sum oracle, all masks and k, "
        f"lam<=10: worst |diff| {worst:.3g} (tol 1e-10), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: fast transform vs the naive transform, exact identities


def test_criterion_02_fast_transform_exact():
    start = time.time()
    exact = True
    for lam in range(2, 11):
        n = 1 << lam
        delta = np.zeros(n, dtype=np.int64)
        delta[min(3, n - 1)] = 1
        tables = [
            np.eye(1, n, 0, dtype=np.int64)[0],
            delta,
            np.ones(n, dtype=np.int64),
            np.full(n, -7, dtype=np.int64),
            sequence("moebius", lam).values.astype(np.int64),
        ]
        for values in tables:
            exact &= bool(np.array_equal(spectrum(values), oracles.naive_fwht(values)))
        # every Walsh row transforms to a single point mass of height 2^lam
        signs = oracles.sign_matrix(lam).astype(np.int64)
        for bits in range(n):
            out = spectrum(signs[bits])
            exact &= out[bits] == n and np.count_nonzero(out) == 1
    seq = sequence("moebius", 20).values.astype(np.int64)
    # int64, so the squares below cannot wrap
    once = spectrum(seq).astype(np.int64)
    twice = spectrum(once)
    involution = bool(np.array_equal(twice, (1 << 20) * seq))
    parseval = int((once * once).sum()) == (1 << 20) * int((seq * seq).sum())
    elapsed = time.time() - start
    ok = exact and involution and parseval and elapsed < 60
    assert _verdict(
        "criterion 2",
        ok,
        f"fast vs naive transform exact (lam<=10 exhaustive), involution "
        f"{involution}, Parseval {parseval} at lam=20, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: l1 norm against the explicit (2+sqrt(2))^(lam/4) bound


def test_criterion_03_l1_explicit_bound_every_mask():
    start = time.time()
    base = 2.0 + math.sqrt(2.0)
    failures = 0
    worst_ratio = 0.0
    for lam in range(2, 13):
        ratios = all_mask_l1(lam) / base ** (lam / 4.0)
        failures += int((ratios > 1.0).sum())
        worst_ratio = max(worst_ratio, float(ratios.max()))
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 600
    assert _verdict(
        "criterion 3",
        ok,
        f"l1 <= (2+sqrt2)^(lam/4) for all 2^lam masks, lam<=12: "
        f"{failures} failures, worst ratio {worst_ratio:.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: interval l1 bound on seeded random (mask, interval) pairs


def test_criterion_04_interval_bound_seeded_pairs():
    start = time.time()
    failures = 0
    for lam in range(2, 13):
        n = 1 << lam
        rng = np.random.default_rng([20240817, lam])
        for _ in range(1000):
            bits = int(rng.integers(0, n))
            lo = int(rng.integers(1, n))
            hi = int(rng.integers(lo + 1, n + 1))
            failures += not check_lemma6(lam, lo, hi, WalshMask(bits, lam)).passed
    elapsed = time.time() - start
    ok = failures == 0
    assert _verdict(
        "criterion 4",
        ok,
        f"interval l1 bound, 1000 seeded (mask, interval) pairs per "
        f"lam in 2..12: {failures} failures, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: empirical sup-norm decay constant over all masks


def test_criterion_05_sup_norm_decay_constant():
    sweeps = []
    for _ in range(2):
        sweeps.append({lam: all_mask_sup(lam) for lam in range(2, 13)})
    repro = max(
        float(np.abs(sweeps[0][lam] - sweeps[1][lam]).max()) for lam in sweeps[0]
    )
    literal_min = math.inf
    contentful_min = math.inf
    for lam, sups in sweeps[0].items():
        bits = np.arange(1 << lam)
        weights = np.bitwise_count(bits.astype(np.uint64)).astype(np.float64)
        expo = -np.log2(sups[1:]) / weights[1:]
        literal_min = min(literal_min, float(expo.min()))
        # masks 0 and 1 are exact additive characters (point-mass spectra,
        # sup exactly 1); the decay statement absorbs them into its leading
        # constant, so the fitted constant comes from the remaining masks
        contentful_min = min(contentful_min, float(expo[1:].min()))
    absorbed = 2.0**contentful_min
    leading_ok = all(
        bool(
            np.all(
                sweeps[0][lam]
                <= absorbed
                * 2.0
                ** (
                    -contentful_min
                    * np.bitwise_count(np.arange(1 << lam, dtype=np.uint64))
                )
                + 1e-12
            )
        )
        for lam in sweeps[0]
    )
    ok = (
        repro <= 1e-9
        and abs(literal_min) == 0.0
        and contentful_min > 0.0
        and contentful_min >= 0.2
        and abs(contentful_min - SUP_NORM_CONSTANT) <= 1e-9
        and leading_ok
    )
    assert _verdict(
        "criterion 5",
        ok,
        f"sup-norm decay over all masks lam<=12: exact-character masks sit "
        f"at exponent {abs(literal_min):.1f} (absorbed by the leading "
        f"constant), "
        f"remaining min {contentful_min:.17g} >= 0.2 floor, rerun "
        f"deviation {repro:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 6: mollifier suite at (lam=14, sigma=4)


def test_criterion_06_mollifier_suite():
    start = time.time()
    window = range(10, 14)
    results = []
    for r in range(5):
        for combo in itertools.combinations(window, r):
            bits = sum(1 << j for j in combo)
            rep = check_lemma5(ApproximantConfig(14, 4, 4), WalshMask(bits, 14))
            results.append((combo, rep))
    bad = [combo for combo, rep in results if not rep.passed]
    leaks = max(rep.params["support_leak"] for _, rep in results)
    sups = max(rep.params["sup_norm"] for _, rep in results)
    elapsed = time.time() - start
    ok = not bad and leaks <= 1e-9 and sups <= 3.0 + 1e-9
    assert _verdict(
        "criterion 6",
        ok,
        f"mollifier suite (lam=14, sigma=4), all {len(results)} window "
        f"masks: support leak <= {leaks:.2g}, sup <= {sups:.6f}, error "
        f"slopes negative, failures {bad}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: carry-truncation rate over the parameter grid


def test_criterion_07_carry_rate_grid():
    start = time.time()
    rows = []
    ok = True
    for mu in (4, 5):
        for rho in (1, 2):
            for k_shift in (0, mu - rho):
                cfg = BilinearConfig(
                    s_bits=1, mu=mu, nu=mu + 4, rho=rho, k_shift=k_shift, epsilon=0.5
                )
                res = carry_truncation_rate(cfg)
                bound = 8.0 * 2.0 ** (-0.5 * rho)
                oracle = oracles.naive_carry_rate(mu, mu + 4, rho, 0.5, k_shift)
                ok &= (
                    res.rate <= bound
                    and res.low_rate == 0.0
                    and res.rate == oracle[0]
                    and oracle[1] == 0.0
                )
                rows.append(f"mu={mu},rho={rho},K={k_shift}:{res.rate:.4f}")
    elapsed = time.time() - start
    assert _verdict(
        "criterion 7",
        ok,
        f"carry rate <= 8*2^(-eps*rho), low bits clean, oracle-exact on "
        f"the full grid [{'; '.join(rows)}], {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: correlation scan — margin, exponent shape, budget


def test_criterion_08a_correlation_margins(theorem_grid):
    margins = [rep.lhs / rep.rhs for rep in theorem_grid]
    ok = all(rep.passed for rep in theorem_grid) and max(margins) <= 0.5
    assert _verdict(
        "criterion 8a",
        ok,
        f"peak correlation below 2^(lam - lam^0.1) with margin at "
        f"lam in 12..20: largest ratio {max(margins):.4f}",
    )


def test_criterion_08b_exponent_cap_and_monotonicity(theorem_grid):
    expos = [rep.params["exponent"] for rep in theorem_grid]
    cap_ok = expos[-1] <= 0.75
    mono_ok = all(b <= a for a, b in zip(expos, expos[1:]))
    pretty = ", ".join(f"{e:.6f}" for e in expos)
    ok = cap_ok and mono_ok
    assert _verdict(
        "criterion 8b",
        ok,
        f"exponents [{pretty}] at lam=12..20: cap<=0.75 {cap_ok}, "
        f"non-increasing {mono_ok} (known honest failure: rises 16->18)",
    )


def test_criterion_08c_scan_budget():
    tracemalloc.start()
    start = time.time()
    theorem_scan("moebius", (20,))
    elapsed = time.time() - start
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    ok = elapsed < 60 and peak < 100
    assert _verdict(
        "criterion 8c",
        ok,
        f"lam=20 scan in {elapsed:.2f}s (< 60s) using {peak:.1f} MiB peak "
        f"(< 100 MiB)",
    )


# ---------------------------------------------------------------------------
# criterion 9: sieves against the factorization oracle


def test_criterion_09_sieves_vs_oracle():
    start = time.time()
    n = 1 << 20
    mu_pkg = sequence("moebius", 20).values
    mu_ref = oracles.moebius_values(n)
    lio_ok = np.array_equal(
        sequence("liouville", 20).values, oracles.liouville_values(n)
    )
    mu_ok = np.array_equal(mu_pkg, mu_ref)
    vm_ok = bool(
        np.allclose(
            sequence("von_mangoldt", 20).values,
            oracles.von_mangoldt_values(n),
            rtol=0.0,
            atol=1e-12,
        )
    )
    mertens_pkg = int(mu_pkg[: 10**6 + 1].sum())
    mertens_ref = oracles.mertens(mu_ref, 10**6)
    mert_ok = mertens_pkg == mertens_ref == 212
    elapsed = time.time() - start
    ok = mu_ok and lio_ok and vm_ok and mert_ok
    assert _verdict(
        "criterion 9",
        ok,
        f"three sieves exhaustive to 2^20 (mu {mu_ok}, liouville {lio_ok}, "
        f"von mangoldt {vm_ok}); Mertens(10^6) = {mertens_pkg} = oracle, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns


_BATTERY = (
    ("sieve", "--lambda", "10"),
    ("spectrum", "--lambda", "8"),
    ("theorem-scan", "--lambda-min", "8", "--lambda-max", "10"),
    ("lemma-check", "--lemma", "2", "--lambda", "9", "--count", "16"),
    ("scan", "--lambda-min", "8", "--lambda-max", "8", "--count", "4",
     "--lemmas", "1,3,6"),
    ("bilinear", "--mask", "0x6", "--mu", "4", "--nu", "6", "--coef", "random"),
    ("quadform", "--mask", "0x6", "--mu", "4", "--nu", "6"),
    ("carry-rate", "--mask", "0x6", "--mu", "4", "--nu", "6", "--rho", "2"),
    ("type1", "--mask", "0x6", "--mu", "4", "--nu", "6"),
    ("split", "--mask", "0x3000", "--lambda", "14", "--mu", "1", "--h", "4"),
)


def test_criterion_10_deterministic_manifests(capsys):
    start = time.time()
    stable = []
    for argv in _BATTERY:
        outputs = []
        for _ in range(2):
            dispatch([*argv, "--seed", "5"])
            outputs.append(capsys.readouterr().out)
        stable.append(outputs[0] == outputs[1] and bool(outputs[0]))
    # csv projection must be as stable as the json manifest
    csv_runs = []
    for _ in range(2):
        dispatch(["scan", "--lambda-min", "8", "--lambda-max", "8", "--count",
                  "4", "--seed", "5", "--format", "csv"])
        csv_runs.append(capsys.readouterr().out)
    csv_same = csv_runs[0] == csv_runs[1]
    sub_argv = ["lemma-check", "--lemma", "1", "--lambda", "8", "--count",
                "8", "--seed", "5"]
    procs = [
        subprocess.run(
            [sys.executable, "-m", "walshlab", *sub_argv],
            capture_output=True, text=True, timeout=120,
        )
        for _ in range(2)
    ]
    sub_same = procs[0].stdout == procs[1].stdout and bool(procs[0].stdout)
    elapsed = time.time() - start
    ok = all(stable) and csv_same and sub_same
    assert _verdict(
        "criterion 10",
        ok,
        f"byte-identical reruns: {sum(stable)}/{len(stable)} commands, "
        f"csv {csv_same}, fresh-process pair {sub_same}, {elapsed:.1f}s",
    )
