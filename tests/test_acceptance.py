"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

Criterion 3 compares the single-weight class minima against the published
reference table for both bundled populations.  Eight of the second
population's nine published entries do not match: five exceed gap^2, a hard
upper bound of the class minimum b^2*W/(b^2+W) for any W >= 0.  The column
is not the class minimum: it is the MSE at one shared weight, printed for
the second population with other inputs, and
``test_published_tmq_column_is_the_mse_at_one_shared_weight`` reconstructs
all 18 entries.  Criterion 3 is asserted as stated and is expected to fail
for those entries; the code's rows are the true class minima.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from medaux import (
    MedianParams,
    SampleStats,
    SimulationConfig,
    SyntheticSpec,
    error_moments,
    evaluate,
    EstimatorSpec,
    make_synthetic,
    preset,
    run_simulation,
    table_rows,
)
from medaux.cli import main as cli_main
from medaux.mse import dominance_checks

from conftest import draw_params
from oracles import (
    min_mse_difference,
    min_mse_ss1,
    min_mse_ss2,
    min_mse_ss3,
    min_mse_tm,
    min_mse_tmq,
    paper_tmq_value,
    tm_min_from_weights,
    tm_mse_at,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# published reference values for the two bundled fishery populations
REFERENCE = {
    "pop1": {
        "V_My": 565443.57,
        "MSE_Mr": 988372.76,
        "min_Md": 552636.13,
        "min_Md1": 485969.06,
        "min_Md2": 489395.24,
        "min_Md3": 3229.34,
        "min_Md4": 480458.97,
        "min_tm": 3229.34,
        "tmq": {
            "t_mq1": 3267.42, "t_mq2": 3267.43, "t_mq3": 3254.89,
            "t_mq4": 3267.43, "t_mq5": 3238.55, "t_mq6": 3267.43,
            "t_mq7": 3232.56, "t_mq8": 3247.25, "t_mq9": 3253.88,
        },
    },
    "pop2": {
        "V_My": 565443.57,
        "MSE_Mr": 536149.50,
        "min_Md": 508766.02,
        "min_Md1": 495484.97,
        "min_Md2": 454675.78,
        "min_Md3": 51355.17,
        "min_Md4": 454616.15,
        "min_tm": 51355.17,
        "tmq": {
            "t_mq1": 58727.72, "t_mq2": 58729.63, "t_mq3": 55919.25,
            "t_mq4": 58730.48, "t_mq5": 55037.68, "t_mq6": 58730.48,
            "t_mq7": 51514.08, "t_mq8": 54709.03, "t_mq9": 59211.32,
        },
    },
}


def test_criterion_1_exact_formula_reproduction():
    """Core closed forms reproduce the reference table within 0.05%."""
    from medaux import load_params

    from conftest import bundled_params_path

    t0 = time.perf_counter()
    pop1 = load_params(bundled_params_path("popI.json"))
    pop2 = load_params(bundled_params_path("popII.json"))
    failures = []
    for tag, params in (("pop1", pop1), ("pop2", pop2)):
        ref = REFERENCE[tag]
        moments = error_moments(params)
        my2 = params.median_y**2
        got = {
            "V_My": my2 * moments.var_e0,
            "MSE_Mr": my2
            * (moments.var_e0 + moments.var_e1 - 2.0 * moments.cov_e0e1),
            "min_Md": min_mse_difference(params),
            "min_Md2": min_mse_ss2(params),
            "min_Md3": min_mse_ss3(params),
            "min_tm": min_mse_tm(params),
        }
        for key, value in got.items():
            if _rel(value, ref[key]) >= 5e-4:
                failures.append(f"{tag}:{key} {value:.2f} vs {ref[key]:.2f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(
        "criterion 1 (exact-formula reproduction, both populations, < 1 s)",
        ok,
        f"12 values at 0.05%, runtime {elapsed*1000:.0f} ms"
        + ("" if not failures else f"; failures: {failures}"),
    )
    assert ok, failures


def test_criterion_2_shrinkage_rows(pop1, pop2):
    """Tied-weight row within 1%, scaled row at unit exponent within 0.05%."""
    failures = []
    for tag, params in (("pop1", pop1), ("pop2", pop2)):
        ref = REFERENCE[tag]
        if _rel(min_mse_ss1(params), ref["min_Md1"]) >= 1e-2:
            failures.append(f"{tag}:min_Md1")
        min_md4 = table_rows(params, ["M_d4"])[0].analytic_mse
        if _rel(min_md4, ref["min_Md4"]) >= 5e-4:
            failures.append(f"{tag}:min_Md4")
    ok = not failures
    _report(
        "criterion 2 (tied-weight within 1%, scaled shrinkage within 0.05%)",
        ok,
        "4 values checked" + ("" if ok else f"; failures: {failures}"),
    )
    assert ok, failures


def test_criterion_3_single_weight_reference_values(pop1, pop2):
    """Single-weight minima vs the published table at 1.5%, plus the internal
    grid-search oracle at 1e-6 relative.

    Known to fail for the second population: its published entries are not
    reproducible from its published parameters (five exceed the gap^2 upper
    bound of the closed form).
    """
    oracle_failures = []
    value_failures = []
    for tag, params in (("pop1", pop1), ("pop2", pop2)):
        for name, ref in REFERENCE[tag]["tmq"].items():
            spec = preset(name, params)
            closed = min_mse_tmq(
                params, alpha=spec.alpha, eta=spec.eta, lam=spec.lam
            )
            # independent oracle: grid over the single weight, then refine
            w1 = np.linspace(-2.0, 2.0, 4001)
            coarse = tm_mse_at(
                params, w1, 0.0, alpha=spec.alpha, eta=spec.eta, lam=spec.lam
            )
            centre = w1[int(np.argmin(coarse))]
            w1 = np.linspace(centre - 2e-3, centre + 2e-3, 801)
            best = float(
                tm_mse_at(
                    params, w1, 0.0, alpha=spec.alpha, eta=spec.eta, lam=spec.lam
                ).min()
            )
            if not (best >= closed - 1e-9 * closed and _rel(best, closed) < 1e-6):
                oracle_failures.append(f"{tag}:{name}")
            if _rel(closed, ref) >= 0.015:
                value_failures.append(
                    f"{tag}:{name} {closed:.2f} vs published {ref:.2f}"
                    f" ({_rel(closed, ref)*100:.1f}%)"
                )
    ok = not oracle_failures and not value_failures
    _report(
        "criterion 3 (single-weight minima vs published table at 1.5%)",
        ok,
        f"grid oracle {'ok' if not oracle_failures else oracle_failures}; "
        + (
            "all 18 published entries matched"
            if not value_failures
            else f"{len(value_failures)} published entries unmatched: {value_failures}"
        ),
    )
    assert ok, {"oracle": oracle_failures, "values": value_failures}


# The published single-weight column is the paper's MSE at one shared weight
# (oracles.paper_tmq_value), not each class minimum.  On the second
# population it was printed with fx = 0.00013 in W(a), a tenth of the bundled
# 0.0013 that every other published entry matches, and with eta = 0.31 where
# a preset sets eta = rho_c (t_mq8, t_mq9).  With those inputs all 18 entries
# match within 7.8e-6 relative.  The inputs are printed to 2 to 4
# significant digits and the values to two decimals (at most 1.5e-6
# relative), so 1e-5 holds every entry while the bundled fx misses the
# second column by 5.0e-3 (t_mq7) to 1.23e-1.
TMQ_COLUMN_REL_TOL = 1e-5
POP2_COLUMN_FX = 0.00013
POP2_COLUMN_ETA = 0.31


def _published_tmq_value(params, name, w_params, eta_rho_c):
    """paper_tmq_value at the preset's (alpha, eta, lam), eta = rho_c read as
    ``eta_rho_c``."""
    spec = preset(name, params)
    eta = eta_rho_c if name in ("t_mq8", "t_mq9") else spec.eta
    return paper_tmq_value(
        params, alpha=spec.alpha, eta=eta, lam=spec.lam, w_params=w_params
    )


def test_published_tmq_column_is_the_mse_at_one_shared_weight(pop1, pop2):
    """The published t_mq column, reconstructed entry by entry."""
    column_pop2 = replace(pop2, fx_at_median=POP2_COLUMN_FX)
    inputs = {
        "pop1": (pop1, pop1, pop1.rho_c),
        "pop2": (pop2, column_pop2, POP2_COLUMN_ETA),
    }
    misses = []
    for tag, (params, w_params, eta_rho_c) in inputs.items():
        for name, ref in REFERENCE[tag]["tmq"].items():
            value = _published_tmq_value(params, name, w_params, eta_rho_c)
            if _rel(value, ref) >= TMQ_COLUMN_REL_TOL:
                misses.append(f"{tag}:{name} {value:.2f} vs {ref:.2f}")
    _report(
        "published t_mq column (MSE at the shared weight, popII fx 0.00013)",
        not misses,
        f"18 entries within {TMQ_COLUMN_REL_TOL:g}; misses: {misses}",
    )
    assert not misses
    # each popII input change is needed: the bundled fx misses every entry,
    # and eta = rho_c misses t_mq8 and t_mq9
    for name, ref in REFERENCE["pop2"]["tmq"].items():
        bundled = _published_tmq_value(pop2, name, pop2, POP2_COLUMN_ETA)
        assert _rel(bundled, ref) > 100 * TMQ_COLUMN_REL_TOL, name
    for name in ("t_mq8", "t_mq9"):
        value = _published_tmq_value(pop2, name, column_pop2, pop2.rho_c)
        assert _rel(value, REFERENCE["pop2"]["tmq"][name]) > 10 * TMQ_COLUMN_REL_TOL


def test_criterion_4_algebraic_identities():
    """Identities over 1,000 random valid parameter vectors."""
    rng = np.random.default_rng(20250808)
    worst_identity = 0.0
    worst_spread = 0.0
    worst_argmin = 0.0
    for _ in range(1000):
        p = draw_params(rng)
        tm, ss3 = min_mse_tm(p), min_mse_ss3(p)
        worst_identity = max(worst_identity, abs(tm - ss3) / max(ss3, 1e-300))
        values = [
            tm_min_from_weights(
                p,
                alpha=float(rng.uniform(-2, 2)),
                eta=float(rng.uniform(-2, 2)),
                lam=float(rng.uniform(0.1, 3.0)),
            )
            for _ in range(8)
        ]
        values.append(tm)
        worst_spread = max(worst_spread, (max(values) - min(values)) / tm)
        grid = p.k_c + np.linspace(-0.25, 0.25, 5001)
        b2 = p.median_gap**2
        w = p.gamma * p.median_y**2 * (
            p.cv_y**2
            + grid * grid * p.cv_x**2
            - 2.0 * grid * p.rho_c * p.cv_y * p.cv_x
        )
        tmq_curve = b2 * w / (b2 + w)
        worst_argmin = max(
            worst_argmin, abs(float(grid[int(np.argmin(tmq_curve))]) - p.k_c)
        )
    ok = worst_identity <= 1e-12 and worst_spread <= 1e-9 and worst_argmin <= 1e-4
    _report(
        "criterion 4 (algebraic identities over 1,000 random params)",
        ok,
        f"max |tm-ss3| rel {worst_identity:.1e}; max scalar spread "
        f"{worst_spread:.1e}; max argmin offset {worst_argmin:.1e}",
    )
    assert ok


def test_criterion_5_dominance_suite(pop1, pop2):
    """All five orderings hold for both populations and for >= 95% of 1,000
    random parameter vectors; any failure must sit at a degenerate margin."""
    for params in (pop1, pop2):
        assert all(r.satisfied for r in dominance_checks(params))
    rng = np.random.default_rng(77)
    passed = 0
    bad = []
    for _ in range(1000):
        p = draw_params(rng)
        results = dominance_checks(p)
        if all(r.satisfied for r in results):
            passed += 1
        else:
            for r in results:
                if r.satisfied is False and abs(r.margin) > 1e-12:
                    bad.append((r.name, r.margin))
    ok = passed >= 950 and not bad
    _report(
        "criterion 5 (dominance suite)",
        ok,
        f"both populations 5/5; random params {passed}/1000 all-pass"
        + ("" if not bad else f"; non-degenerate failures: {bad[:3]}"),
    )
    assert ok, (passed, bad[:5])


def test_criterion_6_monte_carlo_consistency():
    """Desk-scale replication agrees with the asymptotic formulas."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        N=2000, mu_x=6.9, sigma_x=0.5, mu_y=7.0, sigma_y=0.5, rho=0.8, seed=20240817
    )
    frame = make_synthetic(spec)
    my = float(np.median(frame.y))
    mx = float(np.median(frame.x))
    p11 = np.count_nonzero((frame.x <= mx) & (frame.y <= my)) / frame.N

    def lognormal_pdf(point: float, mu: float, sigma: float) -> float:
        z = (math.log(point) - mu) / sigma
        return math.exp(-0.5 * z * z) / (point * sigma * math.sqrt(2.0 * math.pi))

    params = MedianParams(
        N=2000,
        n=100,
        median_y=my,
        median_x=mx,
        fy_at_median=lognormal_pdf(my, 7.0, 0.5),
        fx_at_median=lognormal_pdf(mx, 6.9, 0.5),
        rho_c=4.0 * p11 - 1.0,
    )
    config = SimulationConfig(
        n=100, reps=20_000, seed=31, estimators=("M_y", "M_r", "M_d", "t_m")
    )
    report = run_simulation(frame, config, params)
    elapsed = time.perf_counter() - t0

    reference = params.gamma * params.median_y**2 * params.cv_y**2
    sample_median_row = report.results[0]
    deviation = abs(sample_median_row.empirical_mse - reference) / reference

    ranking_ok = True
    rows = report.results
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            gap = abs(rows[i].analytic_mse - rows[j].analytic_mse)
            band = 3.0 * math.hypot(rows[i].mc_se_mse, rows[j].mc_se_mse)
            if gap > band:
                analytic_order = rows[i].analytic_mse < rows[j].analytic_mse
                empirical_order = rows[i].empirical_mse < rows[j].empirical_mse
                ranking_ok = ranking_ok and (analytic_order == empirical_order)

    ok = deviation < 0.15 and ranking_ok and elapsed < 60.0
    _report(
        "criterion 6 (Monte Carlo consistency, < 60 s)",
        ok,
        f"sample-median MSE off by {deviation*100:.1f}% (limit 15%); "
        f"ranking {'consistent' if ranking_ok else 'violated'}; "
        f"runtime {elapsed:.1f} s",
    )
    assert ok


def test_criterion_7_determinism(capsys):
    """Fixed-seed simulation reports are byte-identical across runs and
    parallelism levels."""
    argv = [
        "simulate",
        "--synthetic",
        "N=400,mu_x=6.9,sigma_x=0.5,mu_y=7,sigma_y=0.5,rho=0.8,seed=12",
        "--n", "50", "--reps", "200", "--seed", "5", "--format", "json",
    ]

    def run(extra: list[str]) -> str:
        assert cli_main(argv + extra) == 0
        return capsys.readouterr().out

    first = run([])
    second = run([])
    threaded = run(["--jobs", "4"])
    ok = first == second == threaded
    _report(
        "criterion 7 (byte-identical reports across runs and parallelism)",
        ok,
        f"{len(first)} bytes compared across three runs",
    )
    assert ok


def test_criterion_8_reduction_lattice(pop1):
    """Named subsets of the weighted class equal their classical counterparts
    exactly on 10,000 random sample statistics."""
    rng = np.random.default_rng(123)
    t_m1 = preset("t_m1", pop1)
    t_m2 = preset("t_m2", pop1)
    t_m4 = preset("t_m4", pop1)
    ratio = preset("M_r", pop1)
    product = preset("M_p", pop1)
    mismatches = 0
    for _ in range(10_000):
        stats = SampleStats(
            median_y=float(rng.uniform(1.0, 5000.0)),
            median_x=float(rng.uniform(1.0, 5000.0)),
        )
        w1, w2 = rng.uniform(-2.0, 2.0, size=2)
        tm8 = EstimatorSpec(
            family="ratio_exp", w1=w1, w2=w2, alpha=0.0, eta=0.0, lam=1.0
        )
        ss3 = EstimatorSpec(family="shrink_convex", d1=w1, d2=w2)
        if evaluate(t_m1, stats, pop1) != stats.median_y:
            mismatches += 1
        if evaluate(t_m2, stats, pop1) != evaluate(ratio, stats, pop1):
            mismatches += 1
        if evaluate(t_m4, stats, pop1) != evaluate(product, stats, pop1):
            mismatches += 1
        if evaluate(tm8, stats, pop1) != evaluate(ss3, stats, pop1):
            mismatches += 1
    ok = mismatches == 0
    _report(
        "criterion 8 (reduction lattice, exact equality on 10,000 draws)",
        ok,
        f"{mismatches} mismatches across 40,000 comparisons",
    )
    assert ok
