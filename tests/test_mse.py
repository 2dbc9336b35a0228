"""Closed-form minimum MSEs, optimal weights, efficiency and dominance."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medaux import (
    PRESET_NAMES,
    DegenerateOptimumError,
    DomainError,
    EstimatorSpec,
    InfiniteEfficiencyWarning,
    MedauxError,
    MedianParams,
    UnknownEstimatorError,
    bias_from_coeffs,
    coeffs_of,
    dominance_checks,
    error_moments,
    free_scalars,
    mse_from_coeffs,
    pre,
    resolve_weights,
    sample_median_mse,
    table_rows,
)
from medaux import preset
from medaux.mse import TABLE_ALL_IDS, analytic_figures

from conftest import draw_params
from oracles import (
    DegeneratePivotWarning,
    min_mse_difference,
    min_mse_ss1,
    min_mse_ss2,
    min_mse_ss3,
    min_mse_ss4_at,
    min_mse_tm,
    min_mse_tmq,
    quadratic_weights,
    tm_min_from_weights,
    tm_mse_at,
)


def _flat_params() -> MedianParams:
    """Valid params with coinciding medians (degenerate pivot R = 1)."""
    return MedianParams(1000, 100, 80.0, 80.0, 0.01, 0.012, 0.3)


class TestMinMseDifference:
    def test_reference_values(self, pop1, pop2):
        assert abs(min_mse_difference(pop1) - 552636.13) / 552636.13 < 5e-4
        assert abs(min_mse_difference(pop2) - 508766.02) / 508766.02 < 5e-4

    def test_perfect_concordance_vanishes(self):
        for rho in (-1.0, 1.0):
            p = MedianParams(100, 10, 50.0, 40.0, 0.01, 0.01, rho)
            assert min_mse_difference(p) == 0.0

    def test_strictly_decreasing_in_concordance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            base = draw_params(rng)
            lo, hi = sorted(abs(rng.uniform(-0.99, 0.99, size=2)))
            if lo == hi:
                continue
            mk = lambda rho: MedianParams(
                base.N, base.n, base.median_y, base.median_x,
                base.fy_at_median, base.fx_at_median, rho,
            )
            assert min_mse_difference(mk(hi)) < min_mse_difference(mk(lo))


class TestShrinkageMinima:
    def test_ss2_reference_values(self, pop1, pop2):
        assert abs(min_mse_ss2(pop1) - 489395.24) / 489395.24 < 5e-4
        assert abs(min_mse_ss2(pop2) - 454675.78) / 454675.78 < 5e-4

    def test_ss3_reference_values(self, pop1, pop2):
        assert abs(min_mse_ss3(pop1) - 3229.34) / 3229.34 < 5e-4
        assert abs(min_mse_ss3(pop2) - 51355.17) / 51355.17 < 5e-4

    def test_ss1_reference_values_with_wider_tolerance(self, pop1, pop2):
        # input rounding in the published table leaves ~0.8% drift
        assert abs(min_mse_ss1(pop1) - 485969.06) / 485969.06 < 1e-2
        assert abs(min_mse_ss1(pop2) - 495484.97) / 495484.97 < 1e-2

    def test_ss4_reference_values_at_unit_exponent(self, pop1, pop2):
        assert abs(min_mse_ss4_at(pop1, 1.0) - 480458.97) / 480458.97 < 5e-4
        assert abs(min_mse_ss4_at(pop2, 1.0) - 454616.15) / 454616.15 < 5e-4

    def test_unit_exponent_recovered_by_root_find(self, pop1):
        """Bisection on the oracle's exponent against the published value
        lands at 1."""
        target = 480458.97
        lo, hi = 0.5, 1.5  # the oracle is strictly decreasing in delta here
        for _ in range(80):
            mid = (lo + hi) / 2
            if min_mse_ss4_at(pop1, mid) > target:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2 - 1.0) < 0.01

    def test_ss4_is_the_oracle_at_unit_exponent(self, pop1, pop2):
        rng = np.random.default_rng(12)
        for p in [pop1, pop2] + [draw_params(rng) for _ in range(200)]:
            if p.gamma * p.cv_x**2 < 1.0:
                row = table_rows(p, ["M_d4"])[0]
                assert math.isclose(row.analytic_mse, min_mse_ss4_at(p, 1.0), rel_tol=1e-13)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_ss4_row_matches_the_oracle(self, data):
        """Over valid vectors with |rho_c| <= 0.95, as in ``draw_params``,
        and gamma * cv_x^2 drawn over (0, 3], the M_d4 MSE is the oracle
        within 1e-13 relative where u = 1 - gamma * cv_x^2 >= 0.05, and both
        raise where u <= 0.  The minimum u My^2 v / (u + v) is a difference
        of terms of order My^2, so its rounding grows like 1 / u near 0."""
        N = data.draw(st.integers(2, 10_000), label="N")
        n = data.draw(st.integers(1, N - 1), label="n")
        my, mx = (data.draw(st.floats(1e-2, 1e4), label=name) for name in ("My", "Mx"))
        gamma = (1.0 / n - 1.0 / N) / 4.0
        cv_x = math.sqrt(data.draw(st.floats(1e-6, 3.0), label="gamma*cv_x^2") / gamma)
        cv_y = data.draw(st.floats(0.1, 30.0), label="cv_y")
        rho = data.draw(st.floats(-0.95, 0.95), label="rho_c")
        p = MedianParams(N, n, my, mx, 1.0 / (my * cv_y), 1.0 / (mx * cv_x), rho)
        u = 1.0 - p.gamma * p.cv_x**2
        spec = preset("M_d4")
        if u <= 0.0:
            with pytest.raises(DomainError, match=r"^need 1 - gamma\*cv_x\^2 > 0, got "):
                analytic_figures(p, [spec])
            with pytest.raises(DomainError):
                min_mse_ss4_at(p, 1.0)
            return
        ((mse, _),) = analytic_figures(p, [spec])
        assert math.isclose(mse, min_mse_ss4_at(p, 1.0), rel_tol=1e-13 * max(1.0, 0.05 / u))

    def test_ss4_precondition(self):
        # gamma * cv_x^2 = 0.125 * 10^2 = 12.5
        p = MedianParams(2, 1, 1.0, 1.0, 0.1, 0.1, 0.3)
        with pytest.raises(DomainError, match=r"^need 1 - gamma\*cv_x\^2 > 0, got -11\.5$"):
            table_rows(p, ["M_d4"])

    def test_ss3_degenerate_pivot_warns_and_returns_zero(self):
        with pytest.warns(DegeneratePivotWarning):
            assert min_mse_ss3(_flat_params()) == 0.0

    def test_ss2_below_difference_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = draw_params(rng)
            if min_mse_difference(p) > 0:
                assert min_mse_ss2(p) < min_mse_difference(p)


class TestQuadraticWeights:
    def test_pop1_constants(self, pop1):
        qw = quadratic_weights(pop1, alpha=1.0, eta=1.0, lam=0.0)
        assert abs(qw.A - 1651542) / 1651542 < 5e-4
        assert abs(qw.B - 565442) / 565442 < 5e-4
        assert abs(qw.C - (-787104)) / 787104 < 5e-4

    def test_zero_gap_zero_weights(self):
        qw = quadratic_weights(_flat_params(), alpha=1.0, eta=0.0, lam=1.0)
        assert qw.w1_opt == 0.0 and qw.w2_opt == 0.0

    def test_B_is_auxiliary_median_variance(self, pop1):
        qw = quadratic_weights(pop1, alpha=0.3, eta=2.0, lam=0.4)
        m = error_moments(pop1)
        assert math.isclose(qw.B, pop1.median_x**2 * m.var_e1, rel_tol=1e-15)

    def test_grid_never_beats_closed_form(self):
        """Coarse-plus-refined grid search over (w1, w2) never undercuts the
        closed-form minimum by more than 1e-6 relative."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = draw_params(rng)
            alpha = float(rng.uniform(-2, 2))
            eta = float(rng.uniform(-2, 2))
            lam = float(rng.uniform(0.1, 3.0))
            qw = quadratic_weights(p, alpha=alpha, eta=eta, lam=lam)
            assert qw.A >= p.median_gap**2
            assert qw.B > 0
            closed = tm_min_from_weights(p, alpha=alpha, eta=eta, lam=lam)
            w = np.linspace(-2.0, 2.0, 101)
            w1, w2 = np.meshgrid(w, w, indexing="ij")
            for _ in range(4):
                grid = tm_mse_at(p, w1, w2, alpha=alpha, eta=eta, lam=lam)
                i, j = np.unravel_index(np.argmin(grid), grid.shape)
                c1, c2 = w1[i, j], w2[i, j]
                span = (w1.max() - w1.min()) / 10
                w1, w2 = np.meshgrid(
                    np.linspace(c1 - span, c1 + span, 41),
                    np.linspace(c2 - span, c2 + span, 41),
                    indexing="ij",
                )
            best = float(grid.min())
            assert best >= closed - 1e-6 * max(abs(closed), 1e-12)

    def test_degenerate_optimum_detected(self):
        # zero gap plus perfect concordance collapses A*B - C^2 to zero; the
        # zero weights then have no first-order error, a minimum of the MSE
        p = MedianParams(100, 10, 50.0, 50.0, 0.01, 0.01, 1.0)
        with pytest.raises(DegenerateOptimumError):
            quadratic_weights(p, alpha=p.k_c, eta=0.0, lam=1.0)
        spec = resolve_weights(preset("t_m", p), p)
        assert (spec.w1, spec.w2) == (0.0, 0.0)


class TestTwoWeightClassMinimum:
    def test_reference_values(self, pop1, pop2):
        assert abs(min_mse_tm(pop1) - 3229.34) / 3229.34 < 5e-4
        assert abs(min_mse_tm(pop2) - 51355.17) / 51355.17 < 5e-4

    def test_equals_convex_shrinkage_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = draw_params(rng)
            tm, ss3 = min_mse_tm(p), min_mse_ss3(p)
            assert abs(tm - ss3) <= 1e-12 * max(abs(ss3), 1e-300)

    def test_independent_of_class_scalars(self, pop1, pop2):
        """The weight-elimination route evaluated at 50 random scalar triples
        returns one value, matching the closed form to 1e-9 relative."""
        rng = np.random.default_rng(6)
        for p in (pop1, pop2):
            reference = min_mse_tm(p)
            values = []
            for _ in range(50):
                alpha = float(rng.uniform(-2, 2))
                eta = float(rng.uniform(-2, 2))
                lam = float(rng.uniform(0.1, 3.0))
                values.append(tm_min_from_weights(p, alpha=alpha, eta=eta, lam=lam))
            spread = (max(values) - min(values)) / reference
            assert spread < 1e-9
            assert abs(values[0] - reference) / reference < 1e-9

    def test_degenerate_pivot(self):
        with pytest.warns(DegeneratePivotWarning):
            assert min_mse_tm(_flat_params()) == 0.0


class TestSingleWeightClassMinimum:
    def test_pop1_preset7(self, pop1):
        got = min_mse_tmq(pop1, alpha=0.0, eta=pop1.median_x, lam=pop1.rho_c)
        # frozen from direct b^2 W/(b^2+W) arithmetic; published table prints 3232.56
        assert abs(got - 3232.26) < 0.05
        assert abs(got - 3232.56) / 3232.56 < 0.015

    def test_pop1_preset4(self, pop1):
        got = min_mse_tmq(pop1, alpha=1.0, eta=1.0, lam=0.0)
        # frozen from direct arithmetic; published table prints 3267.43
        assert abs(got - 3242.61) < 0.05
        assert abs(got - 3267.43) / 3267.43 < 0.015

    def test_slope_minimised_at_concordance_ratio(self):
        """Grid search over the total slope confirms the optimum at k_c."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = draw_params(rng)
            grid = np.linspace(p.k_c - 0.5, p.k_c + 0.5, 10001)
            values = np.array(
                [min_mse_tmq(p, alpha=float(a), eta=0.0, lam=1.0) for a in grid]
            )
            assert abs(grid[int(np.argmin(values))] - p.k_c) <= 1e-4 + 1e-12

    def test_zero_gap_returns_zero(self):
        with pytest.warns(DegeneratePivotWarning):
            assert min_mse_tmq(_flat_params(), alpha=1.0, eta=0.0, lam=1.0) == 0.0

    def test_matches_single_weight_grid(self, pop1):
        closed = min_mse_tmq(pop1, alpha=1.0, eta=1.0, lam=1.0)
        w1 = np.linspace(-2, 2, 4001)
        coarse = tm_mse_at(pop1, w1, 0.0, alpha=1.0, eta=1.0, lam=1.0)
        c = w1[int(np.argmin(coarse))]
        w1 = np.linspace(c - 2e-3, c + 2e-3, 401)
        refined = tm_mse_at(pop1, w1, 0.0, alpha=1.0, eta=1.0, lam=1.0)
        assert float(refined.min()) >= closed - 1e-9 * closed
        assert abs(float(refined.min()) - closed) / closed < 1e-6


class TestAnalyticBias:
    def test_exact_weights_unbiased(self, pop1):
        spec = EstimatorSpec(
            family="ratio_exp", w1=1.0, w2=0.0, alpha=0.0, eta=0.0, lam=1.0
        )
        assert bias_from_coeffs(coeffs_of(spec, pop1), error_moments(pop1)) == 0.0

    def test_convex_shrinkage_unbiased_at_unit_weight(self, pop1):
        spec = EstimatorSpec(family="shrink_convex", d1=1.0, d2=0.37)
        assert bias_from_coeffs(coeffs_of(spec, pop1), error_moments(pop1)) == 0.0

    def test_ratio_bias_value(self, pop1):
        spec = EstimatorSpec(family="power_ratio", alpha=1.0)
        got = bias_from_coeffs(coeffs_of(spec, pop1), error_moments(pop1))
        expected = pop1.median_y * pop1.gamma * (
            pop1.cv_x**2 - pop1.rho_c * pop1.cv_y * pop1.cv_x
        )
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert abs(got - 246.83) < 0.01

    def test_free_weights_rejected(self, pop1):
        with pytest.raises(DomainError):
            coeffs_of(preset("M_d", pop1), pop1)


class TestPre:
    def test_equal_is_hundred(self):
        assert pre(565443.57, 565443.57) == 100.0

    def test_division(self):
        assert math.isclose(pre(3229.34, 565443.57), 100 * 565443.57 / 3229.34)

    def test_zero_mse_flagged(self):
        with pytest.warns(InfiniteEfficiencyWarning):
            assert pre(0.0, 1.0) == math.inf

    def test_rounding_residue_counts_as_zero(self):
        for residue in (1e-12 * 22.5, -1e-12 * 22.5):
            with pytest.warns(InfiniteEfficiencyWarning):
                assert pre(residue, 22.5) == math.inf
        assert pre(2e-12 * 22.5, 22.5) == pytest.approx(5e13)
        with pytest.raises(DomainError, match="nonnegative"):
            pre(-2e-12 * 22.5, 22.5)

    def test_zero_gap_perfect_concordance_rows(self):
        """b = 0, rho_c = 1: M_d and M_d2 leave a 7.1e-15 residue, PRE inf."""
        p = MedianParams(1000, 100, 80.0, 80.0, 0.01, 0.012, 1.0)
        with pytest.warns(InfiniteEfficiencyWarning):
            rows = {r.estimator: r for r in table_rows(p, ["M_d", "M_d2"])}
        for row in rows.values():
            assert 0.0 < row.analytic_mse < 1e-12
            assert row.pre_vs_sample_median == math.inf


class TestDominance:
    def test_both_populations_pass_all_checks(self, pop1, pop2):
        for p in (pop1, pop2):
            results = dominance_checks(p)
            assert all(r.satisfied for r in results)

    def test_margins_match_table_differences(self, pop1):
        results = {r.name: r for r in dominance_checks(pop1)}
        expected = min_mse_difference(pop1) - min_mse_tm(pop1)
        assert math.isclose(
            results["tm_vs_difference"].margin, expected, rel_tol=1e-12
        )

    def test_degenerate_pivot_flagged(self):
        p = _flat_params()
        results = {r.name: r for r in dominance_checks(p)}
        check = results["tm_vs_difference"]
        assert check.note.startswith("degenerate pivot")
        # the two-weight side collapses to zero, so the margin is the bound itself
        assert math.isclose(check.margin, min_mse_difference(p), rel_tol=1e-12)

    def test_preset_scalars_accepted(self, pop1):
        spec = preset("t_mq7", pop1)
        results = dominance_checks(
            pop1, tmq_scalars=(spec.alpha, spec.eta, spec.lam)
        )
        assert all(r.satisfied for r in results)

    def test_margins_are_table_differences(self, pop1, pop2):
        """compare and table read one route: each margin is exactly the
        difference of the two table values it compares."""
        rng = np.random.default_rng(9)
        names = ["M_d", "M_d2", "M_d4", "t_m", "t_mq7"]
        for p in [pop1, pop2] + [draw_params(rng) for _ in range(200)]:
            spec = preset("t_mq7", p)
            scalars = (spec.alpha, spec.eta, spec.lam)
            checks = dominance_checks(p, tmq_scalars=scalars)
            margins = {c.name: c.margin for c in checks}
            mse = {r.estimator: r.analytic_mse for r in table_rows(p, names)}
            assert margins == {
                "tm_vs_difference": mse["M_d"] - mse["t_m"],
                "tmq_vs_difference": mse["M_d"] - mse["t_mq7"],
                "tm_vs_shrink_diff": mse["M_d2"] - mse["t_m"],
                "shrink_scaled_vs_shrink_diff": mse["M_d2"] - mse["M_d4"],
                "tm_vs_shrink_scaled": mse["M_d4"] - mse["t_m"],
            }


def _tmq_scalars(p: MedianParams, kind: str, rng: np.random.Generator):
    if kind == "default":
        return (p.k_c, 0.0, 1.0)
    if kind == "t_mq7":
        spec = preset("t_mq7", p)
        return (spec.alpha, spec.eta, spec.lam)
    return tuple(float(v) for v in rng.uniform((-2, -2, 0.1), (2, 2, 3.0)))


def _assert_catalogue_matches_oracles(p: MedianParams, scalars) -> None:
    """Catalogue minima equal the closed forms within 1e-12 relative, and
    dominance_checks gives the verdicts the closed-form margins give.

    Margins are not compared at 1e-12: they cancel, and the two routes put
    them up to 2.4e-8 relative apart on random params.
    """
    alpha, eta, lam = scalars
    moments = error_moments(p)
    specs = {
        "M_d": preset("M_d"),
        "t_m": preset("t_m"),
        "M_d2": preset("M_d2"),
        "tmq": EstimatorSpec(family="ratio_exp", w2=0.0, alpha=alpha, eta=eta, lam=lam),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePivotWarning)
        oracle = {
            "M_d": min_mse_difference(p),
            "t_m": min_mse_tm(p),
            "M_d2": min_mse_ss2(p),
            "tmq": min_mse_tmq(p, alpha=alpha, eta=eta, lam=lam),
        }
    baseline = p.gamma * p.median_y**2 * p.cv_y**2
    for name, spec in specs.items():
        got = mse_from_coeffs(coeffs_of(resolve_weights(spec, p), p), moments)
        want = oracle[name]
        # where a closed form is exactly 0 the catalogue leaves a rounding
        # residue, of order 1e-16 of the sample-median variance
        assert abs(got - want) <= 1e-12 * (abs(want) if want else baseline), name

    o, m_ss4 = oracle, min_mse_ss4_at(p, 1.0)
    oracle_margins = {
        "tm_vs_difference": (o["M_d"] - o["t_m"], o["M_d"]),
        "tmq_vs_difference": (o["M_d"] - o["tmq"], o["M_d"]),
        "tm_vs_shrink_diff": (o["M_d2"] - o["t_m"], o["M_d2"]),
        "shrink_scaled_vs_shrink_diff": (o["M_d2"] - m_ss4, o["M_d2"]),
        "tm_vs_shrink_scaled": (m_ss4 - o["t_m"], m_ss4),
    }
    for check in dominance_checks(p, tmq_scalars=scalars):
        margin, scale = oracle_margins[check.name]
        tie = abs(margin) <= 1e-12 * max(1.0, abs(scale))
        assert check.satisfied == (None if tie else margin > 0.0), check.name


class TestCatalogueAgreesWithOracles:
    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("default", "t_mq7", "random")),
    )
    def test_random_params(self, seed, kind):
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        _assert_catalogue_matches_oracles(p, _tmq_scalars(p, kind, rng))

    @pytest.mark.parametrize("rho_c", [0.3, 1.0])
    @pytest.mark.parametrize("kind", ["default", "t_mq7", "random"])
    def test_coinciding_medians(self, rho_c, kind):
        """b = 0, also with |rho_c| = 1 where the optima take their limit."""
        p = MedianParams(1000, 100, 80.0, 80.0, 0.01, 0.012, rho_c)
        scalars = _tmq_scalars(p, kind, np.random.default_rng(10))
        _assert_catalogue_matches_oracles(p, scalars)


class TestTableRows:
    def test_all_row_set(self, pop1):
        rows = table_rows(pop1)
        assert tuple(r.estimator for r in rows) == TABLE_ALL_IDS

    def test_two_weight_and_convex_rows_agree(self, pop2):
        rows = {r.estimator: r for r in table_rows(pop2, ["t_m", "M_d3"])}
        assert rows["t_m"].analytic_mse == rows["M_d3"].analytic_mse

    def test_baseline_row_pre_is_hundred(self, pop1):
        row = table_rows(pop1, ["M_y"])[0]
        assert row.pre_vs_sample_median == 100.0
        assert row.analytic_bias == 0.0

    def test_unknown_estimator(self, pop1):
        with pytest.raises(UnknownEstimatorError):
            table_rows(pop1, ["nope"])

    @pytest.mark.parametrize(
        "values, error, message",
        [
            # var(e1) underflows to 0, so the normal equations in d2 are singular
            ({"median_y": 0.5, "fx_at_median": 1e300}, DegenerateOptimumError,
             "optimal {} undefined: normal-equation determinant 0.0 is not positive"),
            ({"median_y": 1, "fx_at_median": 1e-300, "rho_c": -1}, DomainError,
             "cv_x = 4.9726504226752854e+296 is too large: its square overflows"),
        ],
    )
    @pytest.mark.parametrize("ids", [["M_d"], ["M_d2"], ["M_d3"], None])
    def test_extreme_parameters_raise_package_errors(
        self, pop1, values, error, message, ids
    ):
        params = replace(pop1, **values)
        with pytest.raises(error) as info:
            table_rows(params, ids) if ids else dominance_checks(params)
        # the dominance checks resolve M_d first
        free = free_scalars(preset(ids[0] if ids else "M_d"))
        assert str(info.value) == message.format(", ".join(free))

    @pytest.mark.parametrize(
        "values, ids, message",
        [
            # the optimal damping k_c squares past the range in M_4's coefficients
            ({"median_y": 1e-300, "median_x": 1e-160, "fy_at_median": 1e160,
              "fx_at_median": 1e300, "rho_c": -1}, ["M_4"],
             "beta = -1e+280 is too large: its square overflows"),
            ({"median_y": 1e160, "median_x": 1e-300, "fy_at_median": 1e-300,
              "fx_at_median": 1e160, "rho_c": -1}, ["M_d4"],
             "median_y = 1e+160 is too large: its square overflows"),
        ],
    )
    def test_squares_past_the_float_range_raise_package_errors(
        self, pop1, values, ids, message
    ):
        with pytest.raises(DomainError) as info:
            table_rows(replace(pop1, **values), ids)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "values, call, error, message",
        [
            # table reaches none of these: an earlier row or check fails first
            ({"median_y": 1e160}, lambda p: resolve_weights(preset("t_m"), p),
             DomainError, "median_y = 1e+160 is too large: its square overflows"),
            ({"median_y": 1e-300, "fy_at_median": 1e300},
             lambda p: resolve_weights(preset("M_d4"), p), DegenerateOptimumError,
             "optimal d1, d2 undefined: normal-equation determinant 0.0 is not positive"),
            ({"median_y": 1e160}, sample_median_mse,
             DomainError, "median_y = 1e+160 is too large: its square overflows"),
        ],
    )
    def test_optima_and_baseline_raise_package_errors(
        self, pop1, values, call, error, message
    ):
        with pytest.raises(error) as info:
            call(replace(pop1, **values))
        assert str(info.value) == message

    def test_extreme_parameter_grid_raises_only_package_errors(self):
        """Every valid vector over seven magnitudes per primitive either
        gives its table and dominance checks or raises a package error."""
        magnitudes = (1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e160, 1e300)
        valid = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfiniteEfficiencyWarning)
            for primitives in itertools.product(magnitudes, repeat=4):
                for rho_c in (-1.0, 0.3, 1.0):
                    try:
                        p = MedianParams(100, 10, *primitives, rho_c)
                    except MedauxError:
                        continue
                    valid += 1
                    for check in (table_rows, dominance_checks):
                        try:
                            check(p)
                        except MedauxError:
                            pass
        assert valid == 4107

    def test_extreme_parameter_grid_refuses_no_vector_for_its_moments(self):
        """The error moments of a valid vector obey the covariance bound by the
        algebra, so no row or check of the grid above fails on that bound."""
        magnitudes = (1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e160, 1e300)
        refused = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfiniteEfficiencyWarning)
            for primitives in itertools.product(magnitudes, repeat=4):
                for rho_c in (-1.0, 0.3, 1.0):
                    try:
                        p = MedianParams(100, 10, *primitives, rho_c)
                    except MedauxError:
                        continue
                    for check in (table_rows, dominance_checks):
                        try:
                            check(p)
                        except MedauxError as exc:
                            if str(exc).startswith("|cov|"):
                                refused.append((check.__name__, primitives, rho_c))
        assert refused == []

    def test_underflowing_moments_keep_their_rows(self):
        # var_e0 * var_e1 underflows to 0 here
        (row,) = table_rows(MedianParams(1000, 100, 1.0, 1.0, 1e85, 1e85, 0.5), ["M_y"])
        assert row.analytic_mse == 2.25e-173
        # and var_e0 itself underflows to 0 here
        p = MedianParams(1000, 100, 1e81, 1.0, 1e81, 1e-150, 0.5)
        with pytest.warns(InfiniteEfficiencyWarning):
            (row,) = table_rows(p, ["M_y"])
        assert (row.estimator, row.analytic_mse) == ("M_y", 0.0)
        with pytest.raises(DomainError) as info:
            table_rows(p, ["t_m"])
        assert str(info.value) == "scalar 'w1' must be finite"

    def test_classical_rows_collapse_to_difference_bound(self, pop1):
        for name in ("M_1", "M_2", "M_3", "M_4", "M_5", "M_6", "M_7", "M_lr"):
            row = table_rows(pop1, [name])[0]
            assert math.isclose(
                row.analytic_mse, min_mse_difference(pop1), rel_tol=1e-12
            )

    def test_rows_follow_the_catalogue_route(self, pop1, pop2):
        """Every row is the first-order MSE and bias of the resolved preset,
        exactly; the MSE of M_d4 adds its family's cross term 2 c0 (bias - c0)."""
        rng = np.random.default_rng(8)
        for p in [pop1, pop2] + [draw_params(rng) for _ in range(20)]:
            moments = error_moments(p)
            baseline = p.gamma * p.median_y**2 * p.cv_y**2
            for row, name in zip(table_rows(p, PRESET_NAMES), PRESET_NAMES):
                coeffs = coeffs_of(resolve_weights(preset(name, p), p), p)
                mse = mse_from_coeffs(coeffs, moments)
                bias = bias_from_coeffs(coeffs, moments)
                if name == "M_d4":
                    mse += 2.0 * coeffs.c0 * (bias - coeffs.c0)
                assert row.estimator == name
                assert row.analytic_mse == mse, name
                assert row.analytic_bias == bias, name
                assert row.pre_vs_sample_median == pre(mse, baseline), name

    def test_scaled_shrinkage_row_is_paper_formula(self, pop1, pop2):
        for p in (pop1, pop2):
            row = table_rows(p, ["M_d4"])[0]
            assert math.isclose(row.analytic_mse, min_mse_ss4_at(p, 1.0), rel_tol=1e-13)
            coeffs = coeffs_of(resolve_weights(preset("M_d4"), p), p)
            assert row.analytic_bias == bias_from_coeffs(coeffs, error_moments(p))

    @pytest.mark.parametrize(
        "pop, d1, d2",
        [("pop1", 0.8693935561368112, -0.6288836433378847),
         ("pop2", 0.8935662797721842, 1.921369809624673)],
    )
    def test_scaled_shrinkage_weights(self, request, pop, d1, d2):
        # the minimiser of M_d4's objective: d1 = u / (u + v) and
        # d2 = (My / Mx) * (1 - d1 * (2 - rho_c * cv_y / cv_x)), with
        # u = 1 - gamma cv_x^2 and v = gamma cv_y^2 (1 - rho_c^2)
        p = request.getfixturevalue(pop)
        spec = resolve_weights(preset("M_d4"), p)
        u = 1.0 - p.gamma * p.cv_x**2
        v = p.gamma * p.cv_y**2 * (1.0 - p.rho_c**2)
        slope = 2.0 - p.rho_c * p.cv_y / p.cv_x
        assert math.isclose(u / (u + v), d1, rel_tol=1e-12)
        assert math.isclose(p.median_y / p.median_x * (1.0 - d1 * slope), d2, rel_tol=1e-12)
        assert math.isclose(spec.d1, d1, rel_tol=1e-12)
        assert math.isclose(spec.d2, d2, rel_tol=1e-12)

    def test_free_scaled_shrinkage_gets_the_paper_formula_under_any_label(
        self, pop1, pop2
    ):
        spec = EstimatorSpec(family="shrink_diff_scaled", label="ss")
        for p in (pop1, pop2):
            assert analytic_figures(p, [spec]) == analytic_figures(p, [preset("M_d4")])

    def test_pinned_scaled_shrinkage_gets_its_coefficient_figures(self, pop1):
        # pinned weights read the family's objective at those weights
        spec = EstimatorSpec(family="shrink_diff_scaled", label="M_d4", d1=0.9, d2=0.2)
        coeffs, moments = coeffs_of(spec, pop1), error_moments(pop1)
        bias = bias_from_coeffs(coeffs, moments)
        mse = mse_from_coeffs(coeffs, moments) + 2.0 * coeffs.c0 * (bias - coeffs.c0)
        assert analytic_figures(pop1, [spec]) == [(mse, bias)]

    def test_resolved_bias_columns(self, pop1):
        rows = {r.estimator: r for r in table_rows(pop1, ["M_d2", "M_d3", "t_mq7"])}
        spec2 = resolve_weights(preset("M_d2", pop1), pop1)
        assert math.isclose(
            rows["M_d2"].analytic_bias, (spec2.d1 - 1.0) * pop1.median_y, rel_tol=1e-12
        )
        assert rows["M_d3"].analytic_bias is not None
        assert rows["t_mq7"].analytic_bias is not None
