"""Estimator catalogue: evaluation, expansion coefficients and presets."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from medaux import (
    PRESET_NAMES,
    DomainError,
    EstimatorSpec,
    MedianParams,
    SampleStats,
    SingularityError,
    UnknownEstimatorError,
    analytic_figures,
    coeffs_of,
    error_moments,
    evaluate,
    free_scalars,
    mse_from_coeffs,
    preset,
    resolve_weights,
)
from medaux.arith import FLOATS
from medaux.estimators import (
    _FAMILY_FIELDS,
    _PRESETS,
    _SLOPE_OPTIMA,
    FAMILIES,
    point_value,
)

from conftest import draw_params
from oracles import min_mse_difference, min_mse_ss2, min_mse_ss3, min_mse_tmq


def _known(median_x: float = 100.0) -> MedianParams:
    return MedianParams(
        1000, 100, 120.0, median_x, 1 / (120 * 1.1), 1 / (median_x * 0.9), 0.4
    )


# the families whose weights solve the normal equations of their coefficients
NORMAL_EQUATION_FAMILIES = sorted(
    family for family, (weights, _) in _FAMILY_FIELDS.items()
    if weights and family not in _SLOPE_OPTIMA
)
TWO_WEIGHT_FAMILIES = sorted(
    family for family, (weights, _) in _FAMILY_FIELDS.items() if len(weights) == 2
)
_unit = st.floats(-2.0, 2.0)
# eta >= 0 and lam > 0 keep both exponential denominators away from zero
_STRUCTURAL = {"alpha": _unit, "eta": st.floats(0.0, 3.0), "lam": st.floats(0.01, 5.0)}


@st.composite
def _scalars(draw, family: str) -> dict:
    """Every weight and structural scalar of ``family``, drawn at random."""
    weights, structural = _FAMILY_FIELDS[family]
    scalars = {name: draw(_unit) for name in weights}
    scalars.update({name: draw(_STRUCTURAL[name]) for name in structural})
    return scalars


def _typed_fields(spec: EstimatorSpec) -> dict:
    return {k: (type(v), v) for k, v in vars(spec).items()}


def _validated_preset(name: str, params: MedianParams) -> EstimatorSpec:
    """The preset through the dataclass's validating constructor, its pulled
    scalars read from ``params``."""
    family, pinned = _PRESETS[name]
    return EstimatorSpec(family=family, label=name, **{
        field: getattr(params, value) if isinstance(value, str) else value
        for field, value in pinned.items()
    })


def _random_stats(rng: np.random.Generator) -> SampleStats:
    return SampleStats(
        median_y=float(rng.uniform(10.0, 500.0)),
        median_x=float(rng.uniform(10.0, 500.0)),
    )


class TestEvaluate:
    def test_ratio_identity_when_sample_hits_known_median(self):
        known = _known()
        stats = SampleStats(median_y=77.0, median_x=known.median_x)
        spec = EstimatorSpec(family="power_ratio", alpha=1.0)
        assert evaluate(spec, stats, known) == 77.0

    def test_weighted_class_doubles_under_half_auxiliary(self):
        known = _known(median_x=100.0)
        spec = EstimatorSpec(
            family="ratio_exp", w1=1.0, w2=0.0, alpha=1.0, eta=0.0, lam=1.0
        )
        stats = SampleStats(median_y=100.0, median_x=50.0)
        assert evaluate(spec, stats, known) == 200.0

    def test_convex_shrinkage_collapses_to_sample_median(self):
        known = _known()
        spec = EstimatorSpec(family="shrink_convex", d1=1.0, d2=0.0)
        stats = SampleStats(median_y=42.5, median_x=3.0)
        assert evaluate(spec, stats, known) == 42.5

    def test_ratio_zero_sample_median_is_singular(self):
        known = _known()
        stats = SampleStats(median_y=1.0, median_x=0.0)
        with pytest.raises(SingularityError, match="sample median of x"):
            evaluate(EstimatorSpec(family="power_ratio", alpha=1.0), stats, known)

    def test_exponential_denominator_singularity(self):
        known = _known(median_x=100.0)
        # eta*(Mx + mx) + 2*lam = 0 at mx = 100, eta = 1, lam = -100
        spec = EstimatorSpec(
            family="ratio_exp", w1=1.0, w2=0.0, alpha=0.0, eta=1.0, lam=-100.0
        )
        stats = SampleStats(median_y=1.0, median_x=100.0)
        with pytest.raises(SingularityError, match="exponential"):
            evaluate(spec, stats, known)

    def test_scaled_shrinkage_denominator_singularity(self):
        known = _known()
        spec = EstimatorSpec(family="shrink_diff_scaled", d1=1.0, d2=0.0)
        stats = SampleStats(median_y=1.0, median_x=0.0)
        with pytest.raises(SingularityError, match="sample median of x is zero"):
            evaluate(spec, stats, known)

    def test_shifted_product_shift_at_known_median(self):
        known = _known(median_x=100.0)
        spec = EstimatorSpec(family="shifted_product", shift=100.0)
        with pytest.raises(SingularityError):
            evaluate(spec, SampleStats(median_y=1.0, median_x=2.0), known)

    def test_unresolved_weights_rejected(self):
        known = _known()
        with pytest.raises(DomainError, match="unresolved"):
            evaluate(
                EstimatorSpec(family="shrink_diff", d1=1.0),
                SampleStats(median_y=1.0, median_x=2.0),
                known,
            )

    def test_regression_requires_sample_extras(self):
        known = _known()
        with pytest.raises(DomainError):
            evaluate(
                EstimatorSpec(family="regression"),
                SampleStats(median_y=1.0, median_x=2.0),
                known,
            )

    def test_regression_slope(self):
        known = _known()
        stats = SampleStats(
            median_y=10.0, median_x=90.0, p11=0.4, fy_at_median=0.02, fx_at_median=0.04
        )
        # d_hat = (0.04/0.02)*(4*0.4 - 1) = 1.2
        got = evaluate(EstimatorSpec(family="regression"), stats, known)
        assert math.isclose(got, 10.0 + 1.2 * (100.0 - 90.0), rel_tol=1e-15)


class TestReductionLattice:
    def test_exact_reductions(self):
        known = _known(median_x=321.0)
        rng = np.random.default_rng(42)
        lam = 0.7
        for _ in range(2000):
            stats = _random_stats(rng)
            base = {"w1": 1.0, "w2": 0.0, "eta": 0.0, "lam": lam}
            tm = lambda alpha: evaluate(
                EstimatorSpec(family="ratio_exp", alpha=alpha, **base), stats, known
            )
            assert tm(0.0) == stats.median_y
            ratio = EstimatorSpec(family="power_ratio", alpha=1.0)
            product = EstimatorSpec(family="power_ratio", alpha=-1.0)
            assert tm(1.0) == evaluate(ratio, stats, known)
            assert tm(-1.0) == evaluate(product, stats, known)

    def test_two_weight_class_matches_convex_shrinkage(self):
        known = _known(median_x=321.0)
        rng = np.random.default_rng(43)
        for _ in range(2000):
            stats = _random_stats(rng)
            w1, w2 = rng.uniform(-2, 2, size=2)
            tm = evaluate(
                EstimatorSpec(
                    family="ratio_exp", w1=w1, w2=w2, alpha=0.0, eta=0.0, lam=1.0
                ),
                stats,
                known,
            )
            ss3 = evaluate(
                EstimatorSpec(family="shrink_convex", d1=w1, d2=w2), stats, known
            )
            assert tm == ss3


class TestScaleBehaviour:
    def test_auxiliary_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            stats = _random_stats(rng)
            c = float(rng.uniform(0.5, 3.0))
            for build in (
                lambda: EstimatorSpec(family="power_ratio", alpha=1.0),
                lambda: EstimatorSpec(family="power_ratio", alpha=0.7),
                lambda: EstimatorSpec(
                    family="ratio_exp", w1=1.0, w2=0.0, alpha=1.0, eta=2.0, lam=0.0
                ),
            ):
                known = _known(median_x=200.0)
                known_scaled = _known(median_x=200.0 * c)
                scaled_stats = SampleStats(
                    median_y=stats.median_y, median_x=stats.median_x * c
                )
                a = evaluate(build(), stats, known)
                b = evaluate(build(), scaled_stats, known_scaled)
                assert math.isclose(a, b, rel_tol=1e-12)

    def test_study_scale_equivariance(self):
        rng = np.random.default_rng(12)
        known = _known(median_x=200.0)
        specs = [
            EstimatorSpec(family="power_ratio", alpha=1.0),
            EstimatorSpec(family="power_ratio", alpha=1.3),
            EstimatorSpec(family="dual_power", v=0.5),
            EstimatorSpec(
                family="ratio_exp", w1=1.0, w2=0.0, alpha=1.0, eta=1.0, lam=2.0
            ),
        ]
        for _ in range(200):
            stats = _random_stats(rng)
            c = float(rng.uniform(0.5, 3.0))
            scaled = SampleStats(median_y=stats.median_y * c, median_x=stats.median_x)
            for spec in specs:
                assert math.isclose(
                    evaluate(spec, scaled, known),
                    c * evaluate(spec, stats, known),
                    rel_tol=1e-12,
                )


class TestCoeffs:
    def test_sample_median_identity_expansion(self, pop1):
        c = coeffs_of(EstimatorSpec(family="power_ratio", alpha=0.0), pop1)
        assert (c.c0, c.c_e0, c.c_e1, c.c_e1sq, c.c_e0e1) == (
            0.0,
            pop1.median_y,
            0.0,
            0.0,
            0.0,
        )

    def test_unit_weight_kills_constant_term(self, pop1):
        rng = np.random.default_rng(3)
        for _ in range(25):
            alpha, eta = rng.uniform(-2, 2, size=2)
            lam = float(rng.uniform(0.1, 3.0))
            spec = EstimatorSpec(
                family="ratio_exp", w1=1.0, w2=0.0, alpha=alpha, eta=eta, lam=lam
            )
            assert coeffs_of(spec, pop1).c0 == 0.0

    def test_single_weight_slope_scales_with_w1(self, pop1):
        # alpha=1, eta=1, lam=0 gives k=1/2, total slope a=1.5
        for w1 in (0.25, 0.8, 1.5):
            spec = EstimatorSpec(
                family="ratio_exp", w1=w1, w2=0.0, alpha=1.0, eta=1.0, lam=0.0
            )
            c = coeffs_of(spec, pop1)
            assert math.isclose(c.c_e1, -w1 * 2068 * 1.5, rel_tol=1e-12)

    def test_coeffs_match_evaluation_for_all_presets(self, pop1):
        """Tiny perturbations of the sample medians agree with the coefficient
        polynomial to 1e-8 of the median for every resolved preset."""
        rng = np.random.default_rng(17)
        for name in PRESET_NAMES:
            spec = resolve_weights(preset(name, pop1), pop1)
            coeffs = coeffs_of(spec, pop1)
            for _ in range(20):
                e0, e1 = rng.uniform(-1e-5, 1e-5, size=2)
                stats = SampleStats(
                    median_y=pop1.median_y * (1 + e0),
                    median_x=pop1.median_x * (1 + e1),
                    p11=pop1.p11,
                    fy_at_median=pop1.fy_at_median,
                    fx_at_median=pop1.fx_at_median,
                )
                exact = evaluate(spec, stats, pop1) - pop1.median_y
                predicted = (
                    coeffs.c0
                    + coeffs.c_e0 * e0
                    + coeffs.c_e1 * e1
                    + coeffs.c_e1sq * e1 * e1
                    + coeffs.c_e0e1 * e0 * e1
                )
                assert abs(exact - predicted) <= 1e-8 * pop1.median_y


@pytest.mark.parametrize("family", NORMAL_EQUATION_FAMILIES)
@settings(deadline=None, max_examples=50)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_coefficients_are_affine_in_the_free_weights(family, data, seed):
    """The normal equations read (c0, c_e0, c_e1) off at 0 and at unit
    steps, so their second and mixed differences in the free weights, the
    pinned ones held, must vanish up to rounding."""
    params = draw_params(np.random.default_rng(seed))
    scalars = data.draw(_scalars(family), label="scalars")
    free = data.draw(
        st.lists(st.sampled_from(_FAMILY_FIELDS[family][0]), min_size=1, unique=True),
        label="free",
    )
    step = data.draw(st.floats(0.1, 2.0), label="step")

    def v(*moved: str) -> np.ndarray:
        at = dict(scalars)
        for name in moved:
            at[name] += step
        c = coeffs_of(EstimatorSpec(family=family, **at), params)
        return np.array([c.c0, c.c_e0, c.c_e1])

    base = v()
    for i, first in enumerate(free):
        for second in free[i:]:
            points = (v(first, second), v(first), v(second), base)
            difference = points[0] - points[1] - points[2] + points[3]
            scale = max(float(np.abs(p).max()) for p in points)
            assert np.all(np.abs(difference) <= 1e-12 * scale), (
                family, first, second, difference,
            )


# Rounding bound of the affine property below.  From draw_params, My <= 1e4
# and Mx = R My <= 1.9e4 with R in [0.1, 1.9] and cv_y, cv_x in [0.3, 4]; the
# test keeps |my| <= 2.1e4 and mx within Mx/2 of Mx.  So the ratio factors
# (Mx/mx)^a with |a| <= 2 are at most 4, the exponential adjustment at most
# e^(1/3) (eta >= 0 and lam > 0 in _STRUCTURAL), the shift and damping
# factors at most 10, and the regression term
# d_hat (Mx - mx) at most 1600 * 9.5e3 = 1.52e7 (fx/fy <= 4 cv_y/(R cv_x)
# <= 533, |4 p11 - 1| <= 3).  Every partial result that carries my, taken at
# the scale of the output, is then below 2**24, and no family does more than
# 5 operations on it; the my-free factors are bit-identical at the three
# points.  Each point is off by at most 5 * 2**-53 * 2**24, and the second
# difference, weights (1, -2, 1) and exact in Fractions, by 4 times that.
_AFFINE_TOLERANCE = 20 * 2.0**-29


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(deadline=None, max_examples=50)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_point_value_is_affine_in_the_y_median(family, data, seed):
    """Every family is a + b * my with a and b free of my, so the second
    difference of point_value over three equally spaced my is 0 up to
    rounding (the quadratic part of the expansion has no my term)."""
    params = draw_params(np.random.default_rng(seed))
    Mx = params.median_x
    scalars = data.draw(_scalars(family), label="scalars")
    if "shift" in scalars:  # |shift| in [2, 4] Mx keeps both shift factors <= 10
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        scalars["shift"] = sign * data.draw(st.floats(2.0, 4.0), label="shift") * Mx
    if "beta" in scalars:  # Mx + beta (mx - Mx) >= Mx / 2
        scalars["beta"] /= 2.0
    spec = EstimatorSpec(family=family, **scalars)
    mx = Mx * data.draw(st.floats(0.5, 1.5), label="mx / Mx")
    extras = (
        data.draw(st.floats(0.0, 1.0), label="p11"),
        params.fy_at_median * data.draw(st.floats(0.5, 2.0), label="fy scale"),
        params.fx_at_median * data.draw(st.floats(0.5, 2.0), label="fx scale"),
    )
    # integers, so the three medians are exactly equally spaced
    centre = data.draw(st.integers(-20_000, 20_000), label="centre")
    step = data.draw(st.integers(1, 1_000), label="step")
    values = [
        Fraction(point_value(FLOATS, spec, float(my), mx, Mx, extras))
        for my in (centre - step, centre, centre + step)
    ]
    difference = values[0] - 2 * values[1] + values[2]
    assert abs(difference) <= _AFFINE_TOLERANCE, (spec, float(difference))


class TestPresets:
    def test_ratio_preset_fields(self, pop1):
        spec = preset("t_m2", pop1)
        assert (spec.w1, spec.w2, spec.alpha, spec.eta, spec.lam) == (
            1.0,
            0.0,
            1.0,
            0.0,
            1.0,
        )

    def test_tmq7_pulls_population_scalars(self, pop1):
        spec = preset("t_mq7", pop1)
        assert spec.w1 is None
        assert (spec.alpha, spec.eta, spec.lam) == (0.0, 2011.0, 0.1505)

    def test_case_insensitive(self, pop1):
        assert preset("T_MQ7", pop1) == preset("t_mq7", pop1)

    def test_unknown_name(self):
        with pytest.raises(UnknownEstimatorError, match="valid names"):
            preset("t_mq10")

    def test_params_required_for_population_scalars(self):
        with pytest.raises(DomainError):
            preset("t_mq7")

    def test_every_family_has_a_preset(self, pop1):
        assert {preset(name, pop1).family for name in PRESET_NAMES} == FAMILIES

    def test_every_preset_builds(self, pop1, pop2):
        for p in (pop1, pop2):
            assert [preset(name, p).label for name in PRESET_NAMES] == list(PRESET_NAMES)

    def test_presets_equal_their_validated_construction(self, pop1, pop2):
        for p in (pop1, pop2):
            for name in PRESET_NAMES:
                assert _typed_fields(preset(name, p)) == _typed_fields(_validated_preset(name, p))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_pulled_presets_are_valid_for_any_params(self, data):
        # every valid MedianParams, down to subnormal medians and rho_c = +-1
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        n = data.draw(st.integers(1, 10**6), label="n")
        try:
            p = MedianParams(
                data.draw(st.integers(n + 1, 10**7), label="N"), n,
                *(data.draw(positive) for _ in range(4)), data.draw(st.floats(-1.0, 1.0)),
            )
        except DomainError:
            reject()
        for name in PRESET_NAMES:
            assert _typed_fields(preset(name, p)) == _typed_fields(_validated_preset(name, p))

    @pytest.mark.parametrize(
        "family, scalar", [("shrink_diff_scaled", "beta"), ("power_ratio", "w")]
    )
    def test_unread_scalar_rejected(self, family, scalar):
        with pytest.raises(DomainError, match=f"{family} does not read '{scalar}'"):
            EstimatorSpec(family=family, **{scalar: 1.5})

    def test_searched_ratio_presets_have_free_weight(self, pop1):
        for name in ("t_m5", "t_m6", "t_m7"):
            spec = preset(name, pop1)
            assert free_scalars(spec) == ("w1",)

    def test_two_weight_preset_equivalence_with_convex_shrinkage(self, pop1):
        """The anchored two-weight preset evaluates identically to the convex
        shrinkage estimator at equal weights."""
        known = pop1
        rng = np.random.default_rng(23)
        tm8 = preset("t_m8", pop1)
        ss3 = preset("M_d3", pop1)
        for _ in range(500):
            w1, w2 = rng.uniform(-1.5, 1.5, size=2)
            stats = _random_stats(rng)
            lhs = evaluate(
                EstimatorSpec(
                    family=tm8.family, w1=w1, w2=w2, alpha=0.0, eta=0.0, lam=1.0
                ),
                stats,
                known,
            )
            rhs = evaluate(
                EstimatorSpec(family=ss3.family, d1=w1, d2=w2), stats, known
            )
            assert lhs == rhs


class TestResolveWeights:
    def test_difference_optimum(self, pop1):
        spec = resolve_weights(preset("M_d", pop1), pop1)
        expected = pop1.rho_c * pop1.median_y * pop1.cv_y / (
            pop1.median_x * pop1.cv_x
        )
        assert math.isclose(spec.d2, expected, rel_tol=1e-12)

    def test_resolved_specs_hit_family_minima(self, pop1, pop2):
        """The MSE implied by resolved coefficients equals each family's
        closed-form minimum."""
        for params in (pop1, pop2):
            moments = error_moments(params)
            cases = [
                ("M_d", min_mse_difference(params)),
                ("M_3", min_mse_difference(params)),
                ("M_d2", min_mse_ss2(params)),
                ("M_d3", min_mse_ss3(params)),
                ("t_m", min_mse_ss3(params)),
            ]
            for name, expected in cases:
                spec = resolve_weights(preset(name, params), params)
                got = mse_from_coeffs(coeffs_of(spec, params), moments)
                assert math.isclose(got, expected, rel_tol=1e-9), name

    def test_single_weight_optimum_consistency(self, pop1):
        spec = resolve_weights(preset("t_mq7", pop1), pop1)
        got = mse_from_coeffs(coeffs_of(spec, pop1), error_moments(pop1))
        expected = min_mse_tmq(pop1, alpha=0.0, eta=pop1.median_x, lam=pop1.rho_c)
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_zero_gap_zeroes_weights(self):
        p = MedianParams(1000, 100, 80.0, 80.0, 0.01, 0.012, 0.3)
        spec = resolve_weights(preset("t_m", p), p)
        assert spec.w1 == 0.0 and spec.w2 == 0.0

    def test_fixed_spec_passthrough(self, pop1):
        spec = preset("M_r", pop1)
        assert resolve_weights(spec, pop1) is spec

    @staticmethod
    def _assert_local_minimum(spec, field, params):
        """Moving ``field`` by 1e-4 relative never lowers the analytic MSE of
        the spec, its family's objective on its own expansion coefficients."""
        ((best, _),) = analytic_figures(params, [spec])
        value = getattr(spec, field)
        for step in (1e-4, -1e-4):
            moved = replace(spec, **{field: value * (1.0 + step)})
            ((got, _),) = analytic_figures(params, [moved])
            # slack for rounding when the scalar itself is tiny
            assert got >= best - 1e-12 * best, (spec.label, field, step)

    def test_pinned_d1_kept_and_d2_conditionally_optimal(self, pop1):
        spec = resolve_weights(EstimatorSpec(family="shrink_diff", d1=0.5), pop1)
        assert spec.d1 == 0.5
        self._assert_local_minimum(spec, "d2", pop1)

    def test_pinned_w2_kept_and_w1_conditionally_optimal(self, pop1):
        spec = resolve_weights(
            EstimatorSpec(family="ratio_exp", w2=0.3, alpha=1.0, eta=0.0, lam=1.0),
            pop1,
        )
        assert spec.w2 == 0.3
        self._assert_local_minimum(spec, "w1", pop1)

    @pytest.mark.parametrize("pinned", ["first", "second", "neither"])
    @pytest.mark.parametrize("family", TWO_WEIGHT_FAMILIES)
    @settings(deadline=None, max_examples=25)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_conditional_optima(self, family, pinned, data, seed):
        params = draw_params(np.random.default_rng(seed))
        scalars = data.draw(_scalars(family), label="scalars")
        weights, _ = _FAMILY_FIELDS[family]
        for index, name in enumerate(weights):
            if pinned != ("first", "second")[index]:
                scalars[name] = None
        spec = EstimatorSpec(family=family, **scalars)
        resolved = resolve_weights(spec, params)
        free = free_scalars(spec)
        assert len(free) == (2 if pinned == "neither" else 1)
        for name in weights:
            if name not in free:
                assert getattr(resolved, name) == scalars[name]
        for name in free:
            self._assert_local_minimum(resolved, name, params)

    def test_resolved_weights_minimise_catalogue_mse(self, pop1, pop2):
        """Moving any resolved free scalar by 1e-4 relative never lowers the
        analytic MSE of the spec."""
        rng = np.random.default_rng(31)
        for params in [pop1, pop2] + [draw_params(rng) for _ in range(200)]:
            for name in PRESET_NAMES:
                free = free_scalars(preset(name, params))
                spec = resolve_weights(preset(name, params), params)
                for field in free:
                    self._assert_local_minimum(spec, field, params)
