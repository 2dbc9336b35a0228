"""Error-expansion calculus: constants, moments, bias and MSE evaluation."""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medaux import (
    DomainError,
    ErrorMoments,
    EstimatorSpec,
    ExpansionCoeffs,
    MedianParams,
    SampleStats,
    SingularityError,
    bias_from_coeffs,
    coeffs_of,
    error_moments,
    evaluate,
    k_const,
    mse_from_coeffs,
)
from medaux.arith import FLOATS
from medaux.expansion import moment_values


class TestKConst:
    def test_lambda_zero_collapses_to_half(self):
        assert k_const(1.0, 0.0, 2011.0) == 0.5

    def test_eta_zero_is_zero(self):
        assert k_const(0.0, 1.0, 2011.0) == 0.0

    def test_quadratic_eta_preset(self):
        # direct arithmetic: 2011*2011 / (2 * (2011*2011 + 0.1505))
        expected = 2011.0 * 2011.0 / (2.0 * (2011.0 * 2011.0 + 0.1505))
        got = k_const(2011.0, 0.1505, 2011.0)
        assert math.isclose(got, expected, rel_tol=1e-15)
        assert abs(got - 0.4999999814) < 1e-9

    def test_zero_denominator(self):
        with pytest.raises(SingularityError):
            k_const(1.0, -2011.0, 2011.0)


class TestRatioExpCoefficients:
    """The ratio_exp expansion: total slope a = alpha + k, gap My - Mx and
    e1^2 factor d = 1.5*k^2 + alpha*k + alpha*(alpha + 1)/2."""

    @staticmethod
    def _spec(w1, alpha, eta, lam):
        return EstimatorSpec(
            family="ratio_exp", w1=w1, w2=0.0, alpha=alpha, eta=eta, lam=lam
        )

    def test_direct_substitution(self):
        # alpha = 1 and k = 1/2 (eta 1, lam 0): a = 1.5, d = 1.875, gap 60
        p = MedianParams(100, 10, 100.0, 40.0, 0.01, 0.01, 0.0)
        c = coeffs_of(self._spec(0.5, 1.0, 1.0, 0.0), p)
        assert c.c0 == -0.5 * 60.0
        assert c.c_e0 == 0.5 * 100.0
        assert c.c_e1 == c.c_e0e1 == -0.5 * 100.0 * 1.5
        assert c.c_e1sq == 0.5 * 100.0 * 1.875

    def test_all_zero(self):
        p = MedianParams(100, 10, 1.0, 1.0, 0.01, 0.01, 0.0)
        c = coeffs_of(self._spec(1.0, 0.0, 0.0, 1.0), p)
        assert c.c_e1 == 0.0 and c.c_e1sq == 0.0 and c.c_e0e1 == 0.0

    def test_population_gaps(self, pop1, pop2):
        spec = self._spec(0.0, 0.0, 0.0, 1.0)
        assert coeffs_of(spec, pop1).c0 == -57
        assert coeffs_of(spec, pop2).c0 == 239


class TestErrorMoments:
    def test_pop1_sample_median_variance(self, pop1):
        m = error_moments(pop1)
        value = pop1.median_y**2 * m.var_e0
        assert abs(value - 565443.57) / 565443.57 < 5e-4

    def test_uncorrelated_covariance_vanishes(self):
        p = MedianParams(100, 10, 50.0, 40.0, 0.01, 0.01, 0.0)
        assert error_moments(p).cov_e0e1 == 0.0

    def test_pop2_auxiliary_variance(self, pop2):
        # hand arithmetic: gamma * (Mx * cv_x)^2 = gamma / fx^2
        m = error_moments(pop2)
        value = pop2.median_x**2 * m.var_e1
        expected = pop2.gamma / 0.0013**2
        assert math.isclose(value, expected, rel_tol=1e-12)
        assert abs(value - 6557.93) < 0.5

    def test_invalid_covariance_bound(self):
        with pytest.raises(DomainError):
            ErrorMoments(var_e0=1.0, var_e1=1.0, cov_e0e1=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["var_e0", "var_e1", "cov_e0e1"])
    def test_non_finite_moment_is_domain_error(self, name, value):
        fields = {"var_e0": 1.0, "var_e1": 1.0, "cov_e0e1": 0.0, name: value}
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {value!r}$"):
            ErrorMoments(**fields)

    def test_bound_survives_an_underflowing_variance_product(self):
        # var_e0 * var_e1 = 1e-340 underflows to 0; the product of the roots is 1e-170
        m = ErrorMoments(1e-170, 1e-170, 5e-171)
        assert m.cov_e0e1 == 5e-171
        with pytest.raises(DomainError, match=r"^\|cov\|=2e-170 exceeds"):
            ErrorMoments(1e-170, 1e-170, 2e-170)

    @pytest.mark.parametrize("name", ["cv_y", "cv_x"])
    def test_cv_whose_square_overflows_is_domain_error(self, name):
        # the largest float whose square is finite, and the next one up
        edge = math.sqrt(sys.float_info.max)
        fields = dict(gamma=0.01, cv_y=1.0, cv_x=1.0, rho_c=0.0)
        moments = moment_values(FLOATS, SimpleNamespace(**{**fields, name: edge}))
        assert all(math.isfinite(v) for v in moments)
        above = SimpleNamespace(**{**fields, name: math.nextafter(edge, math.inf)})
        with pytest.raises(DomainError, match=f"^{name} = .* its square overflows$"):
            moment_values(FLOATS, above)


class TestBiasFromCoeffs:
    def test_exact_estimator(self):
        coeffs = ExpansionCoeffs(0.0, 0.0, 0.0, 0.0, 0.0)
        m = ErrorMoments(0.1, 0.2, 0.05)
        assert bias_from_coeffs(coeffs, m) == 0.0

    def test_constant_offset(self):
        coeffs = ExpansionCoeffs(5.0, 0.0, 0.0, 0.0, 0.0)
        m = ErrorMoments(0.1, 0.2, 0.05)
        assert bias_from_coeffs(coeffs, m) == 5.0

    def test_classical_ratio_bias(self, pop1):
        # oracle: My * gamma * (cv_x^2 - rho_c*cv_y*cv_x), direct arithmetic
        My = pop1.median_y
        coeffs = ExpansionCoeffs(0.0, My, -My, My, -My)
        got = bias_from_coeffs(coeffs, error_moments(pop1))
        expected = My * pop1.gamma * (
            pop1.cv_x**2 - pop1.rho_c * pop1.cv_y * pop1.cv_x
        )
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert abs(got - 246.83) < 0.01


class TestMseFromCoeffs:
    def test_sample_median_reference_value(self, pop1):
        coeffs = ExpansionCoeffs(0.0, pop1.median_y, 0.0, 0.0, 0.0)
        got = mse_from_coeffs(coeffs, error_moments(pop1))
        assert abs(got - 565443.57) / 565443.57 < 5e-4

    def test_ratio_reference_value(self, pop1):
        My = pop1.median_y
        coeffs = ExpansionCoeffs(0.0, My, -My, My, -My)
        got = mse_from_coeffs(coeffs, error_moments(pop1))
        assert abs(got - 988372.76) / 988372.76 < 5e-4

    def test_zero_coeffs(self):
        m = ErrorMoments(0.1, 0.2, 0.05)
        assert mse_from_coeffs(ExpansionCoeffs(0, 0, 0, 0, 0), m) == 0.0


coeff_floats = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


def _moments(v0, v1, r):
    # cov from sqrt(v0) * sqrt(v1), the form of ErrorMoments' bound:
    # sqrt(v0 * v1) of a subnormal product can exceed it (v0 = 0.75,
    # v1 = 5e-324 gives 2.22e-162 against 1.92e-162)
    return ErrorMoments(v0, v1, r * math.sqrt(v0) * math.sqrt(v1))


@given(
    c=st.tuples(coeff_floats, coeff_floats, coeff_floats, coeff_floats, coeff_floats),
    v0=st.floats(min_value=0, max_value=10),
    v1=st.floats(min_value=0, max_value=10),
    r=st.floats(min_value=-1, max_value=1),
)
@example(c=(0.0,) * 5, v0=0.75, v1=5e-324, r=1.0)
def test_mse_nonnegative(c, v0, v1, r):
    moments = _moments(v0, v1, r)
    assert mse_from_coeffs(ExpansionCoeffs(*c), moments) >= -1e-9


@given(
    c=st.tuples(coeff_floats, coeff_floats, coeff_floats, coeff_floats, coeff_floats),
    v0=st.floats(min_value=0, max_value=10),
    v1=st.floats(min_value=0, max_value=10),
    r=st.floats(min_value=-1, max_value=1),
)
def test_mse_invariant_under_sign_flip(c, v0, v1, r):
    moments = _moments(v0, v1, r)
    flipped = ExpansionCoeffs(-c[0], -c[1], -c[2], c[3], c[4])
    assert mse_from_coeffs(ExpansionCoeffs(*c), moments) == mse_from_coeffs(
        flipped, moments
    )


_magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=300)
@given(
    N=st.integers(2, 10**9),
    share=st.floats(0.0, 1.0),
    primitives=st.tuples(_magnitude, _magnitude, _magnitude, _magnitude),
    rho_c=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
)
def test_derived_moments_pass_the_caller_checks(N, share, primitives, rho_c):
    """error_moments builds its moments without the ErrorMoments checks: they
    hold by the algebra wherever no variance underflows."""
    n = min(N - 1, max(1, round(share * N)))
    try:
        p = MedianParams(N, n, *primitives, rho_c)
        values = moment_values(FLOATS, p)
    except DomainError:  # an invalid vector, or a cv whose square overflows
        return
    if min(values[:2]) >= sys.float_info.min:
        assert ErrorMoments(*values) == error_moments(p)


def _quadrature_moments(coeffs: ExpansionCoeffs, moments: ErrorMoments, nodes=16):
    """Gauss-Hermite expectation of the expansion polynomial and its square
    over a bivariate normal (e0, e1) with the given second moments."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * t
    w = w / math.sqrt(math.pi)
    sd0, sd1 = math.sqrt(moments.var_e0), math.sqrt(moments.var_e1)
    r = moments.cov_e0e1 / (sd0 * sd1) if sd0 > 0 and sd1 > 0 else 0.0
    z0, z1 = np.meshgrid(z, z, indexing="ij")
    ww = np.outer(w, w)
    e0 = sd0 * z0
    e1 = sd1 * (r * z0 + math.sqrt(max(0.0, 1.0 - r * r)) * z1)
    poly = (
        coeffs.c0
        + coeffs.c_e0 * e0
        + coeffs.c_e1 * e1
        + coeffs.c_e1sq * e1 * e1
        + coeffs.c_e0e1 * e0 * e1
    )
    return float(np.sum(ww * poly)), float(np.sum(ww * poly * poly))


def test_bias_and_mse_match_quadrature_oracle():
    # small design factor: n = 10_000 of N = 1_000_000
    p = MedianParams(
        1_000_000, 10_000, 50.0, 40.0, 1 / (50 * 1.2), 1 / (40 * 0.9), 0.6
    )
    m = error_moments(p)
    for coeffs in (
        ExpansionCoeffs(0.0, 50.0, -50.0, 50.0, -50.0),
        ExpansionCoeffs(0.3, 50.0, -75.0, 93.75, -75.0),
        ExpansionCoeffs(-0.2, 45.0, 12.0, -3.0, 7.0),
    ):
        q_bias, q_mse = _quadrature_moments(coeffs, m)
        assert math.isclose(bias_from_coeffs(coeffs, m), q_bias, rel_tol=1e-10, abs_tol=1e-12)
        assert abs(mse_from_coeffs(coeffs, m) - q_mse) / q_mse < 0.01


def test_expansion_reconstructs_weighted_class_error(pop1):
    """Perturbing the sample medians by tiny relative errors must match the
    coefficient polynomial to near machine precision."""
    from medaux import coeffs_of

    spec = EstimatorSpec(
        family="ratio_exp", w1=0.9, w2=0.2, alpha=1.0, eta=1.0, lam=0.5
    )
    coeffs = coeffs_of(spec, pop1)
    rng = np.random.default_rng(5)
    for _ in range(200):
        e0, e1 = rng.uniform(-1e-4, 1e-4, size=2)
        stats = SampleStats(
            median_y=pop1.median_y * (1 + e0), median_x=pop1.median_x * (1 + e1)
        )
        exact = evaluate(spec, stats, pop1) - pop1.median_y
        predicted = (
            coeffs.c0
            + coeffs.c_e0 * e0
            + coeffs.c_e1 * e1
            + coeffs.c_e1sq * e1 * e1
            + coeffs.c_e0e1 * e0 * e1
        )
        assert abs(exact - predicted) <= 1e-6 * abs(pop1.median_y)
