"""Closed-form biases, minimum MSEs, optimal weights and dominance checks.

Notation used throughout (all derivable from :class:`MedianParams`):

    V_y   = gamma * My^2 * cv_y^2            variance of the sample median of y
    V_res = V_y * (1 - rho_c^2)              residual variance after the
                                             optimal linear use of x
    b     = My - Mx                          gap between the medians
    W(a)  = gamma * My^2 * (cv_y^2 + a^2 cv_x^2 - 2 a rho_c cv_y cv_x)

where ``a = alpha + k`` is the total ratio slope of the weighted
ratio-exponential class.  The two-weight class has the quadratic MSE

    mse(w1, w2) = (1 - 2 w1) b^2 + w1^2 A + w2^2 B + 2 w1 w2 C
    A = b^2 + W(a),  B = gamma * Mx^2 * cv_x^2,
    C = gamma * My * Mx * cv_x * (rho_c * cv_y - a * cv_x)

minimised at w1* = b^2 B / (A B - C^2), w2* = -b^2 C / (A B - C^2).  The
identity A B - C^2 = B * (b^2 + V_res) makes the minimum

    b^2 * V_res / (b^2 + V_res)

independent of (alpha, eta, lam) and equal to the minimum of the convex
shrinkage estimator ``d1*my_hat + d2*mx_hat + (1 - d1 - d2)*Mx``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DegeneratePivotWarning, DomainError, InfiniteEfficiencyWarning
from .estimators import (
    EstimatorSpec,
    QuadraticWeights,
    canonical_name,
    coeffs_of,
    free_scalars,
    preset,
    quadratic_weights,
    ratio_exp_form,
    resolve_weights,
)
from .expansion import ErrorMoments, bias_from_coeffs, error_moments, mse_from_coeffs
from .population import MedianParams

__all__ = [
    "QuadraticWeights",
    "MseReportRow",
    "DominanceResult",
    "min_mse_difference",
    "min_mse_ss1",
    "min_mse_ss2",
    "min_mse_ss3",
    "min_mse_ss4",
    "quadratic_weights",
    "tm_mse_at",
    "tm_min_from_weights",
    "min_mse_tm",
    "min_mse_tmq",
    "analytic_bias",
    "pre",
    "dominance_checks",
    "table_rows",
    "TABLE_ALL_IDS",
]


@dataclass(frozen=True)
class MseReportRow:
    """One line of the analytic comparison table."""

    estimator: str
    analytic_mse: float
    analytic_bias: float | None
    pre_vs_sample_median: float

    def __post_init__(self) -> None:
        if self.analytic_mse < 0:
            raise DomainError(f"analytic MSE must be nonnegative, got {self.analytic_mse!r}")


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of one dominance inequality; ``satisfied`` is None on a tie."""

    name: str
    description: str
    satisfied: bool | None
    margin: float
    note: str = ""


def _vres(params: MedianParams) -> float:
    return params.gamma * params.median_y**2 * params.cv_y**2 * (1.0 - params.rho_c**2)


def min_mse_difference(params: MedianParams) -> float:
    """gamma * My^2 * cv_y^2 * (1 - rho_c^2).

    Also the minimum for the whole smooth class built on (my_hat, mx_hat/Mx),
    hence for the ratio, product, shifted, power, damped, dual and mix
    estimators at their optimal scalars, and for the regression estimator.
    """
    return _vres(params)


def min_mse_ss1(params: MedianParams) -> float:
    """Minimum MSE of the tied-weight shrinkage difference estimator."""
    g = params.gamma
    cy2 = params.cv_y**2
    cx2 = params.cv_x**2
    R = params.median_ratio
    kc = params.k_c
    num = (1.0 + R * g * cx2 * (R + kc)) ** 2
    den = 1.0 + g * (cy2 + R * cx2 * (R + 2.0 * kc))
    return params.median_y**2 * (1.0 + R**2 * g * cx2 - num / den)


def min_mse_ss2(params: MedianParams) -> float:
    """Minimum MSE of the free two-weight shrinkage difference estimator."""
    v = params.gamma * params.cv_y**2 * (1.0 - params.rho_c**2)
    return params.median_y**2 * v / (1.0 + v)


def min_mse_ss3(params: MedianParams) -> float:
    """Minimum MSE of the convex shrinkage estimator.

    The pivot is (1 - R)^2; at R = 1 numerator and denominator share it and
    the limit is zero, reported with :class:`DegeneratePivotWarning`.
    """
    v = params.gamma * params.cv_y**2 * (1.0 - params.rho_c**2)
    q = (1.0 - params.median_ratio) ** 2
    if q == 0.0:
        warnings.warn(
            "medians coincide (R = 1); shrinkage pivot vanishes and the "
            "minimum MSE is 0",
            DegeneratePivotWarning,
            stacklevel=2,
        )
        return 0.0
    return params.median_y**2 * v * q / (q + v)


def min_mse_ss4(params: MedianParams, delta: float = 1.0) -> float:
    """Minimum MSE of the scaled shrinkage difference estimator.

    ``delta`` is the effective exponent of the scaling factor; the default 1
    corresponds to an unshifted first-power factor.
    """
    u = 1.0 - delta**2 * params.gamma * params.cv_x**2
    if u <= 0.0:
        raise DomainError(
            f"need 1 - delta^2*gamma*cv_x^2 > 0, got {u!r} for delta={delta!r}"
        )
    v = params.gamma * params.cv_y**2 * (1.0 - params.rho_c**2)
    return u * params.median_y**2 * v / (u + v)


def tm_mse_at(
    params: MedianParams,
    w1: float,
    w2: float,
    *,
    alpha: float = 0.0,
    eta: float = 0.0,
    lam: float = 1.0,
):
    """MSE of the two-weight class at arbitrary weights (vectorises in w1/w2)."""
    f = ratio_exp_form(params, alpha=alpha, eta=eta, lam=lam)
    return (1.0 - 2.0 * w1) * f.b2 + w1 * w1 * f.A + w2 * w2 * f.B + 2.0 * w1 * w2 * f.C


def tm_min_from_weights(
    params: MedianParams,
    *,
    alpha: float = 0.0,
    eta: float = 0.0,
    lam: float = 1.0,
) -> float:
    """Minimum of the two-weight class via b^2 * (1 - b^2 B / (A B - C^2)).

    Algebraically identical to :func:`min_mse_tm` for every (alpha, eta, lam);
    kept as an independent evaluation route for cross-checks.
    """
    qw = quadratic_weights(params, alpha=alpha, eta=eta, lam=lam)
    b2 = params.median_gap**2
    det = qw.A * qw.B - qw.C * qw.C
    return b2 * (1.0 - b2 * qw.B / det)


def min_mse_tm(params: MedianParams) -> float:
    """Minimum MSE of the two-weight ratio-exponential class.

    Equals the convex-shrinkage minimum exactly and does not depend on
    (alpha, eta, lam).
    """
    return min_mse_ss3(params)


def min_mse_tmq(
    params: MedianParams,
    *,
    alpha: float = 0.0,
    eta: float = 0.0,
    lam: float = 1.0,
) -> float:
    """Minimum MSE of the single-weight (w2 = 0) ratio-exponential class.

    With W = W(alpha + k) the optimum w1* = b^2 / (b^2 + W) gives
    b^2 * W / (b^2 + W).  A zero gap pins the estimator at the common median
    and the minimum is 0.
    """
    if params.median_gap == 0.0:
        warnings.warn(
            "medians coincide (b = 0); single-weight optimum pins the "
            "estimate at the auxiliary median",
            DegeneratePivotWarning,
            stacklevel=2,
        )
        return 0.0
    f = ratio_exp_form(params, alpha=alpha, eta=eta, lam=lam)
    return f.b2 * f.W / f.A


def analytic_bias(spec: EstimatorSpec, params: MedianParams) -> float:
    """First-order bias of a fixed-weight spec via its expansion coefficients."""
    if free_scalars(spec):
        raise DomainError(
            f"bias of {spec.label!r} needs concrete weights; resolve them first"
        )
    return bias_from_coeffs(coeffs_of(spec, params), error_moments(params))


def pre(analytic_mse: float, baseline_var: float) -> float:
    """Percent relative efficiency, 100 * baseline / mse."""
    if analytic_mse < 0:
        raise DomainError(f"MSE must be nonnegative, got {analytic_mse!r}")
    if analytic_mse == 0.0:
        warnings.warn(
            "zero MSE: relative efficiency is unbounded",
            InfiniteEfficiencyWarning,
            stacklevel=2,
        )
        return math.inf
    return 100.0 * baseline_var / analytic_mse


# ---------------------------------------------------------------------------
# Dominance checks
# ---------------------------------------------------------------------------

_TIE_REL = 1e-12


def _verdict(margin: float, scale: float) -> bool | None:
    if abs(margin) <= _TIE_REL * max(1.0, abs(scale)):
        return None
    return margin > 0.0


def dominance_checks(
    params: MedianParams,
    *,
    tmq_scalars: tuple[float, float, float] | None = None,
    delta: float = 1.0,
) -> list[DominanceResult]:
    """Evaluate the five efficiency orderings numerically, with margins.

    ``tmq_scalars`` fixes (alpha, eta, lam) for the single-weight class; by
    default the slope is set to its own optimum a = k_c, matching the
    at-the-optimum comparison.  Ties within 1e-12 relative report
    ``satisfied=None``.
    """
    if tmq_scalars is None:
        tmq_scalars = (params.k_c, 0.0, 1.0)
    alpha, eta, lam = tmq_scalars

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePivotWarning)
        m_d = min_mse_difference(params)
        m_tm = min_mse_tm(params)
        m_tmq = min_mse_tmq(params, alpha=alpha, eta=eta, lam=lam)
        m_ss2 = min_mse_ss2(params)
        m_ss4 = min_mse_ss4(params, delta=delta)

    R = params.median_ratio
    degenerate = "degenerate pivot: R = 1" if R == 1.0 else ""

    results = [
        DominanceResult(
            name="tm_vs_difference",
            description="two-weight class beats the optimal difference estimator",
            satisfied=_verdict(m_d - m_tm, m_d),
            margin=m_d - m_tm,
            note=degenerate,
        ),
        DominanceResult(
            name="tmq_vs_difference",
            description="single-weight class beats the optimal difference estimator",
            satisfied=_verdict(m_d - m_tmq, m_d),
            margin=m_d - m_tmq,
            note=degenerate,
        ),
        DominanceResult(
            name="tm_vs_shrink_diff",
            description="two-weight class beats the two-weight shrinkage difference",
            satisfied=_verdict(m_ss2 - m_tm, m_ss2),
            margin=m_ss2 - m_tm,
            note=(degenerate or ("outside validity range 0 < R < 2" if not 0 < R < 2 else "")),
        ),
        DominanceResult(
            name="shrink_scaled_vs_shrink_diff",
            description="scaled shrinkage difference beats the plain one",
            satisfied=_verdict(m_ss2 - m_ss4, m_ss2),
            margin=m_ss2 - m_ss4,
        ),
        DominanceResult(
            name="tm_vs_shrink_scaled",
            description="two-weight class beats the scaled shrinkage difference",
            satisfied=_verdict(m_ss4 - m_tm, m_ss4),
            margin=m_ss4 - m_tm,
            note=degenerate,
        ),
    ]
    return results


# ---------------------------------------------------------------------------
# Table assembly
# ---------------------------------------------------------------------------

TABLE_ALL_IDS = (
    "M_y",
    "M_r",
    "M_d",
    "M_d1",
    "M_d2",
    "M_d3",
    "M_d4",
    "t_m",
    "t_mq1",
    "t_mq2",
    "t_mq3",
    "t_mq4",
    "t_mq5",
    "t_mq6",
    "t_mq7",
    "t_mq8",
    "t_mq9",
)


def _row(
    params: MedianParams,
    est_id: str,
    delta: float,
    moments: ErrorMoments,
    baseline: float,
) -> MseReportRow:
    name = canonical_name(est_id)
    bias: float | None
    if name == "M_d4":
        # the published M_d4 value keeps a second-order term of the scaling
        # factor that the first-order calculus drops, so this row is the
        # paper's formula; the catalogue route gives the M_d2 minimum instead
        mse = min_mse_ss4(params, delta=delta)
        bias = None
    else:
        coeffs = coeffs_of(resolve_weights(preset(name, params), params), params)
        mse = mse_from_coeffs(coeffs, moments)
        bias = bias_from_coeffs(coeffs, moments)
    return MseReportRow(
        estimator=name,
        analytic_mse=mse,
        analytic_bias=bias,
        pre_vs_sample_median=pre(mse, baseline),
    )


def table_rows(
    params: MedianParams,
    ids="all",
    delta: float = 1.0,
) -> list[MseReportRow]:
    """Analytic table rows for the requested estimator ids (or ``"all"``).

    Each row is the first-order MSE and bias of the named estimator with its
    free scalars resolved to their optimum: the route
    ``coeffs_of(resolve_weights(preset(name)))`` that
    :func:`medaux.montecarlo.run_simulation` reports as well.  ``M_d4`` is
    the one exception: its row is :func:`min_mse_ss4` at exponent ``delta``,
    with no bias.
    """
    if isinstance(ids, str):
        if ids.strip().lower() != "all":
            raise DomainError("ids must be a sequence of names or the string 'all'")
        ids = TABLE_ALL_IDS
    moments = error_moments(params)
    baseline = params.gamma * params.median_y**2 * params.cv_y**2
    return [_row(params, est_id, delta, moments, baseline) for est_id in ids]
