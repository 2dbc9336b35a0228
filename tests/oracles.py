"""The paper's closed forms, kept as test oracles for the catalogue route.

Production code takes every minimum MSE from the estimator catalogue
(``mse_from_coeffs(coeffs_of(resolve_weights(spec)))``); these independent
formulas check it.  Notation (all derivable from :class:`MedianParams`):

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

import warnings
from dataclasses import dataclass

from medaux import DegenerateOptimumError, MedianParams
from medaux.estimators import ratio_exp_form


class DegeneratePivotWarning(UserWarning):
    """The shrinkage pivot vanishes (study and auxiliary medians coincide)."""


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


@dataclass(frozen=True)
class QuadraticWeights:
    """Quadratic-form constants of the two-weight class and its optimum."""

    A: float
    B: float
    C: float
    w1_opt: float
    w2_opt: float


def quadratic_weights(
    params: MedianParams,
    *,
    alpha: float = 0.0,
    eta: float = 0.0,
    lam: float = 1.0,
) -> QuadraticWeights:
    """Quadratic constants A, B, C and the optimal (w1, w2)."""
    f = ratio_exp_form(params, alpha=alpha, eta=eta, lam=lam)
    det = f.A * f.B - f.C * f.C
    if det <= 0.0:
        raise DegenerateOptimumError(
            f"A*B - C^2 = {det!r} is not positive; weight optimum undefined"
        )
    return QuadraticWeights(
        A=f.A, B=f.B, C=f.C, w1_opt=f.b2 * f.B / det, w2_opt=-f.b2 * f.C / det
    )


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
