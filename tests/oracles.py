"""The paper's closed forms, kept as test oracles for the catalogue route.

Production code takes every minimum MSE from the estimator catalogue
(``mse_from_coeffs(coeffs_of(resolve_weights(spec)))``, plus the cross term
2 c0 (bias - c0) for ``M_d4``); these independent formulas check it.  Notation (all derivable from :class:`MedianParams`):

    V_y   = gamma * My^2 * cv_y^2            variance of the sample median of y
    V_res = V_y * (1 - rho_c^2)              residual variance after the
                                             optimal linear use of x
    b     = My - Mx                          gap between the medians
    W(a)  = gamma * My^2 * (cv_y^2 + a^2 cv_x^2 - 2 a rho_c cv_y cv_x)

where ``a = alpha + k`` is the total ratio slope of the weighted
ratio-exponential class, with k = eta*Mx / (2*(eta*Mx + lam)).  The
two-weight class has the quadratic MSE

    mse(w1, w2) = (1 - 2 w1) b^2 + w1^2 A + w2^2 B + 2 w1 w2 C
    A = b^2 + W(a),  B = gamma * Mx^2 * cv_x^2,
    C = gamma * My * Mx * cv_x * (rho_c * cv_y - a * cv_x)

minimised at w1* = b^2 B / (A B - C^2), w2* = -b^2 C / (A B - C^2).  The
identity A B - C^2 = B * (b^2 + V_res) makes the minimum

    b^2 * V_res / (b^2 + V_res)

independent of (alpha, eta, lam) and equal to the minimum of the convex
shrinkage estimator ``d1*my_hat + d2*mx_hat + (1 - d1 - d2)*Mx``.

The scaled shrinkage minimum is published with a scaling exponent ``delta``;
:func:`min_mse_ss4_at` keeps that general form, and its value at delta = 1 is
the minimum of ``M_d4``'s own objective, the package's ``M_d4`` table row.

:func:`srswor_median_mse` is an exact oracle of another kind: the
finite-population MSE of the sample median under SRSWOR, from the law of
the sample's order statistics, against which the Monte Carlo engine is
checked.  :func:`kernel_density_rows` is the kernel density of many samples
written with numpy's own ``std`` and ``mean``, against which the engine's
in-place steps are checked bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from medaux import DegenerateOptimumError, DomainError, MedianParams


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


def min_mse_ss4_at(params: MedianParams, delta: float) -> float:
    """Minimum MSE of the scaled shrinkage estimator at scaling exponent delta:
    u * My^2 * v / (u + v), u = 1 - delta^2 gamma cv_x^2,
    v = gamma cv_y^2 (1 - rho_c^2)."""
    u = 1.0 - delta**2 * params.gamma * params.cv_x**2
    if not u > 0.0:
        raise DomainError(f"need 1 - delta^2*gamma*cv_x^2 > 0, got {u!r}")
    v = params.gamma * params.cv_y**2 * (1.0 - params.rho_c**2)
    return u * params.median_y**2 * v / (u + v)


def _form(params: MedianParams, alpha: float, eta: float, lam: float) -> tuple:
    """(b^2, W(a), A, B, C) of the two-weight class at a = alpha + k."""
    g, My, Mx = params.gamma, params.median_y, params.median_x
    cy, cx, rho = params.cv_y, params.cv_x, params.rho_c
    a = alpha + eta * Mx / (2.0 * (eta * Mx + lam))
    b2 = (My - Mx) ** 2
    W = g * My**2 * (cy**2 + a**2 * cx**2 - 2.0 * a * rho * cy * cx)
    B = g * Mx**2 * cx**2
    C = g * My * Mx * cx * (rho * cy - a * cx)
    return b2, W, b2 + W, B, C


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
    b2, _, A, B, C = _form(params, alpha, eta, lam)
    det = A * B - C * C
    if det <= 0.0:
        raise DegenerateOptimumError(
            f"A*B - C^2 = {det!r} is not positive; weight optimum undefined"
        )
    return QuadraticWeights(A=A, B=B, C=C, w1_opt=b2 * B / det, w2_opt=-b2 * C / det)


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
    b2, _, A, B, C = _form(params, alpha, eta, lam)
    return (1.0 - 2.0 * w1) * b2 + w1 * w1 * A + w2 * w2 * B + 2.0 * w1 * w2 * C


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
    b2, W, A, _, _ = _form(params, alpha, eta, lam)
    return b2 * W / A


def paper_tmq_value(
    params: MedianParams,
    *,
    alpha: float = 0.0,
    eta: float = 0.0,
    lam: float = 1.0,
    w_params: MedianParams | None = None,
) -> float:
    """The paper's printed single-weight value: (1 - w)^2 b^2 + w^2 W(a) at
    the one shared weight w = b^2 / (b^2 + V_res).

    w is the single-weight optimum at the best slope a = k_c, where W(a) is
    smallest; the class minimum :func:`min_mse_tmq` takes w at each class's
    own slope instead, so on the same inputs this value is never below it.
    W(a) reads ``w_params`` (default ``params``); w does not read cv_x, so a
    column printed with another fx changes W alone.
    """
    b2 = params.median_gap**2
    w = b2 / (b2 + _vres(params))
    _, W, _, _, _ = _form(w_params or params, alpha, eta, lam)
    return (1.0 - w) ** 2 * b2 + w * w * W


def _log_choose(a: np.ndarray, b: int) -> np.ndarray:
    """log C(a, b) for each integer a >= 0 of the array: -inf where a < b."""
    out = np.full(a.shape, -np.inf)
    ok = a >= b
    out[ok] = [math.lgamma(v + 1) - math.lgamma(b + 1) - math.lgamma(v - b + 1) for v in a[ok]]
    return out


def srswor_median_mse(values, n: int, target: float) -> float:
    """Exact E[(m_hat - target)^2] of the sample median of an SRSWOR of size n.

    With v_1 <= ... <= v_N the sorted population, the sample's j-th order
    statistic is v_i with probability C(i-1, j-1) C(N-i, n-j) / C(N, n)
    (David and Nagaraja, *Order Statistics*, 3rd ed., 2003, on sampling a
    finite population).  For odd n the median is the order statistic
    m = (n+1)/2.  For even n it is the mean of the m-th and (m+1)-th, m =
    n/2, which are v_a and v_b (a < b) with probability
    C(a-1, m-1) C(N-b, n-m-1) / C(N, n): no unit between a and b is
    drawn.  The sums run over positions in the sorted frame, so tied
    values need no special case.  O(N^2) terms for even n.
    """
    v = np.sort(np.asarray(values, dtype=float))
    N = v.size
    if not 0 < n <= N:
        raise DomainError(f"need 0 < n <= N, got n={n}, N={N}")
    pos = np.arange(1, N + 1)  # 1-based positions
    log_total = math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1)
    m = (n + 1) // 2
    below = _log_choose(pos - 1, m - 1)
    if n % 2:
        prob = np.exp(below + _log_choose(N - pos, n - m) - log_total)
        return float(np.sum(prob * (v - target) ** 2))
    above = _log_choose(N - pos, n - m - 1)
    total = 0.0
    for a in range(N - 1):  # v_a is the m-th order statistic, v_b (b > a) the next
        prob = np.exp(below[a] + above[a + 1 :] - log_total)
        total += float(np.sum(prob * ((v[a] + v[a + 1 :]) / 2.0 - target) ** 2))
    return total


def kernel_density_rows(rows: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel densities of the rows of a (K, n) array at ``points``
    and their Silverman bandwidths, 0.9 * min(sd, IQR / 1.34) * n**(-1/5),
    by ``np.std(ddof=1)``, ``np.percentile`` and ``np.mean`` on C-ordered
    rows.  A row whose bandwidth is not finite and positive gets a NaN
    density.  This is the reference for the in-place steps of
    ``medaux.population._kernel_density_rows``.
    """
    rows = np.ascontiguousarray(rows)
    with np.errstate(all="ignore"):  # values near the float limit overflow
        sd = np.std(rows, axis=1, ddof=1)
        q75, q25 = np.percentile(rows, [75, 25], axis=1)
        h = 0.9 * np.minimum(sd, (q75 - q25) / 1.34) * rows.shape[1] ** (-0.2)
        usable = np.isfinite(h) & (h > 0)
        hu = h[usable]
        z = (points[usable, None] - rows[usable]) / hu[:, None]
        kernel_mean = np.mean(np.exp(-0.5 * z * z), axis=1)
        density = np.full(rows.shape[0], np.nan)
        density[usable] = kernel_mean / (hu * math.sqrt(2.0 * math.pi))
    return density, h


def float_sort_statistics(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(median, 25% and 75% quantiles) of each row of a (K, n) array, read
    off the rows sorted as floats: the middle entry or the middle pair's sum
    halved, and numpy's ``linear`` rule with ``_lerp`` interpolating from
    the nearer neighbour.  This is the sampling blocks' float-sort route
    that sorted ranks replaced, kept as a reference for them.
    """
    ordered = np.sort(rows, axis=1)
    n = ordered.shape[1]
    half = n // 2
    with np.errstate(all="ignore"):  # values near the float limit overflow
        if n % 2:
            median = ordered[:, half]
        else:
            median = (ordered[:, half - 1] + ordered[:, half]) / 2
        quartiles = []
        for q in (0.25, 0.75):
            index = (n - 1) * q
            below = math.floor(index)
            above = below + 1
            if index >= n - 1:
                below = above = -1
            t = index - below
            a, b = ordered[:, below], ordered[:, above]
            diff = b - a
            quartiles.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return median, *quartiles
