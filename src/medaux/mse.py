"""Analytic table rows, efficiencies and dominance checks.

Every minimum MSE here comes from one route, the estimator catalogue: a
named spec's free scalars are set to their first-order optimum by
:func:`medaux.estimators.resolve_weights`, and its MSE follows from its own
expansion coefficients, ``mse_from_coeffs(coeffs_of(resolve_weights(spec)))``.
:func:`table_rows` and :func:`dominance_checks` share that route, so a
dominance margin is exactly the difference of two table values.

The one paper formula kept is :func:`min_mse_ss4`, the scaled shrinkage
minimum.  The published value keeps a second-order term of the scaling
factor that the first-order calculus drops, so the ``M_d4`` row and the two
scaled-shrinkage checks use it instead of the catalogue.

The paper's other closed forms (the difference, shrinkage and two-weight
minima, e.g. ``b^2 * V_res / (b^2 + V_res)`` for the two-weight class with
``V_res = V_y * (1 - rho_c^2)``) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, InfiniteEfficiencyWarning
from .estimators import (
    EstimatorSpec,
    RATIO_EXP,
    canonical_name,
    coeffs_of,
    preset,
    resolve_weights,
)
from .expansion import (
    ErrorMoments,
    ExpansionCoeffs,
    bias_from_coeffs,
    error_moments,
    mse_from_coeffs,
)
from .population import MedianParams

__all__ = [
    "MseReportRow",
    "DominanceResult",
    "min_mse_ss4",
    "pre",
    "sample_median_mse",
    "dominance_checks",
    "table_rows",
    "TABLE_ALL_IDS",
]

_TIE_REL = 1e-12  # relative size below which a value is rounding residue of 0


@dataclass(frozen=True)
class MseReportRow:
    """One line of the analytic comparison table."""

    estimator: str
    analytic_mse: float
    analytic_bias: float | None
    pre_vs_sample_median: float


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of one dominance inequality; ``satisfied`` is None on a tie."""

    name: str
    description: str
    satisfied: bool | None
    margin: float
    note: str = ""


def min_mse_ss4(params: MedianParams, delta: float = 1.0) -> float:
    """Minimum MSE of the scaled shrinkage difference estimator.

    ``delta`` is the effective exponent of the scaling factor; the default 1
    corresponds to an unshifted first-power factor.
    """
    u = 1.0 - delta**2 * params.gamma * params.cv_x**2
    if not u > 0.0:  # NaN fails this too
        raise DomainError(
            f"need 1 - delta^2*gamma*cv_x^2 > 0, got {u!r} for delta={delta!r}"
        )
    v = params.gamma * params.cv_y**2 * (1.0 - params.rho_c**2)
    return u * params.median_y**2 * v / (u + v)


def sample_median_mse(params: MedianParams) -> float:
    """First-order MSE of the sample median ``M_y``: the baseline of PRE."""
    return params.gamma * params.median_y**2 * params.cv_y**2


def pre(analytic_mse: float, baseline_var: float) -> float:
    """Percent relative efficiency, 100 * baseline / mse.

    An MSE within ``_TIE_REL`` times the baseline of zero, on either side,
    is the rounding residue of a zero and counts as zero.
    """
    if analytic_mse < -_TIE_REL * baseline_var:
        raise DomainError(f"MSE must be nonnegative, got {analytic_mse!r}")
    if analytic_mse <= _TIE_REL * baseline_var:
        warnings.warn(
            "zero MSE: relative efficiency is unbounded",
            InfiniteEfficiencyWarning,
            stacklevel=2,
        )
        return math.inf
    return 100.0 * baseline_var / analytic_mse


def _optimal_coeffs(spec: EstimatorSpec, params: MedianParams) -> ExpansionCoeffs:
    """Expansion coefficients of ``spec`` with its free scalars at their optimum."""
    return coeffs_of(resolve_weights(spec, params), params)


# ---------------------------------------------------------------------------
# Dominance checks
# ---------------------------------------------------------------------------


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

    Each minimum is the catalogue value that :func:`table_rows` reports: the
    difference bound is ``M_d``, the two-weight class ``t_m``, the shrinkage
    difference ``M_d2``, and the single-weight class a ``ratio_exp`` spec
    with w2 = 0 at ``tmq_scalars`` = (alpha, eta, lam).  By default its
    slope is set to its own optimum a = k_c, matching the at-the-optimum
    comparison.  The scaled shrinkage minimum is :func:`min_mse_ss4` at
    exponent ``delta``.  Ties within 1e-12 relative report
    ``satisfied=None``.
    """
    if tmq_scalars is None:
        tmq_scalars = (params.k_c, 0.0, 1.0)
    alpha, eta, lam = tmq_scalars
    tmq = EstimatorSpec(family=RATIO_EXP, w2=0.0, alpha=alpha, eta=eta, lam=lam)
    moments = error_moments(params)

    def min_mse(spec: EstimatorSpec) -> float:
        return mse_from_coeffs(_optimal_coeffs(spec, params), moments)

    m_d = min_mse(preset("M_d"))
    m_tm = min_mse(preset("t_m"))
    m_tmq = min_mse(tmq)
    m_ss2 = min_mse(preset("M_d2"))
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
        coeffs = _optimal_coeffs(preset(name, params), params)
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
    baseline = sample_median_mse(params)
    return [_row(params, est_id, delta, moments, baseline) for est_id in ids]
