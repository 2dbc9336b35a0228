"""Analytic table rows, efficiencies and dominance checks.

Every analytic MSE and bias comes from one function, :func:`analytic_figures`,
which :func:`table_rows`, :func:`dominance_checks` and
:func:`medaux.montecarlo.run_simulation` all call with unresolved specs.  An
estimator's figures are the first-order MSE and bias of its spec with the
free scalars at their optimum (see :func:`medaux.estimators.resolve_weights`),
from its own expansion coefficients, ``mse_from_coeffs(coeffs_of(spec))``;
``analytic_figures`` resolves each spec itself.  So a dominance margin is
exactly the difference of two table values, and ``simulate`` reports the
values ``table`` does.

The one paper formula kept is :func:`min_mse_ss4`, the scaled shrinkage
minimum as published, with a first-power scaling factor.  It keeps a
second-order term of that factor that the first-order calculus drops, so
:func:`analytic_figures` gives ``M_d4`` that formula, with no bias, instead
of the catalogue value.

The paper's other closed forms (the difference, shrinkage and two-weight
minima, e.g. ``b^2 * V_res / (b^2 + V_res)`` for the two-weight class with
``V_res = V_y * (1 - rho_c^2)``) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from .arith import FLOATS
from .errors import DomainError, InfiniteEfficiencyWarning
from .estimators import (
    EstimatorSpec,
    RATIO_EXP,
    coeffs_of,
    preset,
    resolve_weights,
)
from .expansion import bias_from_coeffs, check_squares, error_moments, mse_from_coeffs
from .parameters import MedianParams

__all__ = [
    "MseReportRow",
    "DominanceResult",
    "analytic_figures",
    "min_mse_ss4",
    "pre",
    "sample_median_mse",
    "dominance_checks",
    "table_rows",
    "TABLE_ALL_IDS",
]

_TIE_REL = 1e-12  # relative size below which a value is rounding residue of 0
_SCALED_SHRINKAGE = preset("M_d4")  # its figures are the published formula


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


def min_mse_ss4(params: MedianParams) -> float:
    """Minimum MSE of the scaled shrinkage difference estimator ``M_d4``."""
    check_squares(FLOATS, params, ("cv_x", "cv_y", "median_y"))
    u = 1.0 - params.gamma * params.cv_x**2
    if not u > 0.0:  # NaN fails this too
        raise DomainError(f"need 1 - gamma*cv_x^2 > 0, got {u!r}")
    v = params.gamma * params.cv_y**2 * (1.0 - params.rho_c**2)
    return u * params.median_y**2 * v / (u + v)


def sample_median_mse(params: MedianParams) -> float:
    """First-order MSE of the sample median ``M_y``: the baseline of PRE."""
    check_squares(FLOATS, params, ("median_y", "cv_y"))
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


def analytic_figures(
    params: MedianParams, specs: Sequence[EstimatorSpec]
) -> list[tuple[float, float | None]]:
    """Analytic (MSE, bias) of each estimator spec, in order.

    Each spec is resolved at ``params`` (:func:`resolve_weights`), and its
    figures are the first-order MSE and bias from its expansion
    coefficients, with the error moments computed once.  The ``M_d4``
    preset is the one exception: its MSE is :func:`min_mse_ss4` and its
    bias is None.
    """
    moments = error_moments(params)
    figures: list[tuple[float, float | None]] = []
    for spec in specs:
        if spec == _SCALED_SHRINKAGE:
            figures.append((min_mse_ss4(params), None))
        else:
            coeffs = coeffs_of(resolve_weights(spec, params), params)
            figures.append(
                (mse_from_coeffs(coeffs, moments), bias_from_coeffs(coeffs, moments))
            )
    return figures


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
) -> list[DominanceResult]:
    """Evaluate the five efficiency orderings numerically, with margins.

    Each minimum is the :func:`analytic_figures` value that
    :func:`table_rows` reports: the difference bound is ``M_d``, the
    two-weight class ``t_m``, the shrinkage difference ``M_d2``, the scaled
    shrinkage ``M_d4``, and the single-weight class a ``ratio_exp`` spec
    with w2 = 0 at ``tmq_scalars`` = (alpha, eta, lam).
    By default its slope is set to its own optimum a = k_c, matching the
    at-the-optimum comparison.  Ties within 1e-12 relative report
    ``satisfied=None``.
    """
    if tmq_scalars is None:
        tmq_scalars = (params.k_c, 0.0, 1.0)
    alpha, eta, lam = tmq_scalars
    tmq = EstimatorSpec(family=RATIO_EXP, label="t_mq", w2=0.0, alpha=alpha, eta=eta, lam=lam)
    specs = [preset("M_d"), preset("t_m"), tmq, preset("M_d2"), _SCALED_SHRINKAGE]
    figures = analytic_figures(params, specs)
    minimum = {s.label: mse for s, (mse, _) in zip(specs, figures)}

    R = params.median_ratio
    degenerate = "degenerate pivot: R = 1" if R == 1.0 else ""
    outside = "outside validity range 0 < R < 2" if not 0 < R < 2 else ""
    # (name, description, larger minimum, smaller minimum, note)
    checks = (
        ("tm_vs_difference", "two-weight class beats the optimal difference estimator",
         "M_d", "t_m", degenerate),
        ("tmq_vs_difference", "single-weight class beats the optimal difference estimator",
         "M_d", "t_mq", degenerate),
        ("tm_vs_shrink_diff", "two-weight class beats the two-weight shrinkage difference",
         "M_d2", "t_m", degenerate or outside),
        ("shrink_scaled_vs_shrink_diff", "scaled shrinkage difference beats the plain one",
         "M_d2", "M_d4", ""),
        ("tm_vs_shrink_scaled", "two-weight class beats the scaled shrinkage difference",
         "M_d4", "t_m", degenerate),
    )
    results = []
    for name, description, larger, smaller, note in checks:
        margin = minimum[larger] - minimum[smaller]
        results.append(
            DominanceResult(
                name=name,
                description=description,
                satisfied=_verdict(margin, minimum[larger]),
                margin=margin,
                note=note,
            )
        )
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


def table_rows(params: MedianParams, ids="all") -> list[MseReportRow]:
    """Analytic table rows for the requested estimator ids (or ``"all"``).

    Each row is the :func:`analytic_figures` MSE and bias of the named
    preset, resolved to its optimum.
    """
    if isinstance(ids, str):
        if ids.strip().lower() != "all":
            raise DomainError("ids must be a sequence of names or the string 'all'")
        ids = TABLE_ALL_IDS
    specs = [preset(est_id, params) for est_id in ids]
    figures = analytic_figures(params, specs)
    baseline = sample_median_mse(params)
    return [
        MseReportRow(
            estimator=spec.label,
            analytic_mse=mse,
            analytic_bias=bias,
            pre_vs_sample_median=pre(mse, baseline),
        )
        for spec, (mse, bias) in zip(specs, figures)
    ]
