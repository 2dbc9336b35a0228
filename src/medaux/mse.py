"""Analytic table rows, efficiencies and dominance checks.

Every analytic MSE and bias comes from one per-spec function, ``_figures``:
the first-order MSE and bias of a spec with its free scalars at their optimum
(see :func:`medaux.estimators.resolve_weights`), from its own expansion
coefficients, ``mse_from_coeffs(coeffs_of(spec))``.  :func:`table_rows` and
:func:`dominance_checks` read it through :func:`analytic_figures`, which
solves each spec itself (``_solved``), and
:func:`medaux.montecarlo.run_simulation` calls both for the weights of its
replicates; each call derives the error moments once.  So a dominance
margin is exactly the difference of two table values, and ``simulate``
reports the values ``table`` does.  The MSE of a ``CROSS_TERM_FAMILIES``
spec (``M_d4``) adds the cross term 2 c0 (bias - c0), the objective its
weights minimise.

The paper's closed forms (the difference and shrinkage minima, ``M_d4``'s
included, e.g. ``b^2 * V_res / (b^2 + V_res)`` for the two-weight class with
``V_res = V_y * (1 - rho_c^2)``) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

from .arith import FLOATS
from .errors import DomainError, InfiniteEfficiencyWarning
from .estimators import (
    CROSS_TERM_FAMILIES,
    EstimatorSpec,
    RATIO_EXP,
    coeffs_of,
    optimal_weights,
    preset,
)
from .expansion import (
    ErrorMoments,
    bias_from_coeffs,
    check_squares,
    error_moments,
    mse_from_coeffs,
)
from .parameters import MedianParams

__all__ = [
    "MseReportRow",
    "DominanceResult",
    "analytic_figures",
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
    """Analytic (MSE, bias) of each estimator spec, in order: the
    :func:`_figures` of each spec solved at ``params`` (:func:`_solved`),
    with the error moments derived once for all of them."""
    moments = error_moments(params)
    return [_figures(params, _solved(params, spec, moments), moments) for spec in specs]


def _solved(params: MedianParams, spec, moments: ErrorMoments | None):
    """The spec with its free scalars at the optimum :func:`resolve_weights`
    fills in, as a namespace.  ``moments`` is :func:`error_moments` of
    ``params``, or ``None`` to derive them where the normal equations read
    them (and fail there where they overflow)."""
    if moments is not None:
        moments = (moments.var_e0, moments.var_e1, moments.cov_e0e1)
    return SimpleNamespace(**{**vars(spec), **optimal_weights(FLOATS, spec, params, moments)})


def _figures(params: MedianParams, spec, moments) -> tuple[float, float]:
    """(MSE, bias) of a spec whose free scalars are filled: the first-order
    figures from its expansion coefficients, where a family of
    ``CROSS_TERM_FAMILIES`` adds 2 c0 (bias - c0) to the MSE."""
    coeffs = coeffs_of(spec, params)
    mse = mse_from_coeffs(coeffs, moments)
    bias = bias_from_coeffs(coeffs, moments)
    if spec.family in CROSS_TERM_FAMILIES:
        mse += 2.0 * coeffs.c0 * (bias - coeffs.c0)
    return mse, bias


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
    specs = [preset("M_d"), preset("t_m"), tmq, preset("M_d2"), preset("M_d4")]
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
