"""First-order error expansion calculus for median estimators.

Every estimator in the catalogue is a smooth function of the two sample
medians.  Writing the relative errors as

    e0 = (sample_median_y - median_y) / median_y
    e1 = (sample_median_x - median_x) / median_x

each estimator T admits an expansion

    T - median_y = c0 + c_e0*e0 + c_e1*e1 + c_e1sq*e1^2 + c_e0e1*e0*e1 + ...

whose coefficients live in :class:`ExpansionCoeffs` (absolute scale, units of
y).  Under SRSWOR the sample medians are asymptotically normal with

    var(e0) = gamma * cv_y^2
    var(e1) = gamma * cv_x^2
    cov(e0, e1) = gamma * rho_c * cv_y * cv_x

which :func:`error_moments` packages as :class:`ErrorMoments`.  Bias and MSE
to first order then follow mechanically:

    bias = c0 + c_e1sq * var(e1) + c_e0e1 * cov(e0, e1)
    mse  = c0^2 + c_e0^2 var(e0) + c_e1^2 var(e1) + 2 c_e0 c_e1 cov(e0, e1)

The MSE deliberately drops products involving the second-order coefficients;
those terms are one order smaller and the paper's closed forms drop them
too (all but ``M_d4``'s, see :mod:`medaux.mse`), so the minima computed from
the coefficients match those forms (the test oracles in ``tests/oracles.py``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .arith import FLOATS
from .errors import DomainError, SingularityError
from .parameters import MedianParams

__all__ = [
    "ExpansionCoeffs",
    "ErrorMoments",
    "k_const",
    "error_moments",
    "bias_from_coeffs",
    "mse_from_coeffs",
]


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Expansion coefficients of one estimator, in units of y."""

    c0: float
    c_e0: float
    c_e1: float
    c_e1sq: float
    c_e0e1: float

    def __post_init__(self) -> None:
        for name in ("c0", "c_e0", "c_e1", "c_e1sq", "c_e0e1"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"coefficient {name} must be finite")


@dataclass(frozen=True)
class ErrorMoments:
    """Second moments of the relative errors (e0, e1), checked when built."""

    var_e0: float
    var_e1: float
    cov_e0e1: float

    def __post_init__(self) -> None:
        for name in ("var_e0", "var_e1", "cov_e0e1"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.var_e0 < 0 or self.var_e1 < 0:
            raise DomainError("variances must be nonnegative")
        bound = math.sqrt(self.var_e0) * math.sqrt(self.var_e1)  # v0 * v1 can underflow
        if abs(self.cov_e0e1) > bound * (1 + 1e-12) + 1e-300:
            raise DomainError(f"|cov|={abs(self.cov_e0e1)!r} exceeds "
                              f"sqrt(var_e0)*sqrt(var_e1)={bound!r}")


_SQRT_MAX = math.sqrt(sys.float_info.max)  # x**2 overflows exactly for x above it


def check_squares(ops, values, names) -> None:
    """Fail with :class:`DomainError` where a named field of ``values`` is
    too large for its square to stay in the float range."""
    for name in names:
        value = getattr(values, name)
        too_large = abs(value) > _SQRT_MAX
        if too_large is not False:  # a float passes here; an array goes to ops
            ops.fail_if(too_large, DomainError,
                        "{} = {!r} is too large: its square overflows", name, value)


def k_const(eta: float, lam: float, median_x: float, *, ops=FLOATS) -> float:
    """Exponential-adjustment constant k = eta*Mx / (2*(eta*Mx + lam)).

    The pair (eta, lam) parameterises the damping factor
    exp(eta*(Mx - mx_hat) / (eta*(Mx + mx_hat) + 2*lam)); k is its first-order
    slope in e1.  ``ops`` is the arithmetic backend (see :mod:`medaux.arith`).
    """
    den = eta * median_x + lam
    ops.fail_if(den == 0.0, SingularityError,
                "eta*median_x + lam is zero for eta={!r}, lam={!r}", eta, lam)
    return eta * median_x / (2.0 * den)


def error_moments(params: MedianParams) -> ErrorMoments:
    """First-order moments of (e0, e1) implied by the population parameters,
    not checked again: the finite positive cvs and |rho_c| <= 1 of a
    :class:`MedianParams` bound |cov| by the variances, so a re-check could
    fire only through underflow, and then on a valid vector."""
    moments = object.__new__(ErrorMoments)
    vars(moments).update(zip(("var_e0", "var_e1", "cov_e0e1"), moment_values(FLOATS, params)))
    return moments


def moment_values(ops, params) -> tuple:
    """(var_e0, var_e1, cov_e0e1) of :func:`error_moments`, by ``ops``.

    A cv whose square overflows fails with :class:`DomainError`.
    """
    check_squares(ops, params, ("cv_y", "cv_x"))
    g = params.gamma
    return (
        g * ops.pow(params.cv_y, 2),
        g * ops.pow(params.cv_x, 2),
        g * params.rho_c * params.cv_y * params.cv_x,
    )


def bias_from_coeffs(coeffs: ExpansionCoeffs, moments: ErrorMoments) -> float:
    """First-order bias: E[e0] = E[e1] = 0, so only the constant and the
    second-order coefficients contribute."""
    return (
        coeffs.c0
        + coeffs.c_e1sq * moments.var_e1
        + coeffs.c_e0e1 * moments.cov_e0e1
    )


def mse_from_coeffs(coeffs: ExpansionCoeffs, moments: ErrorMoments) -> float:
    """First-order MSE of the expansion (second-order coefficients excluded)."""
    check_squares(FLOATS, coeffs, ("c0", "c_e0", "c_e1"))
    return (
        coeffs.c0**2
        + coeffs.c_e0**2 * moments.var_e0
        + coeffs.c_e1**2 * moments.var_e1
        + 2.0 * coeffs.c_e0 * coeffs.c_e1 * moments.cov_e0e1
    )
