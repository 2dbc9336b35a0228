"""Catalogue of median estimators built on a known auxiliary median.

Every estimator combines the sample medians ``my_hat``/``mx_hat`` with the
known population median of the auxiliary variable.  Families:

=====================  ======================================================
``shifted_product``    my_hat * (a - mx_hat) / (a - Mx)
``shifted_ratio``      my_hat * (a + Mx) / (a + mx_hat)
``power_ratio``        my_hat * (Mx / mx_hat) ** alpha
``damped_ratio``       my_hat * Mx / (Mx + beta * (mx_hat - Mx))
``dual_power``         my_hat * (2 - (Mx / mx_hat) ** v)
``mix_product``        w * my_hat + (1 - w) * my_hat * (mx_hat / Mx)
``mix_ratio``          w * my_hat + (1 - w) * my_hat * (Mx / mx_hat)
``regression``         my_hat + d_hat * (Mx - mx_hat),
                       d_hat = (fx_hat / fy_hat) * (4 * p11_hat - 1)
``shrink_diff_tied``   d1 * my_hat + (1 - d1) * (Mx - mx_hat)
``shrink_diff``        d1 * my_hat + d2 * (Mx - mx_hat)
``shrink_convex``      d1 * my_hat + d2 * mx_hat + (1 - d1 - d2) * Mx
``shrink_diff_scaled`` [d1 * my_hat + d2 * (Mx - mx_hat)] * Mx / mx_hat
``ratio_exp``          w1 * my_hat * (Mx / mx_hat) ** alpha
                       * exp(eta * (Mx - mx_hat) / (eta * (Mx + mx_hat) + 2 * lam))
                       + w2 * mx_hat + (1 - w1 - w2) * Mx
=====================  ======================================================

Weight-like scalars may be left ``None`` ("free") and resolved against
population parameters with :func:`resolve_weights`, which plugs in the values
minimising the first-order MSE and holds the pinned scalars fixed: a map of
the slope k_c, or the solution of the normal equations of the family's own
expansion coefficients, 0 where zero weights leave no first-order error.
``shrink_diff_scaled`` (``M_d4``) adds the cross term 2 c0 (bias - c0) to
its MSE, and the minimum of that objective is the paper's.
:func:`preset` builds the named estimators used throughout the comparison
tables, e.g. ``t_mq7`` or ``M_d3``.  A preset is a family with some scalars
pinned: ``M_y``, ``M_r`` and ``M_p`` are ``power_ratio`` at alpha = 0, 1 and
-1; ``M_d`` is ``shrink_diff`` at d1 = 1; ``t_m1``, ``t_m2`` and ``t_m4`` are
``ratio_exp`` at (w1, w2) = (1, 0); ``t_m5``...``t_m7`` and the ``t_mq*``
presets are ``ratio_exp`` at w2 = 0 with w1 free; ``M_d4`` is
``shrink_diff_scaled`` with d1 and d2 free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

from .errors import (
    DegenerateOptimumError,
    DomainError,
    SingularityError,
    UnknownEstimatorError,
)
from .arith import FLOATS, ratio_or
from .expansion import (
    ExpansionCoeffs,
    check_squares,
    k_const,
    moment_values,
)
from .parameters import MedianParams

__all__ = [
    "EstimatorSpec",
    "SampleStats",
    "FAMILIES",
    "PRESET_NAMES",
    "evaluate",
    "coeffs_of",
    "preset",
    "resolve_weights",
    "free_scalars",
]


SHIFTED_PRODUCT = "shifted_product"
SHIFTED_RATIO = "shifted_ratio"
POWER_RATIO = "power_ratio"
DAMPED_RATIO = "damped_ratio"
DUAL_POWER = "dual_power"
MIX_PRODUCT = "mix_product"
MIX_RATIO = "mix_ratio"
REGRESSION = "regression"
SHRINK_DIFF_TIED = "shrink_diff_tied"
SHRINK_DIFF = "shrink_diff"
SHRINK_CONVEX = "shrink_convex"
SHRINK_DIFF_SCALED = "shrink_diff_scaled"
RATIO_EXP = "ratio_exp"

# family -> (resolvable weight fields, structural fields that must be concrete)
_FAMILY_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    SHIFTED_PRODUCT: (("shift",), ()),
    SHIFTED_RATIO: (("shift",), ()),
    POWER_RATIO: (("alpha",), ()),
    DAMPED_RATIO: (("beta",), ()),
    DUAL_POWER: (("v",), ()),
    MIX_PRODUCT: (("w",), ()),
    MIX_RATIO: (("w",), ()),
    REGRESSION: ((), ()),
    SHRINK_DIFF_TIED: (("d1",), ()),
    SHRINK_DIFF: (("d1", "d2"), ()),
    SHRINK_CONVEX: (("d1", "d2"), ()),
    SHRINK_DIFF_SCALED: (("d1", "d2"), ()),
    RATIO_EXP: (("w1", "w2"), ("alpha", "eta", "lam")),
}

FAMILIES = frozenset(_FAMILY_FIELDS)

# families whose objective adds to the first-order MSE the O(1/n) cross term
# 2 * c0 * (c_e1sq * var_e1 + c_e0e1 * cov), as the paper's M_d4 optimum does
CROSS_TERM_FAMILIES = frozenset({SHRINK_DIFF_SCALED})


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator: a family tag plus its scalars. ``None`` means free.

    A scalar the family does not read must stay ``None``: it raises
    :class:`DomainError` otherwise."""

    family: str
    label: str = ""
    w1: float | None = None
    w2: float | None = None
    alpha: float | None = None
    eta: float | None = None
    lam: float | None = None
    shift: float | None = None
    beta: float | None = None
    v: float | None = None
    w: float | None = None
    d1: float | None = None
    d2: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown estimator family {self.family!r}")
        if not self.label:
            object.__setattr__(self, "label", self.family)
        weights, structural = _FAMILY_FIELDS[self.family]
        for name in structural:
            if getattr(self, name) is None:
                raise DomainError(
                    f"{self.family} requires a concrete value for {name!r}"
                )
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if value is not None:
                if name not in weights and name not in structural:
                    raise DomainError(f"{self.family} does not read {name!r}")
                value = float(value)
                if not math.isfinite(value):
                    raise DomainError(f"scalar {name!r} must be finite")
                object.__setattr__(self, name, value)


_SCALAR_FIELDS = tuple(
    f.name for f in fields(EstimatorSpec) if f.name not in ("family", "label")
)


@dataclass(frozen=True)
class SampleStats:
    """Per-sample statistics feeding estimator evaluation.

    Density estimates are optional; they are only needed by the regression
    estimator and by plug-in weight resolution.
    """

    median_y: float
    median_x: float
    p11: float | None = None
    fy_at_median: float | None = None
    fx_at_median: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.median_y) and math.isfinite(self.median_x)):
            raise DomainError("sample medians must be finite")
        if self.p11 is not None and not 0.0 <= self.p11 <= 1.0:
            raise DomainError(f"p11 must lie in [0, 1], got {self.p11!r}")


def free_scalars(spec: EstimatorSpec) -> tuple[str, ...]:
    """Names of the spec's weight fields still left free."""
    weights, _ = _FAMILY_FIELDS[spec.family]
    return tuple([name for name in weights if getattr(spec, name) is None])


def _require_resolved(spec: EstimatorSpec) -> None:
    missing = free_scalars(spec)
    if missing:
        raise DomainError(
            f"estimator {spec.label!r} has unresolved scalars {missing}; "
            "call resolve_weights first"
        )


def _ratio_power(ops, mx_known, mx_hat, alpha):
    """(Mx / mx_hat) ** alpha with exact fast paths for alpha in {-1, 0, 1}.

    The fast paths keep the algebraic reductions to the plain ratio and
    product estimators exact in floating point, not just approximate.  They
    are selections, not early returns, so a plug-in alpha may differ per row:
    at alpha = 0 neither the zero check nor the power applies.
    """
    live = alpha != 0.0
    ops.fail_if(live & (mx_hat == 0.0), SingularityError,
                "sample median of x is zero in a ratio factor")
    r = ratio_or(ops, mx_known, mx_hat, 1.0)
    ops.fail_if(live & (r < 0) & (alpha % 1.0 != 0.0), DomainError,
                "ratio {!r} is negative; non-integer exponent {!r} undefined", r, alpha)
    general = live & (alpha != 1.0) & (alpha != -1.0)
    power = ops.pow(ops.select(general, r, 1.0), ops.select(general, alpha, 1.0))
    power = ops.select(alpha == -1.0, mx_hat / mx_known, power)
    return ops.select(alpha == 1.0, r, power)


def _exp_adjustment(ops, mx_known, mx_hat, eta, lam):
    den = eta * (mx_known + mx_hat) + 2.0 * lam
    ops.fail_if(den == 0.0, SingularityError,
                "eta*(Mx + mx_hat) + 2*lam is zero in the exponential adjustment")
    return ops.exp(eta * (mx_known - mx_hat) / den)


def evaluate(spec: EstimatorSpec, stats: SampleStats, known: MedianParams) -> float:
    """Point estimate of the study median for one sample.

    Raises :class:`SingularityError` naming the offending denominator when a
    precondition fails, and :class:`DomainError` when the spec still has free
    scalars (the regression estimator has none: its slope is always plug-in).
    """
    _require_resolved(spec)
    extras = (stats.p11, stats.fy_at_median, stats.fx_at_median)
    if any(value is None for value in extras):
        extras = None
    return point_value(
        FLOATS, spec, stats.median_y, stats.median_x, known.median_x, extras
    )


def point_value(ops, s, my, mx, Mx, extras):
    """Point value of the resolved scalars ``s`` (an :class:`EstimatorSpec`
    or any object with its attributes) at the sample medians ``my``/``mx``.

    ``extras`` is ``(p11, fy, fx)`` of the sample, or ``None``; only the
    regression estimator reads it.  The preconditions go through ``ops``.
    """
    fam = s.family
    if fam == SHIFTED_PRODUCT:
        ops.fail_if(s.shift == Mx, SingularityError,
                    "shift equals the known auxiliary median")
        return my * (s.shift - mx) / (s.shift - Mx)
    if fam == SHIFTED_RATIO:
        ops.fail_if(s.shift + mx == 0.0, SingularityError,
                    "shift + sample median of x is zero")
        return my * (s.shift + Mx) / (s.shift + mx)
    if fam == POWER_RATIO:
        return my * _ratio_power(ops, Mx, mx, s.alpha)
    if fam == DAMPED_RATIO:
        den = Mx + s.beta * (mx - Mx)
        ops.fail_if(den == 0.0, SingularityError, "damped ratio denominator is zero")
        return my * Mx / den
    if fam == DUAL_POWER:
        return my * (2.0 - _ratio_power(ops, Mx, mx, s.v))
    if fam == MIX_PRODUCT:
        return s.w * my + (1.0 - s.w) * my * (mx / Mx)
    if fam == MIX_RATIO:
        return s.w * my + (1.0 - s.w) * my * _ratio_power(ops, Mx, mx, 1.0)
    if fam == REGRESSION:
        if extras is None:
            raise DomainError(
                "regression estimator needs sample p11 and density estimates"
            )
        p11, fy, fx = extras
        ops.fail_if(fy == 0.0, SingularityError,
                    "sample density of y at its median is zero")
        d_hat = (fx / fy) * (4.0 * p11 - 1.0)
        return my + d_hat * (Mx - mx)
    if fam == SHRINK_DIFF_TIED:
        return s.d1 * my + (1.0 - s.d1) * (Mx - mx)
    if fam == SHRINK_DIFF:
        return s.d1 * my + s.d2 * (Mx - mx)
    if fam == SHRINK_CONVEX:
        return s.d1 * my + s.d2 * mx + (1.0 - s.d1 - s.d2) * Mx
    if fam == SHRINK_DIFF_SCALED:
        return (s.d1 * my + s.d2 * (Mx - mx)) * _ratio_power(ops, Mx, mx, 1.0)
    if fam == RATIO_EXP:
        base = (
            my
            * _ratio_power(ops, Mx, mx, s.alpha)
            * _exp_adjustment(ops, Mx, mx, s.eta, s.lam)
        )
        return s.w1 * base + s.w2 * mx + (1.0 - s.w1 - s.w2) * Mx

    raise DomainError(f"unknown estimator family {fam!r}")


def coeffs_of(spec: EstimatorSpec, params: MedianParams) -> ExpansionCoeffs:
    """First-order expansion coefficients of ``spec`` at ``params``."""
    _require_resolved(spec)
    return ExpansionCoeffs(*coeff_values(FLOATS, spec, params))


def coeff_values(ops, s, params) -> tuple:
    """``(c0, c_e0, c_e1, c_e1sq, c_e0e1)`` of :func:`coeffs_of` for the
    resolved scalars ``s`` (an :class:`EstimatorSpec` or any object with its
    attributes), computed by ``ops``."""
    My, Mx, b = params.median_y, params.median_x, params.median_gap
    fam = s.family
    # the weight families come first: each weight solve reads them 2 or 3 times
    if fam == RATIO_EXP:
        w1, w2, alpha = s.w1, s.w2, s.alpha
        k = k_const(s.eta, s.lam, Mx, ops=ops)
        a = alpha + k  # total first-order ratio slope
        d2nd = 1.5 * k * k + alpha * k + alpha * (alpha + 1.0) / 2.0  # of e1^2
        c = w1 * My
        return (w1 - 1.0) * (My - Mx), c, -c * a + w2 * Mx, c * d2nd, -c * a
    if fam == SHRINK_DIFF_SCALED:
        c = s.d1 * My
        return (s.d1 - 1.0) * My, c, -(s.d2 * Mx + c), s.d2 * Mx + c, -c
    if fam == SHRINK_CONVEX:
        return (s.d1 - 1.0) * b, s.d1 * My, s.d2 * Mx, 0.0, 0.0
    if fam == SHRINK_DIFF:
        return (s.d1 - 1.0) * My, s.d1 * My, -s.d2 * Mx, 0.0, 0.0
    if fam == SHRINK_DIFF_TIED:
        return (s.d1 - 1.0) * My, s.d1 * My, -(1.0 - s.d1) * Mx, 0.0, 0.0
    if fam == SHIFTED_PRODUCT:
        ops.fail_if(s.shift == Mx, SingularityError,
                    "shift equals the known auxiliary median")
        theta = Mx / (s.shift - Mx)
        return 0.0, My, -theta * My, 0.0, -theta * My
    if fam == SHIFTED_RATIO:
        ops.fail_if(s.shift + Mx == 0.0, SingularityError,
                    "shift + auxiliary median is zero")
        theta = Mx / (s.shift + Mx)
        return 0.0, My, -theta * My, ops.pow(theta, 2) * My, -theta * My
    if fam == POWER_RATIO:
        a = s.alpha
        return 0.0, My, -a * My, a * (a + 1.0) / 2.0 * My, -a * My
    if fam == DAMPED_RATIO:
        check_squares(ops, s, ("beta",))
        bt = s.beta
        return 0.0, My, -bt * My, ops.pow(bt, 2) * My, -bt * My
    if fam == DUAL_POWER:
        v = s.v
        return 0.0, My, v * My, -v * (v + 1.0) / 2.0 * My, v * My
    if fam == MIX_PRODUCT:
        c = (1.0 - s.w) * My
        return 0.0, My, c, 0.0, c
    if fam == MIX_RATIO:
        c = (1.0 - s.w) * My
        return 0.0, My, -c, c, -c
    if fam == REGRESSION:
        # slope at its population limit, the optimal difference coefficient
        d_opt = params.rho_c * My * params.cv_y / (Mx * params.cv_x)
        return 0.0, My, -d_opt * Mx, 0.0, 0.0

    raise DomainError(f"unknown estimator family {fam!r}")


# ---------------------------------------------------------------------------
# Optimal weight resolution
# ---------------------------------------------------------------------------

# family -> the optimum of its one scalar from the slope k_c and Mx; these
# read k_c alone, so they resolve also where a squared cv overflows
_SLOPE_OPTIMA = {
    POWER_RATIO: lambda kc, Mx: kc,
    DAMPED_RATIO: lambda kc, Mx: kc,
    DUAL_POWER: lambda kc, Mx: -kc,
    MIX_PRODUCT: lambda kc, Mx: 1.0 + kc,
    MIX_RATIO: lambda kc, Mx: 1.0 - kc,
    SHIFTED_PRODUCT: lambda kc, Mx: Mx * (1.0 + 1.0 / kc),
    SHIFTED_RATIO: lambda kc, Mx: Mx * (1.0 - kc) / kc,
}


def resolve_weights(spec: EstimatorSpec, params: MedianParams) -> EstimatorSpec:
    """Fill every free scalar with its first-order MSE minimiser; pinned
    scalars are never changed.

    The one scalar of ``shifted_*``, ``power_ratio``, ``damped_ratio``,
    ``dual_power`` and ``mix_*`` is a map of the concordance slope k_c.  For
    the shrinkage families and ``ratio_exp``, v = (c0, c_e0, c_e1) of
    :func:`coeffs_of` is affine in the free weights t, v = v0 + J t, and the
    first-order MSE is v' M v with M = diag(1, Sigma), Sigma the covariance
    of (e0, e1).  The weights solve the normal equations J'MJ t = -J'M v0,
    so any subset of them may be free.  Where v0 = 0 the zero weights leave
    no first-order error, a minimum of that sum of squares, unique or not:
    the weights are then 0.  Otherwise a determinant of J'MJ that is not
    positive raises :class:`DegenerateOptimumError`.  ``CROSS_TERM_FAMILIES``
    add 2 c0 q'v to v' M v and need 1 - gamma cv_x^2 > 0, or raise
    :class:`DomainError`.
    """
    found = optimal_weights(FLOATS, spec, params)
    if not found:
        return spec
    # the weights are checked finite floats, so the new spec keeps the
    # invariants without validating its other scalars again
    resolved = object.__new__(EstimatorSpec)
    vars(resolved).update(vars(spec), **found)
    return resolved


def optimal_weights(ops, spec: EstimatorSpec, params, moments=None) -> dict:
    """The weights :func:`resolve_weights` fills in, by name, computed by
    ``ops`` from ``params`` (a :class:`MedianParams` or any object with its
    fields).  A weight that is not finite fails as the spec's own check does.
    A spec with no free scalars gets none.

    ``moments`` is :func:`~medaux.expansion.moment_values` of ``params``,
    or ``None`` to compute it here, where the normal equations read it.
    A caller that passes it carries the failures of that computation into
    ``ops`` itself.
    """
    free = free_scalars(spec)
    if not free:
        return {}
    fam = spec.family
    if fam in _SLOPE_OPTIMA:
        kc = params.k_c
        if fam in (SHIFTED_PRODUCT, SHIFTED_RATIO):
            ops.fail_if(kc == 0.0, SingularityError,
                        "optimal shift undefined when k_c is zero")
        found = {free[0]: _SLOPE_OPTIMA[fam](kc, params.median_x)}
    else:
        found = _normal_equations(ops, spec, free, params, moments)
    for name, value in found.items():
        ops.require(ops.isfinite(value), DomainError,
                    "scalar {!r} must be finite", name)
    return found


def _normal_equations(ops, spec, free, params, moments) -> dict:
    """The ``free`` weights of :func:`resolve_weights`, with v0 and J read off
    :func:`coeff_values` at 0 and at each unit step, by Cramer's rule.  For
    ``CROSS_TERM_FAMILIES`` the objective adds 2 c0 q'v, q = (var_e1, cov) on
    (c_e1sq, c_e0e1), and q's terms join both sides of the equations."""
    if moments is None:
        moments = moment_values(ops, params)
    var_e0, var_e1, cov = moments
    check_squares(ops, params, ("median_y", "median_x"))
    cross = spec.family in CROSS_TERM_FAMILIES
    if cross:
        # the determinant in (d1, d2) is Mx^2 My^2 gamma cv_x^2 (u + v), v =
        # gamma cv_y^2 (1 - rho_c^2): where u <= 0 < u + v the minimum
        # u My^2 v / (u + v) <= 0 is not an MSE
        u = 1.0 - var_e1
        ops.require(u > 0.0, DomainError, "need 1 - gamma*cv_x^2 > 0, got {!r}", u)
    point = SimpleNamespace(**{**vars(spec), **dict.fromkeys(free, 0.0)})
    at = vars(point)
    c0, c1, c2, c3, c4 = coeff_values(ops, point, params)
    cols = []  # (J_j, q'J_j, M J_j) of each free weight
    for name in free:
        at[name] = 1.0
        u0, u1, u2, u3, u4 = coeff_values(ops, point, params)
        at[name] = 0.0
        u0, u1, u2 = u0 - c0, u1 - c1, u2 - c2
        q = var_e1 * (u3 - c3) + cov * (u4 - c4) if cross else 0.0
        cols.append((u0, u1, u2, q, var_e0 * u1 + cov * u2, cov * u1 + var_e1 * u2))

    def gram(a, b):  # J_a' M b (with q's terms), b a column J_b or v0
        g = a[0] * b[0] + a[4] * b[1] + a[5] * b[2]
        return g + a[0] * b[3] + a[3] * b[0] if cross else g

    v0 = (c0, c1, c2, var_e1 * c3 + cov * c4 if cross else 0.0)
    rhs = [-gram(col, v0) for col in cols]
    if len(cols) == 1:
        det, nums = gram(cols[0], cols[0]), rhs
    else:
        a, b = cols
        g11, g12, g22 = gram(a, a), gram(a, b), gram(b, b)
        det = g11 * g22 - g12 * g12
        nums = [rhs[0] * g22 - rhs[1] * g12, rhs[1] * g11 - rhs[0] * g12]
    has_error = (c0 != 0.0) | (c1 != 0.0) | (c2 != 0.0)
    ops.fail_if(has_error & (det <= 0.0), DegenerateOptimumError,
                "optimal {} undefined: normal-equation determinant {!r} is "
                "not positive", ", ".join(free), det)
    den = ops.select(has_error, det, 0.0)  # 0 gives the zero weights
    return {name: ratio_or(ops, num, den, 0.0) for name, num in zip(free, nums)}


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

# name -> (family, pinned scalars); a string names the MedianParams field the
# scalar is read from, so those presets need params
_PRESETS: dict[str, tuple[str, dict[str, float | str]]] = {
    "M_y": (POWER_RATIO, dict(alpha=0.0)),
    "M_r": (POWER_RATIO, dict(alpha=1.0)),
    "M_p": (POWER_RATIO, dict(alpha=-1.0)),
    "M_d": (SHRINK_DIFF, dict(d1=1.0)),
    "M_1": (SHIFTED_PRODUCT, {}),
    "M_2": (SHIFTED_RATIO, {}),
    "M_3": (POWER_RATIO, {}),
    "M_4": (DAMPED_RATIO, {}),
    "M_5": (DUAL_POWER, {}),
    "M_6": (MIX_PRODUCT, {}),
    "M_7": (MIX_RATIO, {}),
    "M_lr": (REGRESSION, {}),
    "M_d1": (SHRINK_DIFF_TIED, {}),
    "M_d2": (SHRINK_DIFF, {}),
    "M_d3": (SHRINK_CONVEX, {}),
    "M_d4": (SHRINK_DIFF_SCALED, {}),
    # two-weight class and the generated single-weight subsets
    "t_m": (RATIO_EXP, dict(alpha=0.0, eta=0.0, lam=1.0)),
    "t_m1": (RATIO_EXP, dict(w1=1.0, w2=0.0, alpha=0.0, eta=0.0, lam=1.0)),
    "t_m2": (RATIO_EXP, dict(w1=1.0, w2=0.0, alpha=1.0, eta=0.0, lam=1.0)),
    "t_m3": (POWER_RATIO, {}),
    "t_m4": (RATIO_EXP, dict(w1=1.0, w2=0.0, alpha=-1.0, eta=0.0, lam=1.0)),
    "t_m5": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta=0.0, lam=1.0)),
    "t_m6": (RATIO_EXP, dict(w2=0.0, alpha=-1.0, eta=0.0, lam=1.0)),
    "t_m7": (RATIO_EXP, dict(w2=0.0, alpha=0.0, eta=0.0, lam=1.0)),
    "t_m8": (RATIO_EXP, dict(alpha=0.0, eta=0.0, lam=1.0)),
    "t_mq1": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta=1.0, lam=1.0)),
    "t_mq4": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta=1.0, lam=0.0)),
    "t_mq5": (RATIO_EXP, dict(w2=0.0, alpha=-1.0, eta=1.0, lam=1.0)),
    "t_mq2": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta=1.0, lam="rho_c")),
    "t_mq3": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta=1.0, lam="median_x")),
    "t_mq6": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta="median_x", lam="rho_c")),
    "t_mq7": (RATIO_EXP, dict(w2=0.0, alpha=0.0, eta="median_x", lam="rho_c")),
    "t_mq8": (RATIO_EXP, dict(w2=0.0, alpha=1.0, eta="rho_c", lam="median_x")),
    "t_mq9": (RATIO_EXP, dict(w2=0.0, alpha=-1.0, eta="rho_c", lam="median_x")),
}
_PRESETS_LOWER = {name.lower(): name for name in _PRESETS}
# specs are frozen, so the presets that pin only numbers are built once
_FIXED_PRESETS = {
    name: EstimatorSpec(family=family, label=name, **pinned)
    for name, (family, pinned) in _PRESETS.items()
    if not any(isinstance(value, str) for value in pinned.values())
}
# the others as (base, pulled): their fields, checked here once with each
# pulled scalar at 1.0, and the MedianParams field each pulled scalar reads
_PULLING_PRESETS = {
    name: (
        vars(EstimatorSpec(family=family, label=name, **{
            field: 1.0 if isinstance(value, str) else value
            for field, value in pinned.items()
        })),
        {field: value for field, value in pinned.items() if isinstance(value, str)},
    )
    for name, (family, pinned) in _PRESETS.items()
    if name not in _FIXED_PRESETS
}

PRESET_NAMES = tuple(_PRESETS)


def canonical_name(name: str) -> str:
    """Canonical spelling of a preset name, case-insensitively."""
    canonical = _PRESETS_LOWER.get(name.strip().lower())
    if canonical is None:
        raise UnknownEstimatorError(
            f"unknown estimator {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    return canonical


def preset(name: str, params: MedianParams | None = None) -> EstimatorSpec:
    """Build a named estimator, case-insensitively.

    Presets whose scalars are population quantities (e.g. ``t_mq7``) require
    ``params``.  Unknown names raise :class:`UnknownEstimatorError`.
    """
    name = canonical_name(name)
    if name in _FIXED_PRESETS:
        return _FIXED_PRESETS[name]
    if params is None:
        raise DomainError(f"preset {name!r} pulls scalars from params")
    base, pulled = _PULLING_PRESETS[name]
    # the pulled median_x and rho_c are finite floats by MedianParams' own
    # checks, so the spec keeps its invariants without validating again
    spec = object.__new__(EstimatorSpec)
    vars(spec).update(base, **{f: getattr(params, attr) for f, attr in pulled.items()})
    return spec
