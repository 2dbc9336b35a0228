"""The array backend of the replicate blocks: every row carries the bits of
the float path, and a row fails exactly where the float path raises."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medaux import (
    FAMILIES,
    PRESET_NAMES,
    DomainError,
    EstimatorSpec,
    MedauxError,
    MedianParams,
    SampleStats,
    error_moments,
    evaluate,
    free_scalars,
    preset,
    resolve_weights,
)
from medaux.montecarlo import _estimate_columns, _Rows, _true_optimum

# on glibc x86-64, np.square(x) differs from x**2 in the last bit here
SQUARE_MISMATCHES = (0.7294710334644697, 2.748468390860962, 1.7836106789439197)
# and np.exp(x) differs from math.exp(x)
EXP_MISMATCHES = (-0.13981196248952232, -0.2131967739310746, 0.358100639646209)


def _bits(values) -> np.ndarray:
    """Bit patterns, with every NaN made the same NaN."""
    arr = np.asarray(values, dtype=float)
    return np.where(np.isnan(arr), np.nan, arr).view(np.uint64)


def _backend(K: int) -> _Rows:
    return _Rows(np.zeros(K, dtype=bool))


class TestElementwiseHelpers:
    def test_pow_equals_python_power_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([SQUARE_MISMATCHES, rng.uniform(0.01, 50.0, 2000)])
        for y in (2, 2.0, 0.37, -1.5, 3.0):
            got = _backend(x.size).pow(x, y)
            assert np.array_equal(_bits(got), _bits([v**y for v in x.tolist()]))
        alpha = rng.uniform(-3.0, 3.0, x.size)
        got = _backend(x.size).pow(x, alpha)
        expected = [a**b for a, b in zip(x.tolist(), alpha.tolist())]
        assert np.array_equal(_bits(got), _bits(expected))

    def test_exp_equals_math_exp_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([EXP_MISMATCHES, rng.uniform(-0.5, 0.5, 2000), [0.0, -0.0]])
        got = _backend(x.size).exp(x)
        assert np.array_equal(_bits(got), _bits([math.exp(v) for v in x.tolist()]))

    def test_a_raising_row_fails_alone(self):
        rows = _backend(5)
        base = np.array([1e200, 2.0, 0.0, -2.0, 3.0])
        got = rows.pow(base, np.array([2.0, 2.0, -1.0, 0.5, 2.0]))
        # overflow, zero to a negative power, a complex power
        assert rows.bad.tolist() == [True, False, True, True, False]
        assert got.tolist()[1::3] == [4.0, 9.0]
        rows.bad[:] = False
        got = rows.pow(base, 2)
        assert rows.bad.tolist() == [True, False, False, False, False]
        assert np.isnan(got[0]) and got.tolist()[1:] == [4.0, 0.0, 4.0, 9.0]
        rows = _backend(3)
        got = rows.exp(np.array([1000.0, 0.0, -1000.0]))
        assert rows.bad.tolist() == [True, False, False]
        assert got.tolist()[1:] == [1.0, 0.0]

    def test_scalar_arguments_fail_every_row(self):
        rows = _backend(3)
        assert rows.pow(3.0, 2) == 9.0 and not rows.bad.any()
        assert math.isnan(rows.pow(1e200, 2)) and rows.bad.all()

    def test_backends_share_no_marks(self):
        x = np.array([1e200, 2.0])
        first, second = _backend(2), _backend(2)
        assert np.array_equal(_bits(first.pow(x, 2)), _bits(second.pow(x, 2)))
        assert first.bad.tolist() == second.bad.tolist() == [True, False]
        second.pow(np.array([2.0, 1e200]), 2)
        assert first.bad.tolist() == [True, False]
        assert second.bad.tolist() == [True, True]


# ---------------------------------------------------------------------------
# Each family: block column equals the float path row by row
# ---------------------------------------------------------------------------


def _family_specs(params: MedianParams) -> list[EstimatorSpec]:
    """Every preset plus non-integer exponents and relabelled or pinned
    scaled shrinkage."""
    return [preset(name, params) for name in PRESET_NAMES] + [
        EstimatorSpec(family="power_ratio", label="alpha_0.37", alpha=0.37),
        EstimatorSpec(family="dual_power", label="v_-1.3", v=-1.3),
        EstimatorSpec(family="shifted_product", label="shift_5", shift=5.0),
        EstimatorSpec(family="shrink_diff_scaled", label="ss_free"),
        EstimatorSpec(family="shrink_diff_scaled", label="ss_pinned", d1=0.9, d2=0.2),
        EstimatorSpec(family="ratio_exp", label="re_free", alpha=0.5, eta=2.0, lam=-1.0),
    ]


def _scalar_cell(params, spec, plug_in, my, mx, extras):
    """One replicate and spec by the public float calls, NaN on failure.

    A spec with free scalars is resolved from the row's plug-in vector under
    plug-in and from ``params`` otherwise.
    """
    own = plug_in and bool(free_scalars(spec))
    stats = SampleStats(my, mx, *extras) if extras else SampleStats(my, mx)
    hat = None
    if own:
        if extras is None:
            return math.nan
        p11, fy, fx = extras
        rho = max(-1.0, min(1.0, 4.0 * p11 - 1.0))
        try:
            hat = MedianParams(params.N, params.n, my, mx, fy, fx, rho)
        except MedauxError:
            return math.nan
    try:
        return evaluate(resolve_weights(spec, hat if own else params), stats, params)
    except (MedauxError, ArithmeticError):
        return math.nan


_EDGES = [0.0, -0.0, 1.0, -2.5, 1e-200, 1e200, -1e200, 1e-310]
_median = st.one_of(st.sampled_from(_EDGES), st.floats(-1e3, 1e3))
_density = st.one_of(
    st.sampled_from([math.nan, 0.0, 1e-300, 1e300, 1e-160]),
    st.floats(1e-3, 10.0),
)
_p11 = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
_positive = st.one_of(
    st.sampled_from([1e-150, 1e150]), st.floats(1e-2, 1e4)
)


@st.composite
def _params(draw) -> MedianParams:
    N = draw(st.integers(3, 10_000))
    return MedianParams(
        N,
        draw(st.integers(1, N - 1)),
        draw(_positive),
        draw(_positive),
        draw(_positive),
        draw(_positive),
        draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))),
    )


def test_specs_cover_every_family():
    params = MedianParams(100, 10, 5.0, 4.0, 0.2, 0.3, 0.5)
    assert {s.family for s in _family_specs(params)} == FAMILIES


@pytest.mark.parametrize("weights", ["true-params", "plug-in"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_block_column_equals_scalar_calls(weights, data):
    params = data.draw(_params(), label="params")
    K = data.draw(st.integers(1, 6), label="K")
    my = np.array(data.draw(st.lists(_median, min_size=K, max_size=K), label="my"))
    mx = np.array(data.draw(st.lists(_median, min_size=K, max_size=K), label="mx"))
    extras = None
    if data.draw(st.booleans(), label="extras"):
        extras = tuple(
            np.array(data.draw(st.lists(s, min_size=K, max_size=K), label=name))
            for name, s in (("p11", _p11), ("fy", _density), ("fx", _density))
        )
    plug_in = weights == "plug-in"
    specs = _family_specs(params)
    # true-params weights are solved once per run, before the blocks
    block_specs = specs if plug_in else [_true_optimum(params, s)[0] for s in specs]

    got = _estimate_columns(params, tuple(block_specs), my, mx, extras)
    for r in range(K):
        row_extras = None
        if extras is not None and not (np.isnan(extras[1][r]) or np.isnan(extras[2][r])):
            row_extras = tuple(float(e[r]) for e in extras)
        expected = [
            _scalar_cell(params, spec, plug_in, float(my[r]), float(mx[r]), row_extras)
            for spec in specs
        ]
        mismatched = _bits(got[r]) != _bits(expected)
        assert not mismatched.any(), [
            (specs[j].label, got[r, j], expected[j]) for j in np.flatnonzero(mismatched)
        ]


def test_zero_exponent_never_reads_the_x_median():
    # M_y is the power ratio at alpha = 0, and so is M_3 where its plug-in
    # alpha k_c is 0 (p11 = 1/4)
    known = MedianParams(100, 10, 5.0, 4.0, 0.2, 0.3, 0.5)
    assert evaluate(preset("M_y"), SampleStats(7.0, 0.0), known) == 7.0
    my, mx = np.array([7.0, 7.0]), np.array([0.0, 3.0])
    got = _estimate_columns(known, (preset("M_y"),), my, mx, None)
    assert got[:, 0].tolist() == [7.0, 7.0]
    extras = (np.array([0.25, 0.5]), np.array([0.2, 0.2]), np.array([0.3, 0.3]))
    got = _estimate_columns(known, (preset("M_3"),), my, mx + 2.0, extras)
    assert got[0, 0] == 7.0 and got[1, 0] != 7.0


def test_plug_in_overflow_fails_its_row_only():
    # a plug-in cv_x near 1e300 overflows cv_x**2 in the error moments
    params = MedianParams(1000, 50, 10.0, 8.0, 0.1, 0.1, 0.5)
    specs = (preset("M_d", params), preset("t_m", params), preset("M_y", params))
    my, mx = np.array([10.0, 10.0]), np.array([8.0, 8.0])
    extras = (np.array([0.4, 0.4]), np.array([0.1, 0.1]), np.array([0.1, 1e-300]))
    got = _estimate_columns(params, specs, my, mx, extras)
    assert np.isfinite(got[0]).all()
    assert np.isnan(got[1, :2]).all() and got[1, 2] == 10.0
    with pytest.raises(DomainError, match="^cv_x = .* is too large: its square overflows$"):
        hat = MedianParams(1000, 50, 10.0, 8.0, 0.1, 1e-300, 0.6)
        resolve_weights(specs[0], hat)


def test_k_c_optima_read_no_second_moments():
    # cv_x = 1.25e299 overflows cv_x**2, but k_c = 4.8e-300 is all that the
    # power, damped, dual and mix optima read
    hat = MedianParams(1000, 50, 10.0, 8.0, 0.1, 1e-300, 0.6)
    kc = hat.k_c
    assert kc == pytest.approx(4.8e-300)
    expected = {
        "M_3": ("alpha", kc),
        "M_4": ("beta", kc),
        "M_5": ("v", -kc),
        "M_6": ("w", 1.0 + kc),
        "M_7": ("w", 1.0 - kc),
    }
    for name, (field, value) in expected.items():
        assert getattr(resolve_weights(preset(name), hat), field) == value, name


def test_k_c_optima_keep_their_plug_in_rows():
    # row 1 re-estimates the vector above (fx 1e-300); the sample mx differs
    # from the known Mx, so the weights move the estimates
    known = MedianParams(1000, 50, 10.0, 7.5, 0.1, 0.1, 0.5)
    specs = tuple(preset(name) for name in ("M_3", "M_4", "M_5", "M_6", "M_7"))
    my, mx = np.array([10.0, 10.0]), np.array([8.0, 8.0])
    p11 = np.array([0.4, 0.4])
    fy, fx = np.array([0.1, 0.1]), np.array([0.1, 1e-300])
    got = _estimate_columns(known, specs, my, mx, (p11, fy, fx))
    assert np.isfinite(got).all()
    for r in range(2):
        hat = MedianParams(1000, 50, 10.0, 8.0, 0.1, float(fx[r]), 4.0 * 0.4 - 1.0)
        stats = SampleStats(10.0, 8.0, 0.4, 0.1, float(fx[r]))
        expected = [evaluate(resolve_weights(s, hat), stats, known) for s in specs]
        assert _bits(got[r]).tolist() == _bits(expected).tolist()


def test_underflowing_plug_in_variance_keeps_its_row():
    # row 1's plug-in fy = 1e160 gives cv_y = 1e-161, and var_e0 underflows to 0
    # while cov(e0, e1) does not; the solve still gives the row its weights
    known = MedianParams(1000, 50, 10.0, 8.0, 0.1, 0.1, 0.5)
    specs = (preset("M_d", known), preset("t_m", known), preset("M_y", known))
    my, mx = np.array([10.0, 10.0]), np.array([8.0, 8.0])
    p11, fy, fx = np.array([0.4, 0.4]), np.array([0.1, 1e160]), np.array([0.1, 0.1])
    got = _estimate_columns(known, specs, my, mx, (p11, fy, fx))
    hat = MedianParams(1000, 50, 10.0, 8.0, 1e160, 0.1, 4.0 * 0.4 - 1.0)
    assert error_moments(hat).var_e0 == 0.0 < error_moments(hat).cov_e0e1
    stats = SampleStats(10.0, 8.0, 0.4, 1e160, 0.1)
    expected = [evaluate(resolve_weights(s, hat), stats, known) for s in specs]
    assert _bits(got[1]).tolist() == _bits(expected).tolist()
    assert np.isfinite(got[0]).all() and got[1].tolist() == [10.0] * 3
