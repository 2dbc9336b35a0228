"""Population ingestion, medians, proportions, densities and parameters."""

from __future__ import annotations

import inspect
import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medaux import (
    DegenerateSampleError,
    DomainError,
    HistogramDensity,
    KernelDensity,
    KnownDensity,
    MedianParams,
    ParseError,
    PopulationFrame,
    SchemaError,
    compute_params,
    density_at,
    finite_median,
    load_params,
    load_population,
)
from medaux import montecarlo
from medaux.population import (
    _kernel_density_rows,
    _rank_dtype,
    _sorted_median,
    _sorted_quantile,
)
from oracles import float_sort_statistics, kernel_density_rows

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestLoadPopulation:
    def test_basic_parse(self):
        frame = load_population(io.StringIO("x,y\n1,2\n3,4"))
        assert frame.N == 2
        assert frame.x.tolist() == [1.0, 3.0]
        assert frame.y.tolist() == [2.0, 4.0]

    def test_comment_lines_skipped(self):
        frame = load_population(io.StringIO("x,y\n1,2\n#c\n3,4"))
        assert frame.N == 2

    def test_non_numeric_reports_line(self):
        with pytest.raises(ParseError) as exc:
            load_population(io.StringIO("x,y\n1,abc"))
        assert exc.value.line == 2

    def test_header_order_respected(self):
        frame = load_population(io.StringIO("y,x\n2,1\n4,3"))
        assert frame.x.tolist() == [1.0, 3.0]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_population(io.StringIO("a,b\n1,2\n3,4"))

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as exc:
            load_population(io.StringIO("x,y\n1,2\n1,2,3"))
        assert exc.value.line == 3

    def test_single_row_rejected(self):
        with pytest.raises(DomainError):
            load_population(io.StringIO("x,y\n1,2"))

    def test_bytes_and_invalid_utf8(self):
        frame = load_population(b"x,y\n1,2\n3,4")
        assert frame.N == 2
        with pytest.raises(ParseError):
            load_population(b"\xff\xfe\x00bad")

    def test_leading_byte_order_mark_is_dropped(self):
        # one mark, from bytes or from a text stream; a second one is data
        for source in (b"\xef\xbb\xbfx,y\n1,2\n3,4", io.StringIO("\ufeffx,y\n1,2\n3,4")):
            assert load_population(source).x.tolist() == [1.0, 3.0]
        with pytest.raises(ParseError):
            load_population(io.StringIO("\ufeff\ufeffx,y\n1,2\n3,4"))

    def test_path_input(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
        assert load_population(p).N == 2


class TestPopulationFrame:
    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            PopulationFrame(x=np.array([1.0, 2.0]), y=np.array([1.0]))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            PopulationFrame(x=np.array([1.0, math.nan]), y=np.array([1.0, 2.0]))

    def test_arrays_read_only(self):
        frame = PopulationFrame(x=np.array([1.0, 2.0]), y=np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            frame.x[0] = 0.0

    def test_columns_are_copies(self):
        # the frame caches its order table, so nothing else may write its columns
        x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        frame = PopulationFrame(x=x, y=y)
        x[0] = y[0] = 9.0
        assert frame.x.tolist() == [1.0, 2.0] and frame.y.tolist() == [3.0, 4.0]
        assert x.flags.writeable


class TestFiniteMedian:
    def test_odd_count(self):
        assert finite_median([3, 1, 2]) == 2

    def test_even_count_averages_central_pair(self):
        assert finite_median([1, 2, 3, 4]) == 2.5

    def test_constant_vector(self):
        assert finite_median([5, 5, 5]) == 5

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            finite_median([])

    @given(st.lists(finite_floats, min_size=1, max_size=30), st.randoms())
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert finite_median(shuffled) == finite_median(values)

    @given(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_affine_equivariant(self, values, scale, shift):
        lhs = finite_median([scale * v + shift for v in values])
        rhs = scale * finite_median(values) + shift
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


class TestDensityAt:
    def test_known_passthrough(self):
        assert density_at([1, 2, 3], 9.9, KnownDensity(0.00014)) == 0.00014

    def test_uniform_kde_near_one(self):
        # true density of U(0,1) at 0.5 is 1; large-sample KDE oracle
        rng = np.random.default_rng(20240817)
        draws = rng.uniform(0.0, 1.0, size=10_000)
        est = density_at(draws, 0.5, KernelDensity())
        assert abs(est - 1.0) < 0.1

    def test_zero_spread_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            density_at([1.0, 1.0, 1.0], 1.0, KernelDensity())

    def test_single_observation_rejected(self):
        with pytest.raises(DomainError):
            density_at([1.0], 1.0, KernelDensity())

    def test_histogram_uniform(self):
        rng = np.random.default_rng(7)
        draws = rng.uniform(0.0, 1.0, size=20_000)
        est = density_at(draws, 0.5, HistogramDensity())
        assert abs(est - 1.0) < 0.15

    def test_histogram_outside_range_is_zero(self):
        assert density_at([1.0, 2.0, 3.0], 99.0, HistogramDensity()) == 0.0

    @staticmethod
    def _outlier_sample(bins: float) -> np.ndarray:
        """1..8 and one outlier above them: numpy's rule gives IQR 4 and
        width 8 * 9**(-1/3), and the outlier sets the range to ``bins``
        widths."""
        width = 2.0 * 4.0 * 9 ** (-1.0 / 3.0)
        return np.array([*range(1, 9), 1.0 + bins * width])

    @pytest.mark.parametrize("bins", [1.5, 700.5, 8999.5])
    def test_histogram_below_the_cap_is_numpys_reading(self, bins):
        # the cap is 1000 bins per observation, 9000 here: the last sample
        # asks for exactly 9000, and the value is still np.histogram's
        values = self._outlier_sample(bins)
        counts, edges = np.histogram(values, bins="fd", density=True)
        assert counts.size == math.ceil(bins)
        for point in (1.0, 4.5, 8.0, values[-1], edges[1]):
            idx = min(int(np.searchsorted(edges, point, side="right")) - 1, counts.size - 1)
            assert density_at(values, point, HistogramDensity()) == counts[idx]

    @pytest.mark.parametrize(
        "values",
        [
            [*range(1, 11), 1e9],  # 222,398,009 bins, about 3.3 GiB of counts and edges
            [1.0, 2.0, 3.0, 4.0, 1e10, -1e10],  # 7.3e9 bins
        ],
        ids=["3.3GiB", "54GiB"],
    )
    def test_histogram_above_the_cap_is_refused_before_binning(self, values, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("np.histogram ran")

        monkeypatch.setattr(np, "histogram", unreachable)
        with pytest.raises(DomainError, match=r"above the cap of \d+, 1000 per observation"):
            density_at(values, 2.0, HistogramDensity())
        with pytest.raises(DomainError, match=r"asks for 9001, above the cap of 9000"):
            density_at(self._outlier_sample(9000.5), 2.0, HistogramDensity())


def _silverman_reference(values: np.ndarray, point: float) -> float:
    """One-sample Gaussian kernel estimate, written out on a 1-D array."""
    with np.errstate(all="ignore"):  # values near the float limit overflow
        sd = float(np.std(values, ddof=1))
        q75, q25 = np.percentile(values, [75, 25])
        h = 0.9 * min(sd, float(q75 - q25) / 1.34) * values.size ** (-0.2)
        if not (math.isfinite(h) and h > 0):
            return math.nan
        z = (point - values) / h
        return float(np.mean(np.exp(-0.5 * z * z)) / (h * math.sqrt(2.0 * math.pi)))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _rank_block(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, ranks) of a (K, n) block taken as one column: its entries
    sorted stably, and each entry's rank in that order, sorted along the
    block's rows, so ``values[ranks]`` is the block with its rows sorted."""
    flat = rows.ravel()
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(flat.size, dtype=np.intp)
    ranks[order] = np.arange(flat.size)
    return flat[order], np.sort(ranks.reshape(rows.shape), axis=1)


def _rank_statistics(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(median, q25, q75) of each row by the rank route."""
    values, ranks = _rank_block(rows)
    with np.errstate(all="ignore"):
        return (
            _sorted_median(values, ranks),
            _sorted_quantile(values, ranks, 0.25),
            _sorted_quantile(values, ranks, 0.75),
        )


def _density_rows(rows: np.ndarray, points: np.ndarray):
    """The kernel density on a copy, in the rows' own memory order: the
    kernel writes over its rows, and the callers read ``rows`` again."""
    _, q25, q75 = _rank_statistics(rows)
    return _kernel_density_rows(np.copy(rows, order="K"), q25, q75, points)


def _sample_rows() -> np.ndarray:
    """Continuous, tied and zero-spread rows of 40 values."""
    rng = np.random.default_rng(11)
    rows = rng.lognormal(3.0, 0.5, size=(60, 40))
    rows[10:20] = rng.integers(0, 3, size=(10, 40)).astype(float)  # few levels
    rows[20:25] = 7.0  # no spread at all
    rows[25:30, :36] = 5.0  # interquartile range zero, sd positive
    return rows


LIMIT = 1.7e308  # the mean of two of these, and their difference, overflow

# (K, n) blocks of short rows and of rows at the float limit
_SHORT_AND_HUGE_ROWS = [
    np.array([[3.0, 5.0], [1.0, 1.0], [-2.0, 7.5], [LIMIT, -LIMIT], [LIMIT, LIMIT]]),
    np.array([[3.0, 5.0, 4.0], [1.0, 1.0, 2.0], [2.0, 2.0, 2.0], [-LIMIT, 1.0, LIMIT]]),
    np.array([
        [LIMIT, -LIMIT, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],  # sd overflows, IQR finite
        [LIMIT, LIMIT, LIMIT, LIMIT, -LIMIT, -LIMIT, -LIMIT, -LIMIT],  # IQR overflows
        [LIMIT, LIMIT, LIMIT, LIMIT, LIMIT, LIMIT, LIMIT, 1.0],
    ]),
]


class TestKernelDensityRows:
    def test_rows_equal_one_sample_estimates(self):
        rows = _sample_rows()
        points = np.median(rows, axis=1)
        density, _ = _density_rows(rows, points)
        for row, point, got in zip(rows, points.tolist(), density.tolist()):
            expected = _silverman_reference(row, point)
            if math.isnan(expected):
                assert math.isnan(got)
                with pytest.raises(DegenerateSampleError):
                    density_at(row, point, KernelDensity())
            else:
                assert got == expected
                assert density_at(row, point, KernelDensity()) == expected

    @pytest.mark.parametrize("rows", _SHORT_AND_HUGE_ROWS, ids=["n2", "n3", "limit"])
    def test_short_and_huge_rows_equal_the_reference_bit_for_bit(self, rows):
        with np.errstate(all="ignore"):
            points = np.median(rows, axis=1)
        density, _ = _density_rows(rows, points)
        expected = [_silverman_reference(r, p) for r, p in zip(rows, points.tolist())]
        assert _bits(density).tolist() == _bits(expected).tolist()
        assert np.isfinite(density).any() and np.isnan(density).any()

    def test_degenerate_rows_flagged(self):
        density, h = _density_rows(_sample_rows(), np.full(60, 5.0))
        flagged = np.flatnonzero(np.isnan(density)).tolist()
        assert flagged == list(range(20, 30))
        assert (h[20:30] == 0.0).all() and (h[:20] > 0).all()

    def test_density_at_leaves_its_values_alone(self):
        # the kernel writes over its rows: density_at hands it a copy
        values = _sample_rows()[0]
        before = values.copy()
        density_at(values, float(np.median(values)), KernelDensity())
        assert _bits(values).tolist() == _bits(before).tolist()

    def test_the_bandwidth_reads_quartiles_not_sorted_rows(self):
        # the blocks sort no float row: the kernel takes the IQR's quartiles
        assert list(inspect.signature(_kernel_density_rows).parameters) == [
            "rows", "q25", "q75", "points"
        ]

    def test_memory_layout_does_not_change_results(self):
        rows = _sample_rows()
        points = np.median(rows, axis=1)
        fortran = np.asfortranarray(rows)
        assert np.array_equal(
            _density_rows(fortran, points)[0],
            _density_rows(rows, points)[0],
            equal_nan=True,
        )


def _lognormal_rows(K: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).lognormal(3.0, 0.5, size=(K, 100))


# (K, n) blocks: every row usable, some rows of zero spread or at the float
# limit, and F-ordered rows
_DENSITY_BLOCKS = {
    "usable": _lognormal_rows(163),
    "zero-spread": _sample_rows(),
    **{f"limit-{k}": rows for k, rows in enumerate(_SHORT_AND_HUGE_ROWS)},
    "fortran": np.asfortranarray(_lognormal_rows(163, seed=4)),
}


class TestKernelDensityInPlace:
    """The in-place steps give the bits of ``np.std(ddof=1)`` and ``np.mean``
    (the oracle :func:`kernel_density_rows`)."""

    @staticmethod
    def _assert_reference_bits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            points = np.median(rows, axis=1)
        density, h = _density_rows(rows, points)
        want_density, want_h = kernel_density_rows(rows, points)
        assert _bits(h).tolist() == _bits(want_h).tolist()
        assert _bits(density).tolist() == _bits(want_density).tolist()
        return density, h

    @pytest.mark.parametrize("name", list(_DENSITY_BLOCKS))
    def test_blocks_equal_the_numpy_formula_bit_for_bit(self, name):
        rows = _DENSITY_BLOCKS[name]
        density, _ = self._assert_reference_bits(rows)
        usable = np.isfinite(density)
        if name in ("usable", "fortran"):
            assert usable.all()  # every row's density kept
        else:
            assert usable.any() and not usable.all()  # some dropped as NaN

    def test_one_row_equals_its_row_of_a_full_block(self):
        rows = _lognormal_rows(163, seed=5)
        rows[[7, 90]] = 4.0  # two rows of zero spread
        density, h = self._assert_reference_bits(rows)
        for r in (0, 7, 90, 162):
            alone, h_alone = self._assert_reference_bits(rows[r : r + 1])
            assert _bits(alone).tolist() == _bits(density[r : r + 1]).tolist()
            assert _bits(h_alone).tolist() == _bits(h[r : r + 1]).tolist()


# row values; -0.0 is left out (see test_signed_zeros_agree_in_value)
_row_value = st.one_of(
    st.sampled_from([LIMIT, -LIMIT, 0.0, 1.0]),
    st.floats(-1e9, 1e9).map(lambda v: v + 0.0),
)


@st.composite
def _row_blocks(draw) -> np.ndarray:
    """(K, n) rows, K in 1..8 and n in 1..60, free or on 1 to 3 tied levels."""
    K, n = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    values = _row_value
    if draw(st.booleans()):
        values = st.sampled_from(draw(st.lists(_row_value, min_size=1, max_size=3)))
    flat = draw(st.lists(values, min_size=K * n, max_size=K * n))
    return np.array(flat).reshape(K, n)


def _wide_rows() -> np.ndarray:
    """A block the size of a 2000-unit sample, with ties."""
    return np.round(np.random.default_rng(5).lognormal(3.0, 0.5, (131, 2000)), 1)


class TestSortedRowStatistics:
    @settings(max_examples=300, deadline=None)
    @example(rows=_wide_rows())
    @example(rows=np.array([[LIMIT], [-1.0], [0.0]]))
    @example(rows=np.array([[LIMIT, LIMIT], [-LIMIT, LIMIT], [1.0, 2.0]]))
    @given(rows=_row_blocks())
    def test_equal_numpy_bit_for_bit(self, rows):
        with np.errstate(all="ignore"):
            ref_median = np.median(rows, axis=1)
            ref_q75, ref_q25 = np.percentile(rows, [75, 25], axis=1)
        got = _rank_statistics(rows)
        for stat, want in zip(got, (ref_median, ref_q25, ref_q75)):
            assert np.array_equal(_bits(stat), _bits(want))
        for stat, want in zip(got, float_sort_statistics(rows)):
            assert np.array_equal(_bits(stat), _bits(want))

    def test_overflow_matches_numpy(self):
        rows = np.array([[LIMIT, LIMIT], [-LIMIT, -LIMIT], [LIMIT, LIMIT - 1e292]])
        assert _rank_statistics(rows)[0].tolist() == [math.inf, -math.inf, math.inf]
        # the 25% index of 5 values is 1 exactly; numpy still interpolates
        # towards entry 2, and weight 0 times an infinite difference is NaN
        row = np.array([[-LIMIT, -LIMIT, LIMIT, LIMIT, LIMIT]])
        assert math.isnan(_rank_statistics(row)[1][0])
        with np.errstate(all="ignore"):
            assert math.isnan(np.percentile(row, 25))

    def test_signed_zeros_agree_in_value(self):
        # which of -0.0 and 0.0 np.median returns depends on where its
        # partition leaves them, so only the values are compared
        rows = np.random.default_rng(2).choice([-0.0, 0.0, 1.0, -1.0], size=(200, 7))
        median, q25, q75 = _rank_statistics(rows)
        assert np.array_equal(median, np.median(rows, axis=1))
        assert np.array_equal(q25, np.percentile(rows, 25, axis=1))
        assert np.array_equal(q75, np.percentile(rows, 75, axis=1))


def _tied_frame(N: int, levels: int, seed: int) -> PopulationFrame:
    """Lognormal pairs, or values on ``levels`` tied levels."""
    rng = np.random.default_rng(seed)
    if levels is None:
        x = rng.lognormal(3.0, 0.5, size=N)
        return PopulationFrame(x=x, y=x * rng.lognormal(0.0, 0.3, size=N))
    x = 1.0 + rng.integers(0, levels, size=N)
    return PopulationFrame(x=x, y=2.0 * x + rng.integers(0, levels, size=N))


class TestOrderTable:
    def test_ranks_read_back_the_columns(self):
        frame = _tied_frame(500, 3, 1)
        ranks, values = frame._order
        N = frame.N
        assert ranks.shape == (2, N) and values.shape == (2 * N,)
        assert _bits(values[ranks[0]]).tolist() == _bits(frame.y).tolist()
        assert _bits(values[ranks[1]]).tolist() == _bits(frame.x).tolist()
        assert sorted(ranks.ravel().tolist()) == list(range(2 * N))
        assert not ranks.flags.writeable and not values.flags.writeable

    @pytest.mark.parametrize(
        "N, dtype", [(2, np.int16), (2**14, np.int16), (2**14 + 1, np.int32),
                     (2**30, np.int32), (2**30 + 1, np.int64), (2**40, np.int64)],
    )
    def test_rank_dtype_is_the_narrowest_that_holds_2N(self, N, dtype):
        assert _rank_dtype(N) is dtype
        assert 2 * N - 1 <= np.iinfo(dtype).max
        if dtype is not np.int16:  # the next narrower type falls short
            narrower = {np.int32: np.int16, np.int64: np.int32}[dtype]
            assert 2 * N - 1 > np.iinfo(narrower).max

    @pytest.mark.parametrize("N", [2**14, 2**14 + 1])
    def test_tables_either_side_of_the_int16_switch(self, N):
        frame = _tied_frame(N, None, N)
        ranks, values = frame._order
        assert ranks.dtype == (np.int16 if N == 2**14 else np.int32)
        assert int(ranks.max()) == 2 * N - 1
        assert _bits(values[ranks[1]]).tolist() == _bits(frame.x).tolist()

    @pytest.mark.parametrize(
        "N, n", [(2**14, 2**14), (2**14 + 1, 2**14 + 1), (2**14 + 1, 100), (2**14, 1)],
    )
    def test_block_statistics_either_side_of_the_int16_switch(self, N, n):
        self._assert_blocks_equal_references(_tied_frame(N, 4, N + n), n, K=2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_statistics_equal_numpy_and_the_float_sort(self, data):
        # heavy ties (values on 1 to 3 levels) or none; odd and even n,
        # from 1 to N
        N = data.draw(st.integers(2, 400), label="N")
        levels = data.draw(st.sampled_from([None, 1, 2, 3]), label="levels")
        sizes = sorted({1, 2, 3, N - 1, N, N // 2 + 1} & set(range(1, N + 1)))
        n = data.draw(st.sampled_from(sizes), label="n")
        frame = _tied_frame(N, levels, data.draw(st.integers(0, 2**32 - 1)))
        self._assert_blocks_equal_references(frame, n, K=data.draw(st.integers(1, 5), label="K"))

    @staticmethod
    def _assert_blocks_equal_references(frame, n, K):
        """The rank route of the sampling blocks against np.median and
        np.percentile, and against the float sort, on the sampled values;
        with n >= 2, the block's columns against the references too."""
        N = frame.N
        stream = montecarlo._replicate_stream(7, 0, n)
        idx = montecarlo._swap_rows(montecarlo._swap_targets(stream, K, n, N), N)
        ranks, values = frame._order
        block = np.sort(np.concatenate([ranks[0][idx], ranks[1][idx]]), axis=1)
        got = [
            _sorted_median(values, block),
            _sorted_quantile(values, block, 0.25),
            _sorted_quantile(values, block, 0.75),
        ]
        rows = np.concatenate([frame.y[idx], frame.x[idx]])
        want = [np.median(rows, axis=1), *np.percentile(rows, [25, 75], axis=1)]
        for stat, ref, old in zip(got, want, float_sort_statistics(rows)):
            assert _bits(stat).tolist() == _bits(ref).tolist() == _bits(old).tolist()
        extras = n >= 2
        stream = montecarlo._replicate_stream(7, 0, n)
        columns = montecarlo._sample_columns(frame, n, stream, K, extras)
        assert _bits(columns[0]).tolist() == _bits(want[0][:K]).tolist()
        assert _bits(columns[1]).tolist() == _bits(want[0][K:]).tolist()
        if extras:
            ys, xs = frame.y[idx], frame.x[idx]
            p11 = np.count_nonzero(
                (ys <= want[0][:K, None]) & (xs <= want[0][K:, None]), axis=1
            ) / n
            fy, _ = kernel_density_rows(ys, want[0][:K])
            fx, _ = kernel_density_rows(xs, want[0][K:])
            for got_col, want_col in zip(columns[2:], (p11, fy, fx)):
                assert _bits(got_col).tolist() == _bits(want_col).tolist()

    def test_frame_medians_and_p11_equal_the_float_route(self):
        for levels in (None, 1, 2, 3):
            for N in (2, 3, 400, 401):
                frame = _tied_frame(N, levels, N)
                params = compute_params(frame, 1, KnownDensity(1.0), KnownDensity(1.0))
                my, mx = finite_median(frame.y), finite_median(frame.x)
                assert (params.median_y, params.median_x) == (my, mx)
                p11 = np.count_nonzero((frame.x <= mx) & (frame.y <= my)) / N
                assert params.rho_c == min(1.0, max(-1.0, 4.0 * p11 - 1.0))


class TestMedianParams:
    def test_pop1_design_factor(self, pop1):
        # independent arithmetic: (1 - 17/69) / (4 * 17)
        assert math.isclose(pop1.gamma, (1 - 17 / 69) / 68, rel_tol=1e-12)
        assert round(pop1.gamma, 6) == 0.011083

    def test_pop1_cv_y(self, pop1):
        assert math.isclose(pop1.cv_y, 1 / (2068 * 0.00014), rel_tol=1e-12)
        assert round(pop1.cv_y, 4) == 3.454

    def test_pop1_median_ratio_matches_published(self, pop1):
        assert abs(pop1.median_ratio - 0.97244) < 1e-5

    def test_pop2_median_ratio_matches_published(self, pop2):
        assert abs(pop2.median_ratio - 1.11557) < 1e-5

    def test_median_gaps(self, pop1, pop2):
        assert pop1.median_gap == 57
        assert pop2.median_gap == -239

    def test_pop1_ties_to_reference_variance(self, pop1):
        value = pop1.gamma * pop1.median_y**2 * pop1.cv_y**2
        assert abs(value - 565443.57) / 565443.57 < 5e-4

    def test_rho_to_p11_mapping(self):
        for rho, p11 in ((-1.0, 0.0), (0.0, 0.25), (1.0, 0.5)):
            p = MedianParams(100, 10, 50.0, 40.0, 0.01, 0.01, rho)
            assert math.isclose(p.p11, p11, abs_tol=1e-15)

    def test_invalid_sample_size(self):
        with pytest.raises(DomainError):
            MedianParams(10, 10, 50.0, 40.0, 0.01, 0.01, 0.0)

    def test_nonpositive_density(self):
        with pytest.raises(DomainError):
            MedianParams(100, 10, 50.0, 40.0, 0.0, 0.01, 0.0)

    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            MedianParams(100, 10, 50.0, 40.0, 0.01, 0.01, 1.5)

    def test_constructor_takes_the_seven_primitives(self):
        names = [f.name for f in fields(MedianParams) if f.init]
        assert names == [
            "N", "n", "median_y", "median_x", "fy_at_median", "fx_at_median", "rho_c"
        ]
        with pytest.raises(TypeError):
            MedianParams(100, 10, 50.0, 40.0, 0.01, 0.01, 0.0, p11=0.25)

    def test_fields_derive_from_primitives(self):
        p = MedianParams(100, 10, 50.0, 40.0, 0.02, 0.01, 0.6)
        assert p == MedianParams(100, 10, 50.0, 40.0, 0.02, 0.01, 0.6)
        assert list(p.as_dict()) == [f.name for f in fields(MedianParams)]
        assert (p.p11, p.f, p.gamma) == (0.4, 0.1, 0.9 / 40.0)
        assert (p.cv_y, p.cv_x, p.median_ratio) == (1.0, 2.5, 0.8)
        assert (p.median_gap, p.k_c) == (10.0, 0.6 / 2.5)

    def test_replace_rederives(self, pop1):
        moved = replace(pop1, rho_c=0.5)
        assert moved == MedianParams(
            69, 17, 2068.0, 2011.0, 0.00014, 0.00014, 0.5
        )
        assert moved.p11 == 0.375 and moved.k_c == 0.5 * pop1.cv_y / pop1.cv_x

    def test_integer_medians_keep_integer_gap(self, pop1):
        assert pop1.median_y == 2068.0 and isinstance(pop1.median_y, float)
        assert pop1.median_gap == 57 and isinstance(pop1.median_gap, int)

    def test_zero_median_is_domain_error(self):
        message = r"^median_y must be finite and positive, got 0\.0$"
        with pytest.raises(DomainError, match=message):
            MedianParams(100, 10, 0, 40.0, 0.01, 0.01, 0.0)

    def test_underflowing_cv_is_domain_error(self):
        with pytest.raises(DomainError, match="cv_y must be finite and positive"):
            MedianParams(100, 10, 1e-200, 40.0, 1e-200, 0.01, 0.0)
        with pytest.raises(DomainError, match="cv_x must be finite and positive"):
            MedianParams(100, 10, 50.0, 1e200, 0.01, 1e200, 0.0)

    def test_non_integer_sample_size(self):
        with pytest.raises(DomainError, match="must be integers"):
            MedianParams(100, 10.5, 50.0, 40.0, 0.01, 0.01, 0.0)


def _rho_c(x: list[float], y: list[float]) -> float:
    """Concordance of a frame, with known densities so no kernel runs."""
    frame = PopulationFrame(x=np.array(x), y=np.array(y))
    return compute_params(frame, 1, KnownDensity(1.0), KnownDensity(1.0)).rho_c


class TestComputeParams:
    def test_concordant_pairs(self):
        assert _rho_c([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_discordant_pairs(self):
        assert _rho_c([1.0, 2.0], [2.0, 1.0]) == -1.0

    def test_inclusive_ties_go_low(self):
        # both medians are 2: only the unit (2, 2) sits at or below both,
        # and it counts only because the compares are inclusive
        assert _rho_c([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 4.0 * (1 / 3) - 1.0
        # here p11 = 2/3 by the same rule; rho_c is capped at 1
        assert _rho_c([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_identical_variables_are_concordant(self):
        rng = np.random.default_rng(99)
        values = rng.lognormal(mean=3.0, sigma=0.6, size=201)
        frame = PopulationFrame(x=values, y=values.copy())
        params = compute_params(frame, 20)
        assert params.p11 >= 0.5 - 1.0 / frame.N
        assert params.rho_c > 0.9

    def test_known_density_injection(self):
        frame = PopulationFrame(
            x=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            y=np.array([2.0, 4.0, 6.0, 8.0, 10.0]),
        )
        params = compute_params(
            frame, 2, KnownDensity(0.05), KnownDensity(0.1)
        )
        assert params.fy_at_median == 0.05
        assert params.median_y == 6.0
        assert params.median_x == 3.0

    def test_zero_density_rejected(self):
        frame = PopulationFrame(
            x=np.array([1.0, 2.0, 3.0]), y=np.array([1.0, 2.0, 3.0])
        )
        with pytest.raises(DomainError):
            compute_params(frame, 2, KnownDensity(0.0), KnownDensity(0.1))

    def test_sample_size_bounds(self):
        frame = PopulationFrame(x=np.array([1.0, 2.0]), y=np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            compute_params(frame, 2)


class TestLoadParams:
    def test_pop1_gap(self, pop1):
        assert pop1.median_gap == 2068 - 2011 == 57

    def test_missing_key_is_schema_error(self):
        doc = '{"N": 69, "n": 17, "median_y": 2068, "median_x": 2011, "fy_at_median": 0.00014, "fx_at_median": 0.00014}'
        with pytest.raises(SchemaError):
            load_params(io.StringIO(doc))

    def test_unknown_key_strict(self):
        doc = (
            '{"N": 69, "n": 17, "median_y": 2068, "median_x": 2011,'
            ' "fy_at_median": 0.00014, "fx_at_median": 0.00014, "rho_c": 0.1505,'
            ' "extra": 1}'
        )
        with pytest.raises(SchemaError):
            load_params(io.StringIO(doc))

    def test_reads_what_as_dict_writes(self, pop1, pop2):
        for p in (pop1, pop2):
            assert load_params(io.StringIO(json.dumps(p.as_dict()))) == p

    def test_derived_keys_checked_at_tolerance(self, pop1):
        doc = {**pop1.as_dict(), "median_ratio": 0.97244, "gamma": 0.011083}
        assert load_params(io.StringIO(json.dumps(doc))) == pop1

    def test_disagreeing_derived_key_is_schema_error(self, pop1):
        doc = {**pop1.as_dict(), "median_ratio": 0.5}
        with pytest.raises(SchemaError, match="^params key 'median_ratio' is 0.5, "):
            load_params(io.StringIO(json.dumps(doc)))

    def test_non_numeric_derived_key_is_schema_error(self, pop1):
        doc = {**pop1.as_dict(), "k_c": "small"}
        with pytest.raises(SchemaError, match="'k_c' must be numeric"):
            load_params(io.StringIO(json.dumps(doc)))

    def test_inconsistent_sizes(self):
        doc = (
            '{"N": 10, "n": 17, "median_y": 2068, "median_x": 2011,'
            ' "fy_at_median": 0.00014, "fx_at_median": 0.00014, "rho_c": 0.1505}'
        )
        with pytest.raises(DomainError):
            load_params(io.StringIO(doc))

    def test_non_numeric_value(self):
        doc = (
            '{"N": 69, "n": 17, "median_y": "big", "median_x": 2011,'
            ' "fy_at_median": 0.00014, "fx_at_median": 0.00014, "rho_c": 0.1505}'
        )
        with pytest.raises(SchemaError):
            load_params(io.StringIO(doc))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            load_params(io.StringIO("{not json"))

    @pytest.mark.parametrize("size", ["Infinity", "NaN"])
    def test_non_finite_size_is_schema_error(self, size):
        doc = (
            '{"N": %s, "n": 17, "median_y": 2068, "median_x": 2011,'
            ' "fy_at_median": 0.00014, "fx_at_median": 0.00014, "rho_c": 0.1505}'
        ) % size
        with pytest.raises(SchemaError, match="must be an integer"):
            load_params(io.StringIO(doc))
