"""Replication engine: sampling, determinism, aggregation and synthesis."""

from __future__ import annotations

import math
import struct
import warnings
from collections import Counter
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from medaux import (
    PRESET_NAMES,
    DomainError,
    KernelDensity,
    MedauxError,
    MedianParams,
    PopulationFrame,
    SampleStats,
    SimulationConfig,
    SyntheticSpec,
    compute_params,
    density_at,
    evaluate,
    finite_median,
    free_scalars,
    make_synthetic,
    preset,
    resolve_weights,
    run_simulation,
    srswor,
    table_rows,
)
from medaux import montecarlo
from medaux.montecarlo import _replicate_rng, _swap_rows, _swap_targets


def _small_frame(N: int = 40, seed: int = 1) -> PopulationFrame:
    rng = np.random.default_rng(seed)
    x = rng.lognormal(mean=3.0, sigma=0.5, size=N)
    y = x * rng.lognormal(mean=0.0, sigma=0.2, size=N)
    return PopulationFrame(x=x, y=y)


class TestSrswor:
    def test_census_selects_everyone(self):
        frame = _small_frame(N=12)
        idx = srswor(frame, 12, _replicate_rng(5, 0))
        assert sorted(idx.tolist()) == list(range(12))

    def test_indices_distinct_and_in_range(self):
        frame = _small_frame(N=30)
        for k in range(50):
            idx = srswor(frame, 7, _replicate_rng(9, k))
            assert len(set(idx.tolist())) == 7
            assert idx.min() >= 0 and idx.max() < 30

    def test_uniform_selection_of_single_unit(self):
        # binomial oracle: each of 2 units chosen ~5000 times over 10_000 draws
        frame = PopulationFrame(x=np.array([1.0, 2.0]), y=np.array([1.0, 2.0]))
        hits = 0
        for k in range(10_000):
            idx = srswor(frame, 1, _replicate_rng(123, k))
            hits += int(idx[0] == 0)
        assert 4800 <= hits <= 5200

    def test_deterministic_in_seed(self):
        frame = _small_frame(N=25)
        a = srswor(frame, 10, _replicate_rng(77, 3))
        b = srswor(frame, 10, _replicate_rng(77, 3))
        assert np.array_equal(a, b)

    def test_oversized_sample_rejected(self):
        frame = _small_frame(N=10)
        with pytest.raises(DomainError):
            srswor(frame, 11, _replicate_rng(0, 0))


def _scalar_fisher_yates(js: np.ndarray, N: int) -> np.ndarray:
    """Swap positions i and js[i] of arange(N) one at a time; first n kept."""
    pool = np.arange(N)
    for i, j in enumerate(js.tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[: js.size]


class TestBlockSampling:
    def test_srswor_equals_scalar_swap_loop(self):
        for N, n in ((2, 1), (2, 2), (7, 7), (50, 13), (2000, 100)):
            frame = PopulationFrame(x=np.arange(1.0, N + 1), y=np.arange(1.0, N + 1))
            for k in range(20):
                js = _replicate_rng(3, k).integers(low=np.arange(n), high=N)
                expected = _scalar_fisher_yates(js, N)
                assert np.array_equal(srswor(frame, n, _replicate_rng(3, k)), expected)

    def test_block_equals_scalar_srswor_at_large_population(self):
        N, n = 200_000, 100
        frame = PopulationFrame(x=np.arange(1.0, N + 1), y=np.arange(1.0, N + 1))
        block = _swap_rows(_swap_targets(17, range(3), n, N), N)
        for k in range(3):
            expected = srswor(frame, n, _replicate_rng(17, k))
            assert np.array_equal(block[k], expected)
            rng = _replicate_rng(17, k)
            js = rng.integers(low=np.arange(n), high=N)
            assert np.array_equal(block[k], _scalar_fisher_yates(js, N))

    def test_block_census_selects_everyone(self):
        block = _swap_rows(_swap_targets(5, range(4, 9), 12, 12), 12)
        for row in block:
            assert sorted(row.tolist()) == list(range(12))


class TestRunSimulation:
    def test_census_replicate_is_exact(self):
        frame = _small_frame(N=21)
        params = compute_params(frame, 10)
        config = SimulationConfig(
            n=frame.N, reps=1, seed=4, estimators=("M_y", "M_r", "M_p", "M_d")
        )
        report = run_simulation(frame, config, params)
        for r in report.results:
            assert r.empirical_mse == 0.0
            assert r.empirical_bias == 0.0
            assert r.failures == 0

    def test_reports_are_bitwise_reproducible(self):
        frame = _small_frame(N=60, seed=2)
        params = compute_params(frame, 15)
        config = SimulationConfig(n=15, reps=80, seed=99)
        a = run_simulation(frame, config, params)
        b = run_simulation(frame, config, params)
        for ra, rb in zip(a.results, b.results):
            assert ra == rb

    def test_parallelism_does_not_change_results(self):
        frame = _small_frame(N=60, seed=3)
        params = compute_params(frame, 15)
        config = SimulationConfig(n=15, reps=101, seed=7)
        serial = run_simulation(frame, config, params, jobs=1)
        threaded = run_simulation(frame, config, params, jobs=3)
        assert serial.results == threaded.results

    def test_overflowing_sample_median_costs_its_replicate_only(self):
        # a sample holding three of the six x values at 1.7e308 has two of
        # them in the middle, and their mean overflows
        x = np.array([1.7e308] * 6 + [1.0] * 5)
        frame = PopulationFrame(x=x, y=np.arange(1.0, 12.0))
        params = MedianParams(11, 4, 6.0, 1.0, 0.1, 0.1, 0.5)
        config = SimulationConfig(n=4, reps=200, seed=0, estimators=("M_y",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = run_simulation(frame, config, params).results
        assert result.reps_used + result.failures == config.reps
        assert result.failures > 0 and result.reps_used > 0
        assert math.isfinite(result.empirical_mse)

    def test_overflowing_squared_errors_aggregate_silently(self):
        # a sample median of x at 1e-300 makes M_r about 1e300: finite, but
        # its squared error overflows
        x = np.array([1e-300] * 5 + [1.0] * 6)
        frame = PopulationFrame(x=x, y=np.arange(1.0, 12.0))
        params = compute_params(frame, 4)
        config = SimulationConfig(n=4, reps=300, seed=1, estimators=("M_y", "M_r"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m_y, m_r = run_simulation(frame, config, params).results
        assert m_r.reps_used == 300 and math.isfinite(m_r.empirical_bias)
        assert m_r.empirical_mse == math.inf and math.isnan(m_r.mc_se_mse)
        assert math.isfinite(m_y.empirical_mse) and math.isfinite(m_y.mc_se_mse)

    def test_failures_counted_and_excluded(self):
        # more than half zeros makes many sample medians of x exactly zero
        x = np.concatenate([np.zeros(24), np.ones(12)])
        y = np.linspace(1.0, 4.0, 36)
        frame = PopulationFrame(x=x, y=y)
        params = MedianParams(36, 5, 2.0, 1.0, 0.2, 0.3, 0.2)
        config = SimulationConfig(n=5, reps=300, seed=1, estimators=("M_y", "M_r"))
        report = run_simulation(frame, config, params)
        by_name = {r.estimator: r for r in report.results}
        assert by_name["M_y"].failures == 0
        assert by_name["M_r"].failures > 0
        assert by_name["M_r"].reps_used == 300 - by_name["M_r"].failures
        assert math.isfinite(by_name["M_r"].empirical_mse)

    def test_extras_failure_spares_other_estimators(self):
        # 70% of units share one of two (x, y) pairs, so many samples have a
        # zero interquartile range and the M_lr kernel density fails
        k = np.arange(400)
        x = np.where(k % 20 < 10, 10.0, np.where(k % 20 < 14, 12.0, 5.0 + k / 20))
        y = np.where(k % 20 < 10, 20.0, np.where(k % 20 < 14, 25.0, 10.0 + k / 10))
        frame = PopulationFrame(x=x, y=y)
        params = MedianParams(400, 20, 20.0, 10.0, 0.05, 0.1, 0.5)
        for weights in ("true-params", "plug-in"):
            def run(names):
                config = SimulationConfig(
                    n=20, reps=500, seed=3, estimators=names, weights=weights
                )
                return run_simulation(frame, config, params).results

            alone = run(("M_y", "M_r"))
            with_lr = run(("M_y", "M_r", "M_lr"))
            assert with_lr[2].failures > 0
            assert with_lr[:2] == alone
            assert alone[0].reps_used == 500

    def test_plug_in_failure_spares_regression(self):
        # 45% of y at -1: samples whose y median is -1 give invalid plug-in
        # params, which cost M_d its replicate but not M_lr
        rng = np.random.default_rng(0)
        x = rng.lognormal(3.0, 0.5, size=200)
        y = x * rng.lognormal(0.0, 0.3, size=200)
        y[:90] = -1.0
        frame = PopulationFrame(x=x, y=y)
        params = _property_params(frame, 10)

        def config(names):
            return SimulationConfig(
                n=10, reps=300, seed=1, estimators=names, weights="plug-in"
            )

        alone = run_simulation(frame, config(("M_lr",)), params).results
        both = config(("M_lr", "M_d"))
        with_d = run_simulation(frame, both, params).results
        assert with_d[1].reps_used < alone[0].reps_used
        assert with_d[0].reps_used == alone[0].reps_used
        assert with_d[0].empirical_mse == alone[0].empirical_mse
        specs = _simulation_specs(both.estimators, params)
        got = montecarlo._replicate_estimates(frame, both, params, specs)
        expected = [_reference_row(frame, both, params, specs, k) for k in range(300)]
        np.testing.assert_array_equal(got, np.array(expected))

    def test_arithmetic_error_costs_only_its_estimators(self):
        # one x at 1e-300 between the negative and the positive halves: a
        # sample whose x median is that unit has a plug-in cv_x near 1e300,
        # whose square overflows in error_moments; negative x medians give no
        # plug-in vector at all.  Only the specs resolved per sample lose those
        # replicates.
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [-rng.uniform(0.5, 1, 99), [1e-300], rng.uniform(0.5, 1, 100)]
        )
        y = 2 * np.abs(x) + 1 + rng.uniform(0.1, 0.2, 200)
        frame = PopulationFrame(x=x, y=y)
        params = compute_params(frame, 3)
        config = SimulationConfig(
            n=3, reps=2000, seed=1, estimators=("M_y", "M_lr", "M_d", "t_m"),
            weights="plug-in",
        )
        report = run_simulation(frame, config, params)
        used = {r.estimator: r.reps_used for r in report.results}
        assert used == {"M_y": 2000, "M_lr": 2000, "M_d": 955, "t_m": 955}
        specs = _simulation_specs(config.estimators, params)
        got = montecarlo._replicate_estimates(frame, config, params, specs)
        expected = [_reference_row(frame, config, params, specs, k) for k in range(2000)]
        np.testing.assert_array_equal(got, np.array(expected))

    def test_invalid_run_arguments(self):
        frame = _small_frame(N=10)
        params = compute_params(frame, 5)
        with pytest.raises(DomainError, match="^sample size 11 exceeds population 10$"):
            run_simulation(frame, SimulationConfig(n=11, reps=2, seed=0), params)
        with pytest.raises(DomainError, match="^jobs must be positive, got 0$"):
            run_simulation(frame, SimulationConfig(n=5, reps=2, seed=0), params, jobs=0)

    def test_failing_analytic_figures_cost_their_estimator_alone(self):
        # gamma * cv_x^2 = 1.46 leaves the M_d4 formula undefined; M_y keeps
        # its replicates and the figures table gives it
        x = np.array([*range(1, 6), *range(10**6, 7 * 10**6, 10**6)], dtype=float)
        frame = PopulationFrame(x=x, y=np.arange(1.0, 12.0))
        params = compute_params(frame, 4)
        config = SimulationConfig(n=4, reps=200, seed=1, estimators=("M_y", "M_d4"))
        m_y, m_d4 = run_simulation(frame, config, params).results
        row = table_rows(params, ["M_y"])[0]
        assert (m_y.reps_used, m_y.analytic_mse, m_y.analytic_bias) == (
            200, row.analytic_mse, row.analytic_bias
        )
        assert m_d4.reps_used == 200 and m_d4.analytic_bias is None
        assert math.isnan(m_d4.analytic_mse)
        assert math.isnan(m_d4.ratio_empirical_to_analytic)
        with pytest.raises(DomainError, match=r"^need 1 - gamma\*cv_x\^2 > 0"):
            table_rows(params, ["M_y", "M_d4"])

    def test_analytic_columns_match_table(self):
        frame = _small_frame(N=80, seed=6)
        params = compute_params(frame, 20)
        config = SimulationConfig(n=20, reps=2, seed=1, estimators=PRESET_NAMES)
        report = run_simulation(frame, config, params)
        rows = table_rows(params, PRESET_NAMES)
        for result, row in zip(report.results, rows, strict=True):
            assert result.analytic_mse == row.analytic_mse, row.estimator
            assert result.analytic_bias == row.analytic_bias, row.estimator

    def test_plug_in_policy_runs(self):
        frame = _small_frame(N=80, seed=5)
        params = compute_params(frame, 20)
        config = SimulationConfig(
            n=20, reps=30, seed=3, estimators=("M_d", "M_lr"), weights="plug-in"
        )
        report = run_simulation(frame, config, params)
        for r in report.results:
            assert r.reps_used > 0
            assert math.isfinite(r.empirical_mse)

    def test_sample_median_bias_within_mc_error(self):
        # near-symmetric population (small log-sd); N large enough that the
        # realized population's own O(1/(N*f)) median offset stays inside the
        # Monte Carlo band
        spec = SyntheticSpec(N=20_000, mu_x=5, sigma_x=0.1, mu_y=5, sigma_y=0.1, rho=0.6, seed=11)
        frame = make_synthetic(spec)
        params = compute_params(frame, 100)
        config = SimulationConfig(n=100, reps=2000, seed=21, estimators=("M_y",))
        report = run_simulation(frame, config, params)
        r = report.results[0]
        se_bias = math.sqrt(max(r.empirical_mse - r.empirical_bias**2, 0) / r.reps_used)
        assert abs(r.empirical_bias) < 3 * se_bias

    def test_ratio_converges_with_replications(self):
        spec = SyntheticSpec(N=500, mu_x=4, sigma_x=0.4, mu_y=4, sigma_y=0.4, rho=0.75, seed=8)
        frame = make_synthetic(spec)
        params = compute_params(frame, 50)
        ratios = []
        for reps in (1_000, 10_000, 100_000):
            config = SimulationConfig(n=50, reps=reps, seed=13, estimators=("M_d",))
            report = run_simulation(frame, config, params)
            ratios.append(report.results[0].ratio_empirical_to_analytic)
        # successive estimates approach a constant within shrinking MC bands
        assert abs(ratios[2] - ratios[1]) <= abs(ratios[1] - ratios[0]) + 0.02
        assert abs(ratios[2] - 1.0) < 0.35

    def test_config_defaults(self):
        config = SimulationConfig(n=10, reps=5)
        assert (config.seed, config.weights) == (0, "true-params")
        assert config.estimators == ("M_y", "M_r", "M_d", "t_m")

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(n=10, reps=0, seed=1)
        with pytest.raises(DomainError, match="at least one estimator"):
            SimulationConfig(n=10, reps=5, seed=1, estimators=())
        with pytest.raises(DomainError):
            SimulationConfig(n=0, reps=5, seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(n=10, reps=5, seed=1, weights="guess")


_PROPERTY_ESTIMATORS = ("M_y", "M_r", "M_d", "t_m", "M_lr", "t_mq7")


def _simulation_specs(names, params):
    """The specs ``run_simulation`` hands to the replicate blocks, unresolved."""
    return tuple(preset(name, params) for name in names)


def _reference_row(frame, config, params, specs, k):
    """Replicate k from public one-sample calls: the oracle for the blocks."""
    plug_in = config.weights == "plug-in"
    per_sample = [plug_in and bool(free_scalars(s)) for s in specs]
    idx = srswor(frame, config.n, _replicate_rng(config.seed, k))
    xs, ys = frame.x[idx], frame.y[idx]
    my, mx = finite_median(ys), finite_median(xs)
    stats = SampleStats(median_y=my, median_x=mx)
    hat = None
    try:
        p11 = float(np.count_nonzero((xs <= mx) & (ys <= my))) / config.n
        fy = density_at(ys, my, KernelDensity())
        fx = density_at(xs, mx, KernelDensity())
        stats = SampleStats(
            median_y=my, median_x=mx, p11=p11, fy_at_median=fy, fx_at_median=fx
        )
        if any(per_sample):
            rho = max(-1.0, min(1.0, 4.0 * p11 - 1.0))
            hat = MedianParams(params.N, params.n, my, mx, fy, fx, rho)
    except MedauxError:
        pass
    row = []
    for spec, own in zip(specs, per_sample):
        value = math.nan
        if hat is not None or not own:
            try:
                value = evaluate(resolve_weights(spec, hat if own else params), stats, params)
            except (MedauxError, ArithmeticError):
                pass
        row.append(value)
    return row


def _property_frame(N, levels, seed):
    """Lognormal pairs, or values on ``levels`` tied levels (1: no spread)."""
    rng = np.random.default_rng(seed)
    if levels is None:
        x = rng.lognormal(3.0, 0.5, size=N)
        y = x * rng.lognormal(0.0, 0.3, size=N)
    else:
        x = 1.0 + rng.integers(0, levels, size=N)
        y = 2.0 * x + rng.integers(0, levels, size=N)
    return PopulationFrame(x=x, y=y)


def _property_params(frame, n):
    my, mx = finite_median(frame.y), finite_median(frame.x)
    return MedianParams(
        frame.N, min(n, frame.N - 1), my, mx, 1.0 / (0.8 * my), 1.0 / (0.9 * mx), 0.6
    )


class TestBlockedReplicates:
    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_blocks_equal_per_replicate_reference(self, data):
        # the block holds K replicates; a small K reaches every block edge
        # with few replicates
        N = data.draw(st.integers(2, 300), label="N")
        n = data.draw(st.integers(1, N), label="n")
        K = data.draw(st.integers(1, 6), label="K")
        reps = data.draw(st.sampled_from([1, max(1, K - 1), K, K + 1, 2 * K + 3]))
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        weights = data.draw(st.sampled_from(["true-params", "plug-in"]))
        levels = data.draw(st.sampled_from([None, 1, 2, 3]), label="levels")
        frame = _property_frame(N, levels, data.draw(st.integers(0, 2**32 - 1)))
        params = _property_params(frame, n)
        config = SimulationConfig(
            n=n, reps=reps, seed=seed, estimators=_PROPERTY_ESTIMATORS, weights=weights
        )
        specs = _simulation_specs(_PROPERTY_ESTIMATORS, params)
        with mock.patch.object(montecarlo, "_BLOCK_UNITS", K * n):
            got = montecarlo._replicate_estimates(frame, config, params, specs)
        expected = [_reference_row(frame, config, params, specs, k) for k in range(reps)]
        np.testing.assert_array_equal(got, np.array(expected))

    @pytest.mark.parametrize("weights", ["true-params", "plug-in"])
    def test_module_block_size_equals_reference(self, weights):
        # the shipped block size, across two block edges, on a population
        # where many samples have no usable bandwidth
        k = np.arange(400)
        x = np.where(k % 20 < 14, 10.0, 5.0 + k / 20)
        y = np.where(k % 20 < 14, 20.0, 10.0 + k / 10)
        frame = PopulationFrame(x=x, y=y)
        n = 120
        reps = 2 * max(1, montecarlo._BLOCK_UNITS // n) + 3
        params = _property_params(frame, n)
        config = SimulationConfig(
            n=n, reps=reps, seed=2**64 - 1, estimators=_PROPERTY_ESTIMATORS,
            weights=weights,
        )
        specs = _simulation_specs(_PROPERTY_ESTIMATORS, params)
        got = montecarlo._replicate_estimates(frame, config, params, specs)
        expected = [_reference_row(frame, config, params, specs, k) for k in range(reps)]
        np.testing.assert_array_equal(got, np.array(expected))
        assert np.isnan(got[:, 4]).any() and np.isfinite(got[:, 4]).any()


_SCALES = (1e-300, 1e-20, 1.0, 1e20, 1e160, 1e300)


def _result_bits(result) -> tuple:
    """The fields of an ``EstimatorResult``, floats by their bits, NaN as one."""
    return tuple(
        ("nan" if math.isnan(v) else struct.pack("<d", v)) if isinstance(v, float) else v
        for v in astuple(result)
    )


def _results_or_error(frame, params, config):
    """The run's results by their bits, or its package error; any warning
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return [_result_bits(r) for r in run_simulation(frame, config, params).results]
        except MedauxError as exc:
            return f"{type(exc).__name__}: {exc}"


class TestEstimatorIndependence:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_an_estimator_reports_the_same_in_any_company(self, data):
        # each estimator's result is a function of the estimator alone: the
        # others in the run never change a bit of it, nor turn it into an error
        N = data.draw(st.integers(2, 30), label="N")
        column = st.lists(st.integers(0, 6), min_size=N, max_size=N)
        x = np.array(data.draw(column, label="x"), float) * data.draw(st.sampled_from(_SCALES))
        y = np.array(data.draw(column, label="y"), float) * data.draw(st.sampled_from(_SCALES))
        frame = PopulationFrame(x=x, y=y)
        n = data.draw(st.integers(1, N), label="n")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                params = compute_params(frame, min(n, N - 1))
        except MedauxError:
            reject()
        names = data.draw(
            st.lists(st.sampled_from(PRESET_NAMES), min_size=2, max_size=5, unique=True),
            label="names",
        )
        config = SimulationConfig(
            n=n,
            reps=data.draw(st.integers(1, 20), label="reps"),
            seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
            estimators=tuple(names),
            weights=data.draw(st.sampled_from(["true-params", "plug-in"])),
        )
        together = _results_or_error(frame, params, config)
        for j, name in enumerate(names):
            alone = _results_or_error(frame, params, replace(config, estimators=(name,)))
            if isinstance(together, str):
                assert alone == together, name
            else:
                assert alone == [together[j]], name

    def test_an_undefined_optimum_costs_its_estimator_alone(self):
        # on x = y = 1..5 the t_m optimum is degenerate (A*B - C^2 < 0 by
        # rounding): t_m fails every replicate, and M_y keeps all of them
        frame = PopulationFrame(x=np.arange(1.0, 6.0), y=np.arange(1.0, 6.0))
        params = compute_params(frame, 3)
        config = SimulationConfig(n=3, reps=50, estimators=("M_y", "t_m"))
        m_y, t_m = run_simulation(frame, config, params).results
        assert (m_y.reps_used, m_y.failures) == (50, 0)
        assert math.isfinite(m_y.empirical_mse) and math.isfinite(m_y.analytic_mse)
        assert (t_m.reps_used, t_m.failures, t_m.analytic_bias) == (0, 50, None)
        for value in (t_m.empirical_bias, t_m.empirical_mse, t_m.mc_se_mse,
                      t_m.analytic_mse, t_m.ratio_empirical_to_analytic):
            assert math.isnan(value)
        with pytest.raises(MedauxError, match=r"^A\*B - C\^2 = .* is not positive"):
            resolve_weights(preset("t_m"), params)


class TestCallCounts:
    def test_plug_in_run_calls_the_scalar_path_per_estimator(self, monkeypatch):
        # a deterministic fence on the per-replicate path: the public scalar
        # calls run once per estimator, and the block formulas once per
        # estimator and block, whatever the replicate count
        import medaux
        from medaux import estimators

        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in ("resolve_weights", "evaluate", "optimal_weights", "point_value"):
            wrapped = counting(name, getattr(estimators, name))
            for module in (medaux, estimators, montecarlo):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        monkeypatch.setattr(
            MedianParams, "__init__", counting("MedianParams", MedianParams.__init__)
        )
        frame = make_synthetic(SyntheticSpec(N=2000, rho=0.8, seed=4))
        params = compute_params(frame, 100)
        names = ("M_y", "M_r", "M_d", "t_m", "M_lr", "M_3", "t_mq7")
        config = SimulationConfig(
            n=100, reps=500, seed=9, estimators=names, weights="plug-in"
        )
        calls.clear()
        report = run_simulation(frame, config, params)
        assert sum(r.reps_used for r in report.results) > 0.9 * 500 * len(names)
        blocks = -(-500 // (montecarlo._BLOCK_UNITS // 100))
        free = sum(bool(free_scalars(preset(name, params))) for name in names)
        assert calls["resolve_weights"] <= len(names)
        assert calls["evaluate"] == 0
        assert calls["MedianParams"] <= len(names)
        assert calls["point_value"] == blocks * len(names)
        assert calls["optimal_weights"] == len(names) + free * blocks


class TestMakeSynthetic:
    def test_independence_gives_quarter_concordance(self):
        frame = make_synthetic(SyntheticSpec(N=10_000, rho=0.001, seed=42))
        mx = float(np.median(frame.x))
        my = float(np.median(frame.y))
        p11 = np.count_nonzero((frame.x <= mx) & (frame.y <= my)) / frame.N
        assert abs(p11 - 0.25) < 0.02

    def test_strong_correlation_survives_transform(self):
        frame = make_synthetic(SyntheticSpec(N=10_000, rho=0.9, seed=43))
        params = compute_params(frame, 100)
        assert params.rho_c > 0.5

    def test_deterministic_in_seed(self):
        a = make_synthetic(SyntheticSpec(N=500, rho=0.5, seed=3))
        b = make_synthetic(SyntheticSpec(N=500, rho=0.5, seed=3))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_invalid_spec(self):
        with pytest.raises(DomainError):
            SyntheticSpec(N=1, rho=0.5)
        with pytest.raises(DomainError):
            SyntheticSpec(N=100, rho=1.0)
        with pytest.raises(DomainError):
            SyntheticSpec(N=100, sigma_x=0.0)
        for seed in (-1, 2**64):
            with pytest.raises(DomainError, match="unsigned 64-bit"):
                SyntheticSpec(N=100, seed=seed)
