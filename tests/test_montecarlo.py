"""Replication engine: sampling, determinism, aggregation and synthesis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from medaux import (
    PRESET_NAMES,
    DomainError,
    MedianParams,
    PopulationFrame,
    SimulationConfig,
    SyntheticSpec,
    compute_params,
    make_synthetic,
    proportion_matrix,
    run_simulation,
    srswor,
    table_rows,
)
from medaux.montecarlo import _replicate_rng


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

    def test_failures_counted_and_excluded(self):
        # more than half zeros makes many sample medians of x exactly zero
        x = np.concatenate([np.zeros(24), np.ones(12)])
        y = np.linspace(1.0, 4.0, 36)
        frame = PopulationFrame(x=x, y=y)
        params = MedianParams.from_primitives(36, 5, 2.0, 1.0, 0.2, 0.3, 0.2)
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
        params = MedianParams.from_primitives(400, 20, 20.0, 10.0, 0.05, 0.1, 0.5)
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

    def test_analytic_columns_match_table(self):
        frame = _small_frame(N=80, seed=6)
        params = compute_params(frame, 20)
        names = tuple(n for n in PRESET_NAMES if n != "M_d4")
        config = SimulationConfig(n=20, reps=2, seed=1, estimators=names)
        report = run_simulation(frame, config, params)
        for result, row in zip(report.results, table_rows(params, names)):
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

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(n=10, reps=0, seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(n=0, reps=5, seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(n=10, reps=5, seed=1, weights="guess")


class TestMakeSynthetic:
    def test_independence_gives_quarter_concordance(self):
        frame = make_synthetic(SyntheticSpec(N=10_000, rho=0.001, seed=42))
        mx = float(np.median(frame.x))
        my = float(np.median(frame.y))
        p11 = proportion_matrix(frame, mx, my).p11
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
