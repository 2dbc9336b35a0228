"""SRSWOR replication engine with reproducible counter-based substreams.

Replicate k draws its randomness from a Philox generator keyed by
``(seed, k)``, so the sample drawn for a replicate depends only on the seed
and the replicate index.  Replicates run one after another in one loop: the
loop body is Python code holding the interpreter lock, so worker threads
would only take turns on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MedauxError
from .estimators import (
    REGRESSION,
    EstimatorSpec,
    SampleStats,
    coeffs_of,
    evaluate,
    free_scalars,
    preset,
    resolve_weights,
)
from .expansion import bias_from_coeffs, error_moments, mse_from_coeffs
from .population import (
    KernelDensity,
    MedianParams,
    PopulationFrame,
    density_at,
    finite_median,
)

__all__ = [
    "SimulationConfig",
    "SyntheticSpec",
    "EstimatorResult",
    "SimulationReport",
    "srswor",
    "run_simulation",
    "make_synthetic",
]

_WEIGHT_POLICIES = ("true-params", "plug-in")
_SYNTHETIC_STREAM_TAG = 0xFFFFFFFFFFFFFFFF  # keeps the frame stream off replicate keys


@dataclass(frozen=True)
class SimulationConfig:
    """Replication settings; ``estimators`` holds preset names.

    Reports are a pure function of (frame, config, params).
    """

    n: int
    reps: int
    seed: int
    estimators: tuple[str, ...] = ("M_y", "M_r", "M_d", "t_m")
    weights: str = "true-params"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise DomainError(f"sample size must be positive, got {self.n}")
        if self.reps < 1:
            raise DomainError(f"need at least 1 replicate, got {self.reps}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.weights not in _WEIGHT_POLICIES:
            raise DomainError(
                f"weights must be one of {_WEIGHT_POLICIES}, got {self.weights!r}"
            )
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True)
class SyntheticSpec:
    """Correlated lognormal population: exp of a bivariate normal pair."""

    N: int
    mu_x: float = 0.0
    sigma_x: float = 0.5
    mu_y: float = 0.0
    sigma_y: float = 0.5
    rho: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.N < 2:
            raise DomainError(f"population size must be at least 2, got {self.N}")
        if self.sigma_x <= 0 or self.sigma_y <= 0:
            raise DomainError("log-scale standard deviations must be positive")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"log-scale correlation must lie in (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class EstimatorResult:
    """Aggregated empirical and analytic figures for one estimator."""

    estimator: str
    reps_used: int
    failures: int
    empirical_bias: float
    empirical_mse: float
    mc_se_mse: float
    analytic_mse: float
    analytic_bias: float
    ratio_empirical_to_analytic: float


@dataclass(frozen=True)
class SimulationReport:
    results: tuple[EstimatorResult, ...]
    config: SimulationConfig
    params: MedianParams
    population_median_y: float


def _replicate_rng(seed: int, k: int) -> np.random.Generator:
    key = np.array([seed, k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def srswor(frame: PopulationFrame, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n distinct unit indices by partial Fisher-Yates shuffling."""
    N = frame.N
    if not 0 < n <= N:
        raise DomainError(f"need 0 < n <= N, got n={n}, N={N}")
    pool = np.arange(N)
    # one vectorised draw per replicate keeps the stream layout stable
    js = rng.integers(low=np.arange(n), high=N)
    for i in range(n):
        j = js[i]
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n].copy()


def _with_extras(stats: SampleStats, x: np.ndarray, y: np.ndarray) -> SampleStats:
    """``stats`` plus the sample p11 and kernel densities at the medians."""
    my, mx = stats.median_y, stats.median_x
    p11 = float(np.count_nonzero((x <= mx) & (y <= my))) / x.size
    kde = KernelDensity()
    fy = density_at(y, my, kde)
    fx = density_at(x, mx, kde)
    return SampleStats(
        median_y=my, median_x=mx, p11=p11, fy_at_median=fy, fx_at_median=fx
    )


def _plug_in_params(stats: SampleStats, params: MedianParams) -> MedianParams:
    """Population parameters re-estimated from one sample.

    Design quantities (N, n) stay fixed; everything unknown is replaced by its
    sample estimate.  The concordance correlation estimate is clamped into
    [-1, 1] because inclusive tie counting can push 4*p11 - 1 above 1.
    """
    rho_hat = max(-1.0, min(1.0, 4.0 * stats.p11 - 1.0))
    return MedianParams.from_primitives(
        params.N,
        params.n,
        stats.median_y,
        stats.median_x,
        stats.fy_at_median,
        stats.fx_at_median,
        rho_hat,
    )


def _replicate_row(
    frame: PopulationFrame,
    config: SimulationConfig,
    params: MedianParams,
    specs: tuple[EstimatorSpec, ...],
    per_sample: tuple[bool, ...],
    need_extras: tuple[bool, ...],
    k: int,
) -> np.ndarray:
    """Estimates of replicate ``k``, NaN where an estimator failed.

    ``per_sample[j]`` marks specs whose weights are resolved from this sample;
    ``need_extras[j]`` marks specs that need p11 and the densities.  A
    failure of those per-sample extras costs only the specs that need them.
    """
    rng = _replicate_rng(config.seed, k)
    idx = srswor(frame, config.n, rng)
    xs, ys = frame.x[idx], frame.y[idx]
    out = np.full(len(specs), np.nan)
    try:
        stats = SampleStats(median_y=finite_median(ys), median_x=finite_median(xs))
    except MedauxError:
        return out
    extras_ok = True
    hat = None
    if any(need_extras):
        try:
            stats = _with_extras(stats, xs, ys)
            if any(per_sample):
                hat = _plug_in_params(stats, params)
        except MedauxError:
            extras_ok = False
    for j, spec in enumerate(specs):
        if need_extras[j] and not extras_ok:
            continue
        try:
            use = resolve_weights(spec, hat) if per_sample[j] else spec
            out[j] = evaluate(use, stats, params)
        except MedauxError:
            pass  # recorded as a failure for this estimator only
    return out


def run_simulation(
    frame: PopulationFrame,
    config: SimulationConfig,
    params: MedianParams,
    jobs: int = 1,
) -> SimulationReport:
    """Replicate SRSWOR estimation of the study median.

    Under the ``true-params`` policy free weights are resolved once from
    ``params``; under ``plug-in`` they are re-resolved per replicate from the
    sample.  The regression estimator always uses its per-sample slope.
    Replicates where an estimator hits a singularity are excluded from that
    estimator's aggregates and surfaced as failure counts.  ``jobs`` is
    accepted for compatibility and has no effect: replicates always run
    serially, and the report never depended on it.
    """
    if config.n > frame.N:
        raise DomainError(f"sample size {config.n} exceeds population {frame.N}")
    if jobs < 1:
        raise DomainError(f"jobs must be positive, got {jobs}")

    base_specs = tuple(preset(name, params) for name in config.estimators)
    resolved = tuple(resolve_weights(s, params) for s in base_specs)
    plug_in = config.weights == "plug-in"
    specs = base_specs if plug_in else resolved
    per_sample = tuple(plug_in and bool(free_scalars(s)) for s in specs)
    need_extras = tuple(
        p or s.family == REGRESSION for p, s in zip(per_sample, specs)
    )

    estimates = np.full((config.reps, len(specs)), np.nan)
    for k in range(config.reps):
        estimates[k] = _replicate_row(
            frame, config, params, specs, per_sample, need_extras, k
        )

    target = finite_median(frame.y)
    moments = error_moments(params)
    results = []
    for j, (name, reference) in enumerate(zip(config.estimators, resolved)):
        col = estimates[:, j]
        good = col[np.isfinite(col)]
        used = int(good.size)
        failures = config.reps - used
        if used == 0:
            emp_bias = emp_mse = se = math.nan
        else:
            errors = good - target
            emp_bias = float(np.mean(errors))
            sq = errors * errors
            emp_mse = float(np.mean(sq))
            se = float(np.std(sq, ddof=1) / math.sqrt(used)) if used > 1 else math.nan
        coeffs = coeffs_of(reference, params)
        ana_mse = mse_from_coeffs(coeffs, moments)
        ana_bias = bias_from_coeffs(coeffs, moments)
        results.append(
            EstimatorResult(
                estimator=name,
                reps_used=used,
                failures=failures,
                empirical_bias=emp_bias,
                empirical_mse=emp_mse,
                mc_se_mse=se,
                analytic_mse=ana_mse,
                analytic_bias=ana_bias,
                ratio_empirical_to_analytic=(
                    emp_mse / ana_mse if ana_mse > 0 and used > 0 else math.nan
                ),
            )
        )
    return SimulationReport(
        results=tuple(results),
        config=config,
        params=params,
        population_median_y=target,
    )


def make_synthetic(spec: SyntheticSpec) -> PopulationFrame:
    """Draw a correlated lognormal population, deterministic in the seed."""
    key = np.array([spec.seed, _SYNTHETIC_STREAM_TAG], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    z1 = rng.standard_normal(spec.N)
    z2 = rng.standard_normal(spec.N)
    x = np.exp(spec.mu_x + spec.sigma_x * z1)
    y = np.exp(
        spec.mu_y
        + spec.sigma_y * (spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2)
    )
    return PopulationFrame(x=x, y=y)
