"""SRSWOR replication engine with reproducible counter-based substreams.

Replicate k draws its randomness from a Philox generator keyed by
``(seed, k)``: one ``integers(arange(n), N)`` draw gives the targets of a
partial Fisher-Yates shuffle, so the sample of a replicate depends only on
the seed and the replicate index.  Replicates run in blocks: each block
draws its replicates' targets one key at a time, then shuffles, takes the
sample medians, p11 and kernel densities for the whole block as (K, n)
arrays.  Each estimator is then resolved (from the true parameters or each
sample's plug-in vector) and evaluated once per block on (K,) arrays, by
the formulas that the scalar ``resolve_weights`` and ``evaluate`` run, with
an array backend (see :mod:`medaux.arith`).  Every per-row result equals
the one-replicate computation, so reports depend neither on the block size
nor on ``jobs``.  A replicate that fails for one estimator (a failed
precondition, an undefined optimum, or an arithmetic error such as an
overflow on extreme plug-in estimates) costs that estimator alone; one
whose sample median overflows costs every estimator that replicate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, MedauxError
from .estimators import (
    REGRESSION,
    EstimatorSpec,
    free_scalars,
    optimal_weights,
    point_value,
    preset,
)
from .mse import analytic_figures
from .parameters import MedianParams, derive_params
from .population import PopulationFrame, _kernel_density_rows, finite_median

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
_BLOCK_UNITS = 16_384  # sampled units per block of replicates; results do not depend on it


@dataclass(frozen=True)
class SimulationConfig:
    """Replication settings; ``estimators`` holds preset names.

    Reports are a pure function of (frame, config, params).
    """

    n: int
    reps: int
    seed: int = 0
    estimators: tuple[str, ...] = ("M_y", "M_r", "M_d", "t_m")
    weights: str = "true-params"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise DomainError(f"sample size must be positive, got {self.n}")
        if self.reps < 1:
            raise DomainError(f"need at least 1 replicate, got {self.reps}")
        if not self.estimators:
            raise DomainError("need at least one estimator")
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
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")


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
    analytic_bias: float | None
    ratio_empirical_to_analytic: float


@dataclass(frozen=True)
class SimulationReport:
    results: tuple[EstimatorResult, ...]
    config: SimulationConfig
    params: MedianParams
    population_median_y: float


def _replicate_rng(seed: int, k: int) -> np.random.Generator:
    """The generator of replicate k: its first draw sets the sample."""
    key = np.array([seed, k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _swap_targets(seed: int, ks: range, n: int, N: int) -> np.ndarray:
    """Row r: the draw ``integers(arange(n), N)`` of replicate ``ks[r]``.

    One Philox is rekeyed per replicate by assigning its state (key
    ``(seed, k)``, counter 0, buffer empty): exactly the state that
    ``_replicate_rng(seed, k)`` starts from, without constructing a Philox
    per replicate (its constructor also gathers OS entropy it never uses).
    """
    bitgen = np.random.Philox(key=np.array([seed, ks.start], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    low = np.arange(n)
    out = np.empty((len(ks), n), dtype=np.int64)
    for r, k in enumerate(ks):
        key[1] = k
        bitgen.state = state
        out[r] = gen.integers(low=low, high=N)
    return out


def _swap_rows(js: np.ndarray, N: int) -> np.ndarray:
    """Partial Fisher-Yates on each row: for i < n swap positions i and
    ``js[r, i]`` of ``arange(N)``, then keep the first n entries.

    Only positions ``0..n-1`` and the row's targets are ever touched.  The
    flat pool holds one slot per position below n (``r*n + p``) and one per
    target column (``K*n + r*n + c``); equal targets of a row share the slot
    of one of their columns, which starts out holding that position.  Step i
    then swaps for every row at once.  Memory is O(K n) for K rows plus one
    index array of length N.
    """
    K, n = js.shape
    cols = np.arange(n)
    column_of = np.empty(N, dtype=np.intp)
    owner = np.empty_like(js)  # equal targets of a row read back one shared column
    for r, row in enumerate(js):
        column_of[row] = cols
        owner[r] = column_of[row]
    base = np.arange(0, K * n, n)[:, None]
    first = base + cols
    target = base + np.where(js < n, js, K * n + owner)
    pool = np.concatenate([np.tile(cols, K), js.ravel()])
    for a, b in zip(first.T, target.T):  # rows never share a slot
        held = pool[a]
        pool[a] = pool[b]
        pool[b] = held
    return pool[first]


def srswor(frame: PopulationFrame, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n distinct unit indices by partial Fisher-Yates shuffling.

    The swap targets come from one vectorised ``integers`` draw, and the
    swaps are the one-row case of the block kernel that ``run_simulation``
    uses, so a replicate's sample is the same either way.
    """
    N = frame.N
    if not 0 < n <= N:
        raise DomainError(f"need 0 < n <= N, got n={n}, N={N}")
    js = rng.integers(low=np.arange(n), high=N)
    return _swap_rows(js[None, :], N)[0]


class _Rows:
    """The array backend of the formula code (see :mod:`medaux.arith`).

    A failed precondition marks its rows in ``bad`` instead of raising, and
    ``pow``/``exp`` apply Python's ``**`` and ``math.exp`` one element at a
    time, marking the rows where they raise (or give a complex power), so
    every row gets the bits of the float computation.  A plain float stands
    for every row: a precondition or power that fails on it marks them all.
    """

    isfinite = staticmethod(np.isfinite)
    sqrt = staticmethod(np.sqrt)

    def __init__(self, bad: np.ndarray):
        self.bad = bad.copy()

    @staticmethod
    def select(cond, a, b):
        if isinstance(cond, bool):
            return a if cond else b
        return np.where(cond, a, b)

    def fail_if(self, bad, error, message, *args) -> None:
        self.bad |= bad

    def require(self, ok, error, message, *args) -> None:
        self.bad |= np.logical_not(ok)

    def pow(self, x, y):
        return self._each(operator.pow, x, y)

    def exp(self, x):
        return self._each(math.exp, x)

    def _each(self, fn, *args):
        values, failed = self._apply(fn, *args)
        self.bad |= failed
        return values

    def _apply(self, fn, *args) -> tuple[np.ndarray, np.ndarray]:
        """``fn`` on each row of the broadcast arguments, NaN where it
        raises or gives a complex number, and the mask of those rows."""
        K = self.bad.size
        failed = np.zeros(K, dtype=bool)
        if not any(isinstance(a, np.ndarray) for a in args):
            try:
                return float(fn(*map(float, args))), failed
            except (ArithmeticError, TypeError):
                return math.nan, ~failed
        cols = [
            np.broadcast_to(a, K).tolist() if isinstance(a, np.ndarray)
            else [float(a)] * K
            for a in args
        ]
        try:
            return np.fromiter(map(fn, *cols), float, K), failed
        except (ArithmeticError, TypeError):
            pass  # some row failed: redo one row at a time
        out = np.empty(K)
        for r, row in enumerate(zip(*cols)):
            try:
                out[r] = fn(*row)
            except (ArithmeticError, TypeError):
                out[r] = math.nan
                failed[r] = True
        return out, failed


def _block_estimates(
    frame: PopulationFrame,
    config: SimulationConfig,
    params: MedianParams,
    specs: tuple[EstimatorSpec, ...],
    ks: range,
) -> np.ndarray:
    """Estimates of replicates ``ks``, one row each, NaN where one failed.

    Samples, medians, p11 and kernel densities are computed on (K, n)
    arrays, and :func:`_estimate_columns` turns them into the estimates.
    """
    n = config.n
    plug_in = config.weights == "plug-in"
    idx = _swap_rows(_swap_targets(config.seed, ks, n, frame.N), frame.N)
    xs, ys = frame.x[idx], frame.y[idx]
    extras = None
    # an overflowing median is inf in its row, which every spec then loses;
    # an overflowing bandwidth gives a NaN density, which the row's plug-in
    # specs lose
    with np.errstate(all="ignore"):
        my, mx = np.median(ys, axis=1), np.median(xs, axis=1)
        if n >= 2 and any(  # a kernel density needs two observations
            s.family == REGRESSION or (plug_in and free_scalars(s)) for s in specs
        ):
            below = (xs <= mx[:, None]) & (ys <= my[:, None])
            p11 = np.count_nonzero(below, axis=1) / n
            fy, _ = _kernel_density_rows(ys, my)
            fx, _ = _kernel_density_rows(xs, mx)
            extras = (p11, fy, fx)
    return _estimate_columns(params, specs, plug_in, my, mx, extras)


def _estimate_columns(
    params: MedianParams,
    specs: tuple[EstimatorSpec, ...],
    plug_in: bool,
    my: np.ndarray,
    mx: np.ndarray,
    extras: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """(K, len(specs)) estimates from the sample medians of K replicates.

    ``extras`` is ``(p11, fy, fx)`` of each sample, NaN densities where the
    sample has no usable bandwidth, or ``None`` when not computed.  A spec
    with free scalars is resolved from ``params``, or under the plug-in
    policy from each row's re-estimated parameter vector.  Each spec is
    resolved and evaluated once, on (K,) arrays, by the formulas of
    :func:`resolve_weights` and :func:`evaluate`, so every row equals that
    one-replicate computation.  One rule decides every failure: a spec loses
    a row where resolving or evaluating it there fails a precondition or
    raises a package or arithmetic error, or where it is resolved per sample
    and the row has no valid plug-in vector (no densities, or invalid
    estimates).  No other spec loses that row, unless a sample median of the
    row is not finite (it overflowed): then every spec loses it.
    """
    K = my.size
    overflowed = ~(np.isfinite(my) & np.isfinite(mx))
    free = [bool(free_scalars(s)) for s in specs]
    out = np.full((K, len(specs)), np.nan)
    # the float code raises where the arrays give inf or NaN silently; the
    # backend marks those rows
    with np.errstate(all="ignore"):
        source, source_bad = params, overflowed
        if plug_in:
            source = None
            if extras and any(free):
                p11, fy, fx = extras
                # design quantities (N, n) stay fixed; the concordance
                # estimate is clamped into [-1, 1] because inclusive tie
                # counting can push 4*p11 - 1 above 1
                rho_hat = np.clip(4.0 * p11 - 1.0, -1.0, 1.0)
                hat_rows = _Rows(overflowed)
                source = SimpleNamespace(
                    **derive_params(hat_rows, params.N, params.n, my, mx, fy, fx, rho_hat)
                )
                source_bad = hat_rows.bad
        for j, spec in enumerate(specs):
            if free[j] and source is None:
                continue
            rows = _Rows(source_bad if free[j] else overflowed)
            try:
                if free[j]:
                    spec = SimpleNamespace(
                        **{**vars(spec), **optimal_weights(rows, spec, source)}
                    )
                value = point_value(rows, spec, my, mx, params.median_x, extras)
            except (MedauxError, ArithmeticError):
                continue  # the spec fails on every row
            out[:, j] = np.where(rows.bad, np.nan, value)
    return out


def _replicate_estimates(
    frame: PopulationFrame,
    config: SimulationConfig,
    params: MedianParams,
    specs: tuple[EstimatorSpec, ...],
) -> np.ndarray:
    """(reps, len(specs)) estimates, NaN where an estimator failed."""
    K = max(1, _BLOCK_UNITS // config.n)
    return np.concatenate(
        [
            _block_estimates(
                frame, config, params, specs, range(start, min(start + K, config.reps))
            )
            for start in range(0, config.reps, K)
        ]
    )


def _figures_or_nan(params: MedianParams, spec: EstimatorSpec) -> tuple:
    """The estimator's analytic (MSE, bias), or (NaN, None) where they fail."""
    try:
        return analytic_figures(params, [spec])[0]
    except (MedauxError, ArithmeticError):
        return math.nan, None


def run_simulation(
    frame: PopulationFrame,
    config: SimulationConfig,
    params: MedianParams,
    jobs: int = 1,
) -> SimulationReport:
    """Replicate SRSWOR estimation of the study median.

    Free weights are resolved in each block of replicates: from ``params``
    under the ``true-params`` policy, and from each sample under
    ``plug-in``.  The regression estimator always uses its per-sample slope.
    Replicates where an estimator fails are excluded from that estimator's
    aggregates and surfaced as failure counts; one whose true-params
    optimum is undefined fails every replicate, and no other loses one.  The
    analytic columns are :func:`medaux.mse.analytic_figures` of the presets,
    the values ``table`` reports (``M_d4`` with no bias).  Where an
    estimator's figures fail, by the same rule, they are NaN and no bias for
    that estimator alone.  ``jobs`` is accepted for compatibility and has no
    effect: blocks of replicates run one after another in the calling
    thread, and the report never depended on it.
    """
    if config.n > frame.N:
        raise DomainError(f"sample size {config.n} exceeds population {frame.N}")
    if jobs < 1:
        raise DomainError(f"jobs must be positive, got {jobs}")

    specs = tuple(preset(name, params) for name in config.estimators)
    estimates = _replicate_estimates(frame, config, params, specs)

    target = finite_median(frame.y)
    figures = [_figures_or_nan(params, s) for s in specs]
    results = []
    for j, (name, (ana_mse, ana_bias)) in enumerate(zip(config.estimators, figures)):
        col = estimates[:, j]
        good = col[np.isfinite(col)]
        used = int(good.size)
        failures = config.reps - used
        if used == 0:
            emp_bias = emp_mse = se = math.nan
        else:
            # finite estimates far from the target may square to inf (and
            # their spread to NaN); those values are the report's, unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                errors = good - target
                emp_bias = float(np.mean(errors))
                sq = errors * errors
                emp_mse = float(np.mean(sq))
                se = float(np.std(sq, ddof=1) / math.sqrt(used)) if used > 1 else math.nan
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
