"""SRSWOR replication engine with a reproducible counter-based stream.

Replicate k reads a fixed run of n 64-bit words from one Philox stream
keyed by the seed (see :func:`_replicate_stream`), and multiply-shift maps
word i to the i-th target of a partial Fisher-Yates shuffle, so the sample
of a replicate depends only on the seed and the replicate index.  This is
stream version 2 (``STREAM_VERSION``), which ``simulate --format json``
reports; reports of version 1, which drew each replicate with numpy's
``integers`` from a Philox keyed by ``(seed, k)``, do not reproduce.
Replicates run in two stages.  The sampling stage works in blocks of
``_BLOCK_UNITS // n`` replicates, whose (K, n) arrays stay cache-sized, and
reads the words of every block in order from one generator, one
``random_raw`` call per block.  A block draws its samples with no loop over
rows or steps: one sort of each row's targets, and pointer doubling on the
few repeated or low targets it finds, give what the sequential swaps would
give (see :func:`_swap_rows`).  It then takes the sample medians, p11 and
kernel densities of the whole block on (K, n) arrays and passes on only
their (K,) columns.  No float value is sorted per block: the frame sorts
each of its columns once (its order table), a block takes its samples'
ranks in that order, int16 up to N = 2**14, and sorts those along its rows,
and the medians and the quartiles of the kernel bandwidths are the sorted
columns' values at the sorted ranks, by the rules of ``np.median`` and
``np.percentile``.  A block builds few (K, n) arrays: the targets reuse the
block's words, the sort keys are int32 wherever ``N << b < 2**31`` (b the
bit length of n), and the samples are written over the targets.  Without
extras no sampled value is gathered; with them the values are gathered for
p11 and the kernel, whose scaled distances are written over them (see
:func:`_sample_columns`).  So the memory a block frees stays small, with
extras or without: with glibc's malloc, freeing more let it hand the top of
the heap back to the kernel, and the next block faulted those pages in
again.  The estimator
stage runs once per chunk of up to ``_BLOCK_UNITS`` replicates, so once for
a run of up to that many.  Free weights are solved once per run from the
true parameters by the float code, the solve the analytic columns read, or
per chunk from each sample's plug-in vector, and each estimator is evaluated
once per chunk on (K,) arrays, by the formulas of the scalar
``resolve_weights`` and ``evaluate`` with an array backend (see
:mod:`medaux.arith`).  Every per-row result equals the one-replicate
computation, so reports depend neither on the block or chunk size nor on
``jobs``.
A replicate that fails for one estimator (a failed precondition, an
undefined optimum, or an arithmetic error such as an overflow on extreme
plug-in estimates) costs that estimator alone; one whose sample median
overflows costs every estimator that replicate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, MedauxError
from .estimators import (
    _SLOPE_OPTIMA,
    REGRESSION,
    EstimatorSpec,
    free_scalars,
    optimal_weights,
    point_value,
    preset,
)
from .expansion import error_moments, moment_values
from .mse import _figures, _solved
from .parameters import MedianParams, derive_params
from .population import (
    PopulationFrame,
    _frame_medians,
    _kernel_density_rows,
    _sorted_median,
    _sorted_quantile,
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

STREAM_VERSION = 2  # the random stream of _replicate_stream; reports echo it
_WEIGHT_POLICIES = ("true-params", "plug-in")
_SYNTHETIC_STREAM_TAG = 0xFFFFFFFFFFFFFFFF  # keeps the frame stream off replicate keys
# units per sampling block, and replicates per estimator chunk, which keeps
# the estimator stage's memory flat on long runs; results ignore it
_BLOCK_UNITS = 16_384


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
        for name in ("mu_x", "sigma_x", "mu_y", "sigma_y"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
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


def _replicate_stream(seed: int, k: int, n: int) -> np.random.Philox:
    """The bit generator of replicate k at sample size n, stream version 2.

    Every replicate of a run reads one Philox4x64-10 (Salmon et al., SC'11)
    keyed by ``(seed, 0)``.  Replicate k owns its m = ceil(n/4) counters
    from ``k*m`` on, four 64-bit words each, and reads the first n of its
    4m words, so the replicates of a block are consecutive runs of one
    ``random_raw`` call, and the blocks of a run consecutive calls on the
    generator of replicate 0.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=k * -(-n // 4))


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _targets(words: np.ndarray, N: int) -> np.ndarray:
    """Swap targets ``i + (w*(N - i) >> 64)`` of the uint64 words w along
    the last axis, i from 0.

    This is Lemire's multiply-shift (ACM TOMACS 2019) without rejection:
    the high word of the 128-bit product, assembled exactly from 32-bit
    halves, for every N below 2**63.  Each value of element i has
    probability off from 1/(N - i) by less than (N - i)/2**64 relative.
    Below N = 2**32 the span s = N - i has no high half, and the high word
    is ``(w_hi*s + (w_lo*s >> 32)) >> 32``: w_hi*s is at most (2**32 - 1)**2,
    so adding a value below 2**32 cannot wrap.  There ``words`` is consumed:
    it holds w_hi*s on return.
    """
    low = np.arange(words.shape[-1], dtype=np.uint64)
    span = np.uint64(N) - low
    if N < 2**32:
        hi = words & _LOW32
        hi *= span
        hi >>= _SHIFT32
        words >>= _SHIFT32
        words *= span
        hi += words
        hi >>= _SHIFT32
        hi += low
        return hi.view(np.int64)
    s_lo, s_hi = span & _LOW32, span >> _SHIFT32
    w_lo, w_hi = words & _LOW32, words >> _SHIFT32
    t = w_hi * s_lo + ((w_lo * s_lo) >> _SHIFT32)
    u = w_lo * s_hi + (t & _LOW32)
    hi = w_hi * s_hi + (t >> _SHIFT32) + (u >> _SHIFT32)
    return (low + hi).astype(np.int64)


def _swap_targets(stream: np.random.Philox, K: int, n: int, N: int) -> np.ndarray:
    """Row r: the n swap targets of the r-th of the next K replicates on
    ``stream`` (see :func:`_replicate_stream`), all from one ``random_raw``
    call.  Each replicate reads its 4*ceil(n/4) words, whole counters, so
    blocks read in order from one generator give the rows of one call."""
    m4 = 4 * -(-n // 4)
    words = stream.random_raw(K * m4)
    return _targets(words.reshape(K, m4)[:, :n], N)


def _swap_rows(js: np.ndarray, N: int) -> np.ndarray:
    """Partial Fisher-Yates on each row: for i < n swap positions i and
    ``js[r, i]`` of ``arange(N)``, then keep the first n entries.  ``js`` is
    consumed: the samples are written over it, and a C-contiguous ``js`` is
    the buffer returned.

    For any targets with ``i <= js[r, i] < N`` the result follows one rule.
    ``sample[r, i]`` is ``js[r, i]``, unless an earlier step m of row r
    targeted the same position; then it is D(r, m) for the last such m.
    D(r, m), the value position m holds when step m runs, is m unless an
    earlier step targeted position m; then it is D of the last such step.

    One sort of each row's keys ``(js << b) | i``, with b the bit length
    of n, puts equal targets side by side in step order.  Two compares on
    the sorted keys find the few entries that matter, and the rest runs on
    their sparse indices: each repeat reads D of its previous step, and the
    last step of each run of a target m < n is m's link (to m itself when
    that step is m: then D(m) is never read, as no later step can target m).
    Pointer doubling (Hillis and Steele, CACM 1986) resolves the links in at
    most ceil(log2 n) + 1 rounds, and D of each previous step is scattered
    into the repeats.  Memory is O(K n) for K rows; nothing has length N.
    The keys are below ``N << b``.  They are sorted as int32 where
    ``N << b < 2**31``, in half the memory and in the same order, so the
    samples do not change; otherwise as int64, where they fit while
    ``N <= 2**(63 - b)``.
    """
    K, n = js.shape
    b = n.bit_length()
    low = (1 << b) - 1
    keys = js.astype(np.int32 if N << b < 2**31 else np.int64)
    keys <<= b
    keys |= np.arange(n, dtype=keys.dtype)
    keys.sort(axis=1)
    keys = keys.reshape(-1)  # entry p of row r is flat entry r*n + p
    same = np.empty(K * n, dtype=bool)  # entry p + 1 repeats the target of p
    np.less_equal(keys[1:] ^ keys[:-1], low, out=same[:-1])
    same.reshape(K, n)[:, -1] = False
    ends = np.flatnonzero((keys < n << b) & ~same)
    base = ends - ends % n
    live = base + (keys[ends] >> b)  # flat node r*n + m
    root = np.arange(K * n)
    root[live] = base + (keys[ends] & low)
    while live.size:  # one pointer-doubling round; a node whose parent is a root leaves
        held = root[live]
        up = root[held]
        root[live] = up
        live = live[up != held]
    prev = np.flatnonzero(same)
    base = prev - prev % n
    out = js.reshape(-1)
    out[base + (keys[prev + 1] & low)] = root[base + (keys[prev] & low)] - base
    return out.reshape(K, n)


def srswor(frame: PopulationFrame, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n distinct unit indices by partial Fisher-Yates shuffling.

    The swap targets map the next n raw words of ``rng``'s bit generator
    as the block kernel of ``run_simulation`` maps them, and the sample is
    :func:`_swap_rows` on that one row: the swaps resolved by a sort and
    pointer doubling, equal to swapping one step at a time.  So
    ``Generator(_replicate_stream(seed, k, n))`` gives replicate k's sample.
    """
    N = frame.N
    if not 0 < n <= N:
        raise DomainError(f"need 0 < n <= N, got n={n}, N={N}")
    js = _targets(rng.bit_generator.random_raw(n), N)
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


def _sample_columns(
    frame: PopulationFrame, n: int, stream: np.random.Philox, K: int, extras: bool
) -> tuple[np.ndarray, ...]:
    """The sampling stage for the next K replicates on ``stream``: the (K,)
    columns my and mx of their sample medians, and p11, fy and fx where
    ``extras`` asks for them.

    Samples, medians, p11 and kernel densities are computed on (K, n)
    arrays.  The medians and the quartiles come from the frame's order
    table (see :attr:`PopulationFrame._order`): the sampled units' ranks,
    taken into one (2K, n) block, y's rows over x's, and sorted along its
    rows as narrow integers, put each sample in order, so the statistic at
    sorted position j is ``values[block[:, j]]``; no float row is sorted.
    Without ``extras`` no sampled value is gathered at all.  With them, p11
    and the kernel densities read the sampled values in sample order, which
    sets the last bits of the sd and the kernel sums; they are gathered
    once the ranks are freed, and the targets are freed before the kernel
    allocates its work buffer, so the block frees little at its end.  The
    columns are new arrays: a chunk keeps them until it ends, and a view
    would keep its block's buffer with them.
    """
    N = frame.N
    ranks, values = frame._order
    idx = _swap_rows(_swap_targets(stream, K, n, N), N)
    block = np.empty((2, K, n), dtype=ranks.dtype)
    # a take per row is faster than one along axis 1 in int16; the targets
    # lie in [0, N), and "clip" skips the copy of ``out`` that "raise" makes
    for r in (0, 1):
        np.take(ranks[r], idx, out=block[r], mode="clip")
    block = block.reshape(2 * K, n)
    block.sort(axis=1)
    # an overflowing median is inf in its row, which every spec then loses;
    # an overflowing bandwidth gives a NaN density, which the row's plug-in
    # specs lose
    with np.errstate(all="ignore"):
        my = _sorted_median(values, block[:K])
        mx = _sorted_median(values, block[K:])
        if not extras:
            return my, mx
        q25, q75 = (_sorted_quantile(values, block, q) for q in (0.25, 0.75))
        del block
        ys, xs = np.take(frame.y, idx), np.take(frame.x, idx)
        del idx
        below = ys <= my[:, None]
        below &= xs <= mx[:, None]
        fy, _ = _kernel_density_rows(ys, q25[:K], q75[:K], my)
        fx, _ = _kernel_density_rows(xs, q25[K:], q75[K:], mx)
    return my, mx, np.count_nonzero(below, axis=1) / n, fy, fx


def _estimate_columns(
    params: MedianParams,
    specs: tuple,
    my: np.ndarray,
    mx: np.ndarray,
    extras: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """The estimator stage: (K, len(specs)) estimates of K replicates from
    the columns of their sample statistics, K up to a chunk's
    ``_BLOCK_UNITS``.

    ``extras`` is ``(p11, fy, fx)`` of each sample, NaN densities where the
    sample has no usable bandwidth, or ``None`` when not computed.  A spec
    that still has free scalars is resolved from each row's plug-in vector,
    and a ``None`` spec is NaN in every row.  Each spec is resolved and
    evaluated once for all K rows, on (K,) arrays, by the formulas of
    :func:`resolve_weights` and :func:`evaluate`, so every row equals that
    one-replicate computation, whatever K is and whichever sampling blocks
    the rows came from.  One rule decides every failure: a spec loses
    a row where resolving or evaluating it there fails a precondition or
    raises a package or arithmetic error, or where it is resolved per sample
    and the row has no valid plug-in vector (no densities, or invalid
    estimates).  No other spec loses that row, unless a sample median of the
    row is not finite (it overflowed): then every spec loses it.
    """
    K = my.size
    overflowed = ~(np.isfinite(my) & np.isfinite(mx))
    free = [s is not None and bool(free_scalars(s)) for s in specs]
    normal = [f and s.family not in _SLOPE_OPTIMA for f, s in zip(free, specs)]
    out = np.full((K, len(specs)), np.nan)
    # the float code raises where the arrays give inf or NaN silently; the
    # backend marks those rows
    with np.errstate(all="ignore"):
        source = moments = None
        if extras and any(free):
            p11, fy, fx = extras
            # design quantities (N, n) stay fixed; the concordance estimate
            # is clamped into [-1, 1] because inclusive tie counting can push
            # 4*p11 - 1 above 1
            rho_hat = np.clip(4.0 * p11 - 1.0, -1.0, 1.0)
            hat_rows = _Rows(overflowed)
            source = SimpleNamespace(
                **derive_params(hat_rows, params.N, params.n, my, mx, fy, fx, rho_hat)
            )
            if any(normal):
                # the error moments of the normal equations, once per chunk;
                # a row whose squared cv overflows is lost only by the specs
                # that read them, not by a slope optimum
                moment_rows = _Rows(hat_rows.bad)
                moments = moment_values(moment_rows, source)
        for j, spec in enumerate(specs):
            if spec is None or (free[j] and source is None):
                continue
            rows = _Rows(hat_rows.bad if free[j] else overflowed)
            if normal[j]:
                rows.bad |= moment_rows.bad
            try:
                if free[j]:
                    spec = SimpleNamespace(
                        **{**vars(spec), **optimal_weights(rows, spec, source, moments)}
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
    specs: tuple,
) -> np.ndarray:
    """(reps, len(specs)) estimates, NaN where an estimator failed.  Free
    scalars left in a spec are solved per sample, and a ``None`` spec fails
    every replicate (see :func:`_estimate_columns`).

    The run is cut into chunks of at most ``_BLOCK_UNITS`` replicates.  The
    sampling stage fills a chunk's columns in blocks of ``_BLOCK_UNITS // n``
    replicates, whose (K, n) arrays stay cache-sized, read in order from one
    generator; the estimator stage then makes one :func:`_estimate_columns`
    call on the whole chunk.
    """
    n = config.n
    extras = n >= 2 and any(  # a kernel density needs two observations
        s is not None and (s.family == REGRESSION or free_scalars(s)) for s in specs
    )
    stream = _replicate_stream(config.seed, 0, n)
    K = max(1, _BLOCK_UNITS // n)
    chunks = []
    for start in range(0, config.reps, _BLOCK_UNITS):
        size = min(_BLOCK_UNITS, config.reps - start)
        blocks = [
            _sample_columns(frame, n, stream, min(K, size - a), extras)
            for a in range(0, size, K)
        ]
        my, mx, *rest = map(np.concatenate, zip(*blocks))
        chunks.append(_estimate_columns(params, specs, my, mx, tuple(rest) or None))
    return np.concatenate(chunks)


def _true_optimum(params: MedianParams, spec: EstimatorSpec, moments=None) -> tuple:
    """(The spec with its free weights solved from the true ``params``, or
    ``None`` where that fails; its analytic (MSE, bias), or (NaN, None) where
    the solve or the figures fail.)  This is the run's one solve of the spec,
    by the float code: the blocks run it under ``true-params``, and the
    analytic columns are its figures under either policy.  ``moments`` is
    :func:`error_moments` of ``params``, derived once per run, or ``None``
    to derive them here: where they overflow, the spec then fails wherever
    it reads them, in the solve or only in the figures."""
    solved = None
    try:
        solved = _solved(params, spec, moments)
        if moments is None:
            moments = error_moments(params)
        return solved, _figures(params, solved, moments)
    except (MedauxError, ArithmeticError):
        return solved, (math.nan, None)


def _aggregate(col: np.ndarray, target: float) -> tuple[int, float, float, float]:
    """(used, bias, MSE, standard error of the MSE) of the finite estimates
    in ``col``: bit for bit ``np.mean`` of the errors and their squares and
    ``np.std(ddof=1)`` of the squares over sqrt(used), by numpy's two-pass
    rule.  The standard error is NaN for one estimate, every figure for none.
    Squares that overflow give inf (and a NaN spread), unwarned.
    """
    with np.errstate(all="ignore"):
        errors = col[np.isfinite(col)] - target
        used = errors.size
        sq = errors * errors
        mse = sq.sum() / used
        dev = np.square(sq - mse)
        se = np.sqrt(dev.sum() / max(used - 1, 0)) / math.sqrt(used)
        return used, float(errors.sum() / used), float(mse), float(se)


def run_simulation(
    frame: PopulationFrame,
    config: SimulationConfig,
    params: MedianParams,
    jobs: int = 1,
) -> SimulationReport:
    """Replicate SRSWOR estimation of the study median.

    Free weights are resolved once per run from ``params`` under the
    ``true-params`` policy, and from each sample under ``plug-in``.  The
    regression estimator always uses its per-sample slope.  Replicates
    where an estimator fails are excluded from that estimator's
    aggregates and surfaced as failure counts; one whose true-params
    optimum is undefined fails every replicate, and no other loses one.  Each
    preset is solved once from ``params`` (:func:`_true_optimum`), and the
    analytic columns are the figures of that solve, the values ``table``
    reports.  Where an estimator's figures fail, by the same rule, they are
    NaN and no bias for that estimator alone.  Replicates
    are sampled in cache-sized blocks and estimated in chunks of up to
    ``_BLOCK_UNITS``, one after another in the calling thread (see
    :func:`_replicate_estimates`).  ``jobs`` is accepted for compatibility
    and has no effect; the report never depended on it.
    """
    if config.n > frame.N:
        raise DomainError(f"sample size {config.n} exceeds population {frame.N}")
    if jobs < 1:
        raise DomainError(f"jobs must be positive, got {jobs}")

    specs = tuple(preset(name, params) for name in config.estimators)
    try:
        moments = error_moments(params)
    except DomainError:  # a squared cv overflows
        moments = None
    solved, figures = zip(*(_true_optimum(params, s, moments) for s in specs))
    if config.weights == "true-params":
        specs = solved
    estimates = _replicate_estimates(frame, config, params, specs)

    target, _ = _frame_medians(frame)
    results = []
    for j, (name, (ana_mse, ana_bias)) in enumerate(zip(config.estimators, figures)):
        used, emp_bias, emp_mse, se = _aggregate(estimates[:, j], target)
        results.append(
            EstimatorResult(
                estimator=name,
                reps_used=used,
                failures=config.reps - used,
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
    with np.errstate(over="ignore"):  # an overflow is inf, which the frame refuses
        x = np.exp(spec.mu_x + spec.sigma_x * z1)
        y = np.exp(
            spec.mu_y
            + spec.sigma_y * (spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2)
        )
    return PopulationFrame(x=x, y=y)
