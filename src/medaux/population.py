"""Finite populations: frames, point densities and parameter extraction.

A :class:`PopulationFrame` holds the paired ``(x, y)`` values of all N units,
read from CSV by :func:`load_population`, and sorts each column once into
its order table, which the medians here and the sampling blocks of
:mod:`medaux.montecarlo` read.  :func:`compute_params` condenses a frame into
the :class:`~medaux.parameters.MedianParams` vector: the two medians, the
densities at them (Gaussian kernel, histogram, or a known value) and the
concordance share ``p11`` of units at or below both medians.

This is the numpy half of the population code; the parameter vector and its
JSON loader are pure Python in :mod:`medaux.parameters`, so that the analytic
path never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DegenerateSampleError, DomainError, ParseError
# load_params is unused here; it stays importable as medaux.population.load_params
from .parameters import MedianParams, Source, _read_text, load_params  # noqa: F401

__all__ = [
    "PopulationFrame",
    "KernelDensity",
    "HistogramDensity",
    "KnownDensity",
    "DensityMethod",
    "load_population",
    "finite_median",
    "density_at",
    "compute_params",
]


# ---------------------------------------------------------------------------
# Core value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationFrame:
    """Paired (x, y) values for all N units of a finite population, as
    read-only copies, with their order table (:attr:`_order`)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        # copies: a caller's array, or another view of its memory, could
        # change under the frame and its cached order table
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise DomainError("population columns must be one-dimensional")
        if x.shape != y.shape:
            raise DomainError(
                f"x and y must have equal length, got {x.size} and {y.size}"
            )
        if x.size < 2:
            raise DomainError(f"population needs at least 2 units, got {x.size}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("population values must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return int(self.x.size)

    @cached_property
    def _order(self) -> tuple[np.ndarray, np.ndarray]:
        """The frame's order table, built on first use: (ranks, values).

        ``ranks`` is (2, N): row 0 holds each unit's rank in a stable sort of
        y, row 1 its rank in a stable sort of x plus N, in
        :func:`_rank_dtype` of N.  ``values`` is (2N,): y sorted, then x
        sorted, so ``values[ranks]`` is the frame's columns again, and a
        row of ranks sorted is its values sorted.  Tied units have distinct
        ranks and equal values, so a statistic read off sorted ranks is the
        one read off sorted values.  The table takes 16 bytes per unit for
        the values and 4, 8 or 16 for the ranks.  It is safe to keep: the
        frame is frozen, and its columns are read-only copies that nothing
        else holds, so they never change after it is built; a frame from
        :func:`dataclasses.replace` builds its own.
        """
        N = self.N
        ranks = np.empty((2, N), dtype=_rank_dtype(N))
        values = np.empty(2 * N)
        for r, column in enumerate((self.y, self.x)):
            order = np.argsort(column, kind="stable")
            ranks[r, order] = np.arange(r * N, (r + 1) * N)
            np.take(column, order, out=values[r * N : (r + 1) * N])
        ranks.setflags(write=False)
        values.setflags(write=False)
        return ranks, values


def _rank_dtype(N: int) -> type:
    """The narrowest signed integer type that holds the ranks 0..2N-1 of an
    order table of N units: int16 up to N = 2**14, int32 up to 2**30, else
    int64."""
    for dtype in (np.int16, np.int32):
        if 2 * N <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


# ---------------------------------------------------------------------------
# Density estimation at a point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelDensity:
    """Gaussian kernel estimate with Silverman's bandwidth.

    The rule is h = 0.9 * min(sd, IQR / 1.34) * n ** (-1/5) with the
    sample standard deviation (ddof=1).
    """


@dataclass(frozen=True)
class HistogramDensity:
    """Density read off a histogram with numpy's ``"fd"`` (Freedman-Diaconis)
    bin rule, refused above 1000 bins per observation."""


@dataclass(frozen=True)
class KnownDensity:
    """Inject an externally known density value, bypassing estimation."""

    value: float


DensityMethod = Union[KernelDensity, HistogramDensity, KnownDensity]


def _sorted_median(values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Median of each row of ``values[ranks]``, a (K, n) block whose rows
    are sorted, as ``np.median`` computes it: the middle entry, or the middle
    pair's sum halved, which is numpy's mean of two and overflows to inf for
    a pair near the float limit.  Only the middle columns are gathered, and
    the result is a new array."""
    half = ranks.shape[1] // 2
    if ranks.shape[1] % 2:
        return values[ranks[:, half]]
    return (values[ranks[:, half - 1]] + values[ranks[:, half]]) / 2


def _sorted_quantile(values: np.ndarray, ranks: np.ndarray, q: float) -> np.ndarray:
    """Quantile q of each row of ``values[ranks]``, a (K, n) block whose rows
    are sorted, by numpy's default ``linear`` rule (Hyndman and Fan's type
    7), bit for bit.

    The virtual index is (n - 1) * q, and numpy's ``_lerp`` interpolates
    from the nearer of its two neighbours.  At the last index numpy takes
    the last entry for both and counts the weight from index -1.
    """
    n = ranks.shape[1]
    index = (n - 1) * q
    below = math.floor(index)
    above = below + 1
    if index >= n - 1:
        below = above = -1
    t = index - below
    a, b = values[ranks[:, below]], values[ranks[:, above]]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _kernel_density_rows(
    rows: np.ndarray, q25: np.ndarray, q75: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density of each row of ``rows`` at its entry of ``points``.

    ``rows`` is a (K, n) array of finite values with n >= 2, and ``q25`` and
    ``q75`` the (K,) quartiles of its rows (:func:`_sorted_quantile`), whose
    difference is the IQR of the bandwidth.  The sd and the kernel sum run
    on ``rows``, whose order sets their last bits.  Returns the densities
    and the bandwidths; a row whose bandwidth is not finite and positive
    gets a NaN density.  Every row goes through the same arithmetic as a
    one-row call, so results do not depend on which rows share a call.

    The sd takes the steps of numpy's two-pass ``np.std(ddof=1)`` and the
    kernel mean those of ``np.mean``, with the same bits, in one (K, n) work
    buffer, which holds the squared deviations and then the kernel
    ``exp(z*-0.5*z)``.  Once the sd is known, the scaled distances z are
    written over ``rows`` where it is C-contiguous (over a C-ordered copy
    where it is not).  A caller that still needs ``rows`` passes a copy.
    """
    # sums along contiguous rows add up in the same pairwise order as 1-D sums
    rows = np.ascontiguousarray(rows)
    work = np.empty_like(rows)
    n = rows.shape[1]
    with np.errstate(all="ignore"):  # values near the float limit overflow, unwarned
        mean = np.add.reduce(rows, axis=1, keepdims=True)
        mean /= n
        np.subtract(rows, mean, out=work)
        np.square(work, out=work)
        sd = np.add.reduce(work, axis=1)
        sd /= n - 1
        np.sqrt(sd, out=sd)
        h = 0.9 * np.minimum(sd, (q75 - q25) / 1.34) * n ** (-0.2)
        # each row's kernel is independent of the others, so rows with an
        # unusable bandwidth run too and only their densities are dropped
        usable = np.isfinite(h) & (h > 0)
        z = np.subtract(points[:, None], rows, out=rows)
        z /= h[:, None]
        np.multiply(z, -0.5, out=work)
        work *= z
        np.exp(work, out=work)
        kernel_mean = np.add.reduce(work, axis=1)
        kernel_mean /= n
        density = np.where(usable, kernel_mean / (h * math.sqrt(2.0 * math.pi)), np.nan)
    return density, h


def density_at(values, point: float, method: DensityMethod) -> float:
    """Estimate the density of ``values`` at ``point`` with ``method``.

    ``KnownDensity`` returns its value unchanged.  The kernel method needs at
    least two observations and nonzero spread; zero spread raises
    :class:`DegenerateSampleError`.
    """
    if isinstance(method, KnownDensity):
        return float(method.value)

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("cannot estimate a density from an empty sample")
    if not np.isfinite(arr).all():
        raise DomainError("density estimation requires finite values")

    if isinstance(method, KernelDensity):
        if arr.size < 2:
            raise DomainError("kernel density needs at least 2 observations")
        rows = arr[None, :].copy()  # the kernel writes over its rows
        ordered, ranks = np.sort(arr), np.arange(arr.size)[None, :]
        with np.errstate(all="ignore"):  # quartiles near the float limit overflow
            q25, q75 = (_sorted_quantile(ordered, ranks, q) for q in (0.25, 0.75))
        density, h = _kernel_density_rows(rows, q25, q75, np.array([point]))
        if math.isnan(density[0]):
            raise DegenerateSampleError(
                f"sample has no spread, bandwidth {float(h[0])!r} is unusable"
            )
        return float(density[0])

    if isinstance(method, HistogramDensity):
        # numpy's bin count, ceil(range / (2*IQR*n**(-1/3))) or 1 at zero
        # IQR, is capped before np.histogram allocates the bins; a range
        # past the float limit breaks numpy's binning with one of these errors
        cap = 1000 * arr.size
        try:
            with np.errstate(all="ignore"):
                q75, q25 = np.percentile(arr, [75, 25])
                width = 2.0 * (q75 - q25) * arr.size ** (-1.0 / 3.0)
                bins = np.ceil((arr.max() - arr.min()) / width) if width else 1.0
                if bins > cap:
                    raise ValueError(f"its rule asks for {bins:.4g}, above the cap of "
                                     f"{cap}, 1000 per observation")
                counts, edges = np.histogram(arr, bins="fd", density=True)
        except (ValueError, OverflowError, IndexError) as exc:
            raise DomainError(
                "the Freedman-Diaconis histogram of this sample has no usable "
                f"bins ({exc})"
            ) from None
        if point < edges[0] or point > edges[-1]:
            return 0.0
        idx = min(int(np.searchsorted(edges, point, side="right")) - 1, counts.size - 1)
        return float(counts[max(idx, 0)])

    raise DomainError(f"unsupported density method {method!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def finite_median(values) -> float:
    """Median of a finite list: middle order statistic, or the mean of the
    two central order statistics when the count is even."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("median of an empty collection is undefined")
    if not np.isfinite(arr).all():
        raise DomainError("median requires finite values")
    return float(_sorted_median(np.sort(arr), np.arange(arr.size)[None, :])[0])


def _frame_medians(frame: PopulationFrame) -> tuple[float, float]:
    """(median of y, median of x) over all N units, the :func:`finite_median`
    of each column, read off the frame's order table."""
    N = frame.N
    _, values = frame._order
    my, mx = _sorted_median(values, np.arange(2 * N).reshape(2, N)).tolist()
    return my, mx


def compute_params(
    frame: PopulationFrame,
    n: int,
    fy_method: DensityMethod | None = None,
    fx_method: DensityMethod | None = None,
) -> MedianParams:
    """Extract the full parameter vector from a population frame.

    Densities default to the Gaussian kernel estimate at each median; pass
    :class:`KnownDensity` to inject published values instead.
    """
    if not (0 < n < frame.N):
        raise DomainError(f"need 0 < n < N, got n={n}, N={frame.N}")
    fy_method = fy_method if fy_method is not None else KernelDensity()
    fx_method = fx_method if fx_method is not None else KernelDensity()

    N = frame.N
    my, mx = _frame_medians(frame)
    # p11 is the share of units at or below both medians; inclusive tie
    # counting can push it past 1/2 on finite populations, so the concordance
    # correlation is capped at its continuum bound.  A unit is at or below a
    # median where its rank is below the table's count of such values
    ranks, values = frame._order
    y_end = np.searchsorted(values[:N], my, "right")
    x_end = N + np.searchsorted(values[N:], mx, "right")
    p11 = np.count_nonzero((ranks[0] < y_end) & (ranks[1] < x_end)) / N
    rho_c = min(1.0, max(-1.0, 4.0 * p11 - 1.0))

    fy = density_at(frame.y, my, fy_method)
    fx = density_at(frame.x, mx, fx_method)
    return MedianParams(frame.N, n, my, mx, fy, fx, rho_c)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def load_population(source: Source) -> PopulationFrame:
    """Parse a population CSV with header ``x,y``.

    One pair per line, ``.`` decimal separator, ``#``-prefixed comment lines
    skipped.  Malformed rows raise :class:`ParseError` with the 1-based line
    number; fewer than two data rows raise :class:`DomainError`.
    """
    text = _read_text(source)
    columns: dict[str, list[float]] = {"x": [], "y": []}
    order: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if order is None:
            if sorted(fields) != ["x", "y"]:
                raise ParseError(
                    f"expected header with columns x,y, got {raw!r}", line=lineno
                )
            order = fields
            continue
        if len(fields) != 2:
            raise ParseError(
                f"expected 2 columns, got {len(fields)}", line=lineno
            )
        for name, field in zip(order, fields):
            try:
                columns[name].append(float(field))
            except ValueError:
                raise ParseError(
                    f"column {name!r} has non-numeric value {field!r}", line=lineno
                ) from None
    if order is None:
        raise ParseError("input has no header row")
    if len(columns["x"]) < 2:
        raise DomainError(
            f"population needs at least 2 rows, got {len(columns['x'])}"
        )
    return PopulationFrame(x=np.array(columns["x"]), y=np.array(columns["y"]))
