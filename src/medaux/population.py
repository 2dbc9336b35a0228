"""Finite populations: frames, point densities and parameter extraction.

A :class:`PopulationFrame` holds the paired ``(x, y)`` values of all N units,
read from CSV by :func:`load_population`.  :func:`compute_params` condenses a
frame into the :class:`~medaux.parameters.MedianParams` vector: the two
medians, the densities at them (Gaussian kernel, histogram, or a known value)
and the concordance share ``p11`` of units at or below both medians.

This is the numpy half of the population code; the parameter vector and its
JSON loader are pure Python in :mod:`medaux.parameters`, so that the analytic
path never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Paired (x, y) values for all N units of a finite population."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
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
    bin rule."""


@dataclass(frozen=True)
class KnownDensity:
    """Inject an externally known density value, bypassing estimation."""

    value: float


DensityMethod = Union[KernelDensity, HistogramDensity, KnownDensity]


def _kernel_density_rows(
    rows: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density of each row of ``rows`` at its entry of ``points``.

    ``rows`` is a (K, n) array of finite values with n >= 2.  Returns the
    densities and the bandwidths; a row whose bandwidth is not finite and
    positive gets a NaN density.  Every row goes through the same arithmetic
    as a one-row call, so results do not depend on which rows share a call.
    """
    # sums along contiguous rows add up in the same pairwise order as 1-D sums
    rows = np.ascontiguousarray(rows)
    with np.errstate(all="ignore"):  # values near the float limit overflow, unwarned
        sd = np.std(rows, axis=1, ddof=1)
        q75, q25 = np.percentile(rows, [75, 25], axis=1)
        h = 0.9 * np.minimum(sd, (q75 - q25) / 1.34) * rows.shape[1] ** (-0.2)
        usable = np.isfinite(h) & (h > 0)
        hu = h[usable]
        z = (points[usable, None] - rows[usable]) / hu[:, None]
        kernel_mean = np.mean(np.exp(-0.5 * z * z), axis=1)
        density = np.full(rows.shape[0], np.nan)
        density[usable] = kernel_mean / (hu * math.sqrt(2.0 * math.pi))
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
        density, h = _kernel_density_rows(arr[None, :], np.array([point]))
        if math.isnan(density[0]):
            raise DegenerateSampleError(
                f"sample has no spread, bandwidth {float(h[0])!r} is unusable"
            )
        return float(density[0])

    if isinstance(method, HistogramDensity):
        counts, edges = np.histogram(arr, bins="fd", density=True)
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
    return float(np.median(arr))


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

    my = finite_median(frame.y)
    mx = finite_median(frame.x)
    # p11 is the share of units at or below both medians; inclusive tie
    # counting can push it past 1/2 on finite populations, so the concordance
    # correlation is capped at its continuum bound
    p11 = np.count_nonzero((frame.x <= mx) & (frame.y <= my)) / frame.N
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
