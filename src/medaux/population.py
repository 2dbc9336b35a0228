"""Finite populations and the parameter vector driving every analytic formula.

The estimation problem pairs a study variable y (median unknown) with an
auxiliary variable x (median known for the whole population).  Everything the
closed-form machinery needs is condensed into :class:`MedianParams`:

* the two finite-population medians and the marginal densities at them,
* the median coefficients of variation ``cv = 1 / (median * density)``,
* the concordance correlation ``rho_c = 4 * p11 - 1`` where ``p11`` is the
  share of units at or below both medians,
* the design factor ``gamma = (1 - n/N) / (4n)`` that scales all
  first-order variances under simple random sampling without replacement.

Parameters can be extracted from raw ``(x, y)`` data or loaded from a flat
JSON object: the seven primitive quantities, and optionally the eight derived
ones as ``medaux params --format json`` writes them, each checked against the
primitives.  The constructor takes only the seven; it validates them and then
derives the other eight fields itself, so a derived value is never passed in.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import IO, Union

import numpy as np

from .arith import FLOATS, ratio_or
from .errors import (
    DegenerateSampleError,
    DomainError,
    ParseError,
    SchemaError,
)

__all__ = [
    "PopulationFrame",
    "MedianParams",
    "KernelDensity",
    "HistogramDensity",
    "KnownDensity",
    "DensityMethod",
    "load_population",
    "finite_median",
    "density_at",
    "compute_params",
    "load_params",
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


@dataclass(frozen=True)
class MedianParams:
    """Population parameter vector consumed by all analytic formulas.

    The constructor takes the seven primitives; the eight fields after them
    are derived in ``__post_init__`` once the primitives pass validation, so
    ``dataclasses.replace`` on a primitive re-derives the rest.
    """

    N: int
    n: int
    median_y: float
    median_x: float
    fy_at_median: float
    fx_at_median: float
    rho_c: float
    p11: float = field(init=False)
    f: float = field(init=False)
    gamma: float = field(init=False)
    cv_y: float = field(init=False)
    cv_x: float = field(init=False)
    median_ratio: float = field(init=False)
    median_gap: float = field(init=False)
    k_c: float = field(init=False)

    def __post_init__(self) -> None:
        N, n = int(self.N), int(self.n)
        if (N, n) != (self.N, self.n):
            raise DomainError(
                f"N and n must be integers, got n={self.n!r}, N={self.N!r}"
            )
        primitives = (self.median_y, self.median_x, self.fy_at_median,
                      self.fx_at_median, self.rho_c)
        reals = tuple(map(float, primitives))
        if N < 2 or not (0 < n < N):
            raise DomainError(f"need 0 < n < N with N >= 2, got n={n}, N={N}")
        values = derive_params(FLOATS, N, n, *reals, gap=self.median_y - self.median_x)
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict[str, float]:
        """All fields, primitives first, in a stable order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def derive_params(ops, N, n, median_y, median_x, fy, fx, rho_c, gap=None) -> dict:
    """Every :class:`MedianParams` field from the primitives, by ``ops``.

    Runs the constructor's checks on the five real primitives with their
    messages, then derives the other eight fields.  ``gap`` is the median
    gap taken from the medians as given (two integer medians keep an integer
    gap); it defaults to ``median_y - median_x``.
    """
    for name, v in (("median_y", median_y), ("median_x", median_x)):
        ops.require(ops.isfinite(v) & (v > 0), DomainError,
                    "{} must be finite and positive, got {!r}", name, v)
    for name, v in (("fy_at_median", fy), ("fx_at_median", fx)):
        ops.require(ops.isfinite(v) & (v > 0), DomainError,
                    "{} must be a positive density, got {!r}", name, v)
    ops.require((-1.0 <= rho_c) & (rho_c <= 1.0), DomainError,
                "rho_c must lie in [-1, 1], got {!r}", rho_c)
    f = n / N
    # median * density can underflow to 0 (or overflow, giving cv 0)
    cv_y = ratio_or(ops, 1.0, median_y * fy, math.inf)
    cv_x = ratio_or(ops, 1.0, median_x * fx, math.inf)
    for name, v in (("cv_y", cv_y), ("cv_x", cv_x)):
        ops.require(ops.isfinite(v) & (v > 0), DomainError,
                    "{} must be finite and positive, got {!r}", name, v)
    return {
        "N": N, "n": n, "median_y": median_y, "median_x": median_x,
        "fy_at_median": fy, "fx_at_median": fx, "rho_c": rho_c,
        "p11": (1.0 + rho_c) / 4.0,
        "f": f,
        "gamma": (1.0 - f) / (4.0 * n),
        "cv_y": cv_y,
        "cv_x": cv_x,
        "median_ratio": median_x / median_y,
        "median_gap": median_y - median_x if gap is None else gap,
        "k_c": rho_c * cv_y / cv_x,
    }


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

Source = Union[str, bytes, os.PathLike, IO]


def _read_text(source: Source) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return _read_text(fh.read())
    data = source.read()
    if isinstance(data, bytes):
        return _read_text(data)
    return data


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


_PARAM_KEYS = tuple(f.name for f in fields(MedianParams) if f.init)
_DERIVED_KEYS = tuple(f.name for f in fields(MedianParams) if not f.init)


def _number(doc: dict, key: str) -> int | float:
    v = doc[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(f"params key {key!r} must be numeric, got {v!r}")
    return v


def load_params(source: Source) -> MedianParams:
    """Load :class:`MedianParams` from a flat JSON object.

    The seven primitive keys are required.  The eight derived keys may be
    present, as ``medaux params --format json`` writes them; each must agree
    with the value derived from the primitives.  Any other key, or a derived
    key that disagrees, raises :class:`SchemaError`.
    """
    text = _read_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise SchemaError("params document must be a JSON object")

    missing = [k for k in _PARAM_KEYS if k not in doc]
    if missing:
        raise SchemaError(f"params file is missing required keys: {missing}")
    unknown = [k for k in doc if k not in _PARAM_KEYS + _DERIVED_KEYS]
    if unknown:
        raise SchemaError(f"params file carries unknown keys: {unknown}")

    values = {key: _number(doc, key) for key in _PARAM_KEYS}
    for key in ("N", "n"):
        if isinstance(values[key], float) and not values[key].is_integer():
            raise SchemaError(f"params key {key!r} must be an integer")

    params = MedianParams(**values)
    for key in _DERIVED_KEYS:
        if key in doc:
            stored, derived = _number(doc, key), getattr(params, key)
            if not math.isclose(stored, derived, rel_tol=1e-4, abs_tol=1e-9):
                raise SchemaError(
                    f"params key {key!r} is {stored!r}, the primitives give {derived!r}"
                )
    return params
