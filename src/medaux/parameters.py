"""The parameter vector driving every analytic formula.

The estimation problem pairs a study variable y (median unknown) with an
auxiliary variable x (median known for the whole population).  Everything the
closed-form machinery needs is condensed into :class:`MedianParams`:

* the two finite-population medians and the marginal densities at them,
* the median coefficients of variation ``cv = 1 / (median * density)``,
* the concordance correlation ``rho_c = 4 * p11 - 1`` where ``p11`` is the
  share of units at or below both medians,
* the design factor ``gamma = (1 - n/N) / (4n)`` that scales all
  first-order variances under simple random sampling without replacement.

Parameters are loaded from a flat JSON object: the seven primitive
quantities, and optionally the eight derived ones as ``medaux params
--format json`` writes them, each checked against the primitives.  The
constructor takes only the seven; it validates them and then derives the
other eight fields itself, so a derived value is never passed in.

This module and everything the analytic path (``table``, ``compare``,
``params --params``) imports is pure Python; extracting parameters from raw
``(x, y)`` data needs numpy and lives in :mod:`medaux.population`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import IO, Union

from .arith import FLOATS, ratio_or
from .errors import DomainError, ParseError, SchemaError

__all__ = ["MedianParams", "load_params"]


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


Source = Union[str, bytes, os.PathLike, IO]


def _read_text(source: Source) -> str:
    """The text of a path, bytes or stream, less one leading byte-order mark
    (spreadsheet programs write one at the start of "CSV UTF-8" files)."""
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return _read_text(fh.read())
    data = source.read()
    if isinstance(data, bytes):
        return _read_text(data)
    return data.removeprefix("\ufeff")


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
