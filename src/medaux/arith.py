"""The plain-float backend of the formula code.

The parameter derivation, the error moments, the weight optima and the
estimator point values are each written once, against a small backend
``ops``:

* ``fail_if(bad, error, message, *args)`` and ``require(ok, ...)`` state a
  precondition;
* ``select(cond, a, b)`` picks ``a`` where ``cond`` holds, else ``b``; both
  are computed, so neither may divide by zero (see :func:`ratio_or`);
* ``pow`` and ``exp`` are Python's ``**`` and ``math.exp``; ``isfinite``
  is ``math.isfinite``.

Everything else is a plain operator, so the same code runs on floats and on
arrays.  :data:`FLOATS` is the float backend: a failed precondition raises
its error with ``message.format(*args)``.  ``montecarlo`` runs the same
formulas on (K,) arrays with a backend that turns a failed precondition into
a NaN in that row, and applies ``**`` and ``math.exp`` one element at a time:
libm's ``pow`` and ``exp`` are not correctly rounded, and numpy's own square
and exponential differ from them in the last bit on some inputs.
"""

from __future__ import annotations

import math
import operator


class _Floats:
    pow = staticmethod(operator.pow)
    exp = staticmethod(math.exp)
    isfinite = staticmethod(math.isfinite)

    @staticmethod
    def select(cond, a, b):
        return a if cond else b

    @staticmethod
    def fail_if(bad, error: type[Exception], message: str, *args) -> None:
        if bad:
            raise error(message.format(*args) if args else message)

    @staticmethod
    def require(ok, error: type[Exception], message: str, *args) -> None:
        if not ok:
            raise error(message.format(*args) if args else message)


FLOATS = _Floats()


def ratio_or(ops, num, den, fallback):
    """``num / den``, or ``fallback`` where ``den`` is zero."""
    nonzero = den != 0
    return ops.select(nonzero, num / ops.select(nonzero, den, 1.0), fallback)
