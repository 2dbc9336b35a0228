"""Median estimation with auxiliary information under SRSWOR.

The package covers the full workflow: ingest a finite population or its
published summary parameters, evaluate a catalogue of median estimators that
exploit a known auxiliary median, compute their first-order biases, MSEs,
minimum MSEs and optimal weights from each estimator's expansion, check the
efficiency orderings between estimator classes, and verify the asymptotics
empirically with a reproducible SRSWOR replication engine.

``import medaux`` loads only the pure-Python analytic modules.  The two
modules that use numpy, :mod:`medaux.population` (frames and densities) and
:mod:`medaux.montecarlo` (the replication engine), are imported on first use
of one of their names, e.g. ``from medaux import run_simulation``.
"""

import importlib

from . import errors, estimators, expansion, mse, parameters
from .errors import *  # noqa: F403 -- each module's __all__ is its public API
from .estimators import *  # noqa: F403
from .expansion import *  # noqa: F403
from .mse import *  # noqa: F403
from .parameters import *  # noqa: F403

__version__ = "1.0.0"

# the __all__ of each numpy module, which importing the module would give
_LAZY = {
    "population": (
        "PopulationFrame",
        "KernelDensity",
        "HistogramDensity",
        "KnownDensity",
        "DensityMethod",
        "load_population",
        "finite_median",
        "density_at",
        "compute_params",
    ),
    "montecarlo": (
        "SimulationConfig",
        "SyntheticSpec",
        "EstimatorResult",
        "SimulationReport",
        "srswor",
        "run_simulation",
        "make_synthetic",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    *parameters.__all__,
    *_LAZY["population"],
    *expansion.__all__,
    *estimators.__all__,
    *mse.__all__,
    *_LAZY["montecarlo"],
    *errors.__all__,
]


def __getattr__(name: str):
    # import_module, not ``from . import``: the latter looks the submodule up
    # as an attribute of this package first, which calls back into here
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        return getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})
