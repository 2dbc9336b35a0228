"""Median estimation with auxiliary information under SRSWOR.

The package covers the full workflow: ingest a finite population or its
published summary parameters, evaluate a catalogue of median estimators that
exploit a known auxiliary median, compute their first-order biases, MSEs,
minimum MSEs and optimal weights from each estimator's expansion, check the
efficiency orderings between estimator classes, and verify the asymptotics
empirically with a reproducible SRSWOR replication engine.
"""

from . import errors, estimators, expansion, montecarlo, mse, population
from .errors import *  # noqa: F403 -- each module's __all__ is its public API
from .estimators import *  # noqa: F403
from .expansion import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .mse import *  # noqa: F403
from .population import *  # noqa: F403

__version__ = "1.0.0"

__all__ = ["__version__"] + [
    name
    for module in (population, expansion, estimators, mse, montecarlo, errors)
    for name in module.__all__
]
