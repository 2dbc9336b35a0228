"""The package namespace is the union of its modules' public names."""

from __future__ import annotations

import medaux
from medaux import errors, estimators, expansion, montecarlo, mse, population

MODULES = (population, expansion, estimators, mse, montecarlo, errors)


def test_all_is_union_of_module_exports():
    names = [name for module in MODULES for name in module.__all__]
    assert medaux.__all__ == ["__version__", *names]
    assert len(set(medaux.__all__)) == len(medaux.__all__)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(medaux, name) is getattr(module, name), name
    assert isinstance(medaux.__version__, str)


def test_module_level_public_names_are_exported():
    for name in ("FAMILIES", "TABLE_ALL_IDS", "ExpConstants", "UnknownEstimatorError"):
        assert name in medaux.__all__
