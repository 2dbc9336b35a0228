"""The package namespace is the union of its modules' public names."""

from __future__ import annotations

import ast
import pathlib

import pytest

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
    for name in ("FAMILIES", "TABLE_ALL_IDS", "ExpansionCoeffs", "UnknownEstimatorError"):
        assert name in medaux.__all__


@pytest.mark.parametrize(
    "owner, name",
    [
        (medaux.MedianParams, "from_primitives"),  # call the constructor
        (medaux, "ExpConstants"),  # read the coefficients from coeffs_of
        (medaux, "exp_constants"),
        (medaux, "DegeneratePivotWarning"),  # the package never raised it
    ],
)
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)
    assert all(name not in module.__all__ for module in MODULES)


def _raised_warned_or_caught(tree: ast.AST) -> set[str]:
    """Names a module raises, catches, warns with, or fails a precondition
    with (``ops.fail_if``/``ops.require`` raise through the float backend)."""
    found: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found.append(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found.extend(getattr(node.type, "elts", [node.type]))
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("warn", "fail_if", "require"):
                found.extend(node.args)
    return {node.id for node in found if isinstance(node, ast.Name)}


def test_every_error_class_is_used_outside_its_module():
    src = pathlib.Path(errors.__file__).parent
    used = set().union(
        *(
            _raised_warned_or_caught(ast.parse(path.read_text()))
            for path in sorted(src.glob("*.py"))
            if path.name != "errors.py"
        )
    )
    assert set(errors.__all__) - used == set()


def _calls(path: pathlib.Path) -> list[str]:
    """Names of the functions a module calls, by plain name or attribute."""
    return [
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    ]


def test_analytic_figures_have_one_route():
    # run_simulation reads its analytic columns from mse.analytic_figures,
    # and that function alone applies the M_d4 formula
    src = pathlib.Path(mse.__file__).parent
    analytic = {"coeffs_of", "mse_from_coeffs", "bias_from_coeffs", "min_mse_ss4"}
    assert analytic.isdisjoint(_calls(src / "montecarlo.py"))
    sites = [path.name for path in sorted(src.glob("*.py")) for name in _calls(path)
             if name == "min_mse_ss4"]
    assert sites == ["mse.py"]
