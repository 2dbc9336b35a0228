"""The package namespace is the union of its modules' public names, and the
analytic path imports no numpy."""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import medaux
from medaux import cli, errors, estimators, expansion, montecarlo, mse, parameters, population

MODULES = (parameters, population, expansion, estimators, mse, montecarlo, errors)

PUBLIC_NAMES = {
    "__version__",
    "PopulationFrame", "MedianParams", "KernelDensity", "HistogramDensity",
    "KnownDensity", "DensityMethod", "load_population", "finite_median",
    "density_at", "compute_params", "load_params",
    "ExpansionCoeffs", "ErrorMoments", "k_const", "error_moments",
    "bias_from_coeffs", "mse_from_coeffs",
    "EstimatorSpec", "SampleStats", "FAMILIES", "PRESET_NAMES", "evaluate",
    "coeffs_of", "preset", "resolve_weights", "free_scalars",
    "MseReportRow", "DominanceResult", "analytic_figures", "min_mse_ss4", "pre",
    "sample_median_mse", "dominance_checks", "table_rows", "TABLE_ALL_IDS",
    "SimulationConfig", "SyntheticSpec", "EstimatorResult", "SimulationReport",
    "srswor", "run_simulation", "make_synthetic",
    "MedauxError", "ParseError", "SchemaError", "DomainError",
    "DegenerateSampleError", "SingularityError", "DegenerateOptimumError",
    "UnknownEstimatorError", "InfiniteEfficiencyWarning",
}


def test_all_is_union_of_module_exports():
    names = [name for module in MODULES for name in module.__all__]
    assert medaux.__all__ == ["__version__", *names]
    assert len(set(medaux.__all__)) == len(medaux.__all__)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(medaux, name) is getattr(module, name), name
    assert isinstance(medaux.__version__, str)


def test_public_names_are_listed_and_visible():
    assert len(PUBLIC_NAMES) == 52
    assert set(medaux.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(medaux))


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
        (estimators, "RatioExpForm"),  # the ratio_exp optimum computes its form
        (estimators, "ratio_exp_form"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)
    assert all(name not in module.__all__ for module in MODULES)


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return [option for action in parser._actions for option in action.option_strings]


def test_knob_inventory():
    """Every option and keyword of the entry points, pinned: a new knob, or
    one removed, shows up as a change to this test."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _options(sub) for name, sub in commands.choices.items()} == {
        "params": ["-h", "--help", "--input", "--params", "--n", "--density", "--fy",
                   "--fx", "--format", "--precision"],
        "table": ["-h", "--help", "--params", "--estimators", "--format", "--precision"],
        "simulate": ["-h", "--help", "--input", "--synthetic", "--n", "--reps", "--seed",
                     "--estimators", "--weights", "--jobs", "--config", "--density",
                     "--format", "--precision"],
        "compare": ["-h", "--help", "--params", "--tmq-preset", "--format",
                    "--precision"],
    }
    signatures = {
        fn.__name__: list(inspect.signature(fn).parameters)
        for fn in (mse.table_rows, mse.dominance_checks, mse.analytic_figures,
                   montecarlo.run_simulation)
    }
    assert signatures == {
        "table_rows": ["params", "ids"],
        "dominance_checks": ["params", "tmq_scalars"],
        "analytic_figures": ["params", "specs"],
        "run_simulation": ["frame", "config", "params", "jobs"],
    }


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


def test_the_engine_resolves_weights_in_its_blocks_alone():
    # run_simulation resolves nothing up front: each block resolves its specs
    # through optimal_weights on the array backend
    calls = _calls(pathlib.Path(montecarlo.__file__))
    assert "resolve_weights" not in calls and "optimal_weights" in calls


# ---------------------------------------------------------------------------
# The analytic path imports no numpy
# ---------------------------------------------------------------------------

NUMPY_MODULES = {"numpy", "montecarlo", "population"}


def _import_time_imports(node: ast.AST):
    """Every module part and name an import outside a function body names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield from alias.name.split(".")
        elif isinstance(child, ast.ImportFrom):
            yield from (child.module or "").split(".")
            yield from (alias.name for alias in child.names)
        else:
            yield from _import_time_imports(child)


@pytest.mark.parametrize(
    "module",
    ["__init__", "arith", "errors", "estimators", "expansion", "mse", "parameters", "cli"],
)
def test_analytic_modules_import_no_numpy_module(module):
    path = pathlib.Path(medaux.__file__).parent / f"{module}.py"
    assert NUMPY_MODULES.isdisjoint(_import_time_imports(ast.parse(path.read_text())))


def _loaded_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter importing this medaux, and return
    the numpy modules loaded at its end; its stdout is discarded."""
    src = pathlib.Path(medaux.__file__).parent.parent
    script = (
        "import json, sys\n"
        f"{code}\n"
        "loaded = {'numpy', 'medaux.montecarlo', 'medaux.population'} & set(sys.modules)\n"
        "print(json.dumps(sorted(loaded)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, code",
    [
        (["table", "--params", "popI", "--format", "csv"], 0),
        (["table", "--params", "popI", "--format", "json"], 0),
        (["table", "--params", "popI", "--format", "md"], 0),
        (["compare", "--params", "popI"], 0),
        (["compare", "--params", "popII", "--tmq-preset", "t_mq7"], 0),
        (["params", "--params", "popII"], 0),
        (["table", "--params", "popI", "--estimators", "M_zz"], 2),
    ],
)
def test_analytic_commands_load_no_numpy(argv, code):
    run = (
        "from medaux.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"assert code == {code}, code"
    )
    assert _loaded_after(run) == []


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import medaux", []),
        ("from medaux import MedianParams, dominance_checks, table_rows", []),
        ("from medaux import run_simulation", ["medaux.montecarlo", "medaux.population", "numpy"]),
        ("import medaux; medaux.montecarlo", ["medaux.montecarlo", "medaux.population", "numpy"]),
        ("from medaux import PopulationFrame", ["medaux.population", "numpy"]),
        ("from medaux.population import MedianParams", ["medaux.population", "numpy"]),
    ],
)
def test_numpy_loads_on_first_use_of_a_numpy_name(code, loaded):
    assert _loaded_after(code) == loaded
