"""The package namespace is the union of its modules' public names, and the
analytic path imports no numpy."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import typing
from dataclasses import fields

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
    "MseReportRow", "DominanceResult", "analytic_figures", "pre",
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
    assert len(PUBLIC_NAMES) == 51
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
        (expansion, "check_moments"),  # derived moments are valid by construction
        (mse, "min_mse_ss4"),  # M_d4's row comes from its own coefficients
        (montecarlo, "_resolve_true_params"),  # one float solve per spec per run
        (montecarlo, "_figures_or_nan"),  # its figures come from that same solve
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
                     "--estimators", "--weights", "--jobs", "--density",
                     "--format", "--precision"],
        "compare": ["-h", "--help", "--params", "--tmq-preset", "--precision"],
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
    assert [f.name for f in fields(estimators.EstimatorSpec)] == [
        "family", "label", "w1", "w2", "alpha", "eta", "lam", "shift", "beta", "v",
        "w", "d1", "d2",
    ]
    # family -> (weights, structural scalars)
    family_fields = estimators._FAMILY_FIELDS
    assert family_fields == {
        "shifted_product": (("shift",), ()),
        "shifted_ratio": (("shift",), ()),
        "power_ratio": (("alpha",), ()),
        "damped_ratio": (("beta",), ()),
        "dual_power": (("v",), ()),
        "mix_product": (("w",), ()),
        "mix_ratio": (("w",), ()),
        "regression": ((), ()),
        "shrink_diff_tied": (("d1",), ()),
        "shrink_diff": (("d1", "d2"), ()),
        "shrink_convex": (("d1", "d2"), ()),
        "shrink_diff_scaled": (("d1", "d2"), ()),
        "ratio_exp": (("w1", "w2"), ("alpha", "eta", "lam")),
    }
    # some family reads every scalar field: none is dead
    read = {name for pair in family_fields.values() for group in pair for name in group}
    assert read == {f.name for f in fields(estimators.EstimatorSpec)} - {"family", "label"}


def test_every_annotation_resolves():
    """Each function and class defined in the package names only bound types:
    ``typing.get_type_hints`` raises ``NameError`` on an unbound one."""
    for path in sorted(pathlib.Path(medaux.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "medaux" if path.stem == "__init__" else f"medaux.{path.stem}"
        )
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else ()
            for target in (obj, *(getattr(m, "__func__", m) for m in members)):
                if inspect.isfunction(target) or isinstance(target, type):
                    typing.get_type_hints(target)


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
    return _calls_in(ast.parse(path.read_text()))


def _calls_in(tree: ast.AST) -> list[str]:
    return [
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    ]


def test_analytic_figures_have_one_route():
    # run_simulation reads its analytic columns from mse's per-spec figures,
    # and nothing in the package names a paper formula: M_d4 included, every
    # row comes from the estimator's own coefficients, whatever its label
    src = pathlib.Path(mse.__file__).parent
    analytic = {"coeffs_of", "mse_from_coeffs", "bias_from_coeffs"}
    assert analytic.isdisjoint(_calls(src / "montecarlo.py"))
    assert [path.name for path in sorted(src.glob("*.py"))
            if "min_mse_ss4" in path.read_text()] == []
    body = ast.parse(inspect.getsource(mse.analytic_figures))
    assert "free_scalars" not in _calls_in(body)
    assert not any(isinstance(node, ast.Attribute) and node.attr == "label"
                   for node in ast.walk(body))


def test_the_engine_resolves_weights_in_its_blocks_alone():
    # run_simulation calls no resolve_weights: true-params weights are solved
    # once per run by the float backend, and plug-in weights per chunk by the
    # array backend, both through optimal_weights
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
    the numpy modules (and ``numpy.ma``) loaded at its end; its stdout is
    discarded."""
    src = pathlib.Path(medaux.__file__).parent.parent
    script = (
        "import json, sys\n"
        f"{code}\n"
        "loaded = {'numpy', 'numpy.ma', 'medaux.montecarlo', 'medaux.population'}\n"
        "loaded &= set(sys.modules)\n"
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


def test_simulate_loads_no_masked_arrays():
    # np.median imports numpy.ma on its first call, about 10 ms of start-up
    # that every simulate run would pay
    run = (
        "from medaux.cli import main\n"
        "assert main(['simulate', '--synthetic', 'N=50', '--n', '5', '--reps', '20']) == 0"
    )
    assert _loaded_after(run) == ["medaux.montecarlo", "medaux.population", "numpy"]
