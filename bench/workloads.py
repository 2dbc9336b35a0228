"""The four benchmark workloads: inputs from a seed, commands, output checks.

Seed ``s`` maps to synthetic-population seed ``20240817 + s`` and replicate
seed ``31 + s``; seed 0 reproduces the criterion-6 scenario.  On
``analytic`` the seed fixes the order of the CLI commands within each round
(its inputs are the two bundled populations).

The checks test invariants of the outputs, not byte hashes, so a declared
change of the random stream does not break them.  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

SYNTHETIC_SEED = 20240817
REPLICATE_SEED = 31
POPULATION = {"N": 2000, "mu_x": 6.9, "sigma_x": 0.5, "mu_y": 7.0, "sigma_y": 0.5, "rho": 0.8}
SAMPLE_SIZE = 100

RATIO_BAND = 0.15  # criterion 6: M_y empirical/analytic MSE within 15%
MIN_POOLED_REPS = 20_000  # criterion 6's replicate count; the band needs this many
REFERENCE_REL_TOL = 5e-4  # criterion 1: 0.05%

# criterion-1 reference values, by table row; M_d1 and M_d4 are left unpinned
REFERENCE = {
    "popI": {
        "M_y": 565443.57, "M_r": 988372.76, "M_d": 552636.13,
        "M_d2": 489395.24, "M_d3": 3229.34, "t_m": 3229.34,
    },
    "popII": {
        "M_y": 565443.57, "M_r": 536149.50, "M_d": 508766.02,
        "M_d2": 454675.78, "M_d3": 51355.17, "t_m": 51355.17,
    },
}

ANALYTIC_COMMANDS = (
    ("table", "--params", "popI", "--format", "json"),
    ("table", "--params", "popII", "--format", "json"),
    ("compare", "--params", "popI"),
    ("compare", "--params", "popII", "--tmq-preset", "t_mq7"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" or "analytic"
    why: str
    estimators: tuple[str, ...] = ()
    weights: str = "true-params"
    jobs: int = 1
    # CLI invocations per measured second, fixed so the sample count (and so
    # the tail percentile) is too: about two thirds of a run on a 2-core Xeon,
    # and over 30 invocations, so the tail lies well above the median
    cli_per_second: float = 1.7
    # replicates per in-process run_simulation call: about 0.1 s of work, so
    # each call is timed against the machine's speed at nearly the same moment
    inproc_reps: int = 600


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-fixed",
            "sim",
            "replicate loop with no per-sample extras: RNG setup, srswor and "
            "finite_median do about 90% of the work",
            estimators=("M_y", "M_r", "M_d", "t_m"),
        ),
        Workload(
            "sim-plugin",
            "sim",
            "same loop with M_lr and plug-in weights: kernel density, plug-in "
            "params and per-replicate resolve_weights take about 60%",
            estimators=("M_y", "M_r", "M_d", "t_m", "M_lr"),
            weights="plug-in",
            inproc_reps=250,
        ),
        Workload(
            "sim-jobs2",
            "sim",
            "sim-fixed settings with --jobs 2: the only path through the "
            "ThreadPoolExecutor and _chunks in montecarlo",
            estimators=("M_y", "M_r", "M_d", "t_m"),
            jobs=2,
        ),
        Workload(
            "analytic",
            "analytic",
            "table and compare on the bundled populations: no montecarlo, "
            "time goes to start-up, cli imports and mse/estimators/expansion",
            cli_per_second=2.0,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    synthetic_seed: int
    replicate_seed: int
    order_seed: int


def inputs_for(seed: int) -> Inputs:
    s = seed % 2**32
    return Inputs(SYNTHETIC_SEED + s, REPLICATE_SEED + s, s)


def synthetic_text(inputs: Inputs) -> str:
    fields = dict(POPULATION, seed=inputs.synthetic_seed)
    return ",".join(f"{k}={v}" for k, v in fields.items())


def simulate_argv(wl: Workload, inputs: Inputs, reps: int, offset: int) -> list[str]:
    argv = [
        "simulate", "--synthetic", synthetic_text(inputs),
        "--n", str(SAMPLE_SIZE), "--reps", str(reps),
        "--seed", str(inputs.replicate_seed + offset),
        "--estimators", ",".join(wl.estimators), "--weights", wl.weights,
        "--format", "json",
    ]
    if wl.jobs != 1:
        argv += ["--jobs", str(wl.jobs)]
    return argv


def cli_commands(wl: Workload, inputs: Inputs, count: int, reps: int) -> list[list[str]]:
    """The workload's ``count`` CLI invocations, in order."""
    if wl.kind == "sim":
        return [simulate_argv(wl, inputs, reps, i) for i in range(count)]
    rng = random.Random(inputs.order_seed)
    out: list[list[str]] = []
    while len(out) < count:
        round_ = [list(c) for c in ANALYTIC_COMMANDS]
        rng.shuffle(round_)
        out += round_
    return out[:count]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass
class RatioPool:
    """Pools M_y's empirical and analytic MSE over every simulation output."""

    reps: int = 0
    empirical: float = 0.0
    analytic: float = 0.0

    def add(self, used: int, empirical_mse: float, analytic_mse: float) -> None:
        self.reps += used
        self.empirical += used * empirical_mse
        self.analytic += used * analytic_mse

    def problems(self) -> list[str]:
        if self.reps < MIN_POOLED_REPS:
            return []
        ratio = self.empirical / self.analytic
        if not abs(ratio - 1.0) < RATIO_BAND:
            return [f"pooled M_y empirical/analytic MSE {ratio:.4f} outside 1 +- {RATIO_BAND}"]
        return []

    def summary(self) -> dict:
        evaluated = self.reps >= MIN_POOLED_REPS
        return {
            "pooled_reps": self.reps,
            "ratio": self.empirical / self.analytic if self.analytic else None,
            "band": RATIO_BAND,
            "evaluated": evaluated,
        }


def _check_rows(rows, reps: int, estimators, pool: RatioPool) -> list[str]:
    """rows: (estimator, reps_used, failures, empirical_mse, analytic_mse)."""
    problems = []
    names = tuple(r[0] for r in rows)
    if names != tuple(estimators):
        problems.append(f"estimators {names} != {tuple(estimators)}")
    for name, used, failures, emp, ana in rows:
        if used + failures != reps:
            problems.append(f"{name}: reps_used {used} + failures {failures} != {reps}")
        if name == "M_y":
            if not (used > 0 and math.isfinite(emp) and math.isfinite(ana) and ana > 0):
                problems.append(f"M_y: unusable MSEs {emp!r} / {ana!r}")
            else:
                pool.add(used, emp, ana)
    return problems


def check_simulate_stdout(text: str, reps: int, estimators, pool: RatioPool) -> list[str]:
    try:
        doc = json.loads(text)
        if doc["config"]["reps"] != reps:
            return [f"config.reps {doc['config']['reps']} != {reps}"]
        detail = {d["estimator"]: d for d in doc["detail"]}
        rows = [
            (
                r["estimator"],
                detail[r["estimator"]]["reps_used"],
                detail[r["estimator"]]["failures"],
                r["empirical_mse"],
                r["analytic_mse"],
            )
            for r in doc["rows"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"simulate output unreadable: {exc!r}"]
    return _check_rows(rows, reps, estimators, pool)


def check_report(report, reps: int, estimators, pool: RatioPool) -> list[str]:
    rows = [
        (r.estimator, r.reps_used, r.failures, r.empirical_mse, r.analytic_mse)
        for r in report.results
    ]
    return _check_rows(rows, reps, estimators, pool)


def check_table_values(population: str, values: dict[str, float]) -> list[str]:
    problems = []
    for name, ref in REFERENCE[population].items():
        got = values.get(name)
        if got is None or not abs(got - ref) / ref < REFERENCE_REL_TOL:
            problems.append(f"{population} {name}: {got!r} vs reference {ref}")
    return problems


def check_cli_stdout(argv, text: str) -> list[str]:
    """Checks for one analytic CLI invocation."""
    population = argv[argv.index("--params") + 1]
    if argv[0] == "table":
        try:
            values = {r["estimator"]: r["analytic_mse"] for r in json.loads(text)["rows"]}
        except (ValueError, KeyError, TypeError) as exc:
            return [f"table output unreadable: {exc!r}"]
        return check_table_values(population, values)
    lines = text.strip().splitlines()
    if not lines or lines[-1] != "5/5 checks passed":
        return [f"compare {population}: last line {lines[-1:]!r}, want '5/5 checks passed'"]
    return []


def check_round(results: dict) -> list[str]:
    """One in-process analytic round: {population: (table rows, dominance checks)}."""
    problems = []
    for population, (rows, checks) in results.items():
        problems += check_table_values(
            population, {r.estimator: r.analytic_mse for r in rows}
        )
        failed = [c.name for c in checks if c.satisfied is not True]
        if failed:
            problems.append(f"{population}: dominance checks not satisfied: {failed}")
    return problems
