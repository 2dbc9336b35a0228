#!/usr/bin/env python3
"""medaux benchmark harness (standard library only).

Drives medaux from outside: CLI invocations run as sequential child
processes, and public library calls run in this process.  Load is a closed
loop with one client; the only extra compute threads are the two that
``--jobs 2`` asks for on ``sim-jobs2``.

    python3 bench/run.py --workload sim-fixed --seed 0 --seconds 18 --trace 0
    python3 bench/run.py --workload sim-plugin --trace 1     # per-layer pass
    python3 bench/run.py --workload all --seed 7             # every workload, both passes
    python3 bench/run.py --smoke                             # tiny sizes, checks metric emission

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is a separate pass that wraps medaux's public functions and
reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the figures for people.  Details (environment, stdout hashes, the
tail percentile, spans) go to ``bench/out/``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
medaux's sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120.0
INPROCESS_SEED_OFFSET = 10_000  # keeps in-process replicate seeds off the CLI ones
IN_PROCESS_BURST = 3  # in-process calls between two child processes

# metrics of the final JSON line, as declared in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("cmd_ms_p50", "ms"),
    ("cmd_ms_tail", "ms"),
    ("peak_rss_mib", "MiB"),
)
PER_LAYER = (
    ("montecarlo.srswor_us_per_rep", "us"),
    ("montecarlo.srswor_calls", "count"),
    ("montecarlo.self_us_per_rep", "us"),
    ("montecarlo.cpu_per_wall", "ratio"),
    ("montecarlo.nan_share", "ratio"),
    ("montecarlo.make_synthetic_ms", "ms"),
    ("population.finite_median_us_per_rep", "us"),
    ("population.finite_median_calls", "count"),
    ("population.density_at_us_per_rep", "us"),
    ("population.density_at_calls", "count"),
    ("population.density_at_errors", "count"),
    ("population.from_primitives_us_per_rep", "us"),
    ("population.compute_params_ms", "ms"),
    ("population.load_params_ms", "ms"),
    ("estimators.evaluate_us_per_rep", "us"),
    ("estimators.evaluate_calls", "count"),
    ("estimators.evaluate_errors", "count"),
    ("estimators.resolve_weights_us_per_rep", "us"),
    ("estimators.resolve_weights_calls", "count"),
    ("estimators.coeffs_of_calls", "count"),
    ("estimators.preset_calls", "count"),
    ("expansion.mse_from_coeffs_calls", "count"),
    ("expansion.error_moments_calls", "count"),
    ("mse.table_rows_us_per_call", "us"),
    ("mse.dominance_checks_us_per_call", "us"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.render_us_per_call", "us"),
    ("trace.overhead_pct", "%"),
)
# per-replicate self time of each layer below run_simulation
PER_REP_LAYERS = {
    "montecarlo.srswor_us_per_rep": "montecarlo.srswor",
    "population.finite_median_us_per_rep": "population.finite_median",
    "population.density_at_us_per_rep": "population.density_at",
    "population.from_primitives_us_per_rep": "population.from_primitives",
    "estimators.evaluate_us_per_rep": "estimators.evaluate",
    "estimators.resolve_weights_us_per_rep": "estimators.resolve_weights",
}
COUNTERS = {
    "montecarlo.srswor_calls": ("calls", "montecarlo.srswor"),
    "population.finite_median_calls": ("calls", "population.finite_median"),
    "population.density_at_calls": ("calls", "population.density_at"),
    "population.density_at_errors": ("errors", "population.density_at"),
    "estimators.evaluate_calls": ("calls", "estimators.evaluate"),
    "estimators.evaluate_errors": ("errors", "estimators.evaluate"),
    "estimators.resolve_weights_calls": ("calls", "estimators.resolve_weights"),
    "estimators.coeffs_of_calls": ("calls", "estimators.coeffs_of"),
    "estimators.preset_calls": ("calls", "estimators.preset"),
    "expansion.mse_from_coeffs_calls": ("calls", "expansion.mse_from_coeffs"),
    "expansion.error_moments_calls": ("calls", "expansion.error_moments"),
}
UNCONTROLLED = (
    "no CPU pinning",
    "no CPU frequency governor control",
    "no page-cache dropping",
    "other tenants of the machine share its cores",
)


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int  # fresh set-up children per run
    cli_count: int  # CLI invocations per run (fixed, so the tail percentile is too)
    cli_reps: int  # replicates per simulate invocation
    inproc_reps: int  # replicates per in-process run_simulation call
    inproc_seconds: float  # minimum length of the in-process phase
    min_calls: int  # minimum in-process calls per phase
    traced_calls: int  # untraced and traced in-process calls, each, in the traced pass
    rounds_per_call: int  # analytic rounds timed as one in-process call
    min_pooled_reps: int  # replicates pooled before the in-process phase may end


def sizes_for(seconds: int, smoke: bool, wl) -> Sizes:
    if smoke:
        return Sizes(
            setup_repeats=2, cli_count=4, cli_reps=20, inproc_reps=50, inproc_seconds=0.3,
            min_calls=2, traced_calls=2, rounds_per_call=5, min_pooled_reps=0,
        )

    return Sizes(
        setup_repeats=7,
        cli_count=max(12, round(seconds * wl.cli_per_second)),
        cli_reps=200,
        inproc_reps=wl.inproc_reps,
        inproc_seconds=seconds / 2,
        min_calls=5,
        # analytic rounds emit about 150 spans each, a replicate about 10
        traced_calls=2 * seconds if wl.kind == "sim" else max(2, seconds // 2),
        rounds_per_call=100,
        min_pooled_reps=workloads.MIN_POOLED_REPS,
    )


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(f"{what}: " + "; ".join(problems))
        return not problems

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it.

    Returns (value, percentile).  With ten samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    k = len(ordered)
    if k <= 10:
        return ordered[-1], 100.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
        "uncontrolled": list(UNCONTROLLED),
    }


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# idle-machine times of the two references on a 2-core Xeon at 2.1 GHz
REFERENCE_KERNEL_S = 0.0125
REFERENCE_CHILD_S = 0.13


def reference_kernel() -> float:
    """Fixed in-process work, independent of medaux: partial Fisher-Yates
    swaps in a Python loop plus small numpy calls, the replicate loop's mix.
    Returns its wall time."""
    t0 = perf_counter()
    rng = np.random.Generator(np.random.Philox(key=7))
    pool = np.arange(2000)
    for _ in range(150):
        js = rng.integers(low=np.arange(100), high=2000)
        for i in range(100):
            j = js[i]
            pool[i], pool[j] = pool[j], pool[i]
        np.median(pool[:100])
    return perf_counter() - t0


def reference_child() -> float:
    """A fresh interpreter that imports numpy, medaux's one dependency: the
    start-up work every CLI invocation also does.  Returns its wall time."""
    return run_child(["-c", "import numpy"]).wall_s


class SpeedGauge:
    """Tracks the machine's speed by timing a fixed reference between samples.

    On a 2-core Xeon shared with other tenants, speed switched between states
    about 1.5x apart within seconds and drifted by 60% within 80 seconds, far
    more than any bound a regression fence could use.  So a reference runs right
    after every ``every``-th sample, and samples are reported in reference
    seconds, ``wall * idle_s / reference time``: what they would have taken
    at the machine's idle speed.
    """

    def __init__(self, reference, idle_s: float, every: int = 1) -> None:
        self.reference, self.idle_s, self.every = reference, idle_s, every
        self.reference_s: list[float] = []
        self.samples: list[tuple[str, float, int]] = []

    def record(self, kind: str, seconds: float) -> None:
        """Note one sample, timing the reference right after it when due."""
        if len(self.samples) % self.every == 0:
            self.reference_s.append(self.reference())
        self.samples.append((kind, seconds, len(self.reference_s) - 1))

    def paired(self, kind: str) -> list[float]:
        """The samples of one kind, each scaled by the reference run after it."""
        return [
            seconds * self.idle_s / self.reference_s[i]
            for k, seconds, i in self.samples
            if k == kind
        ]

    def raw(self, kind: str) -> list[float]:
        return [seconds for k, seconds, _ in self.samples if k == kind]

    def speed(self) -> float:
        """The run's idle-to-actual speed ratio, from the median reference run."""
        return self.idle_s / statistics.median(self.reference_s) if self.reference_s else 1.0

    def summary(self) -> dict:
        return {
            "idle": self.idle_s,
            "median": statistics.median(self.reference_s) if self.reference_s else None,
            "reference_s": self.reference_s,
            "samples": self.samples,
        }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mib: float


def run_child(args: list[str]) -> Child:
    """Run ``python <args>`` from the repository root against ``src/``.

    Waits with ``wait4`` so the child's own peak RSS comes back with it.
    """
    env = dict(os.environ)
    env.pop("MEDAUX_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Child(
        returncode=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=b"".join(err).decode("utf-8", "replace"),
        wall_s=perf_counter() - start,
        maxrss_mib=usage.ru_maxrss / 1024.0,
    )


def child_problems(child: Child) -> list[str]:
    if child.returncode == 0:
        return []
    last = child.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit {child.returncode}: {last[0]}"]


class Children:
    """The workload's child processes and what they returned.

    ``setup()`` runs one fresh set-up child (interpreter start, ``import
    medaux.cli`` and the workload's input building); ``cli(argv)`` runs one
    ``medaux`` CLI invocation and checks its stdout.
    """

    def __init__(self, wl, inputs, sizes: Sizes, ledger: Ledger, pool) -> None:

        self.wl, self.sizes, self.ledger, self.pool = wl, sizes, ledger, pool
        self.setup_args = [str(HERE / "setup_child.py"), wl.kind]
        if wl.kind == "sim":
            spec = dict(workloads.POPULATION, seed=inputs.synthetic_seed)
            self.setup_args += [json.dumps(spec), str(workloads.SAMPLE_SIZE)]
        self.distinct = 1 if wl.kind == "sim" else len(workloads.ANALYTIC_COMMANDS)
        self.steps: dict[str, list[float]] = {}
        self.rss: list[float] = []
        self.stdout_sha256: dict[str, str] = {}

    def setup(self) -> float:
        child = run_child(self.setup_args)
        problems = child_problems(child)
        if not problems:
            try:
                for key, value in json.loads(child.stdout).items():
                    self.steps.setdefault(key, []).append(value)
            except ValueError as exc:
                problems = [f"set-up output unreadable: {exc!r}"]
        self.ledger.record("set-up", problems)
        return child.wall_s

    def step_medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.steps.items()}

    def cli(self, argv: list[str]) -> float:

        child = run_child(["-m", "medaux.cli", *argv])
        problems = child_problems(child)
        if not problems:
            if self.wl.kind == "sim":
                problems = workloads.check_simulate_stdout(
                    child.stdout, self.sizes.cli_reps, self.wl.estimators, self.pool
                )
            else:
                problems = workloads.check_cli_stdout(argv, child.stdout)
        self.ledger.record(" ".join(argv[:3]), problems)
        self.rss.append(child.maxrss_mib)
        if len(self.stdout_sha256) < self.distinct:
            self.stdout_sha256.setdefault(
                " ".join(argv), hashlib.sha256(child.stdout.encode()).hexdigest()
            )
        return child.wall_s


# ---------------------------------------------------------------------------
# In-process library calls
# ---------------------------------------------------------------------------


class Library:
    """Builds a workload's inputs once and runs one timed call at a time.

    A call is one ``run_simulation`` of ``inproc_reps`` replicates (sim-*) or
    ``rounds_per_call`` analytic rounds, where a round is ``table_rows`` and
    ``dominance_checks`` on both bundled populations.  Library functions are
    looked up on their modules at call time, so installed wrappers apply.
    """

    def __init__(self, wl, inputs, sizes: Sizes, ledger: Ledger, pool) -> None:
        from medaux import montecarlo, population

        self.wl, self.inputs, self.sizes, self.ledger, self.pool = wl, inputs, sizes, ledger, pool
        self.calls = 0
        self.nan_cells = 0
        self.cells = 0
        if wl.kind == "sim":

            frame = montecarlo.make_synthetic(
                montecarlo.SyntheticSpec(**workloads.POPULATION, seed=inputs.synthetic_seed)
            )
            density = population.KernelDensity()
            params = population.compute_params(frame, workloads.SAMPLE_SIZE, density, density)
            self.data = (frame, params)
        else:
            self.data = {
                name: population.load_params(str(files("medaux.data").joinpath(f"{name}.json")))
                for name in ("popI", "popII")
            }
            self.signature = None

    def call(self) -> tuple[int, float, float] | None:
        """(units of work, wall seconds, CPU seconds), or None if it failed."""
        self.calls += 1
        try:
            if self.wl.kind == "sim":
                return self._simulate()
            return self._rounds()
        except Exception as exc:  # a failed operation, counted rather than fatal
            self.ledger.record("library call", [repr(exc)])
            return None

    def _simulate(self):
        from medaux import montecarlo

        frame, params = self.data
        reps = self.sizes.inproc_reps
        config = montecarlo.SimulationConfig(
            n=workloads.SAMPLE_SIZE,
            reps=reps,
            seed=self.inputs.replicate_seed + INPROCESS_SEED_OFFSET + self.calls,
            estimators=self.wl.estimators,
            weights=self.wl.weights,
        )
        t0, c0 = perf_counter(), process_time()
        report = montecarlo.run_simulation(frame, config, params, jobs=self.wl.jobs)
        wall, cpu = perf_counter() - t0, process_time() - c0
        self.nan_cells += sum(r.failures for r in report.results)
        self.cells += reps * len(report.results)
        ok = self.ledger.record(
            "run_simulation", workloads.check_report(report, reps, self.wl.estimators, self.pool)
        )
        return (reps, wall, cpu) if ok else None

    def _rounds(self):
        from medaux import mse

        results = []
        t0, c0 = perf_counter(), process_time()
        for _ in range(self.sizes.rounds_per_call):
            results.append(
                {
                    name: (mse.table_rows(p), mse.dominance_checks(p))
                    for name, p in self.data.items()
                }
            )
        wall, cpu = perf_counter() - t0, process_time() - c0
        ok = True
        for result in results:
            signature = repr(
                {k: ([vars(r) for r in rows], [vars(c) for c in checks])
                 for k, (rows, checks) in result.items()}
            )
            if self.signature is None:
                problems = workloads.check_round(result)
                if not problems:
                    self.signature = signature
            else:
                problems = [] if signature == self.signature else ["round differs from the first"]
            ok = self.ledger.record("analytic round", problems) and ok
        return (len(results), wall, cpu) if ok else None


def timed_calls(lib: Library, count: int) -> list[tuple[int, float, float]]:
    return [r for r in (lib.call() for _ in range(count)) if r is not None]


# ---------------------------------------------------------------------------
# The two passes
# ---------------------------------------------------------------------------


def end_to_end_pass(wl, inputs, sizes: Sizes, ledger: Ledger, pool, detail: dict) -> dict:
    """Child processes interleaved with in-process calls.

    Spreading both over the whole run, with the set-up children spread
    evenly among the CLI invocations, makes every metric average over the
    whole run rather than over one slice of it.
    """

    children = Children(wl, inputs, sizes, ledger, pool)
    commands = workloads.cli_commands(wl, inputs, sizes.cli_count, sizes.cli_reps)
    jobs = [("cli", functools.partial(children.cli, argv)) for argv in commands]
    for i in reversed(range(sizes.setup_repeats)):
        jobs.insert(i * len(commands) // sizes.setup_repeats, ("setup", children.setup))

    in_process = SpeedGauge(reference_kernel, REFERENCE_KERNEL_S)
    processes = SpeedGauge(reference_child, REFERENCE_CHILD_S, every=2)
    lib = Library(wl, inputs, sizes, ledger, pool)
    lib.call()  # warm-up, not timed
    total_jobs, lib_time = len(jobs), 0.0
    attempts, start = 0, perf_counter()
    while True:
        pooled = wl.kind != "sim" or pool.reps >= sizes.min_pooled_reps
        lib_done = (
            attempts >= sizes.min_calls
            and lib_time >= sizes.inproc_seconds
            and (pooled or perf_counter() - start > 4 * sizes.inproc_seconds + 60)
        )
        # keep both kinds of work spread over the whole run
        jobs_behind = 1 - len(jobs) / total_jobs <= lib_time / sizes.inproc_seconds
        if jobs and (lib_done or jobs_behind):
            kind, job = jobs.pop(0)
            processes.record(kind, job())
        elif not lib_done:
            # a burst of calls; the first warms caches a child process cooled
            for i in range(IN_PROCESS_BURST):
                attempts += 1
                t0 = perf_counter()
                result = lib.call()
                lib_time += perf_counter() - t0  # failed calls count, or the loop never ends
                if result is not None and i:
                    units, wall, _ = result
                    in_process.record("call", wall / units)
        else:
            break

    # A child process does start-up work and compute work, and each reference
    # tracks only one of them.  On a 2-core Xeon, CLI medians scaled by the
    # child reference alone moved by up to 27% between sets of ten runs taken
    # 15 minutes apart; scaled by the geometric mean of the two run-level
    # speeds, by at most 12%.
    process_speed = math.sqrt(processes.speed() * in_process.speed())

    def summarise(scaled: bool) -> dict:
        factor = process_speed if scaled else 1.0
        cli = [s * factor for s in processes.raw("cli")]
        setup = [s * factor for s in processes.raw("setup")]
        per_unit = in_process.paired("call") if scaled else in_process.raw("call")
        per_unit = per_unit or [math.nan]  # empty when every call failed
        return {
            "setup_s": statistics.median(setup),
            "wall_s": sum(cli),
            "ops_per_s": 1.0 / statistics.median(per_unit),
            "cmd_ms_p50": statistics.median(cli) * 1e3,
            "cmd_ms_tail": tail(cli)[0] * 1e3,
            "peak_rss_mib": max(children.rss),
        }

    detail.update(
        cmd_tail_percentile=tail(processes.raw("cli"))[1],
        cmd_samples=len(processes.raw("cli")),
        stdout_sha256=children.stdout_sha256,
        setup_samples=len(processes.raw("setup")),
        inprocess_calls=len(in_process.raw("call")),
        reference_kernel_s=in_process.summary(),
        reference_child_s=processes.summary(),
        unscaled=summarise(False),
    )
    return summarise(True)


def traced_pass(wl, inputs, sizes: Sizes, ledger: Ledger, pool, detail: dict, seed: int) -> dict:
    import medaux.cli

    # bare interpreter and cli import alternate, so a drift in speed hits both
    interpreter, imported = [], []
    children = Children(wl, inputs, sizes, ledger, pool)
    for _ in range(sizes.setup_repeats):
        interpreter.append(run_child(["-c", "pass"]).wall_s)
        imported.append(run_child(["-c", "import medaux.cli"]).wall_s)
        children.setup()
    steps = children.step_medians()

    # untraced and traced calls alternate for the same reason
    lib = Library(wl, inputs, sizes, ledger, pool)
    lib.call()  # warm-up, not timed
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(sizes.traced_calls):
        plain += timed_calls(lib, 1)
        tracer.install()
        try:
            traced += timed_calls(lib, 1)
        finally:
            tracer.uninstall()
    # the workload's distinct CLI commands, in process, for the rendering layer
    with Tracer() as cli_tracer:
        distinct = len(workloads.ANALYTIC_COMMANDS) if wl.kind == "analytic" else 1
        for argv in workloads.cli_commands(wl, inputs, distinct, sizes.cli_reps):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = medaux.cli.main(argv)
            problems = [] if code == 0 else [f"exit {code}"]
            ledger.record(" ".join(argv[:3]) + " (in process)", problems)

    def rate(results):
        return statistics.median(u / w for u, w, _ in results) if results else math.nan

    units = sum(u for u, _, _ in traced)
    reps = units if wl.kind == "sim" else 0
    sim = tracer.totals(under="montecarlo.run_simulation")
    anywhere = tracer.totals()
    rendered = cli_tracer.totals().get("cli.render_table", {"count": 0, "total_s": 0.0})

    def per_call(name):
        row = anywhere.get(name)
        return row["total_s"] / row["count"] * 1e6 if row else 0.0

    def per_rep(layer):
        return sim.get(layer, {}).get("self_s", 0.0) / reps * 1e6 if reps else 0.0

    metrics = {
        "montecarlo.self_us_per_rep": per_rep("montecarlo.run_simulation"),
        "montecarlo.cpu_per_wall": (
            sum(c for _, _, c in plain) / sum(w for _, w, _ in plain)
            if wl.kind == "sim" and plain else 0.0
        ),
        "montecarlo.nan_share": lib.nan_cells / lib.cells if lib.cells else 0.0,
        "montecarlo.make_synthetic_ms": steps.get("make_synthetic_ms", 0.0),
        "population.compute_params_ms": steps.get("compute_params_ms", 0.0),
        "population.load_params_ms": steps.get("load_params_ms", 0.0),
        "mse.table_rows_us_per_call": per_call("mse.table_rows"),
        "mse.dominance_checks_us_per_call": per_call("mse.dominance_checks"),
        "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
        "cli.import_ms": (statistics.median(imported) - statistics.median(interpreter)) * 1e3,
        "cli.render_us_per_call": (
            rendered["total_s"] / rendered["count"] * 1e6 if rendered["count"] else 0.0
        ),
        "trace.overhead_pct": 100.0 * (1.0 - rate(traced) / rate(plain)),
    }
    for metric, layer in PER_REP_LAYERS.items():
        metrics[metric] = per_rep(layer)
    for metric, (kind, layer) in COUNTERS.items():
        metrics[metric] = getattr(tracer, kind)[layer]

    for problem in trace_problems(wl, tracer, cli_tracer, sim, traced):
        ledger.note(problem)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-seed{seed}.json")
    detail.update(
        traced_units=units,
        layers={k: v for k, v in sorted(anywhere.items())},
        layers_under_run_simulation={k: v for k, v in sorted(sim.items())},
        missing_targets=tracer.missing,
        untraced_rate=rate(plain),
        traced_rate=rate(traced),
    )
    return metrics


def trace_problems(wl, tracer, cli_tracer, sim: dict, traced) -> list[str]:
    """Consistency of the spans and the counters predicted to be zero."""
    problems = []
    if wl.kind == "analytic":
        for t in (tracer, cli_tracer):
            spans = sorted({n for n in t.names if n.startswith("montecarlo.")})
            if spans:
                problems.append(f"montecarlo spans on analytic: {spans}")
        return problems

    if "montecarlo.run_simulation" in tracer.missing:
        return ["run_simulation could not be wrapped"]
    roots = sim["montecarlo.run_simulation"]["total_s"]
    subtree = sum(row["self_s"] for row in sim.values())
    outer = sum(w for _, w, _ in traced)
    if wl.jobs == 1 and not abs(subtree - roots) <= 1e-6 * roots:
        problems.append(f"self times {subtree:.6f} s do not add up to the {roots:.6f} s traced")
    if wl.jobs > 1 and not roots * (1 - 1e-6) <= subtree <= roots * (wl.jobs + 1):
        problems.append(f"self times {subtree:.6f} s outside [1, {wl.jobs + 1}] x {roots:.6f} s")
    if not 0.95 * outer <= roots <= outer:
        problems.append(f"run_simulation spans {roots:.6f} s vs {outer:.6f} s timed outside")

    if wl.weights == "true-params" and "M_lr" not in wl.estimators:
        if tracer.calls["population.density_at"] != 0:
            problems.append("density_at called without per-sample extras")
        limit = len(wl.estimators) * len(traced)
        if tracer.calls["estimators.resolve_weights"] > limit:
            problems.append(
                f"resolve_weights called {tracer.calls['estimators.resolve_weights']} times, "
                f"more than once per estimator ({limit})"
            )
    return problems


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> dict:
    """One run; returns the result object of the final output line."""

    wl, inputs = workloads.WORKLOADS[name], workloads.inputs_for(seed)
    sizes = sizes_for(seconds, smoke, wl)
    ledger, pool = Ledger(), workloads.RatioPool()
    detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    detail["environment"] = environment()
    if trace:
        values = traced_pass(wl, inputs, sizes, ledger, pool, detail, seed)
        declared = PER_LAYER
    else:
        values = end_to_end_pass(wl, inputs, sizes, ledger, pool, detail)
        declared = END_TO_END
    for problem in pool.problems():
        ledger.note(problem)
    detail["environment"]["loadavg_1m_end"] = os.getloadavg()[0]
    detail.update(ratio_check=pool.summary(), problems=ledger.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in declared},
        "detail": detail,
    }


def report_lines(name: str, result: dict) -> list[str]:
    """The figures for people, under the metric names of the benchmark's README."""
    detail = result["detail"]
    metrics = dict(result["metrics"])
    env = json.dumps(detail["environment"])
    lines = [f"# {name} seed={detail['seed']} trace={detail['trace']} env={env}"]
    if "ops_per_s" in metrics:
        alias = "calls_per_s" if name == "analytic" else "reps_per_s"
        metrics[alias] = metrics.pop("ops_per_s")
        metrics["error_share"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"
        }
        lines.append(
            f"# cmd_ms_tail is p{detail['cmd_tail_percentile']:.1f}"
            f" of {detail['cmd_samples']} invocations;"
            f" stdout sha256 {json.dumps(detail['stdout_sha256'])}"
        )
    for metric, v in metrics.items():
        lines.append(f"{name:<11} {metric:<40} {v['value']:>16.6f} {v['unit']}")
    for problem in detail["problems"]:
        lines.append(f"# CHECK FAILED: {problem}")
    return lines


def run_all(seed: int, seconds: int) -> int:
    """Every workload, end-to-end then traced, each in a fresh harness process."""

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            ok = result["correct"] and proc.returncode == 0
            combined["correct"] = combined["correct"] and ok
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def smoke() -> int:
    """Every workload at a tiny size, both passes; every metric must appear."""

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for key, ours in (
        ("end_to_end", list(END_TO_END)),
        ("per_layer", list(PER_LAYER)),
        ("workloads", [(w, None) for w in workloads.WORKLOADS]),
    ):
        theirs = [(m["name"], m.get("unit")) for m in declared[key]]
        if theirs != ours:
            failures.append(f"BENCHMARK.json {key} {theirs} != {ours}")
    expected = {
        "sim": {"setup_s", "wall_s", "reps_per_s", "cmd_ms_p50", "cmd_ms_tail",
                "peak_rss_mib", "error_share"},
        "analytic": {"setup_s", "wall_s", "calls_per_s", "cmd_ms_p50", "cmd_ms_tail",
                     "peak_rss_mib", "error_share"},
    }
    for name, wl in workloads.WORKLOADS.items():
        for trace in (0, 1):
            result = run_workload(name, 0, 1, trace, smoke=True)
            lines = report_lines(name, result)
            print("\n".join(lines), flush=True)
            shown = {line.split()[1] for line in lines if not line.startswith("#")}
            want = expected[wl.kind] if trace == 0 else {m for m, _ in PER_LAYER}
            if not want <= shown:
                failures.append(f"{name} trace={trace}: missing {sorted(want - shown)}")
            for metric, v in result["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and v["unit"]):
                    failures.append(f"{name}: {metric} has no number or no unit")
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: {result['detail']['problems']}")
    print(json.dumps({"smoke": "failed" if failures else "ok", "failures": failures}))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes; check every metric is emitted"
    )
    args = parser.parse_args(argv)

    if not (SRC / "medaux" / "__init__.py").is_file():
        print(f"error: medaux sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import medaux

    if Path(medaux.__file__).resolve().parent != SRC / "medaux":
        print(f"error: imported medaux from {medaux.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join(workloads.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; choose from {choices} or all")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report_lines(args.workload, result)))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
