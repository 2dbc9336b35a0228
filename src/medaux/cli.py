"""Command-line front end.

Subcommands:

* ``params``    extract or load the population parameter vector
* ``table``     analytic minimum-MSE comparison table
* ``simulate``  SRSWOR replication with empirical vs analytic columns
* ``compare``   the five dominance checks with margins

Exit codes: 0 success, 1 data or computation error, 2 usage error.
The default output format comes from ``MEDAUX_FORMAT`` (csv, json or md).

``table``, ``compare``, ``params --params`` and usage errors run without
numpy: the numpy modules (:mod:`medaux.montecarlo` and
:mod:`medaux.population`) are imported only inside ``simulate`` and
``params --input``, the commands that read raw data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields
from importlib.resources import files

from . import mse
from .errors import MedauxError, UnknownEstimatorError
from .estimators import RATIO_EXP, free_scalars, preset
from .parameters import MedianParams, load_params

COLUMNS = ("estimator", "analytic_mse", "analytic_bias", "empirical_mse", "pre")
FORMATS = ("csv", "json", "md")
_BUILTIN_PARAMS = {
    "popi": "popI.json",
    "pop1": "popI.json",
    "popii": "popII.json",
    "pop2": "popII.json",
}


def _default_format() -> str:
    env = os.environ.get("MEDAUX_FORMAT", "csv").lower()
    return env if env in FORMATS else "csv"


def _fmt_cell(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        text = f"{value:.{precision}f}"
        # a value that rounds to zero prints without a sign
        return text[1:] if text.startswith("-") and float(text) == 0 else text
    return str(value)


def render_table(
    rows: list[dict], fmt: str, precision: int, extra: dict | None = None
) -> str:
    """Render rows keyed by ``COLUMNS`` to csv/md at display precision, or to
    full-precision json with the json-only ``extra`` payload appended."""
    if fmt == "json":
        return json.dumps({"rows": rows, **(extra or {})}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row[c], precision) for c in COLUMNS])
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(COLUMNS) + " |"]
        lines.append("|" + "|".join(" --- " for _ in COLUMNS) + "|")
        for row in rows:
            lines.append(
                "| " + " | ".join(_fmt_cell(row[c], precision) for c in COLUMNS) + " |"
            )
        return "\n".join(lines) + "\n"
    raise MedauxError(f"unknown format {fmt!r}")


def _resolve_params_path(value: str) -> str:
    builtin = _BUILTIN_PARAMS.get(value.strip().lower())
    if builtin is not None:
        return str(files("medaux.data").joinpath(builtin))
    return value


def _load_params_arg(value: str) -> MedianParams:
    return load_params(_resolve_params_path(value))


def _density_methods(args) -> tuple:
    from .population import HistogramDensity, KernelDensity, KnownDensity

    if args.density == "kernel":
        return KernelDensity(), KernelDensity()
    if args.density == "histogram":
        return HistogramDensity(), HistogramDensity()
    if args.fy is None or args.fx is None:
        raise MedauxError("--density known requires --fy and --fx values")
    return KnownDensity(args.fy), KnownDensity(args.fx)


def _estimator_list(value) -> tuple[str, ...]:
    """Estimator names from a comma-separated string or a list of strings."""
    if isinstance(value, str):
        names = tuple(s.strip() for s in value.split(",") if s.strip())
    elif isinstance(value, list) and all(isinstance(s, str) for s in value):
        names = tuple(value)
    else:
        raise MedauxError(
            f"estimators must be a string or a list of strings, got {value!r}"
        )
    if not names:
        raise MedauxError("need at least one estimator")
    return names


def _parse_synthetic(text: str) -> SyntheticSpec:
    from .montecarlo import SyntheticSpec

    kwargs: dict[str, float] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if not value:
            raise MedauxError(f"synthetic spec entry {part!r} is not key=value")
        try:
            kwargs[key] = float(value)
        except ValueError:
            raise MedauxError(
                f"synthetic spec entry {part!r} has a non-numeric value"
            ) from None
        if key in ("N", "seed"):
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise MedauxError(
                    f"synthetic spec entry {part!r} must be an integer"
                ) from None
    try:
        return SyntheticSpec(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise MedauxError(f"bad synthetic spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _trim(value: float, precision: int) -> str:
    s = f"{value:.{precision}f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-", "-0") else s


def cmd_params(args) -> int:
    if args.input is not None:
        if args.n is None:
            raise MedauxError("--input requires --n")
        from .population import compute_params, load_population

        frame = load_population(args.input)
        fy_m, fx_m = _density_methods(args)
        params = compute_params(frame, args.n, fy_m, fx_m)
    else:
        params = _load_params_arg(args.params)

    as_dict = params.as_dict()
    short_names = {"median_ratio": "R", "median_gap": "b"}
    if args.format == "json":
        sys.stdout.write(json.dumps(as_dict, indent=2) + "\n")
    else:
        for key, value in as_dict.items():
            label = short_names.get(key, key)
            if isinstance(value, int):
                sys.stdout.write(f"{label} = {value}\n")
            else:
                sys.stdout.write(f"{label} = {_trim(value, args.precision)}\n")
    return 0


def cmd_table(args) -> int:
    params = _load_params_arg(args.params)
    ids = "all" if args.estimators.strip().lower() == "all" else _estimator_list(
        args.estimators
    )
    rows = [
        {
            "estimator": r.estimator,
            "analytic_mse": r.analytic_mse,
            "analytic_bias": r.analytic_bias,
            "empirical_mse": None,
            "pre": r.pre_vs_sample_median,
        }
        for r in mse.table_rows(params, ids)
    ]
    sys.stdout.write(render_table(rows, args.format, args.precision))
    return 0


def _int_setting(key: str, value) -> int:
    """An integer simulate setting; refuses values int() would truncate."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MedauxError(f"{key} must be an integer, got {value!r}")


def _read_config(path: str) -> dict:
    from .montecarlo import SimulationConfig

    with open(path, encoding="utf-8") as fh:
        try:
            file_cfg = json.load(fh)
        except ValueError as exc:
            raise MedauxError(f"config file {path}: not valid JSON ({exc})") from None
    if not isinstance(file_cfg, dict):
        raise MedauxError(f"config file {path}: expected a JSON object")
    known = [f.name for f in fields(SimulationConfig)]
    unknown = sorted(set(file_cfg) - set(known))
    if unknown:
        raise MedauxError(
            f"config file {path}: unknown keys {', '.join(unknown)}; "
            f"valid keys: {', '.join(known)}"
        )
    return file_cfg


def cmd_simulate(args) -> int:
    from . import montecarlo
    from .population import compute_params, load_population

    settings = _read_config(args.config) if args.config is not None else {}
    for f in fields(montecarlo.SimulationConfig):  # a flag overrides the config file
        if getattr(args, f.name) is not None:
            settings[f.name] = getattr(args, f.name)
    if settings.get("n") is None or settings.get("reps") is None:
        raise MedauxError("simulate needs --n and --reps (flags or config file)")
    if "estimators" in settings:
        settings["estimators"] = _estimator_list(settings["estimators"])
    for key in ("n", "reps", "seed"):
        if key in settings:
            settings[key] = _int_setting(key, settings[key])
    config = montecarlo.SimulationConfig(**settings)

    if args.input is not None:
        frame = load_population(args.input)
    else:
        frame = montecarlo.make_synthetic(_parse_synthetic(args.synthetic))
    params_n = config.n if config.n < frame.N else frame.N - 1
    params = compute_params(frame, params_n, *_density_methods(args))
    report = montecarlo.run_simulation(frame, config, params, jobs=args.jobs)

    try:
        baseline = mse.sample_median_mse(params)
    except MedauxError:  # the finished replicates stand; PRE is nan
        baseline = math.nan
    results = [asdict(r) for r in report.results]
    rows = [
        {**{c: r[c] for c in COLUMNS[:-1]}, "pre": mse.pre(r["analytic_mse"], baseline)}
        for r in results
    ]
    extra = {
        "config": asdict(config),
        "params": report.params.as_dict(),
        # the columns of a row are not repeated in its detail
        "detail": [{k: v for k, v in r.items() if k not in COLUMNS[1:]} for r in results],
    }
    sys.stdout.write(render_table(rows, args.format, args.precision, extra))
    return 0


def cmd_compare(args) -> int:
    params = _load_params_arg(args.params)
    scalars = None
    if args.tmq_preset is not None:
        spec = preset(args.tmq_preset, params)
        if spec.family != RATIO_EXP or free_scalars(spec) != ("w1",):
            raise MedauxError(
                f"--tmq-preset needs a single-weight preset, got {args.tmq_preset!r}"
            )
        scalars = (spec.alpha, spec.eta, spec.lam)
    checks = mse.dominance_checks(params, tmq_scalars=scalars)
    passed = 0
    for check in checks:
        if check.satisfied is None:
            verdict = "INDETERMINATE"
        elif check.satisfied:
            verdict = "PASS"
            passed += 1
        else:
            verdict = "FAIL"
        note = f" [{check.note}]" if check.note else ""
        sys.stdout.write(
            f"{check.name}: {verdict} "
            f"(margin {_trim(check.margin, args.precision)}){note}\n"
        )
    sys.stdout.write(f"{passed}/{len(checks)} checks passed\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medaux",
        description="Median estimation with an auxiliary variable under SRSWOR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_precision: int) -> None:
        p.add_argument("--format", choices=FORMATS, default=_default_format())
        p.add_argument("--precision", type=int, default=default_precision)

    p_params = sub.add_parser("params", help="extract or load population parameters")
    src = p_params.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="population CSV with columns x,y")
    src.add_argument("--params", help="params JSON file or builtin popI/popII")
    p_params.add_argument("--n", type=int, help="sample size (with --input)")
    p_params.add_argument(
        "--density", choices=("kernel", "histogram", "known"), default="kernel"
    )
    p_params.add_argument("--fy", type=float, help="known density of y at its median")
    p_params.add_argument("--fx", type=float, help="known density of x at its median")
    add_common(p_params, default_precision=5)
    p_params.set_defaults(handler=cmd_params)

    p_table = sub.add_parser("table", help="analytic minimum-MSE table")
    p_table.add_argument("--params", required=True)
    p_table.add_argument("--estimators", default="all")
    add_common(p_table, default_precision=2)
    p_table.set_defaults(handler=cmd_table)

    p_sim = sub.add_parser("simulate", help="SRSWOR replication study")
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="population CSV with columns x,y")
    src.add_argument(
        "--synthetic",
        help="lognormal spec, e.g. N=2000,mu_x=7,sigma_x=0.5,mu_y=7,sigma_y=0.5,rho=0.8,seed=1",
    )
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--estimators")
    p_sim.add_argument("--weights", choices=("true-params", "plug-in"))
    p_sim.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; no effect, replicates run serially",
    )
    p_sim.add_argument("--config", help="JSON file with SimulationConfig fields")
    p_sim.add_argument(
        "--density", choices=("kernel", "histogram"), default="kernel",
        help="density method for parameter extraction from the frame",
    )
    add_common(p_sim, default_precision=2)
    p_sim.set_defaults(handler=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="dominance checks with margins")
    p_cmp.add_argument("--params", required=True)
    p_cmp.add_argument(
        "--tmq-preset",
        help="single-weight ratio_exp preset (w2 pinned to 0, w1 free), e.g. t_mq7",
    )
    add_common(p_cmp, default_precision=2)
    p_cmp.set_defaults(handler=cmd_compare)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 0:
        parser.error("--precision must be nonnegative")
    if args.command == "simulate" and args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.command == "params" and args.params is not None and args.n is not None:
        parser.error("--n only applies to --input")
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.handler(args)
    except UnknownEstimatorError as exc:
        parser.error(str(exc))  # exits with code 2
        return 2  # unreachable, keeps type checkers quiet
    except (MedauxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ZeroDivisionError, OverflowError) as exc:
        # parameters that pass validation can still overflow or underflow later
        what = "overflow" if isinstance(exc, OverflowError) else "division by zero"
        print(f"error: numeric {what} on extreme parameter values", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
