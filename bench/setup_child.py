"""Set-up step of one workload, run in a fresh interpreter.

Imports ``medaux.cli`` and builds the workload's inputs through public calls,
then prints the time of each step as one JSON line.  The caller times the
whole process (interpreter start included) as one ``setup_s`` sample.

    python3 bench/setup_child.py sim '<SyntheticSpec fields as JSON>' <n>
    python3 bench/setup_child.py analytic
"""

from time import perf_counter

t0 = perf_counter()
import json  # noqa: E402
import sys  # noqa: E402
from importlib.resources import files  # noqa: E402

import medaux.cli  # noqa: E402,F401
from medaux import montecarlo, population  # noqa: E402


def main() -> None:
    timings = {"import_ms": (perf_counter() - t0) * 1e3}
    if sys.argv[1] == "sim":
        t = perf_counter()
        frame = montecarlo.make_synthetic(
            montecarlo.SyntheticSpec(**json.loads(sys.argv[2]))
        )
        timings["make_synthetic_ms"] = (perf_counter() - t) * 1e3
        t = perf_counter()
        density = population.KernelDensity()
        population.compute_params(frame, int(sys.argv[3]), density, density)
        timings["compute_params_ms"] = (perf_counter() - t) * 1e3
    else:
        t = perf_counter()
        for name in ("popI.json", "popII.json"):
            population.load_params(str(files("medaux.data").joinpath(name)))
        timings["load_params_ms"] = (perf_counter() - t) * 1e3
    print(json.dumps(timings))


main()
