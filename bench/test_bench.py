"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

The smoke mode runs every workload at a tiny size, both passes, and fails
unless every metric is emitted with a unit and every output check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, (last, proc.stderr[-2000:])
    assert last == {"smoke": "ok", "failures": []}


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare"  # a checkout holding only the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-fixed", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    shutil.rmtree(bare)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_tail_is_the_order_statistic_with_ten_samples_above():
    sys.path.insert(0, str(HERE))
    from run import tail

    value, percentile = tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
