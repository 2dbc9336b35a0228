"""Outside-in tracing: timing wrappers installed on medaux's public names.

A :class:`Tracer` replaces a public function at every binding site inside
the ``medaux`` package (the defining module and each module that imported
the name) with a wrapper that records one span per call: name, start, end
and parent.  Nothing under ``src/`` changes; the wrappers are removed again
by :meth:`Tracer.uninstall`.  Spans stay in memory until :meth:`dump`.

A target that no longer exists is listed in :attr:`Tracer.missing` and its
layer simply records no spans.

Spans opened on a thread with no open span of its own (the worker threads of
``run_simulation(jobs>1)``) are parented to the outermost span open at that
moment, so per-replicate work done in a pool still nests under the call that
started it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, attribute path, span name) for every traced public call
TARGETS = (
    ("medaux.montecarlo", "run_simulation", "montecarlo.run_simulation"),
    ("medaux.montecarlo", "srswor", "montecarlo.srswor"),
    ("medaux.montecarlo", "make_synthetic", "montecarlo.make_synthetic"),
    ("medaux.population", "finite_median", "population.finite_median"),
    ("medaux.population", "density_at", "population.density_at"),
    ("medaux.population", "MedianParams.from_primitives", "population.from_primitives"),
    ("medaux.population", "compute_params", "population.compute_params"),
    ("medaux.population", "load_params", "population.load_params"),
    ("medaux.estimators", "evaluate", "estimators.evaluate"),
    ("medaux.estimators", "resolve_weights", "estimators.resolve_weights"),
    ("medaux.estimators", "coeffs_of", "estimators.coeffs_of"),
    ("medaux.estimators", "preset", "estimators.preset"),
    ("medaux.expansion", "mse_from_coeffs", "expansion.mse_from_coeffs"),
    ("medaux.expansion", "error_moments", "expansion.error_moments"),
    ("medaux.mse", "table_rows", "mse.table_rows"),
    ("medaux.mse", "dominance_checks", "mse.dominance_checks"),
    ("medaux.cli", "render_table", "cli.render_table"),
)


class Tracer:
    """Records spans and call/error counts for the wrapped functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._outermost = -1  # open span with no parent, if any
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            parent = stack[-1] if stack else self._outermost
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.calls[name] += 1
            if parent < 0:
                self._outermost = idx
        stack.append(idx)
        return idx, stack

    def _close(self, idx: int, stack: list[int], start: float, end: float) -> None:
        stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end
        if self._outermost == idx:
            self._outermost = -1

    def _failed(self, name: str) -> None:
        with self._lock:
            self.errors[name] += 1

    def wrap(self, name: str, fn):
        open_, close, failed = self._open, self._close, self._failed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, stack = open_(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed(name)
                raise
            finally:
                close(idx, stack, start, perf_counter())

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> "Tracer":
        for module_name, path, span in targets:
            try:
                module = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if owner is not module else getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self.wrap(span, raw.__func__)))
                continue
            if not callable(raw):
                self.missing.append(span)
                continue
            wrapped = self.wrap(span, raw)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "medaux" or name.startswith("medaux.")) and (
                    mod.__dict__.get(attr) is raw
                ):
                    self._set(mod, attr, wrapped)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def roots(self) -> list[int]:
        """Index of the outermost ancestor of every span."""
        root = []
        for i, p in enumerate(self.parents):
            root.append(i if p < 0 else root[p])
        return root

    def self_times(self) -> list[float]:
        """Duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for p, kids in children.items():
            lo_p, hi_p = self.starts[p], self.ends[p]
            covered, cur_lo, cur_hi = 0.0, None, None
            for s, e in sorted((self.starts[k], self.ends[k]) for k in kids):
                s, e = max(s, lo_p), min(e, hi_p)
                if e <= s:
                    continue
                if cur_hi is None or s > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = s, e
                else:
                    cur_hi = max(cur_hi, e)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[p] -= covered
        return out

    def totals(self, under: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds.

        With ``under``, only spans whose outermost ancestor has that name.
        """
        roots = self.roots()
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, name in enumerate(self.names):
            if under is not None and self.names[roots[i]] != under:
                continue
            row = out[name]
            row["count"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as columns of one JSON object."""
        payload = {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
