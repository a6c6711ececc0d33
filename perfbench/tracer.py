"""In-memory span tracer for the rsmlqr benchmark.

The tracer wraps public rsmlqr functions at the module attributes their
callers look them up through (``rsmlqr.lqr.solve_care`` is what ``_design``
calls, ``rsmlqr.sim.solve_lyapunov`` is what ``closed_loop_cost`` calls), so
no file of the package is edited.  Every wrapped call records one span:
name, start, end and the index of the enclosing span.  Spans stay in memory
and are exported when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

This module imports nothing heavy, so a traced child process can load it
before timing the import of ``rsmlqr.cli``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# Spans split by the order of their first argument at the program's
# KRON_LIMIT, where riccati switches Lyapunov solvers.
ORDER_SPLIT = 60

# (module under rsmlqr, attribute, span name, split by matrix order)
SPANS = (
    ("cli", "parse_problem", "cli.parse_problem", False),
    ("cli", "build_report", "cli.render", False),
    ("cli", "render_json", "cli.render", False),
    ("cli", "counterexample_search", "lqr.search", False),
    ("cli", "evaluate_composition", "lqr.evaluate", False),
    ("lqr", "evaluate_composition", "lqr.evaluate", False),
    ("lqr", "sample_instance", "lqr.sample", False),
    ("lqr", "lqr_subsystem", "lqr.design", False),
    ("lqr", "lqr_composite", "lqr.design", False),
    ("lqr", "check_exact_condition", "lqr.checks", False),
    ("lqr", "check_necessary_condition", "lqr.checks", False),
    ("lqr", "check_sufficient_condition", "lqr.checks", False),
    ("lqr", "compare_gains", "lqr.checks", False),
    ("lqr", "compose_open_loop", "rsm.compose", False),
    ("lqr", "compose_cost", "rsm.compose", False),
    ("lqr", "compose_gains", "rsm.compose", False),
    ("lqr", "definiteness", "matkit.definiteness", False),
    ("rsm", "definiteness", "matkit.definiteness", False),
    ("riccati", "definiteness", "matkit.definiteness", False),
    ("lqr", "is_controllable", "matkit.rank_test", False),
    ("lqr", "is_observable", "matkit.rank_test", False),
    ("matkit", "is_controllable", "matkit.rank_test", False),
    ("lqr", "solve_care", "riccati.solve_care", True),
    ("riccati", "care_residual", "riccati.care_residual", True),
    ("lqr", "rectangular_riccati_residual", "riccati.rect_residual", True),
    ("sim", "closed_loop_cost", "sim.closed_loop_cost", False),
    ("sim", "solve_lyapunov", "riccati.solve_lyapunov", True),
)

# Validators are called about a hundred times per small instance, so they
# are counted, not timed.  matkit's own name catches the calls
# require_square makes.
COUNTED = tuple(
    (module, "require_matrix", "matkit.require_matrix")
    for module in ("matkit", "rsm", "riccati", "lqr", "sim")
)


def _bucket(a) -> str:
    return "le60" if len(a) <= ORDER_SPLIT else "gt60"


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        # (compositional, sufficient test predicts compositional) per
        # evaluate_composition call
        self.outcomes: list[tuple[bool, bool]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, fn, name: str, split: bool):
        observe = name == "lqr.evaluate"

        def wrapper(*args, **kwargs):
            idx = self._open(f"{name}.{_bucket(args[0])}" if split else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe:
                report = result.report
                self.outcomes.append(
                    (bool(report.compositional),
                     bool(report.sufficient.predicts_compositional))
                )
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the functions in SPANS and COUNTED for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, name, split in SPANS:
                module = importlib.import_module(f"rsmlqr.{module_name}")
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._timed(fn, name, split))
            for module_name, attr, name in COUNTED:
                module = importlib.import_module(f"rsmlqr.{module_name}")
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._counted(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(self._saved):
                setattr(module, attr, fn)
            self._saved.clear()

    def export(self) -> dict:
        """Plain-JSON form: span names are indexed, times in seconds."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
            "outcomes": [list(o) for o in self.outcomes],
        }

    def merge(self, exported: dict):
        """Append spans exported by another tracer, such as a child process's."""
        offset = len(self.names)
        table = exported["names"]
        for n, s, e, p in exported["spans"]:
            self.names.append(table[n])
            self.starts.append(s)
            self.ends.append(e)
            self.parents.append(p + offset if p >= 0 else -1)
        for name, count in exported["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + count
        self.outcomes.extend((bool(c), bool(p)) for c, p in exported["outcomes"])

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(own)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += own[i]
        totals: dict[str, float] = {}
        for name, o, c in zip(self.names, own, child):
            totals[name] = totals.get(name, 0.0) + (o - c)
        return totals

    def span_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name in self.names:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def child_counts(self, name: str, parent_prefix: str) -> int:
        """Spans called ``name`` whose enclosing span starts with ``parent_prefix``."""
        return sum(
            1
            for n, p in zip(self.names, self.parents)
            if n == name and p >= 0 and self.names[p].startswith(parent_prefix)
        )
