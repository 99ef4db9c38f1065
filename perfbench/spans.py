"""Span recorder for the traced benchmark run.

Tracing is switched on from outside the package: ``Tracer.installed()``
replaces public functions and methods of ``vppsched`` with wrappers that
open a span around each call, and puts the originals back on exit. The
source tree is never touched.

A span holds its name, start, end, parent span and the operation it
belongs to. Each thread keeps its own parent stack; a span opened on a
worker thread with an empty stack is parented to the running operation.
Spans stay in memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    thread: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        op = self._op
        parent = stack[-1].id if stack else (op.id if op else None)
        with self._lock:
            sp = Span(len(self.spans), name, op.id if op else None, parent,
                      threading.get_ident(), time.perf_counter())
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one operation; every span opened inside it, on any
        thread, carries its id."""
        with self.span(f"op.{name}") as sp:
            sp.op = sp.id
            self._op = sp
            try:
                yield sp
            finally:
                self._op = None

    @contextmanager
    def installed(self):
        """Wrap every traced entry point of vppsched for the duration of
        the block."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if counter is not None:
                    sp.counts.update(counter(args, kwargs, out))
                return out
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def _linprog_counts(args, kwargs, res):
    rows = sum(kwargs[key].shape[0] for key in ("A_ub", "A_eq")
               if kwargs.get(key) is not None)
    return {"nit": int(res.nit), "rows": int(rows)}


def _cut_counts(args, kwargs, added):
    return {"offered": len(args[1]), "added": int(added)}


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point.

    Callers inside the package look these up as module or class attributes
    at call time, so replacing the attribute is seen everywhere."""
    from vppsched import benders, config, lp, model, reports, scenarios, \
        stochastic
    return [
        (config, "load_config", "config.load_config", None),
        (config.RunConfig, "build_model", "config.build_model", None),
        (scenarios, "load_scenario_set", "scenarios.load_scenario_set", None),
        (model.VppModel, "build_block", "model.build_block", None),
        (lp, "solve", "lp.solve", None),
        (lp, "linprog", "lp.linprog", _linprog_counts),
        (stochastic, "build_extensive", "stochastic.build_extensive", None),
        (stochastic, "solve_extensive", "stochastic.solve_extensive", None),
        (benders, "iterate", "benders.iterate", None),
        (benders, "solve_subproblem", "benders.solve_subproblem", None),
        (benders.MasterProblem, "solve", "benders.master_solve", None),
        (benders.MasterProblem, "add_cuts", "benders.add_cuts", _cut_counts),
        (reports, "solve_with_method", "reports.solve_with_method", None),
        (reports, "scenario_details", "reports.scenario_details", None),
        (reports, "write_solution", "reports.write_solution", None),
        (reports, "evaluate_solution", "reports.evaluate_solution", None),
        (reports, "tariff_sweep", "reports.tariff_sweep", None),
    ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of its interval covered by its
    children (overlapping children on worker threads count once)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, cursor), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out
