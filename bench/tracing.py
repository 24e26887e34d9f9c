"""Spans and counts at the package's layer boundaries, recorded from outside.

Each traced function is looked up once where it is defined.  For the length
of one command, every attribute that *is* that function is replaced by a
wrapper: in every loaded ``sirdvax`` module, on every class those modules
define, and in ``scipy.integrate`` for ``solve_ivp``.  A caller therefore
meets the wrapper under whatever name it imports the function, so a change
that calls ``integrate``, ``objective`` or ``solve_ivp`` from a new place is
still counted.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _solver_stats(counts: Counter, sol) -> None:
    counts["solver.rhs_calls"] += int(sol.nfev)
    counts["solver.steps"] += len(sol.t) - 1


#: (span name, defining module, attribute path, hook run on the result)
TRACED = (
    ("config.load_config", "sirdvax.config", "load_config", None),
    ("solver.integrate", "sirdvax.solver", "integrate", None),
    ("solver.solve_ivp", "scipy.integrate", "solve_ivp", _solver_stats),
    ("solver.state_at", "sirdvax.solver", "Trajectory.state_at", None),
    ("solver.rate_at", "sirdvax.solver", "Trajectory.rate_at", None),
    ("analysis.indicators", "sirdvax.analysis", "indicators", None),
    ("planner.minimize_tau", "sirdvax.planner", "minimize_tau", None),
    ("planner.objective", "sirdvax.planner", "objective", None),
    ("planner.feasible_tau_max", "sirdvax.planner", "feasible_tau_max", None),
)

#: Calls counted by the module whose namespace they go through: (module, span name) -> count.
CALLER_COUNTS = {("sirdvax.cli", "solver.integrate"): "cli.integrate_calls"}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def _namespaces():
    """(module name, namespace object) of every place a traced function may be looked up."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sirdvax" or name.startswith("sirdvax.")):
            continue
        yield name, module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield name, value
    yield "scipy.integrate", sys.modules["scipy.integrate"]


class Tracer:
    """Spans as [name, start, end, parent index] plus counts, all in memory.

    ``missing`` names the traced functions that no longer exist where
    ``TRACED`` looks for them; a run with any reports ``correct: false``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.originals = {}
        self.missing = []
        for name, module, path, hook in TRACED:
            fn = _resolve(module, path)
            if callable(fn):
                self.originals[id(fn)] = (fn, name, hook)
            else:
                self.missing.append(f"{module}.{path}")

    def span(self, name: str, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.calls[name] += 1
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, hook, caller_count):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, result)
            if caller_count is not None:
                self.counts[caller_count] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every reference to a traced function through this tracer while the block runs."""
        saved = []
        try:
            for module, owner in _namespaces():
                for attr, value in list(vars(owner).items()):
                    entry = self.originals.get(id(value))
                    if entry is None or entry[0] is not value:
                        continue
                    fn, name, hook = entry
                    saved.append((owner, attr, value))
                    setattr(owner, attr, self._wrap(name, fn, hook, CALLER_COUNTS.get((module, name))))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """(calls, total seconds, self seconds) by span name."""
        total, own, children = defaultdict(float), defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - children[idx]
        return self.calls, total, own
