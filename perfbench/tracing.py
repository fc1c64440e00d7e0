"""Span tracing for the traced benchmark run, installed from outside the package.

:class:`Tracer` wraps the public entry points of each layer of ``repro``
(see :data:`TARGETS`) and records one span per call: name, start, end,
parent span and the benchmark operation id that was current when the
span opened.  Spans stay in memory until :meth:`Tracer.write` dumps them.

A function is wrapped at every module binding that holds it, so a
consumer that imported it by name (``lovasz.py`` binds
``project_capped_simplex``) calls the wrapper too.  Methods are wrapped
on every class that defines them.  :meth:`Tracer.uninstall` restores
every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute) — ``attribute`` may be ``Class.method``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("serving.tick", "repro.serving.facade", "ServingFacade.tick"),
    ("fingerprint", "repro.parallel.fingerprint", "task_fingerprint"),
    ("fingerprint", "repro.parallel.fingerprint", "instance_fingerprint"),
    ("cache.get", "repro.parallel.cache", "ResultCache.get"),
    ("cache.put", "repro.parallel.cache", "ResultCache.put"),
    ("verify", "repro.verify.certificate", "attach_certificate"),
    ("verify", "repro.verify.certificate", "verify_solution"),
    ("slo.solve", "repro.slo.meta", "AnytimeMetaSolver.solve"),
    ("pool.task", "repro.parallel.clock", "SystemClock.run_task"),
    ("incremental.replan", "repro.incremental.engine", "IncrementalSolver.resolve_delta"),
    ("decompose.grid", "repro.decompose.allocator", "budget_grid"),
    ("pool.run_tasks", "repro.parallel.pool", "run_tasks"),
    ("bcc.solve", "repro.algorithms.bcc", "solve_bcc"),
    ("bcc.prune", "repro.algorithms.pruning", "prune_classifiers"),
    ("knapsack", "repro.knapsack.solvers", "solve_knapsack"),
    ("mc3", "repro.mc3.solver", "solve_mc3"),
    ("qk", "repro.qk.heuristic", "solve_qk"),
    ("dks.portfolio", "repro.dks.portfolio", "HksPortfolio.solve"),
    ("dks.lovasz", "repro.dks.lovasz", "solve_lovasz"),
    ("dks.peeling", "repro.dks.peeling", "solve_peeling"),
    ("dks.spectral", "repro.dks.spectral", "solve_spectral"),
    ("dks.expansion", "repro.dks.expansion", "solve_expansion"),
    ("dks.swaps", "repro.dks.local_search", "improve_by_swaps"),
    ("dks.projection", "repro.dks.projection", "project_capped_simplex"),
    ("core.probe", "repro.core.coverage", "CoverageTracker.probe_gain"),
    ("core.probe", "repro.algorithms.residual", "ResidualProblem.evaluate_gain_batch"),
    ("datasets.generate", "repro.serving.traffic", "generate_trace"),
    ("datasets.generate", "repro.datasets.fragmented", "generate_fragmented"),
    ("datasets.generate", "repro.datasets.bestbuy", "generate_bestbuy"),
    ("datasets.generate", "repro.datasets.private_like", "generate_private"),
    ("datasets.generate", "repro.datasets.synthetic", "generate_synthetic"),
)

#: Span name → layer, for the self-time accounting.
LAYER_OF = {
    "serving.tick": "serving",
    "fingerprint": "parallel.fingerprint",
    "cache.get": "parallel.cache",
    "cache.put": "parallel.cache",
    "verify": "verify",
    "slo.solve": "slo",
    "slo.arm": "slo",
    "pool.task": "parallel.pool",
    "pool.run_tasks": "parallel.pool",
    "incremental.replan": "incremental",
    "decompose.grid": "decompose",
    "bcc.solve": "algorithms",
    "bcc.prune": "algorithms",
    "knapsack": "knapsack",
    "mc3": "mc3",
    "qk": "qk",
    "dks.portfolio": "dks",
    "dks.lovasz": "dks",
    "dks.peeling": "dks",
    "dks.spectral": "dks",
    "dks.expansion": "dks",
    "dks.swaps": "dks",
    "dks.projection": "dks",
    "core.probe": "core",
    "datasets.generate": "datasets",
}

#: Span clock: process CPU time, the clock every benchmark timing uses.
clock = time.process_time

# A span row: [name, start, end, parent index (-1 for a root), op id].
Span = List[object]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.results: Dict[str, List[object]] = defaultdict(list)
        self.op_id: Optional[int] = None
        self.off = False
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name(self, name: str) -> str:
        # A pool task whose batch was issued by the meta-solver is one
        # SLO arm; every other pool task (replan shard solves) stays a
        # plain pool task.
        if name == "pool.task" and len(self._stack) >= 2:
            if self.spans[self._stack[-2]][0] == "slo.solve":
                return "slo.arm"
        return name

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._name(name), clock(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, keep_result: bool) -> Callable:
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if self.off:
                    return await fn(*args, **kwargs)
                index = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(index)
                if keep_result:
                    self.results[name].append((args, result))
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.off:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if keep_result:
                self.results[self.spans[index][0]].append((args, result))
            return result

        return traced

    @contextmanager
    def paused(self):
        """Call through without recording (the answer checks run here)."""
        self.off = True
        try:
            yield
        finally:
            self.off = False

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self, keep_results: Tuple[str, ...] = ()) -> None:
        """Wrap every target at every binding that holds it."""
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            keep = name in keep_results
            if "." in attribute:
                class_name, method = attribute.split(".")
                base = getattr(module, class_name)
                for cls in [base, *_subclasses(base)]:
                    if method in cls.__dict__:
                        original = cls.__dict__[method]
                        self._replace(cls, method, original, self.wrap(name, original, keep))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original, keep)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, original, wrapped)
                    elif isinstance(value, dict):
                        # Dispatch tables (the HkS portfolio's arm map).
                        for entry, member in list(value.items()):
                            if member is original:
                                self._replace(value, entry, original, wrapped)

    def _replace(self, owner: object, key: object, original: object, wrapped: object) -> None:
        _assign(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            _assign(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summary(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Total time counts only spans with no ancestor of the same name,
        so nested calls (``attach_certificate`` → ``verify_solution``)
        are not counted twice; self time is a span's duration minus the
        part its child spans cover.
        """
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= since:
                child_time[parent - since] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for offset, span in enumerate(spans):
            name = span[0]
            duration = span[2] - span[1]
            row = out[name]
            row["calls"] += 1
            row["self_s"] += duration - child_time[offset]
            if not self._has_ancestor(span, name, since):
                row["total_s"] += duration
        return dict(out)

    def _has_ancestor(self, span: Span, name: str, since: int) -> bool:
        parent = span[3]
        while parent >= since:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def root_seconds(self, since: int = 0) -> float:
        return sum(s[2] - s[1] for s in self.spans[since:] if s[3] < since)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_cpu_s", "end_cpu_s", "parent", "op_id"],
                    "spans": self.spans,
                },
                handle,
            )


def _assign(owner: object, key: object, value: object) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
