"""The workloads: inputs, timed rounds and answer checks.

A run is a sequence of whole *rounds*.  Round ``r`` of a run with seed
``s`` serves inputs that :meth:`inputs` derives from ``(s, r)`` alone,
on fresh program state (a new façade and an empty result cache), so a
round's work depends on nothing that happened before it.  Every round of
a workload has the same make-up; a run averages over the variants its
rounds draw.  :meth:`check` checks each round's answers after the round,
outside its timed span.

- ``serve-hot``   — a seeded Zipf trace on the serving façade, no writes.
- ``serve-churn`` — the façade with replans beside the reads.
- ``paper-sweep`` — A^BCC on the Figure 3a–3c datasets at four budgets
  (runnable, but not listed in ``BENCHMARK.json``; see the README).

``serve-churn`` and ``paper-sweep`` spend almost all their time in
A^BCC solves, whose cost swings several-fold between instances drawn
from different generator seeds.  Both therefore solve fixed base
instances (generator seed 0, as the figures use; ``CHURN_SEED`` for
serve-churn's trace) whose property names
the benchmark seed relabels: every seed gives new input bytes, new
name-order tie-breaks and new fingerprints, but an isomorphic instance,
so a run's cost does not depend on the seed.  What
still varies is the order in which hashed sets of names are walked; the
solvers' paths, and their cost, follow it, and a run averages over one
relabelling per round.
"""

from __future__ import annotations

import asyncio
import json
import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.algorithms.bcc as bcc
import repro.datasets as datasets
import repro.serving as serving
from repro.core.model import BCCInstance
from repro.datasets.schema import instance_from_json, instance_to_json
from repro.incremental.delta import random_delta
from repro.incremental.engine import IncrementalConfig, IncrementalSolver
from repro.mc3 import full_cover_cost
from repro.parallel.cache import ResultCache
from repro.serving import PlanRequest, ReplanRequest, ServingConfig, ServingFacade
from repro.serving.traffic import ServingTrace, trace_from_json, trace_to_json
from repro.verify.certificate import verify_solution

#: Every timing is process CPU time.  On a shared virtual machine the
#: vCPUs lose time to other guests (7% of CPU time was stolen during the
#: reference runs in the README); CPU time leaves that out, and for this
#: single-threaded loop it equals wall time on an idle machine.  Each
#: round also records its wall time for reference.
clock = time.process_time

DEADLINE_MS = 20.0
TICK_SECONDS = ServingConfig().tick_seconds
FRACTIONS = (0.05, 0.15, 0.3, 0.6)
#: Generator seed of the fixed base instances that the seed relabels.
BASE_SEED = 0
#: Generator seed of serve-churn's base trace.  Its first 600 requests
#: hold six replans (1%); four of them merge shards, two of those into
#: a five-query shard whose re-solve is the costly merged-shard write
#: path (about 2 s each on the reference machine).
CHURN_SEED = 8

#: Workload sizes: ``full`` is the benchmark, ``smoke`` the harness check.
SIZES = {
    "full": {
        "hot_requests": 2_500,
        "churn_requests": 600,
        "paper_scale": {"BB": (60, 80), "P": (80, 130), "S": (100, 80)},
    },
    "smoke": {
        "hot_requests": 300,
        "churn_requests": 150,
        "paper_scale": {"BB": (20, 30), "P": (20, 40), "S": (24, 24)},
    },
}


@dataclass
class Round:
    """One round's operations: CPU seconds, latencies, answers, counters."""

    seconds: float
    latencies: List[float]
    answers: List[object]
    kinds: List[str]
    counters: Dict[str, object] = field(default_factory=dict)
    wall_seconds: float = 0.0
    queue_waits: List[float] = field(default_factory=list)


@dataclass
class CheckReport:
    checked: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def merge(self, other: "CheckReport") -> None:
        self.checked += other.checked
        self.failed += other.failed
        self.problems.extend(other.problems[: 10 - len(self.problems)])


# ----------------------------------------------------------------------
# relabelling
# ----------------------------------------------------------------------
def _relabel_json(payload, mapping: Dict[str, str]):
    if isinstance(payload, dict):
        return {key: _relabel_json(value, mapping) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_relabel_json(value, mapping) for value in payload]
    if isinstance(payload, str):
        return mapping.get(payload, payload)
    return payload


def round_seed(seed: int, round_index: int) -> int:
    """The input seed of one round of a run."""
    return random.Random(f"perfbench/{seed}/{round_index}").randrange(2**31)


def _property_mapping(properties, seed: int) -> Dict[str, str]:
    names = sorted(properties)
    fresh = [f"f{index:05d}" for index in range(len(names))]
    random.Random(seed).shuffle(fresh)
    return dict(zip(names, fresh))


def relabel_instance(instance: BCCInstance, seed: int) -> BCCInstance:
    mapping = _property_mapping(instance.properties, seed)
    return instance_from_json(_relabel_json(instance_to_json(instance), mapping))


def relabel_trace(trace: ServingTrace, seed: int) -> ServingTrace:
    properties = set()
    for instance in trace.tenants.values():
        properties |= set(instance.properties)
    for item in trace.items:
        delta = getattr(item.request, "delta", None)
        if delta is not None:
            for query, _ in delta.add:
                properties |= set(query)
    mapping = _property_mapping(properties, seed)
    return trace_from_json(_relabel_json(trace_to_json(trace), mapping))


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def _windows(trace: ServingTrace) -> List[list]:
    """Arrivals grouped into tick windows, as ``ServingFacade.replay`` does."""
    items = sorted(trace.items, key=lambda item: (item.arrival_s, item.seq))
    windows, index = [], 0
    while index < len(items):
        close = items[index].arrival_s + TICK_SECONDS
        window = []
        while index < len(items) and items[index].arrival_s <= close + 1e-12:
            window.append(items[index])
            index += 1
        windows.append(window)
    return windows


async def _closed_loop(facade: ServingFacade, windows, tracer=None):
    """Enqueue a window, await its tick, then enqueue the next one.

    A request's latency runs from its enqueue until the tick that
    answered it returns, which is when the waiting client holds it.
    """
    latencies: List[float] = []
    answers: List[object] = []
    for number, window in enumerate(windows):
        if tracer is not None:
            tracer.op_id = number
        pending = []
        for item in window:
            enqueued = clock()
            pending.append((enqueued, facade.enqueue(item.request, request_id=item.seq)))
        await facade.tick()
        done = clock()
        for enqueued, future in pending:
            latencies.append(done - enqueued)
            answers.append(future.result())
    return latencies, answers


class ServeWorkload:
    """A trace served by a fresh façade and cache in every round."""

    def __init__(self, name: str, size: str, scratch: Path) -> None:
        self.name = name
        self.sizes = SIZES[size]
        self.scratch = scratch

    # -- inputs ----------------------------------------------------------
    def inputs(self, seed: int, round_index: int) -> dict:
        if self.name == "serve-hot":
            trace = serving.generate_trace(
                n_requests=self.sizes["hot_requests"],
                n_tenants=8,
                seed=round_seed(seed, round_index),
                deadline_ms=DEADLINE_MS,
                replan_fraction=0.0,
                what_if_fraction=0.10,
                budget_levels=2,
            )
        else:
            base = serving.generate_trace(
                n_requests=self.sizes["churn_requests"],
                n_tenants=8,
                seed=CHURN_SEED,
                deadline_ms=DEADLINE_MS,
                replan_fraction=0.01,
                what_if_fraction=0.10,
                budget_levels=2,
            )
            trace = relabel_trace(base, round_seed(seed, round_index))
        return {"trace": trace, "windows": _windows(trace)}

    def setup(self, seed: int, first_round: int) -> dict:
        """Make the first round's inputs and warm up; ``setup_s`` times this."""
        first = self.inputs(seed, first_round)
        self._warm_up()
        return first

    def _warm_up(self) -> None:
        """Serve a plan (and on serve-churn a replan) for a tenant outside
        the workload, so one-off first-call costs land in set-up."""
        warm = serving.generate_trace(
            n_requests=1,
            n_tenants=1,
            seed=10_000 + BASE_SEED,
            components_per_tenant=1,
            queries_per_component=4,
        )
        (name, instance), = warm.tenants.items()
        delta = random_delta(instance, random.Random(0), fraction=0.05)
        requests = [PlanRequest(name, deadline_ms=DEADLINE_MS)]
        if self.name == "serve-churn":
            requests.append(ReplanRequest(name, delta, deadline_ms=DEADLINE_MS))
        with tempfile.TemporaryDirectory(dir=self.scratch) as directory:
            facade = ServingFacade(ServingConfig(cache=ResultCache(directory=Path(directory))))
            facade.register_tenant(name, instance)

            async def serve():
                futures = [facade.enqueue(request) for request in requests]
                await facade.tick()
                return [future.result() for future in futures]

            for response in asyncio.run(serve()):
                if not response.ok:
                    raise RuntimeError(f"warm-up request failed: {response.error}")

    # -- one round -------------------------------------------------------
    def run_round(self, inputs: dict, tracer=None) -> Round:
        trace = inputs["trace"]
        with tempfile.TemporaryDirectory(dir=self.scratch) as directory:
            wall = time.perf_counter()
            started = clock()
            facade = ServingFacade(
                ServingConfig(cache=ResultCache(directory=Path(directory), max_entries=8192))
            )
            for name in sorted(trace.tenants):
                facade.register_tenant(name, trace.tenants[name])
            latencies, answers = asyncio.run(
                _closed_loop(facade, inputs["windows"], tracer)
            )
            seconds = clock() - started
            wall = time.perf_counter() - wall
        counters = facade.counters.snapshot()
        counters["arms"] = dict(
            sorted(Counter(a.telemetry.get("arm") for a in answers if a.ok).items())
        )
        return Round(
            seconds=seconds,
            latencies=latencies,
            answers=answers,
            kinds=[a.kind for a in answers],
            counters=counters,
            wall_seconds=wall,
            queue_waits=[a.telemetry.get("queue_wait_s", 0.0) for a in answers],
        )

    # -- answer checks ---------------------------------------------------
    def check(self, inputs: dict, round_: Round, report: "CheckReport", first: bool) -> None:
        """Check one round; replans meet a cold solve in a process's first
        round (later rounds serve the same replans relabelled, and a cold
        solve of each would double the run's length)."""
        if not first:
            ServeChecker(inputs["trace"], None, report)(round_)
            return
        with tempfile.TemporaryDirectory(dir=self.scratch) as directory:
            cold_cache = ResultCache(directory=Path(directory))
            ServeChecker(inputs["trace"], cold_cache, report)(round_)


class ServeChecker:
    """Checks answers against instances rebuilt from the trace alone.

    Each request's effective instance is the tenant's workload with
    every earlier replan applied, plus the request's budget or
    hypothetical delta.  Every answer must pass ``verify_solution`` on
    it with the budget enforced, answers to the same effective instance
    must carry the same slate, and, given ``cold_cache``, each replan's
    utility must equal a cold solve of the mutated workload by a fresh
    ``IncrementalSolver``.  The cold solves share that result cache,
    which only they write, so a shard that an earlier cold solve already
    solved is not solved twice.
    """

    def __init__(self, trace: ServingTrace, cold_cache: Optional[ResultCache], report) -> None:
        self.report = report
        self.cold_cache = cold_cache
        self.keys: Dict[int, tuple] = {}
        self.effective: Dict[tuple, BCCInstance] = {}
        self.mutated: Dict[tuple, BCCInstance] = {}
        self.slates: Dict[tuple, frozenset] = {}
        self.verified = set()
        tenants = {name: inst.clone() for name, inst in trace.tenants.items()}
        versions: Counter = Counter()
        for item in sorted(trace.items, key=lambda item: item.seq):
            request = item.request
            tenant = request.tenant
            if isinstance(request, ReplanRequest):
                tenants[tenant].apply_delta(request.delta)
                versions[tenant] += 1
                key = ("replan", item.seq)
                self.mutated[key] = tenants[tenant].clone()
                self.effective[key] = self.mutated[key]
            else:
                delta = getattr(request, "delta", None)
                budget = getattr(request, "budget", None)
                key = (
                    tenant,
                    versions[tenant],
                    budget,
                    None if delta is None else json.dumps(delta.to_json(), sort_keys=True),
                )
                if key not in self.effective:
                    instance = tenants[tenant].clone()
                    if delta is not None:
                        instance.apply_delta(delta)
                    self.effective[key] = (
                        instance.with_budget(budget) if budget is not None else instance
                    )
            self.keys[item.seq] = key

    def __call__(self, round_: Round) -> None:
        report = self.report
        for answer in round_.answers:
            report.checked += 1
            if not answer.ok:
                report.fail(f"request {answer.request_id} errored: {answer.error}")
                continue
            key = self.keys[answer.request_id]
            slate = frozenset(answer.solution.classifiers)
            if self.slates.setdefault(key, slate) != slate:
                report.fail(f"request {answer.request_id}: slate differs from an earlier answer")
                continue
            if (key, slate) in self.verified:
                continue
            instance = self.effective[key]
            try:
                verify_solution(instance, answer.solution, budget=instance.budget)
            except Exception as exc:  # any certificate error fails the answer
                report.fail(f"request {answer.request_id}: {type(exc).__name__}: {exc}")
                continue
            if key in self.mutated and self.cold_cache is not None:
                cold = IncrementalSolver(
                    self.mutated[key].clone(),
                    IncrementalConfig(certify=True, cache=self.cold_cache),
                ).solve()
                if abs(cold.utility - answer.solution.utility) > 1e-9 * max(1.0, cold.utility):
                    report.fail(
                        f"replan {answer.request_id}: utility {answer.solution.utility} "
                        f"!= cold solve {cold.utility}"
                    )
                    continue
            self.verified.add((key, slate))


# ----------------------------------------------------------------------
# paper sweep
# ----------------------------------------------------------------------
class PaperSweep:
    """A^BCC at 5/15/30/60% of the full-cover cost on BB, P and S."""

    name = "paper-sweep"
    generators = (
        ("BB", "generate_bestbuy"),
        ("P", "generate_private"),
        ("S", "generate_synthetic"),
    )

    def __init__(self, size: str, scratch: Path) -> None:
        self.scale = SIZES[size]["paper_scale"]

    def inputs(self, seed: int, round_index: int) -> List[Tuple[str, BCCInstance]]:
        cells = []
        relabel = round_seed(seed, round_index)
        for label, generator in self.generators:
            queries, properties = self.scale[label]
            generated = getattr(datasets, generator)(queries, properties, seed=BASE_SEED)
            base = relabel_instance(generated, relabel)
            full = full_cover_cost(base)
            for fraction in FRACTIONS:
                cells.append((f"{label}@{fraction:g}", base.with_budget(full * fraction)))
        return cells

    def setup(self, seed: int, first_round: int) -> List[Tuple[str, BCCInstance]]:
        """Make the first round's inputs and warm up; ``setup_s`` times this."""
        first = self.inputs(seed, first_round)
        warm = datasets.generate_bestbuy(20, 30, seed=10_000 + BASE_SEED)
        bcc.solve_bcc(warm.with_budget(0.3 * full_cover_cost(warm)))
        return first

    def run_round(self, cells, tracer=None) -> Round:
        latencies, answers = [], []
        wall = time.perf_counter()
        started = clock()
        for number, (_, instance) in enumerate(cells):
            if tracer is not None:
                tracer.op_id = number
            begin = clock()
            answers.append(bcc.solve_bcc(instance))
            latencies.append(clock() - begin)
        return Round(
            seconds=clock() - started,
            latencies=latencies,
            answers=answers,
            kinds=["abcc"] * len(answers),
            wall_seconds=time.perf_counter() - wall,
        )

    def check(self, cells, round_: Round, report: CheckReport, first: bool) -> None:
        """Every A^BCC answer passes ``verify_solution`` at its budget and
        covers no more than the instance's total utility."""
        for (label, instance), solution in zip(cells, round_.answers):
            report.checked += 1
            try:
                verify_solution(instance, solution, budget=instance.budget)
            except Exception as exc:
                report.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if solution.utility > instance.total_utility() + 1e-9:
                report.fail(f"{label}: utility {solution.utility} exceeds the total")


WORKLOADS = ("serve-hot", "serve-churn", "paper-sweep")


def make_workload(name: str, size: str, scratch: Path):
    if name == "paper-sweep":
        return PaperSweep(size, scratch)
    if name in ("serve-hot", "serve-churn"):
        return ServeWorkload(name, size, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
