"""Per-layer metrics and time accounting of a traced run.

:func:`per_layer_metrics` turns the spans of the traced leg into the
``per_layer`` metrics of ``BENCHMARK.json``, prints the self time of
every layer against the leg's wall time (the difference is the
benchmark's own loop: enqueueing, asyncio, temporary cache directories)
and prints the summed ``REPRO_PROFILE=1`` phase table of the A^BCC
solves, as output only.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import LAYER_OF


def _ms(seconds: float) -> float:
    return seconds * 1e3


def per_layer_metrics(tracer, since, rounds, base_ops_per_s, span_path) -> dict:
    summary = tracer.summary(since)
    wall = sum(r.seconds for r in rounds)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total_ms(*names):
        return _ms(sum(summary.get(name, {}).get("total_s", 0.0) for name in names))

    def results(name):
        return tracer.results.get(name, [])

    # --- serving ----------------------------------------------------------
    requests = sum(r.counters.get("requests", 0) for r in rounds)
    ticks = calls("serving.tick")
    waits = [w for r in rounds for w in r.queue_waits]
    latencies = [x for r in rounds for x in r.latencies]
    serving_p99 = (
        sorted(latencies)[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        if ticks and len(latencies) >= 1000
        else 0.0
    )

    # --- cache ------------------------------------------------------------
    gets = results("cache.get")
    hits = sum(1 for _, result in gets if result is not None)

    # --- slo --------------------------------------------------------------
    arms_run = arms_skipped = improved = 0
    for _, solution in results("slo.solve"):
        slo = solution.meta.get("slo", {})
        tried = slo.get("arms_tried", [])
        arms_run += len(tried)
        arms_skipped += len(slo.get("arms_skipped", []))
        improved += sum(1 for entry in tried if entry.get("improved"))

    # --- incremental ------------------------------------------------------
    replans = results("incremental.replan")
    shard_solves = reused = shards = 0
    for _, solution in replans:
        meta = solution.meta.get("incremental", {})
        shard_solves += meta.get("solved_tasks", 0)
        reused += meta.get("reused_profiles", 0)
        shards += meta.get("shards", 0)
    replan_spans = [
        s[2] - s[1] for s in tracer.spans[since:] if s[0] == "incremental.replan"
    ]

    # --- pool -------------------------------------------------------------
    pool_tasks = sum(len(args[0]) for args, _ in results("pool.run_tasks"))

    # --- per-solve phase table (REPRO_PROFILE=1), output only -------------
    phases = defaultdict(float)
    for _, solution in results("bcc.solve"):
        for name, row in solution.meta.get("profile", {}).get("phases", {}).items():
            phases[name] += row["seconds"]

    traced_ops = len(latencies) / wall
    covered = tracer.root_seconds(since)
    by_layer = defaultdict(float)
    for name, row in summary.items():
        by_layer[LAYER_OF.get(name, name)] += row["self_s"]

    print(f"spans written to {span_path} ({len(tracer.spans)} spans)")
    print(f"traced leg, summed round time: {wall:.3f} s")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<22} {seconds:9.3f} s  {seconds / wall:6.1%}")
    print(
        f"  remainder (benchmark loop, outside every span) "
        f"{wall - covered:9.3f} s  {(wall - covered) / wall:6.1%}"
    )
    print(
        f"tracing overhead: traced {traced_ops:.2f} ops/s against untraced "
        f"{base_ops_per_s:.2f} ops/s (base), ratio {traced_ops / base_ops_per_s:.3f}"
    )
    if phases:
        print("solve_bcc phase table (REPRO_PROFILE=1, inclusive seconds):")
        for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16} {seconds:9.3f} s")

    values = {
        "serving.ticks": (ticks, "count"),
        "serving.tick_ms": (total_ms("serving.tick"), "ms"),
        "serving.batch_size": (requests / ticks if ticks else 0.0, "count"),
        "serving.coalesced": (sum(r.counters.get("coalesced", 0) for r in rounds), "count"),
        "serving.queue_wait_ms": (_ms(statistics.mean(waits)) if waits else 0.0, "ms"),
        "serving.latency_p99_ms": (_ms(serving_p99), "ms"),
        "fingerprint.calls": (calls("fingerprint"), "count"),
        "fingerprint.ms": (total_ms("fingerprint"), "ms"),
        "cache.get_calls": (calls("cache.get"), "count"),
        "cache.get_ms": (total_ms("cache.get"), "ms"),
        "cache.put_calls": (calls("cache.put"), "count"),
        "cache.put_ms": (total_ms("cache.put"), "ms"),
        "cache.hit_ratio": (hits / len(gets) if gets else 0.0, "ratio"),
        "verify.calls": (calls("verify"), "count"),
        "verify.ms": (total_ms("verify"), "ms"),
        "slo.solves": (calls("slo.solve"), "count"),
        "slo.solve_ms": (total_ms("slo.solve"), "ms"),
        "slo.arms_run": (arms_run, "count"),
        "slo.arms_skipped": (arms_skipped, "count"),
        "slo.improve_ratio": (improved / arms_run if arms_run else 0.0, "ratio"),
        "slo.arm_ms": (total_ms("slo.arm"), "ms"),
        "incremental.replans": (len(replans), "count"),
        "incremental.replan_ms": (total_ms("incremental.replan"), "ms"),
        "incremental.replan_p50_ms": (
            _ms(statistics.median(replan_spans)) if replan_spans else 0.0, "ms"
        ),
        "incremental.shard_solves": (shard_solves, "count"),
        "incremental.profile_reuse": (reused / shards if shards else 0.0, "ratio"),
        "decompose.grid_ms": (total_ms("decompose.grid"), "ms"),
        "pool.batches": (calls("pool.run_tasks"), "count"),
        "pool.tasks": (pool_tasks, "count"),
        "pool.ms": (total_ms("pool.run_tasks"), "ms"),
        "bcc.solves": (calls("bcc.solve"), "count"),
        "bcc.ms": (total_ms("bcc.solve"), "ms"),
        "bcc.prune_ms": (total_ms("bcc.prune"), "ms"),
        "knapsack.ms": (total_ms("knapsack"), "ms"),
        "mc3.ms": (total_ms("mc3"), "ms"),
        "qk.calls": (calls("qk"), "count"),
        "qk.ms": (total_ms("qk"), "ms"),
        "dks.portfolio_calls": (calls("dks.portfolio"), "count"),
        "dks.portfolio_ms": (total_ms("dks.portfolio"), "ms"),
        "dks.lovasz_ms": (total_ms("dks.lovasz"), "ms"),
        "dks.peeling_ms": (total_ms("dks.peeling"), "ms"),
        "dks.spectral_ms": (total_ms("dks.spectral"), "ms"),
        "dks.expansion_ms": (total_ms("dks.expansion"), "ms"),
        "dks.swaps_ms": (total_ms("dks.swaps"), "ms"),
        "dks.projection_calls": (calls("dks.projection"), "count"),
        "dks.projection_ms": (total_ms("dks.projection"), "ms"),
        "core.probe_calls": (calls("core.probe"), "count"),
        "core.probe_ms": (total_ms("core.probe"), "ms"),
        "datasets.generate_ms": (
            _ms(sum(s[2] - s[1] for s in tracer.spans[:since]
                    if s[3] < 0 and s[0] == "datasets.generate")), "ms"
        ),
        "trace.overhead_ratio": (traced_ops / base_ops_per_s, "ratio"),
        "trace.remainder_share": ((wall - covered) / wall, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
