"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics.  The run is split into
``LEGS`` worker processes that run one after another, never together,
each with a third of ``--seconds``: every worker imports the package,
sets up, runs whole rounds and checks every answer, and the parent pools
their operations.  One process alone is not a steady sample: the same
rounds cost up to 15% more CPU time in one process than in another
(hash seed, memory layout), and pooling three processes averages that
out.  Each worker's set-up CPU time is one ``setup_s`` sample.

``--trace 1`` runs in this one process: the same rounds untraced (the
overhead base), then again with every layer's public entry points
wrapped (``tracing.py``), and reports the per-layer metrics; the spans
are written under ``.perfbench-out/``.

Round ``r`` serves inputs derived from the seed and ``r`` on fresh
program state (see ``workloads.py``).  Every answer is checked after its
round; an answer that fails a check counts as a failed operation.

The package is imported from ``src/`` next to this directory; without
it the command exits with a non-zero code and prints no result.
"""

import argparse
import contextlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Worker processes per untraced run (sequential, one solver worker each).
LEGS = 3
#: Round indexes of worker ``i`` start at ``i * LEG_STRIDE``.
LEG_STRIDE = 1000
LEG_PREFIX = "LEG "


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--leg", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and prove it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _ok(answer) -> bool:
    return getattr(answer, "ok", True)


def _solution(answer):
    """A serving response's solution, or a bare A^BCC solution."""
    return getattr(answer, "solution", answer)


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def run_rounds(workload, seed, first_round, first, seconds, checker, tracer=None):
    """Whole rounds until ``seconds`` of round CPU time have passed.

    The first round serves ``first`` (made during set-up); later rounds
    make their inputs between rounds.  Each round's answers are checked
    after the round, outside its timed span, then dropped, so a process
    holds one round of answers at a time.  Input making and checks run
    with the tracer paused.
    """
    rounds = []
    untimed = tracer.paused if tracer is not None else contextlib.nullcontext
    while not rounds or sum(r.seconds for r in rounds) < seconds:
        index = first_round + len(rounds)
        with untimed():
            inputs = first if not rounds else workload.inputs(seed, index)
        round_ = workload.run_round(inputs, tracer)
        with untimed():
            checker.check(index, round_, first=not rounds)
        round_.answers = [_solution(a).utility for a in round_.answers if _ok(a)]
        rounds.append(round_)
    return rounds


def _serve_checks(conn, workload, seed) -> None:
    from workloads import CheckReport, Round

    while (job := conn.recv()) is not None:
        index, first, count = job
        answers = []
        while len(answers) < count:
            answers.extend(conn.recv())
        report = CheckReport()
        round_ = Round(seconds=0.0, latencies=[], answers=answers, kinds=[])
        workload.check(workload.inputs(seed, index), round_, report, first)
        conn.send(report)


class Checker:
    """Checks each round's answers in one child process.

    The checks rebuild instances and run cold solves; in a child their
    memory stays out of the worker's peak RSS (``peak_rss_mb``).  The
    child is forked once, before set-up, while the process is small, so
    the timed rounds pay no copy-on-write faults for it; it remakes each
    round's inputs from the seed and the round index.  Answers go over in
    small batches, so no large pickle buffer swells this process.
    """

    BATCH = 100

    def __init__(self, workload, seed: int) -> None:
        from workloads import CheckReport

        self.report = CheckReport()
        context = multiprocessing.get_context("fork")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_serve_checks, args=(child_conn, workload, seed), daemon=True
        )
        self.process.start()
        child_conn.close()

    def check(self, index: int, round_, first: bool) -> None:
        answers = round_.answers
        self.conn.send((index, first, len(answers)))
        for start in range(0, len(answers), self.BATCH):
            self.conn.send(answers[start:start + self.BATCH])
        try:
            self.report.merge(self.conn.recv())
        except EOFError:
            raise SystemExit("perfbench: the answer checker died") from None

    def close(self) -> None:
        self.conn.send(None)
        self.conn.close()
        self.process.join()


def leg_main(args, workload) -> int:
    """One worker process: set up, run rounds, check, print one LEG line."""
    first_round = args.leg * LEG_STRIDE
    checker = Checker(workload, args.seed)
    first = workload.setup(args.seed, first_round)
    setup_cpu = time.process_time()
    rounds = run_rounds(workload, args.seed, first_round, first, args.seconds, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.close()
    report = checker.report
    leg = {
        "setup_s": setup_cpu,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": sum(r.seconds for r in rounds),
        "wall_s": sum(r.wall_seconds for r in rounds),
        "rounds": len(rounds),
        "latencies": [x for r in rounds for x in r.latencies],
        "replan_latencies": [
            x for r in rounds for x, kind in zip(r.latencies, r.kinds) if kind == "replan"
        ],
        "round_utilities": [sum(r.answers) for r in rounds],
        "counters": rounds[0].counters,
        "checked": report.checked,
        "failed": report.failed,
        "problems": report.problems,
    }
    print(LEG_PREFIX + json.dumps(leg), flush=True)
    return 0


def run_leg(args, index: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds / LEGS),
        "--size", args.size, "--leg", str(index),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith(LEG_PREFIX)]
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker {index} failed (exit {done.returncode})")
    return json.loads(lines[-1][len(LEG_PREFIX):])


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def print_work(name, legs) -> None:
    latencies = [x for leg in legs for x in leg["latencies"]]
    for index, leg in enumerate(legs):
        print(
            f"worker {index}: set-up {leg['setup_s']:.3f} s CPU, {leg['rounds']} round(s), "
            f"{len(leg['latencies'])} operations in {leg['cpu_s']:.3f} s CPU "
            f"({leg['wall_s']:.3f} s wall), peak RSS {leg['peak_rss_mb']:.1f} MB"
        )
    if legs[0]["counters"]:
        print(f"work counters of round 0: {json.dumps(legs[0]['counters'], sort_keys=True)}")
    if len(latencies) >= 1000:
        print(
            f"latency p99: {percentile(latencies, 0.99) * 1e3:.3f} ms "
            f"over {len(latencies)} samples"
        )
    replans = [x for leg in legs for x in leg["replan_latencies"]]
    if replans:
        print(
            f"replan latency p50: {statistics.median(replans) * 1e3:.3f} ms "
            f"over {len(replans)} replans"
        )
    for leg in legs:
        for problem in leg["problems"]:
            print(f"check failed: {problem}")
    checked = sum(leg["checked"] for leg in legs)
    print(f"{name}: answers checked {checked} of {len(latencies)}, "
          f"failed {sum(leg['failed'] for leg in legs)}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(legs) -> dict:
    latencies = [x for leg in legs for x in leg["latencies"]]
    return {
        "ops_per_s": metric(len(latencies) / sum(leg["cpu_s"] for leg in legs), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "covered_utility": metric(
            statistics.mean(u for leg in legs for u in leg["round_utilities"]), "utility"
        ),
        "setup_s": metric(statistics.median(leg["setup_s"] for leg in legs), "s"),
        "peak_rss_mb": metric(statistics.median(leg["peak_rss_mb"] for leg in legs), "MB"),
    }


def traced_run(args, workload) -> dict:
    """Untraced base rounds, then traced rounds, in this process."""
    from layers import per_layer_metrics
    from tracing import Tracer

    checker = Checker(workload, args.seed)
    first = workload.setup(args.seed, 0)
    base = run_rounds(workload, args.seed, 0, first, args.seconds, checker)
    base_ops_per_s = sum(len(r.latencies) for r in base) / sum(r.seconds for r in base)
    os.environ["REPRO_PROFILE"] = "1"
    tracer = Tracer()
    tracer.install(keep_results=("cache.get", "slo.solve", "incremental.replan",
                                 "pool.run_tasks", "bcc.solve"))
    try:
        first = workload.inputs(args.seed, 0)
        generate_end = len(tracer.spans)
        rounds = run_rounds(workload, args.seed, 0, first, args.seconds, checker, tracer)
    finally:
        tracer.uninstall()
        os.environ.pop("REPRO_PROFILE", None)
    checker.close()
    report = checker.report
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(span_path)
    metrics = per_layer_metrics(tracer, generate_end, rounds, base_ops_per_s, span_path)
    attempted = sum(len(r.latencies) for r in base + rounds)
    for problem in report.problems:
        print(f"check failed: {problem}")
    print(f"answers checked {report.checked} of {attempted}, failed {report.failed}")
    return {
        "correct": report.checked == attempted,
        "attempted": attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import make_workload

    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.size, OUT)
    if args.leg is not None:
        return leg_main(args, workload)
    if args.trace:
        result = traced_run(args, workload)
    else:
        legs = [run_leg(args, index) for index in range(LEGS)]
        print_work(args.workload, legs)
        attempted = sum(len(leg["latencies"]) for leg in legs)
        result = {
            "correct": sum(leg["checked"] for leg in legs) == attempted,
            "attempted": attempted,
            "failed": sum(leg["failed"] for leg in legs),
            "metrics": end_to_end(legs),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
