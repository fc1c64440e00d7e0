"""Smoke run of the benchmark harness at a tiny size.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload (``paper-sweep`` too, which ``BENCHMARK.json`` does
not list) once untraced and once traced at ``--size smoke`` for a
fraction of a second, and fails unless each run exits 0, checks every
answer with none failed and prints exactly the metrics
``BENCHMARK.json`` names.  It keeps the
harness from rotting silently; it measures nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--size", "smoke",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, "
                                f"{result['failed']} failed, correct={result['correct']}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ expected[trace])} "
                                "differ from BENCHMARK.json")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"{label}: ok, {result['attempted']} operations checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
