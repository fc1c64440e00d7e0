"""Steadiness check: run one workload N times and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload serve-hot --runs 10 --out a.json
    python3 perfbench/steady.py --workload serve-hot --runs 10 --first-seed 100 \\
        --compare a.json --out b.json
    python3 perfbench/steady.py --workload serve-hot --runs 3 --same-seed 7

Each run gets its own seed (``--first-seed`` onwards) unless
``--same-seed`` pins one; ``PYTHONHASHSEED`` is left unpinned, so
hash-seed dependence shows.  For every end-to-end metric the command
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread ``(Q3 - Q1) / median`` against the metric's bound from
``BENCHMARK.json``: ``steady`` under a third of the bound, ``within``
under the bound, ``WIDE`` otherwise.  Every run lasts
``run_seconds`` from ``BENCHMARK.json`` at full size, as the
benchmark's own runs do.  With
``--compare`` it also reports whether this set's median is worse than
the earlier set's by more than the bound, and whether the share of
failed operations is the same.  With ``--same-seed`` it checks that the
serving work counters repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTERS_PREFIX = "work counters of round 0: "


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["counters"] = next(
        (line[len(COUNTERS_PREFIX):] for line in lines if line.startswith(COUNTERS_PREFIX)),
        None,
    )
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None, help="save the runs as JSON")
    parser.add_argument("--compare", type=Path, default=None, help="an earlier --out file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for index in range(args.runs):
        seed = args.same_seed if args.same_seed is not None else args.first_seed + index
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        metrics = runs[-1]["metrics"]
        print(
            f"run {index + 1}/{args.runs} seed {seed}: "
            + ", ".join(f"{name} {m['value']:.4g}" for name, m in metrics.items()),
            flush=True,
        )
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    ok = True
    print(f"{'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        median, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
        verdict = "steady" if share < bound / 3 else "within" if share <= bound else "WIDE"
        if share > bound:
            ok = False
        line = f"{name:<16} {median:12.5g} {q1:12.5g} {q3:12.5g} {share:7.1%} {bound:6.2f}  {verdict}"
        if earlier is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            change = (median - before) / before
            worse = -change if entry["better"] == "higher" else change
            line += f"  vs earlier median {before:.5g}: {change:+.1%}"
            if worse > bound:
                line += " WORSE THAN BOUND"
                ok = False
        print(line)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; correct in every run: {all(r['correct'] for r in runs)}")
    if earlier is not None:
        same = shares == {r["failed"] / r["attempted"] for r in earlier}
        print(f"failed share equal to the earlier set: {same}")
        ok = ok and same
    if args.same_seed is not None and runs[0]["counters"] is not None:
        repeat = len({r["counters"] for r in runs}) == 1
        print(f"work counters identical across runs: {repeat}")
        ok = ok and repeat
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
