"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed (sequentially, each in its own process)
and prints, per metric, the median of the values and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of that median, next to the metric's bound in
``BENCHMARK.json``.  A benchmark is steady when every share stays well
below its bound.

Usage, from the repository root::

    python3 benchmarks/ledger/spread.py --workload deliver --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv: list[str] | None = None) -> int:
    """Run the seeds and print the spread table; 1 if any run failed."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    values: dict[str, list[float]] = {}
    code = 0
    for seed in args.seeds:
        completed = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}", file=sys.stderr)
            print(completed.stderr, file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    for name, samples in values.items():
        median = statistics.median(samples)
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            share = (q3 - q1) / median if median else float("inf")
        else:
            share = 0.0
        bound = bounds.get(name, float("nan"))
        print(
            f"{args.workload:9s} {name:18s} median {median:10.4g} "
            f"spread {share:6.3f} bound {bound:.2f} third {bound / 3:.3f}"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
