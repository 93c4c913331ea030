"""Wall-clock benchmark of the estimator and the router.

Runs one workload (``estimate``, ``deliver``, ``resubscribe`` or
``churn``; see ``meta.json`` for what each serves and checks) over
inputs generated from ``--seed``, checks every served result against its
oracle, prints each metric as ``name value unit`` and ends with one JSON
line::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"setup_s": {"value": 3.21, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run (methods of ``repro.synopsis``,
``repro.core`` and ``repro.routing`` wrapped at class level) and writes
its spans to ``.bench_trace/`` at the repository root.  The exit code is
0 only when every checked operation passed.

Usage, from the repository root::

    python3 benchmarks/ledger/run.py --workload deliver --seed 1 --seconds 15 --trace 0
    python3 benchmarks/ledger/run.py --workload all --seed 1

``--workload all`` runs each workload listed in ``BENCHMARK.json`` in
its own process, one after the other.  ``churn`` is not listed there:
the program fails its table oracle (see ``meta.json``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric units by kind (``end_to_end`` / ``per_layer``), in declared order.
UNITS = {
    kind: {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
    for kind in ("end_to_end", "per_layer")
}
#: Per end-to-end metric, its name in each workload's own terms.
ALIASES = {
    name: spec["alias"]
    for name, spec in json.loads((HERE / "meta.json").read_text())["end_to_end"].items()
}
TRACE_DIR = ROOT / ".bench_trace"


def _end_to_end(outcome: Any, mem_peak_mb: float) -> dict[str, float]:
    from workloads import percentile

    return {
        "setup_s": statistics.median(outcome.setup_s),
        "mem_peak_mb": mem_peak_mb,
        "op_p50_ms": percentile(outcome.op_latencies(), 50.0),
        "op_p90_ms": percentile(outcome.op_latencies(), 90.0),
        "throughput_per_s": outcome.throughput(),
    }


def measure(
    workload: str, sizes: Any, seed: int, seconds: float, trace: bool
) -> tuple[dict, Any]:
    """Run *workload* once; returns the result object and the tracer.

    Untraced, the metrics are the end-to-end ones.  Traced, the workload
    first runs untraced (for the overhead figure), then again with every
    layer method wrapped, and the metrics are the per-layer ones.
    """
    import layers
    import workloads
    from tracer import Tracer

    inputs = workloads.make_inputs(sizes, seed)
    run = workloads.WORKLOADS[workload]
    gc.collect()
    tracer = Tracer()
    if trace:
        untraced = run(inputs, seconds, Tracer())
        layers.install(tracer)
        try:
            outcome = run(inputs, seconds, tracer)
        finally:
            tracer.uninstall()
        per_pass = (
            outcome.serve_wall_s * statistics.median(outcome.scales) / len(outcome.op_ms)
        )
        untraced_per_pass = (
            untraced.serve_wall_s * statistics.median(untraced.scales) / len(untraced.op_ms)
        )
        extra = dict(outcome.quality)
        extra.update(
            {
                "trace.serve_wall_s": outcome.serve_wall_s,
                "trace.overhead_share": per_pass / untraced_per_pass - 1.0,
            }
        )
        values = layers.collect(tracer, outcome.synopsis, outcome.overlay, extra)
        outcome.attempted += untraced.attempted
        outcome.failed += untraced.failed
        units = UNITS["per_layer"]
    else:
        baseline = workloads.rss_mb("VmRSS")
        outcome = run(inputs, seconds, tracer)
        values = _end_to_end(outcome, outcome.peak_rss_mb - baseline)
        units = UNITS["end_to_end"]
    print(
        f"{workload}: {len(outcome.setup_s)} set-ups, "
        f"{outcome.serve_wall_s:.1f} s serving in {len(outcome.op_ms)} passes "
        f"of {len(outcome.op_ms[0])} timed ops",
        file=sys.stderr,
    )
    if outcome.attempted == 0:
        # A run that checked nothing proves nothing: one failed check.
        print("no operation was checked", file=sys.stderr)
        outcome.attempted = outcome.failed = 1
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, tracer


def _run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    result, tracer = measure(
        workload, workloads.SIZES[workload], seed, seconds, trace
    )
    if trace:
        tracer.write(TRACE_DIR / f"{workload}-seed{seed}.jsonl")
    for name, metric in result["metrics"].items():
        alias = ALIASES.get(name, {}).get(workload, name)
        print(f"{workload} {alias} {metric['value']:.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload} failed_share {share:.6g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and run the requested workload(s)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in [*workloads.WORKLOADS, "all"]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload != "all":
        return _run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for workload in (entry["name"] for entry in BENCHMARK["workloads"]):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        code = max(code, completed.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
