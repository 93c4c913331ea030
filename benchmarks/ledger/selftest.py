"""Self-tests of the benchmark: tracer arithmetic, metric names, and a
miniature of every workload in ``BENCHMARK.json`` that must pass all its
oracles.

Run from the repository root, either directly or under pytest::

    python3 benchmarks/ledger/selftest.py
    PYTHONPATH=src python -m pytest benchmarks/ledger/selftest.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run
from tracer import Tracer, layer_metrics, span_self_times

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

MINI_SECONDS = 0.05


class _Layered:
    """Three nested layers with some work of their own."""

    def outer(self) -> int:
        return sum(range(2000)) + self.middle() + self.middle()

    def middle(self) -> int:
        return sum(range(1000)) + self.inner()

    def inner(self) -> int:
        return sum(range(500))


def _check_self_times(tracer: Tracer) -> None:
    self_times = span_self_times(tracer)
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(tracer.parents):
        children.setdefault(parent, []).append(index)
    for index, value in enumerate(self_times):
        assert value >= -1e-9, (tracer.names[index], value)

    def subtree_self(index: int) -> float:
        return self_times[index] + sum(
            subtree_self(child) for child in children.get(index, [])
        )

    for root in children.get(-1, []):
        duration = tracer.ends[root] - tracer.starts[root]
        assert math.isclose(subtree_self(root), duration, rel_tol=1e-9, abs_tol=1e-12)


def test_tracer_self_times_sum_to_roots() -> None:
    tracer = Tracer()
    for method in ("outer", "middle", "inner"):
        tracer.wrap(_Layered, method, f"layered.{method}")
    try:
        for op in range(5):
            tracer.op_id = op
            tracer.timed("serve.op", _Layered().outer)
        with tracer.paused():
            _Layered().outer()
    finally:
        tracer.uninstall()
    assert _Layered.outer.__name__ == "outer" and not hasattr(_Layered.outer, "__wrapped__")
    assert len(tracer) == 5 * (1 + 1 + 2 + 2)
    _check_self_times(tracer)
    metrics = layer_metrics(tracer)
    assert metrics["layered.middle.calls"] == 10
    assert metrics["serve.op.busy_s"] >= metrics["layered.outer.busy_s"]
    total_self = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert math.isclose(total_self, metrics["serve.op.busy_s"], rel_tol=1e-9)


def test_metric_names_match_benchmark_json() -> None:
    import workloads

    meta = json.loads((run.HERE / "meta.json").read_text())
    assert set(meta["end_to_end"]) == set(run.UNITS["end_to_end"])
    grouped = [name for group in meta["per_layer"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(run.UNITS["per_layer"])
    listed = [workload["name"] for workload in run.BENCHMARK["workloads"]]
    assert set(listed) <= set(workloads.WORKLOADS) == set(meta["workloads"])
    assert set(workloads.WORKLOADS) == set(workloads.SIZES) == set(workloads.MINI_SIZES)


def _mini(workload: str, trace: bool) -> tuple[dict, dict]:
    """A miniature run of *workload*: its result and every value its
    layers produced (before unlisted names are dropped)."""
    import layers
    import workloads

    collected: dict = {}
    collect = layers.collect

    def keep(*args: object) -> dict:
        collected.update(collect(*args))
        return collected

    layers.collect = keep
    try:
        result, tracer = run.measure(
            workload, workloads.MINI_SIZES[workload], 3, MINI_SECONDS, trace
        )
    finally:
        layers.collect = collect
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == list(run.UNITS[kind]), workload
    assert all(
        metric["unit"] == run.UNITS[kind][name]
        for name, metric in result["metrics"].items()
    )
    if trace:
        assert len(tracer) > 0
        _check_self_times(tracer)
    return result, collected


def test_miniature_workloads_pass_their_oracles() -> None:
    for workload in (entry["name"] for entry in run.BENCHMARK["workloads"]):
        result, _ = _mini(workload, trace=False)
        assert result["failed"] == 0 and result["correct"], (workload, result)
        assert result["attempted"] > 0
        for name, metric in result["metrics"].items():
            # A miniature in a warm process may fit in memory it freed.
            if name != "mem_peak_mb":
                assert metric["value"] > 0, (workload, name)


def test_miniature_traced_runs_report_layers() -> None:
    produced: set = set()
    values = {}
    for workload in (entry["name"] for entry in run.BENCHMARK["workloads"]):
        result, collected = _mini(workload, trace=True)
        assert result["failed"] == 0 and result["correct"], (workload, result)
        produced.update(collected)
        values[workload] = {
            name: metric["value"] for name, metric in result["metrics"].items()
        }
    # Every declared per-layer metric is produced by some workload.
    assert set(run.UNITS["per_layer"]) <= produced, set(run.UNITS["per_layer"]) - produced
    assert values["estimate"]["selectivity.self_s"] > 0
    assert values["estimate"]["selectivity.cold_calls"] < values["estimate"]["selectivity.calls"]
    assert values["deliver"]["overlay.process_at.calls"] > 0
    assert values["deliver"]["engine.run.busy_s"] > 0
    assert values["deliver"]["policy.delivery_recall"] > 0
    assert values["deliver"]["engine.sim_latency_p99"] > 0
    assert values["resubscribe"]["overlay.process_batch_at.calls"] > 0
    assert values["resubscribe"]["overlay.subscribe.self_s"] > 0


def test_crashes_keep_every_pass_the_same_shape() -> None:
    import workloads

    outcome = workloads.Outcome()
    for crash in (False, True):
        outcome.op_ms.append([1.0])
        outcome.bulk.append([(5, 0.01)])
        outcome.scales.append(1.0)
        if crash:
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                with contextlib.redirect_stderr(io.StringIO()):
                    outcome.crashed("op", op=True)
                    outcome.crashed("bulk", op=False, items=5)
        else:
            outcome.op_ms[-1].append(2.0)
            outcome.bulk[-1].append((5, 0.02))
    assert outcome.failed == outcome.attempted == 2
    assert len(outcome.op_latencies()) == 2
    assert outcome.throughput() == 0.0  # a crashed section times as infinite


def test_cycles_count_their_checks() -> None:
    import workloads

    sizes = workloads.MINI_SIZES["resubscribe"]
    inputs = workloads.make_inputs(sizes, 3)
    for run_cycles in (workloads.run_resubscribe, workloads.run_churn):
        outcome = run_cycles(inputs, MINI_SECONDS, Tracer())
        passes = len(outcome.op_ms)
        documents = sizes.cycles * sizes.cycle_docs
        # Per pass the route oracle per document and the tables against
        # pass 0; after pass 0 the trie checks and both rebuild oracles.
        assert outcome.attempted == passes * (documents + 1) - 1 + sizes.brokers + 2
        if run_cycles is workloads.run_resubscribe:
            assert outcome.failed == 0


def main() -> int:
    """Run every ``test_*`` function; 1 on the first failure."""
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
