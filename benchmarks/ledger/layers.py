"""Which ``repro`` methods the traced run wraps, and the per-layer
metrics it reports.

:func:`install` wraps the public methods of ``repro.synopsis``,
``repro.core`` and ``repro.routing`` at class level through a
:class:`~tracer.Tracer`; :func:`collect` folds the recorded spans, the
counters the hooks gathered and the final state of one set-up (synopsis,
per-broker indexes and tables) into the metric names listed under
``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any, Optional

from tracer import Tracer, layer_metrics

from repro.core.candidates import ExactCandidates, LSHCandidates
from repro.core.selectivity import SelectivityEstimator
from repro.core.similarity import SimilarityEstimator, SimilarityIndex
from repro.routing.engine import DeliveryEngine
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy
from repro.routing.table import RoutingTable
from repro.synopsis.size import measure
from repro.synopsis.synopsis import DocumentSynopsis

__all__ = ["install", "collect"]


def _before_selectivity(tracer: Tracer, args: tuple, _result: Any) -> None:
    estimator, pattern = args[0], args[1]
    seen = tracer.seen.setdefault(estimator, set())
    if pattern not in seen:
        seen.add(pattern)
        tracer.counters["selectivity.cold_calls"] += 1


def _before_clear_cache(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.seen.pop(args[0], None)


def _after_destinations_for(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.counters["table.destinations_for.ops"] += result[1]


def _after_destinations_for_batch(
    tracer: Tracer, _args: tuple, result: Any
) -> None:
    tracer.counters["table.destinations_for_batch.ops"] += result.total_operations
    tracer.counters["batch.memo_hits"] += result.memo_hits
    tracer.counters["batch.memo_misses"] += result.memo_misses


def _after_is_candidate(tracer: Tracer, _args: tuple, result: Any) -> None:
    if result:
        tracer.counters["candidates.is_candidate.true"] += 1


def _after_engine_run(tracer: Tracer, _args: tuple, stats: Any) -> None:
    counters = tracer.counters
    counters["engine.serviced_documents"] += stats.serviced_documents
    counters["engine.service_batches"] += stats.service_batches
    counters["engine.forwards"] += stats.forwards
    counters["engine.match_operations"] += stats.match_operations
    counters["engine.queue_delay_sum"] += (
        stats.queue_delay_mean * stats.serviced_documents
    )
    counters["engine.peak_queue_depth"] = max(
        counters["engine.peak_queue_depth"], stats.peak_queue_depth
    )


#: (class, method, span name, before hook, after hook)
WRAPPED = (
    (DocumentSynopsis, "insert_document", "synopsis.insert", None, None),
    (SelectivityEstimator, "selectivity", "selectivity", _before_selectivity, None),
    (SelectivityEstimator, "joint_selectivity", "selectivity.joint", None, None),
    (
        SelectivityEstimator,
        "clear_cache",
        "selectivity.clear_cache",
        _before_clear_cache,
        None,
    ),
    (SimilarityEstimator, "similarity", "similarity.query", None, None),
    (SimilarityIndex, "add", "similarity.index.add", None, None),
    (SimilarityIndex, "remove", "similarity.index.remove", None, None),
    (LSHCandidates, "add", "candidates.add", None, None),
    (ExactCandidates, "add", "candidates.add", None, None),
    (LSHCandidates, "candidates_of", "candidates.candidates_of", None, None),
    (ExactCandidates, "candidates_of", "candidates.candidates_of", None, None),
    (
        LSHCandidates,
        "is_candidate",
        "candidates.is_candidate",
        None,
        _after_is_candidate,
    ),
    (
        ExactCandidates,
        "is_candidate",
        "candidates.is_candidate",
        None,
        _after_is_candidate,
    ),
    (CommunityPolicy, "aggregate", "policy.aggregate", None, None),
    (BrokerOverlay, "advertise", "overlay.advertise", None, None),
    (BrokerOverlay, "subscribe", "overlay.subscribe", None, None),
    (BrokerOverlay, "unsubscribe", "overlay.unsubscribe", None, None),
    (BrokerOverlay, "route", "overlay.route", None, None),
    (BrokerOverlay, "process_at", "overlay.process_at", None, None),
    (BrokerOverlay, "process_batch_at", "overlay.process_batch_at", None, None),
    (
        RoutingTable,
        "destinations_for",
        "table.destinations_for",
        None,
        _after_destinations_for,
    ),
    (
        RoutingTable,
        "destinations_for_batch",
        "table.destinations_for_batch",
        None,
        _after_destinations_for_batch,
    ),
    (DeliveryEngine, "run", "engine.run", None, _after_engine_run),
)


def install(tracer: Tracer) -> None:
    """Wrap every method in :data:`WRAPPED`."""
    for cls, method, name, before, after in WRAPPED:
        tracer.wrap(cls, method, name, before=before, after=after)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def collect(
    tracer: Tracer,
    synopsis: DocumentSynopsis,
    overlay: Optional[BrokerOverlay],
    extra: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Span metrics cover the whole run (every set-up and serving pass);
    state metrics describe *synopsis* and *overlay* as the last set-up
    left them (``overlay`` is None for workloads without routing).
    *extra* carries the workload's own deterministic and wall-clock
    figures (quality pins, phase wall times, tracing overhead).
    """
    spans = layer_metrics(tracer)
    counters = tracer.counters
    metrics: dict[str, float] = dict(spans)
    metrics.update(counters)
    metrics["synopsis.nodes"] = synopsis.n_nodes
    metrics["synopsis.size_bytes"] = measure(synopsis).approx_bytes
    decided = spans.get("candidates.is_candidate.calls", 0.0)
    metrics["candidates.pair_share"] = _ratio(
        counters.get("candidates.is_candidate.true", 0.0), decided
    )
    metrics["table.destinations_for_batch.hit_rate"] = _ratio(
        counters.get("batch.memo_hits", 0.0),
        counters.get("batch.memo_hits", 0.0)
        + counters.get("batch.memo_misses", 0.0),
    )
    metrics["engine.sim_queue_delay_mean"] = _ratio(
        counters.get("engine.queue_delay_sum", 0.0),
        counters.get("engine.serviced_documents", 0.0),
    )
    evaluated = pruned = candidate_pruned = memo = 0
    decided_pairs = prefiltered = 0
    communities = table_entries = trie_nodes = interned = messages = 0
    if overlay is not None:
        for node in overlay.brokers.values():
            communities += len(node.communities)
            table_entries += len(node.table)
            # The table keeps its merged trie private; read-only access.
            trie = node.table._trie
            trie_nodes += trie.node_count
            interned += trie.interned_count
            if node.index is not None:
                stats = node.index.stats
                evaluated += stats.joint_evaluated
                pruned += stats.joint_pruned
                candidate_pruned += stats.candidate_pruned
                memo += node.index.memo_size
                answered = (
                    stats.joint_pruned
                    + stats.joint_ratio_pruned
                    + stats.label_overlap_pruned
                )
                prefiltered += answered
                decided_pairs += stats.joint_evaluated + answered
        messages = overlay.advertisement_messages
    prune_ratio = _ratio(prefiltered, decided_pairs)
    metrics.update(
        {
            "similarity.index.joint_evaluated": evaluated,
            "similarity.index.joint_pruned": pruned,
            "similarity.index.candidate_pruned": candidate_pruned,
            "similarity.index.prune_ratio": prune_ratio,
            "similarity.index.memo_size": memo,
            "policy.communities": communities,
            "overlay.advertisement_messages": messages,
            "overlay.table_entries": table_entries,
            "trie.nodes": trie_nodes,
            "trie.interned": interned,
            "trace.spans": float(len(tracer)),
        }
    )
    metrics.update(extra)
    return metrics
