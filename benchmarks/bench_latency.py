"""Latency/throughput benchmark: discrete-event delivery under load.

Two sweeps over the default NITF quick workload on a fixed 4-broker
random tree, both assembled through the
:class:`~repro.routing.builder.OverlayBuilder` façade:

* **advertisement sweep** — publish rate × advertisement policy ×
  community threshold.  Every cell replays the same document stream
  through the event engine (per-broker service queues, service time
  affine in match operations, unit link latency) and reports
  publication-to-delivery latency percentiles (p50/p95/p99), mean
  queueing delay, peak queue depth and throughput — the timing axis the
  match-count benchmarks cannot see.
* **scheduling sweep** — at the saturating publish rate, the same stream
  tagged with three subscriber classes is replayed under each
  :class:`~repro.routing.policy.SchedulingPolicy` (FIFO, priority,
  deadline) and scored per class: the fairness-vs-tail-latency trade-off
  the policy objects expose.

The headline claims asserted here:

* the engine delivers exactly the subscriber sets of the synchronous
  routing path in every cell (sync/async equivalence) — scheduling
  policies reorder service, never delivery membership;
* at the highest publish rate, community aggregation at the acceptance
  threshold shows measurably lower mean queueing delay and at-least-equal
  throughput versus per-subscription advertisement;
* at the saturating rate, :class:`PriorityScheduling` cuts the
  high-class p99 latency versus FIFO — priority buys the paying class
  tail latency with the low class's queueing time;
* the engine is deterministic: re-running a cell under the same seed
  reproduces its stats bit for bit.

Also runnable standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_latency.py --smoke
"""

from __future__ import annotations

import argparse

from common import (
    overlay_argument_parser,
    run_with_profile,
    overlay_builder,
    prepare_quick,
    prepare_smoke,
)
from repro.experiments.harness import prepare
from repro.routing.broker import LatencyStats
from repro.routing.builder import OverlayBuilder
from repro.routing.engine import LinkModel, ServiceModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    DeadlineScheduling,
    FifoScheduling,
    PerSubscriptionPolicy,
    PriorityScheduling,
    SchedulingPolicy,
)

N_BROKERS = 4
N_SUBSCRIBERS = 60
RATES = (0.25, 1.0, 4.0)
#: Default rate for the scheduling sweep: the saturating end of RATES.
SATURATING_RATE = max(RATES)
THRESHOLDS = (0.7, 0.5, 0.3)
ACCEPTANCE_THRESHOLD = 0.5
SERVICE = ServiceModel(base=0.2, per_match=0.05)
LINKS = LinkModel(default=1.0)

#: Subscriber classes cycled over the publish stream in the scheduling
#: sweep; class 2 is the "paying" high-priority class.
CLASSES = (0, 1, 2)
HIGH_CLASS = 2
DEADLINE_SLACK = 10.0

SCHEDULING_POLICIES: tuple[tuple[str, SchedulingPolicy], ...] = (
    ("fifo", FifoScheduling()),
    ("priority", PriorityScheduling()),
    ("deadline", DeadlineScheduling()),
)


def base_builder(prepared, n_subscribers: int, n_brokers: int) -> OverlayBuilder:
    """The sweep's shared recipe: topology, homes, timing models.

    Matching runs in ``linear`` (per-pattern scan) mode so service time
    scales with table size — the queueing effect the paper's latency
    claims are about.  Trie matching amortises shared prefixes across
    entries and flattens that signal at smoke scale.
    """
    return (
        overlay_builder(n_brokers, prepared.positive[:n_subscribers])
        .matching("linear")
        .service(SERVICE)
        .links(LINKS)
    )


def sync_reference(
    overlay: BrokerOverlay, corpus
) -> dict[int, frozenset[int]]:
    """Per published document, the synchronous path's delivery sets."""
    return {
        index: frozenset(
            overlay.route(document, index % len(overlay.brokers))[0]
        )
        for index, document in enumerate(corpus.documents)
    }


def run_cell(
    builder: OverlayBuilder,
    overlay: BrokerOverlay,
    corpus,
    rate: float,
    reference: dict[int, frozenset[int]],
    classes=None,
    deadline_slack=None,
) -> LatencyStats:
    """One engine run at *rate*, checked against the synchronous path."""
    engine = builder.build_engine(overlay)
    engine.publish_corpus(
        corpus, rate=rate, classes=classes, deadline_slack=deadline_slack
    )
    stats = engine.run()
    assert engine.delivered_sets() == reference, (overlay.mode, rate)
    return stats


def run_sweep(
    prepared,
    rates: tuple[float, ...] = RATES,
    thresholds: tuple[float, ...] = THRESHOLDS,
    n_subscribers: int = N_SUBSCRIBERS,
    n_brokers: int = N_BROKERS,
) -> list[tuple[float, object, LatencyStats]]:
    """Drive the stream through every (rate, advertisement-policy) cell.

    Returns ``(rate, threshold-or-None, stats)`` rows; ``None`` marks the
    per-subscription baseline.  Community similarity uses the exact corpus
    provider, isolating the queueing trade-off from synopsis estimation
    error (bench_routing.py covers the estimated-similarity side).
    """
    corpus = prepared.corpus
    builder = base_builder(prepared, n_subscribers, n_brokers)
    rows: list[tuple[float, object, LatencyStats]] = []
    for threshold in (None, *thresholds):
        if threshold is None:
            builder.advertisement(PerSubscriptionPolicy())
        else:
            builder.advertisement(CommunityPolicy(threshold)).provider(corpus)
        overlay = builder.build_overlay()
        reference = sync_reference(overlay, corpus)
        for rate in rates:
            rows.append(
                (
                    rate,
                    threshold,
                    run_cell(builder, overlay, corpus, rate, reference),
                )
            )
    regime_rank = {threshold: rank for rank, threshold in enumerate(thresholds)}
    rows.sort(
        key=lambda row: (row[0], -1 if row[1] is None else regime_rank[row[1]])
    )
    return rows


def run_scheduling_sweep(
    prepared,
    rate: float = SATURATING_RATE,
    n_subscribers: int = N_SUBSCRIBERS,
    n_brokers: int = N_BROKERS,
    policies: tuple[tuple[str, SchedulingPolicy], ...] = SCHEDULING_POLICIES,
) -> list[tuple[str, LatencyStats]]:
    """Replay the class-tagged stream under each scheduling policy.

    Runs at the saturating *rate* under the per-subscription baseline —
    the big-table regime where queues actually build, so scheduling has
    something to reorder.  Every policy must deliver the identical
    subscriber sets; only the timing may move.
    """
    corpus = prepared.corpus
    builder = base_builder(prepared, n_subscribers, n_brokers).advertisement(
        PerSubscriptionPolicy()
    )
    overlay = builder.build_overlay()
    reference = sync_reference(overlay, corpus)
    rows: list[tuple[str, LatencyStats]] = []
    for name, policy in policies:
        builder.scheduling(policy)
        rows.append(
            (
                name,
                run_cell(
                    builder,
                    overlay,
                    corpus,
                    rate,
                    reference,
                    classes=CLASSES,
                    deadline_slack=DEADLINE_SLACK,
                ),
            )
        )
    builder.scheduling(FifoScheduling())
    return rows


def render(rows: list[tuple[float, object, LatencyStats]]) -> str:
    header = (
        f"{'rate':>5s} {'regime':24s} {'p50':>7s} {'p95':>7s} {'p99':>7s} "
        f"{'qdelay':>7s} {'depth':>5s} {'thrpt':>6s} {'deliv':>6s}"
    )
    lines = [header, "-" * len(header)]
    for rate, threshold, stats in rows:
        regime = (
            "per_subscription"
            if threshold is None
            else f"community(th={threshold})"
        )
        lines.append(
            f"{rate:5.2f} {regime:24s} {stats.latency_p50:7.2f} "
            f"{stats.latency_p95:7.2f} {stats.latency_p99:7.2f} "
            f"{stats.queue_delay_mean:7.2f} {stats.peak_queue_depth:5d} "
            f"{stats.throughput:6.2f} {stats.deliveries:6d}"
        )
    return "\n".join(lines) + "\n"


def render_scheduling(rows: list[tuple[str, LatencyStats]]) -> str:
    header = (
        f"{'scheduling':10s} {'class':>5s} {'p50':>7s} {'p95':>7s} "
        f"{'p99':>7s} {'mean':>7s} {'deliv':>6s}"
    )
    lines = [header, "-" * len(header)]
    for name, stats in rows:
        for priority_class, digest in sorted(stats.latency_by_class.items()):
            lines.append(
                f"{name:10s} {priority_class:5d} {digest.p50:7.2f} "
                f"{digest.p95:7.2f} {digest.p99:7.2f} {digest.mean:7.2f} "
                f"{digest.deliveries:6d}"
            )
    return "\n".join(lines) + "\n"


def check_acceptance(rows: list[tuple[float, object, LatencyStats]]) -> None:
    """Assert the headline claims over a finished advertisement sweep.

    Sync/async delivery equivalence is asserted per cell inside
    :func:`run_cell`; here we check the aggregates and the queueing-delay
    headline.
    """
    for rate, threshold, stats in rows:
        assert stats.documents > 0 and stats.deliveries > 0, (rate, threshold)
        assert stats.makespan > 0.0, (rate, threshold)
        assert (
            stats.latency_p50
            <= stats.latency_p95
            <= stats.latency_p99
            <= stats.latency_max
        ), (rate, threshold)
    by_cell = {(rate, threshold): stats for rate, threshold, stats in rows}
    top_rate = max(rate for rate, _, _ in rows)
    baseline = by_cell[(top_rate, None)]
    aggregated = by_cell.get((top_rate, ACCEPTANCE_THRESHOLD))
    if aggregated is not None:
        # Aggregation's payoff in time: under the heaviest load, smaller
        # routing tables mean shorter services, hence measurably shorter
        # queues and no worse throughput.
        assert aggregated.queue_delay_mean < 0.95 * baseline.queue_delay_mean, (
            aggregated.queue_delay_mean,
            baseline.queue_delay_mean,
        )
        assert aggregated.throughput >= baseline.throughput, (
            aggregated.throughput,
            baseline.throughput,
        )


def check_scheduling_acceptance(rows: list[tuple[str, LatencyStats]]) -> None:
    """Assert the scheduling headline over a finished scheduling sweep.

    At saturating load, strict priority must cut the high class's tail
    latency versus FIFO (it can only do so by taxing the low classes,
    which the per-class table makes visible), and every policy must have
    produced identical delivery counts per class.
    """
    by_policy = dict(rows)
    for name, stats in rows:
        assert stats.latency_by_class, name
        assert sum(
            digest.deliveries for digest in stats.latency_by_class.values()
        ) == stats.deliveries, name
    fifo = by_policy["fifo"]
    priority = by_policy["priority"]
    assert {
        priority_class: digest.deliveries
        for priority_class, digest in fifo.latency_by_class.items()
    } == {
        priority_class: digest.deliveries
        for priority_class, digest in priority.latency_by_class.items()
    }
    fifo_high = fifo.latency_by_class[HIGH_CLASS]
    priority_high = priority.latency_by_class[HIGH_CLASS]
    assert priority_high.p99 < fifo_high.p99, (
        priority_high.p99,
        fifo_high.p99,
    )


def check_determinism(prepared, n_subscribers: int, n_brokers: int) -> None:
    """Two identical engine runs must agree bit for bit — including under
    seeded Poisson arrivals and non-FIFO scheduling."""
    corpus = prepared.corpus
    builder = (
        base_builder(prepared, n_subscribers, n_brokers)
        .advertisement(CommunityPolicy(ACCEPTANCE_THRESHOLD))
        .provider(corpus)
        .scheduling(PriorityScheduling())
    )
    overlay = builder.build_overlay()
    outcomes = []
    for _ in range(2):
        engine = builder.build_engine(overlay)
        engine.publish_corpus(
            corpus, rate=2.0, arrivals="poisson", seed=7, classes=CLASSES
        )
        outcomes.append((engine.run(), engine.delivered_sets()))
    assert outcomes[0] == outcomes[1], "event engine is not deterministic"


def summary_line(rows: list[tuple[float, object, LatencyStats]]) -> str:
    """One-line machine-readable digest (repeated in the CI smoke summary)."""
    by_cell = {(rate, threshold): stats for rate, threshold, stats in rows}
    top_rate = max(rate for rate, _, _ in rows)
    baseline = by_cell[(top_rate, None)]
    aggregated = by_cell.get((top_rate, ACCEPTANCE_THRESHOLD), baseline)
    return (
        f"summary=rate:{top_rate:g},"
        f"baseline_qdelay:{baseline.queue_delay_mean:.2f},"
        f"community_qdelay:{aggregated.queue_delay_mean:.2f},"
        f"baseline_thrpt:{baseline.throughput:.2f},"
        f"community_thrpt:{aggregated.throughput:.2f},"
        f"baseline_p95:{baseline.latency_p95:.2f},"
        f"community_p95:{aggregated.latency_p95:.2f}"
    )


def scheduling_summary_line(rows: list[tuple[str, LatencyStats]]) -> str:
    """Per-policy p99 digest (repeated in the CI smoke summary)."""
    parts = []
    for name, stats in rows:
        high = stats.latency_by_class.get(HIGH_CLASS)
        parts.append(f"{name}_p99:{stats.latency_p99:.2f}")
        if high is not None:
            parts.append(f"{name}_class{HIGH_CLASS}_p99:{high.p99:.2f}")
    return "scheduling=" + ",".join(parts)


def test_latency(benchmark, nitf_quick):
    from _bench_utils import RESULTS_DIR

    prepared = prepare(nitf_quick)
    rows = benchmark.pedantic(
        lambda: run_sweep(prepared), rounds=1, iterations=1
    )
    scheduling_rows = run_scheduling_sweep(prepared)

    RESULTS_DIR.mkdir(exist_ok=True)
    report = render(rows) + "\n" + render_scheduling(scheduling_rows)
    (RESULTS_DIR / "latency.txt").write_text(report)
    print()
    print(report)

    check_acceptance(rows)
    check_scheduling_acceptance(scheduling_rows)
    check_determinism(prepared, N_SUBSCRIBERS, N_BROKERS)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:

    if args.smoke:
        prepared = prepare_smoke(args.dtd)
        rows = run_sweep(
            prepared,
            rates=(0.5, 4.0),
            thresholds=(0.5,),
            n_subscribers=16,
            n_brokers=3,
        )
        scheduling_rows = run_scheduling_sweep(
            prepared, n_subscribers=16, n_brokers=3
        )
        check_determinism(prepared, n_subscribers=16, n_brokers=3)
    else:
        prepared = prepare_quick(args.dtd)
        rows = run_sweep(prepared)
        scheduling_rows = run_scheduling_sweep(prepared)
        check_determinism(prepared, N_SUBSCRIBERS, N_BROKERS)
    print(render(rows))
    print(render_scheduling(scheduling_rows))
    check_acceptance(rows)
    check_scheduling_acceptance(scheduling_rows)
    print("acceptance checks passed")
    print(summary_line(rows))
    print(scheduling_summary_line(scheduling_rows))


if __name__ == "__main__":
    main()
