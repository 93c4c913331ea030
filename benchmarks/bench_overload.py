"""Overload benchmark: bounded queues, back-pressure, fair shares.

Sweeps the publish rate past the saturation knee on the family's fixed
random tree and replays the same stream under each queue policy
(unbounded baseline, drop-new, drop-oldest, NACK — all through the
:class:`~repro.routing.builder.OverlayBuilder` façade), then runs two
focused cells at the saturating rate: a weighted-fair scheduling cell
scoring per-class completion shares, and a closed-loop AIMD source cell
where the publisher reacts to NACK back-pressure instead of publishing
open-loop.

The headline claims asserted here:

* **conservation** — every cell balances its ledger:
  ``offered == completed + dropped + nacked`` with nothing in flight
  after the drain, bounded or not;
* **unbounded queues do not survive overload** — past the knee the
  baseline's peak queue depth keeps growing with the rate, and its
  delivery p99 grows with it;
* **bounded queues degrade gracefully** — at the saturating rate every
  bounded cell keeps its peak depth at ``capacity + 1`` and its
  admitted-traffic p99 strictly below the unbounded baseline's: the
  engine sheds load instead of queueing it;
* **weighted-fair shares survive the knee** — under sustained overload
  the per-class completion shares order like the configured weights;
* **closed-loop sources drain** — the AIMD window throttles into the
  bound, every document is eventually absorbed, and the ledger still
  balances.

Also runnable standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_overload.py --smoke
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
from repro.routing.engine import ClosedLoopSource, LinkModel, ServiceModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import QueuePolicy, WeightedFairScheduling

N_BROKERS = 4
N_SUBSCRIBERS = 60
#: Publish rates swept per queue policy; the top rate sits well past the
#: saturation knee of the service model below.
RATES = (0.5, 2.0, 10.0)
SATURATING_RATE = max(RATES)
CAPACITY = 8
SERVICE = ServiceModel(base=0.2, per_match=0.05)
LINKS = LinkModel(default=1.0)

#: Queue-policy cells swept per rate; ``None`` is the unbounded baseline.
QUEUE_CELLS: tuple[tuple[str, QueuePolicy], ...] = (
    ("unbounded", QueuePolicy(None)),
    ("drop-new", QueuePolicy(CAPACITY, "drop-new")),
    ("drop-oldest", QueuePolicy(CAPACITY, "drop-oldest")),
    ("nack", QueuePolicy(CAPACITY, "nack")),
)

#: Weighted-fair cell: class 0 is provisioned three shares to class 1's
#: one, so past the knee completions should split roughly 3:1.
FAIR_WEIGHTS = {0: 3.0, 1: 1.0}
FAIR_CLASSES = (0, 1)
#: The fairness cell's own workload shape: a single broker with a small
#: fixed routing table (so service time does not scale with the sweep's
#: subscriber count), driven a few× past its service rate for at least
#: this many publications — shares only converge over a long storm.
FAIR_SUBSCRIBERS = 8
FAIR_RATE = 6.0
FAIR_MIN_PUBLICATIONS = 400


def base_builder(
    prepared, n_subscribers: int, n_brokers: int
) -> OverlayBuilder:
    """The sweep's shared recipe: topology, homes, timing models.

    Linear matching keeps service time affine in table size, the regime
    where queues actually build (see bench_latency.py).
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


def assert_conserved(stats: LatencyStats, cell: object) -> None:
    """The drained conservation ledger every cell must balance."""
    assert stats.in_flight_jobs == 0, cell
    assert stats.offered_jobs == (
        stats.completed_jobs + stats.dropped_jobs + stats.nacked_jobs
    ), cell
    assert sum(stats.dropped_by_broker.values()) == stats.dropped_jobs, cell


def run_cell(
    builder: OverlayBuilder,
    overlay: BrokerOverlay,
    corpus,
    rate: float,
    policy: QueuePolicy,
    reference: dict[int, frozenset[int]],
) -> LatencyStats:
    """One engine run at *rate* under *policy*, ledger-checked."""
    engine = builder.queue_policy(policy).build_engine(overlay)
    engine.publish_corpus(corpus, rate=rate)
    stats = engine.run()
    assert_conserved(stats, (policy, rate))
    delivered = engine.delivered_sets()
    if not policy.bounded:
        # The unbounded baseline is the pre-overload engine: nothing is
        # ever shed and delivery matches the synchronous path exactly.
        assert stats.dropped_jobs == 0 and stats.nacked_jobs == 0, rate
        assert delivered == reference, rate
    else:
        # Bounded queues shed load; they never invent deliveries.
        for index, subscribers in delivered.items():
            assert subscribers <= reference[index], (policy, rate, index)
    return stats


def run_sweep(
    prepared,
    rates: tuple[float, ...] = RATES,
    n_subscribers: int = N_SUBSCRIBERS,
    n_brokers: int = N_BROKERS,
) -> list[tuple[str, float, LatencyStats]]:
    """Drive the stream through every (queue policy, rate) cell."""
    corpus = prepared.corpus
    builder = base_builder(prepared, n_subscribers, n_brokers)
    overlay = builder.build_overlay()
    reference = sync_reference(overlay, corpus)
    rows: list[tuple[str, float, LatencyStats]] = []
    for name, policy in QUEUE_CELLS:
        for rate in rates:
            rows.append(
                (
                    name,
                    rate,
                    run_cell(
                        builder, overlay, corpus, rate, policy, reference
                    ),
                )
            )
    return rows


def run_fairness_cell(prepared) -> LatencyStats:
    """Weighted-fair scheduling under a long sustained storm.

    Runs on a single broker — one saturated drain point, so the
    scheduler (not topology spread) decides who completes; on the
    multi-broker sweep the lightly loaded downstream brokers complete
    forwarded copies class-blind and dilute the shares.  The corpus is
    replayed back to back until at least ``FAIR_MIN_PUBLICATIONS`` have
    been offered: the share signal lives in the steady-state storm, and
    a short run is dominated by the ramp and the class-blind tail
    drain.  Admission is class-blind too, so the acceptance check below
    allows a loose band around the provisioned split.
    """
    corpus = prepared.corpus
    builder = (
        base_builder(prepared, FAIR_SUBSCRIBERS, n_brokers=1)
        .scheduling(WeightedFairScheduling(FAIR_WEIGHTS))
        .queue_policy(QueuePolicy(CAPACITY, "drop-oldest"))
    )
    engine = builder.build_engine(builder.build_overlay())
    per_pass = len(corpus.documents)
    passes = max(1, -(-FAIR_MIN_PUBLICATIONS // per_pass))
    for repeat in range(passes):
        engine.publish_corpus(
            corpus,
            rate=FAIR_RATE,
            start=repeat * per_pass / FAIR_RATE,
            classes=FAIR_CLASSES,
        )
    stats = engine.run()
    assert_conserved(stats, ("weighted_fair", FAIR_RATE))
    return stats


def run_closed_loop_cell(
    prepared,
    n_subscribers: int = N_SUBSCRIBERS,
    n_brokers: int = N_BROKERS,
):
    """A back-pressured AIMD source against NACK-bounded queues.

    Returns ``(stats, report)``: the engine ledger and the source's own
    view (window trajectory endpoint, clean/dirty ack split).
    """
    corpus = prepared.corpus
    builder = (
        base_builder(prepared, n_subscribers, n_brokers)
        .queue_policy(QueuePolicy(2, "nack"))
        .sources(
            ClosedLoopSource(
                corpus,
                at_broker=0,
                initial_window=4.0,
                feedback_delay=0.5,
                seed=3,
            )
        )
    )
    engine = builder.build_engine(builder.build_overlay())
    stats = engine.run()
    assert_conserved(stats, "closed_loop")
    report = engine.source_report(0)
    assert report.published == len(corpus.documents), report
    assert report.pending == 0 and report.outstanding == 0, report
    assert report.acked == report.published, report
    return stats, report


def render(rows: list[tuple[str, float, LatencyStats]]) -> str:
    header = (
        f"{'policy':12s} {'rate':>5s} {'p50':>7s} {'p99':>7s} "
        f"{'depth':>5s} {'admit':>6s} {'drop':>5s} {'nack':>5s} "
        f"{'deliv':>6s}"
    )
    lines = [header, "-" * len(header)]
    for name, rate, stats in rows:
        lines.append(
            f"{name:12s} {rate:5.2f} {stats.latency_p50:7.2f} "
            f"{stats.latency_p99:7.2f} {stats.peak_queue_depth:5d} "
            f"{stats.admission_ratio:6.3f} {stats.dropped_jobs:5d} "
            f"{stats.nacked_jobs:5d} {stats.deliveries:6d}"
        )
    return "\n".join(lines) + "\n"


def render_fairness(stats: LatencyStats) -> str:
    shares = stats.completed_share_by_class
    lines = [
        "weighted_fair shares at saturating rate "
        f"(weights {FAIR_WEIGHTS}):"
    ]
    for priority_class in sorted(shares):
        lines.append(
            f"  class {priority_class}: "
            f"share {shares[priority_class]:.3f} "
            f"({stats.completed_by_class.get(priority_class, 0)} completed)"
        )
    return "\n".join(lines) + "\n"


def render_closed_loop(stats: LatencyStats, report) -> str:
    return (
        "closed_loop: "
        f"published {report.published}, acked {report.acked} "
        f"(clean {report.clean_acks}), nack signals {report.nack_signals}, "
        f"final window {report.window:.2f}, "
        f"admission {stats.admission_ratio:.3f}\n"
    )


def check_acceptance(rows: list[tuple[str, float, LatencyStats]]) -> None:
    """Assert the overload headlines over a finished sweep.

    Conservation and delivery containment are asserted per cell inside
    :func:`run_cell`; here we check the degradation shape.
    """
    by_cell = {(name, rate): stats for name, rate, stats in rows}
    rates = sorted({rate for _, rate, _ in rows})
    low, top = rates[0], rates[-1]
    baseline_low = by_cell[("unbounded", low)]
    baseline_top = by_cell[("unbounded", top)]
    # Past the knee the unbounded backlog keeps growing with the rate.
    assert (
        baseline_top.peak_queue_depth > baseline_low.peak_queue_depth
    ), (baseline_low.peak_queue_depth, baseline_top.peak_queue_depth)
    assert baseline_top.latency_p99 > baseline_low.latency_p99, (
        baseline_low.latency_p99,
        baseline_top.latency_p99,
    )
    for name, _ in QUEUE_CELLS:
        if name == "unbounded":
            continue
        bounded = by_cell[(name, top)]
        # Graceful degradation: the bound caps the backlog (one extra
        # slot for the job in service) and with it the admitted
        # traffic's tail latency; load is shed, not queued.
        assert bounded.peak_queue_depth <= CAPACITY + 1, name
        assert bounded.latency_p99 < baseline_top.latency_p99, (
            name,
            bounded.latency_p99,
            baseline_top.latency_p99,
        )
        assert bounded.dropped_jobs + bounded.nacked_jobs > 0, name
        assert 0.0 < bounded.admission_ratio < 1.0, name
        # Below the knee the bound is never exercised.
        assert by_cell[(name, low)].admission_ratio == 1.0, name


def check_fairness_acceptance(stats: LatencyStats) -> None:
    """Past the knee, completion shares order like the weights."""
    shares = stats.completed_share_by_class
    total = sum(FAIR_WEIGHTS.values())
    assert set(shares) == set(FAIR_CLASSES), shares
    assert shares[0] > shares[1], shares
    # Loose band: class-blind admission and the final drain keep the
    # share inside ~0.15 of the provisioned 3/4 : 1/4 split.
    assert abs(shares[0] - FAIR_WEIGHTS[0] / total) < 0.15, shares


def summary_line(
    rows: list[tuple[str, float, LatencyStats]],
    fair_stats: LatencyStats,
    report,
) -> str:
    """One-line machine-readable digest (repeated in the CI smoke summary)."""
    by_cell = {(name, rate): stats for name, rate, stats in rows}
    top = max(rate for _, rate, _ in rows)
    baseline = by_cell[("unbounded", top)]
    bounded = by_cell[("drop-oldest", top)]
    shares = fair_stats.completed_share_by_class
    return (
        f"overload=rate:{top:g},"
        f"unbounded_p99:{baseline.latency_p99:.2f},"
        f"bounded_p99:{bounded.latency_p99:.2f},"
        f"unbounded_depth:{baseline.peak_queue_depth},"
        f"bounded_depth:{bounded.peak_queue_depth},"
        f"bounded_admission:{bounded.admission_ratio:.3f},"
        f"fair_share0:{shares.get(0, 0.0):.3f},"
        f"closed_loop_window:{report.window:.2f}"
    )


def test_overload(benchmark, nitf_quick):
    from _bench_utils import RESULTS_DIR

    prepared = prepare(nitf_quick)
    rows = benchmark.pedantic(
        lambda: run_sweep(prepared), rounds=1, iterations=1
    )
    fair_stats = run_fairness_cell(prepared)
    loop_stats, report = run_closed_loop_cell(prepared)

    RESULTS_DIR.mkdir(exist_ok=True)
    report_text = (
        render(rows)
        + "\n"
        + render_fairness(fair_stats)
        + "\n"
        + render_closed_loop(loop_stats, report)
    )
    (RESULTS_DIR / "overload.txt").write_text(report_text)
    print()
    print(report_text)

    check_acceptance(rows)
    check_fairness_acceptance(fair_stats)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:
    if args.smoke:
        prepared = prepare_smoke(args.dtd)
        scale = dict(n_subscribers=16, n_brokers=3)
    else:
        prepared = prepare_quick(args.dtd)
        scale = dict(n_subscribers=N_SUBSCRIBERS, n_brokers=N_BROKERS)
    rows = run_sweep(prepared, **scale)
    fair_stats = run_fairness_cell(prepared)
    loop_stats, report = run_closed_loop_cell(prepared, **scale)
    print(render(rows))
    print(render_fairness(fair_stats))
    print(render_closed_loop(loop_stats, report))
    check_acceptance(rows)
    check_fairness_acceptance(fair_stats)
    print("acceptance checks passed")
    print(summary_line(rows, fair_stats, report))


if __name__ == "__main__":
    main()
