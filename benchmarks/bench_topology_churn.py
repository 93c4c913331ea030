"""Broker-topology churn: incremental join/leave vs full rebuilds.

Sweeps broker-churn rate × advertisement policy over the default NITF
quick workload.  Each cell drives the *same* seeded trajectory of broker
joins (leaf grafts and edge splits) and leaves (merges, sometimes with an
explicit target) through the incremental topology lifecycle
(``BrokerOverlay.add_broker`` / ``remove_broker``) and prices it against
the rebuild alternatives:

* **incremental** — each join seeds only the newcomer's links, each
  leave withdraws the retiring broker's own advertisements and
  transplants its reversible-covering state; cumulative advertisement
  messages are the overhead measure;
* **per-epoch rebuild** — the cost a deployment would pay to re-flood
  the whole overlay from scratch after every epoch of churn (summed
  fresh-advertisement message counts over the same trajectory);
* **periodic rebuild** — rebuilding only every ``REBUILD_PERIOD`` epochs
  leaves the routing state *topologically* stale in between;
  ``convergence lag`` counts the epochs served on a stale topology.

The headline claims asserted here:

* **zero table decay** — after every epoch, each broker's routing table
  is identical (up to id relabelling) to a from-scratch rebuild of the
  surviving topology, for every advertisement policy;
* **incremental wins everywhere** — at every swept churn rate and under
  every policy, incremental maintenance spends fewer advertisement
  messages than per-epoch rebuilds.  (The sweep deliberately stays below
  the crossover: once essentially the whole overlay churns every epoch,
  one batch re-flood is cheaper than per-event surgery — and unlike
  subscription staleness, a *topologically* stale table is not merely
  imprecise but unroutable, so real deployments cannot sit past the
  crossover anyway.)

Also runnable standalone for a quick smoke check (used by CI, whose
smoke step repeats the ``topology=`` summary line)::

    PYTHONPATH=src python benchmarks/bench_topology_churn.py --smoke
"""

from __future__ import annotations

import argparse

import random

from common import (
    build_overlay,
    overlay_argument_parser,
    run_with_profile,
    prepare_quick,
    prepare_smoke,
)
from repro.experiments.harness import prepare
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    HybridPolicy,
    PerSubscriptionPolicy,
)

N_BROKERS = 6
MIN_BROKERS = 3
MAX_BROKERS = 10
#: Topology events per epoch = rate × broker count.  Incremental
#: maintenance wins clearly up to half the overlay churning per epoch;
#: past that (rate ≳ 1.0, i.e. every broker churning every epoch) the
#: surgery bill crosses over and batch rebuilds become cheaper — which
#: is the regime boundary the sweep is designed to stay inside.
CHURN_RATES = (0.1, 0.25, 0.5)
N_SUBSCRIBERS = 36
N_EPOCHS = 6
REBUILD_PERIOD = 2
CHURN_SEED = 31


def policies():
    """The swept advertisement policies (fresh instance per cell)."""
    return (
        ("per_subscription", PerSubscriptionPolicy(), False),
        ("community", CommunityPolicy(0.5), True),
        ("hybrid", HybridPolicy(0.5, aggregate_above=6), True),
    )


class CellResult:
    """Outcome of one (churn rate, policy) trajectory."""

    def __init__(self, churn_rate: float, policy_name: str):
        self.churn_rate = churn_rate
        self.policy_name = policy_name
        self.incremental_ads = 0
        self.rebuild_ads = 0
        self.convergence_lag = 0
        self.epochs = 0
        self.joins = 0
        self.leaves = 0


def churn_epoch(overlay: BrokerOverlay, rng, events: int) -> tuple[int, int]:
    """Apply one epoch of seeded topology churn; returns (joins, leaves)."""
    joins = leaves = 0
    for _ in range(events):
        if len(overlay.brokers) <= MIN_BROKERS:
            op = "join"
        elif len(overlay.brokers) >= MAX_BROKERS:
            op = "leave"
        else:
            op = rng.choice(("join", "leave"))
        if op == "join":
            parent = rng.choice(sorted(overlay.brokers))
            split = None
            neighbors = overlay.brokers[parent].neighbors
            if neighbors and rng.random() < 0.5:
                split = rng.choice(neighbors)
            overlay.add_broker(parent, split=split)
            joins += 1
        else:
            retiring = rng.choice(sorted(overlay.brokers))
            merge_into = None
            if rng.random() < 0.5:
                merge_into = rng.choice(
                    overlay.brokers[retiring].neighbors
                )
            overlay.remove_broker(retiring, merge_into=merge_into)
            leaves += 1
    return joins, leaves


def run_cell(
    prepared,
    churn_rate: float,
    policy_name: str,
    policy,
    provider_needed: bool,
    n_subscribers: int,
    n_epochs: int,
    n_brokers: int,
    rebuild_period: int,
) -> CellResult:
    corpus = prepared.corpus
    provider = corpus if provider_needed else None
    patterns = prepared.positive[:n_subscribers]

    overlay = build_overlay(n_brokers, patterns)
    overlay.advertise(policy, provider)

    result = CellResult(churn_rate, policy_name)
    rng = random.Random(CHURN_SEED)
    events = max(1, round(churn_rate * n_brokers))
    settled = overlay.advertisement_messages
    stale_signature = overlay.topology_signature()
    for epoch in range(1, n_epochs + 1):
        joins, leaves = churn_epoch(overlay, rng, events)
        result.joins += joins
        result.leaves += leaves
        result.epochs += 1

        # Zero-decay headline: the incremental tables equal a fresh
        # rebuild of the surviving topology, every epoch — and the
        # rebuild's advertisement bill is what a per-epoch rebuild
        # regime would have paid for this epoch.
        fresh = overlay.rebuilt(policy, provider)
        truth = overlay.topology_signature()
        assert truth == fresh.topology_signature(), (
            "incremental topology lifecycle decayed",
            churn_rate,
            policy_name,
            epoch,
        )
        result.rebuild_ads += fresh.advertisement_messages

        # Periodic regime: between rebuilds the overlay serves a stale
        # topology; count those epochs as convergence lag.
        if epoch % rebuild_period == 0:
            stale_signature = truth
        elif truth != stale_signature:
            result.convergence_lag += 1

    result.incremental_ads = overlay.advertisement_messages - settled
    return result


def run_sweep(
    prepared,
    churn_rates=CHURN_RATES,
    n_subscribers: int = N_SUBSCRIBERS,
    n_epochs: int = N_EPOCHS,
    n_brokers: int = N_BROKERS,
    rebuild_period: int = REBUILD_PERIOD,
) -> list[CellResult]:
    return [
        run_cell(
            prepared,
            churn_rate,
            name,
            policy,
            provider_needed,
            n_subscribers,
            n_epochs,
            n_brokers,
            rebuild_period,
        )
        for churn_rate in churn_rates
        for name, policy, provider_needed in policies()
    ]


def render(rows: list[CellResult]) -> str:
    header = (
        f"{'rate':>5s} {'policy':>16s} {'joins':>5s} {'leaves':>6s} "
        f"{'inc ads':>8s} {'rebuild ads':>11s} {'saved':>7s} {'lag':>5s}"
    )
    lines = [header, "-" * len(header)]
    for cell in rows:
        saved = 1.0 - cell.incremental_ads / cell.rebuild_ads
        lines.append(
            f"{cell.churn_rate:5.2f} {cell.policy_name:>16s} "
            f"{cell.joins:5d} {cell.leaves:6d} "
            f"{cell.incremental_ads:8d} {cell.rebuild_ads:11d} "
            f"{saved:7.1%} {cell.convergence_lag:3d}/{cell.epochs}"
        )
    return "\n".join(lines) + "\n"


def summary_line(rows: list[CellResult]) -> str:
    """One-line digest, repeated in the CI smoke summary."""
    parts = [
        f"{cell.policy_name}@{cell.churn_rate:g}:"
        f"inc={cell.incremental_ads},rebuild={cell.rebuild_ads},"
        f"lag={cell.convergence_lag}"
        for cell in rows
    ]
    return "topology=" + ";".join(parts)


def check_acceptance(rows: list[CellResult]) -> None:
    """Assert the headline claims over a finished sweep.

    Zero decay is asserted per epoch inside :func:`run_cell`; here:
    incremental join/leave must beat per-epoch rebuilds on advertisement
    traffic in every cell, and the lag column must expose what periodic
    rebuilds give up.
    """
    assert rows
    for cell in rows:
        assert cell.joins + cell.leaves > 0, cell.policy_name
        assert cell.incremental_ads > 0, cell.policy_name
        assert cell.incremental_ads < cell.rebuild_ads, (
            "incremental topology churn spent more advertisement traffic "
            "than full rebuilds",
            cell.churn_rate,
            cell.policy_name,
        )
        assert 0 <= cell.convergence_lag < cell.epochs


def test_topology_churn(benchmark, nitf_quick):
    from _bench_utils import RESULTS_DIR

    prepared = prepare(nitf_quick)
    rows = benchmark.pedantic(
        lambda: run_sweep(prepared), rounds=1, iterations=1
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    report = render(rows)
    (RESULTS_DIR / "topology_churn.txt").write_text(report)
    print()
    print(report)

    check_acceptance(rows)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:

    if args.smoke:
        prepared = prepare_smoke(args.dtd)
        rows = run_sweep(
            prepared,
            churn_rates=(0.5,),
            n_subscribers=12,
            n_epochs=3,
            n_brokers=4,
            rebuild_period=2,
        )
    else:
        prepared = prepare_quick(args.dtd)
        rows = run_sweep(prepared)
    print(render(rows))
    check_acceptance(rows)
    print("acceptance checks passed")
    print(summary_line(rows))


if __name__ == "__main__":
    main()
