"""Match-cost scaling: the merged pattern trie vs the per-pattern scan.

Sweeps routing-table size over 10²–10⁵ NITF subscriptions (one
destination per subscriber — the per-subscription regime whose table the
paper's Section 1 calls out as the scalability wall) and matches the same
generated document stream through both table modes:

* **linear** — every pattern evaluated per destination (first hit
  short-circuits), the oracle; its operation count grows linearly in
  table size by construction;
* **trie** — one merged-trie traversal per document; patterns share
  spine prefixes, hash-consed branch constraints and their memoised
  satisfaction, so the operation count is driven by how much *distinct
  structure* the table holds, not how many patterns spell it.

Reported per size: match operations per document and wall-clock for both
modes.  The headline claims asserted here:

* both modes deliver identical destination sets at every size;
* trie operations grow **sublinearly** — each 10× size step multiplies
  trie ops by well under 10× — and undercut the linear scan at every
  swept size ≥ 10³;
* trie wall-clock beats the linear scan at every size ≥ 10³.

The standalone run prints a ``match_scaling=…`` key=value line with the
trie-vs-linear match-ops ratio at the largest size, which the CI smoke
step repeats in its summary::

    PYTHONPATH=src python benchmarks/bench_match_scaling.py --smoke
"""

from __future__ import annotations

import argparse

import time

from common import overlay_argument_parser, run_with_profile
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.routing.table import RoutingTable

SIZES = (100, 1_000, 10_000, 100_000)
SMOKE_SIZES = (100, 300, 1_000)
N_DOCS = 10
PATTERN_SEED = 7
DOC_SEED = 21
#: Sublinearity margin for a full decade step: a 10× larger table may
#: cost at most 8× the trie ops (measured growth is ~4-7× per decade;
#: the linear scan is 10×).  Sub-decade steps — the smoke sweep — only
#: assert strict sublinearity, since fixed structure amortises less
#: over a 3× step.
GROWTH_MARGIN = 0.8


class ScalePoint:
    """Both modes' cost at one table size."""

    def __init__(self, size: int):
        self.size = size
        self.trie_ops = 0
        self.linear_ops = 0
        self.trie_seconds = 0.0
        self.linear_seconds = 0.0
        self.agreed = True

    @property
    def ops_ratio(self) -> float:
        return self.trie_ops / self.linear_ops if self.linear_ops else 0.0


def build_table(patterns) -> RoutingTable:
    """One per-subscription table: subscriber *i* is destination *i*."""
    table = RoutingTable()
    for index, pattern in enumerate(patterns):
        table.add(pattern, index)
    return table


def measure(table: RoutingTable, documents, mode: str):
    """Total match ops, wall-clock, and the per-document destination sets."""
    operations = 0
    delivered = []
    started = time.perf_counter()
    for document in documents:
        destinations, spent = table.destinations_for(document, matching=mode)
        operations += spent
        delivered.append(frozenset(destinations))
    return operations, time.perf_counter() - started, delivered


def run_sweep(sizes=SIZES, n_docs: int = N_DOCS) -> list[ScalePoint]:
    dtd = nitf_dtd()
    docgen = DocumentGenerator(dtd, seed=DOC_SEED)
    documents = [docgen.generate() for _ in range(n_docs)]
    generator = PatternGenerator(dtd, seed=PATTERN_SEED)
    patterns = generator.generate_many(max(sizes), distinct=False)
    rows = []
    for size in sizes:
        point = ScalePoint(size)
        table = build_table(patterns[:size])
        point.trie_ops, point.trie_seconds, via_trie = measure(
            table, documents, "trie"
        )
        point.linear_ops, point.linear_seconds, via_linear = measure(
            table, documents, "linear"
        )
        point.agreed = via_trie == via_linear
        rows.append(point)
    return rows


def render(rows: list[ScalePoint]) -> str:
    header = (
        f"{'patterns':>8s} {'trie ops/doc':>12s} {'linear ops/doc':>14s} "
        f"{'ratio':>6s} {'trie s':>8s} {'linear s':>8s}"
    )
    lines = [header, "-" * len(header)]
    for point in rows:
        lines.append(
            f"{point.size:8d} {point.trie_ops / N_DOCS:12.1f} "
            f"{point.linear_ops / N_DOCS:14.1f} {point.ops_ratio:6.3f} "
            f"{point.trie_seconds:8.3f} {point.linear_seconds:8.3f}"
        )
    return "\n".join(lines) + "\n"


def check_acceptance(rows: list[ScalePoint]) -> None:
    """Assert the headline claims over a finished sweep."""
    for point in rows:
        assert point.agreed, (
            f"trie and linear destinations diverged at {point.size}"
        )
        assert point.trie_ops > 0 and point.linear_ops > 0, point.size
        if point.size >= 1_000:
            assert point.trie_ops < point.linear_ops, (
                f"trie ops not below linear at {point.size}: "
                f"{point.trie_ops} vs {point.linear_ops}"
            )
            assert point.trie_seconds < point.linear_seconds, (
                f"trie wall-clock not below linear at {point.size}: "
                f"{point.trie_seconds:.3f}s vs {point.linear_seconds:.3f}s"
            )
    for previous, current in zip(rows, rows[1:], strict=False):
        size_growth = current.size / previous.size
        ops_growth = current.trie_ops / previous.trie_ops
        margin = GROWTH_MARGIN if size_growth >= 10 else 1.0
        assert ops_growth <= margin * size_growth, (
            f"trie ops grew {ops_growth:.2f}x over a {size_growth:.0f}x "
            f"size step ({previous.size} -> {current.size}): not sublinear"
        )


def test_match_scaling(benchmark):
    from _bench_utils import RESULTS_DIR

    rows = benchmark.pedantic(
        lambda: run_sweep(sizes=(100, 1_000, 10_000)), rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    report = render(rows)
    (RESULTS_DIR / "match_scaling.txt").write_text(report)
    print()
    print(report)
    check_acceptance(rows)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:
    rows = run_sweep(sizes=SMOKE_SIZES if args.smoke else SIZES)
    print(render(rows))
    check_acceptance(rows)
    top = rows[-1]
    print("acceptance checks passed")
    print(
        f"match_scaling=trie/linear ops ratio {top.ops_ratio:.3f} "
        f"at {top.size} patterns "
        f"({top.trie_ops / N_DOCS:.0f} vs {top.linear_ops / N_DOCS:.0f} "
        f"ops/doc)"
    )


if __name__ == "__main__":
    main()
