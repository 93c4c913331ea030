"""The benchmark's workloads: ``estimate``, ``deliver``, ``resubscribe``
and ``churn``.

Load model: one process, one thread, one closed-loop caller — each call
starts after the previous one returns.  The delivery engine's publish
schedule is open-loop in *simulated* time at :data:`RATE`; wall-clock is
read only around calls.

A run builds the serving state from the in-memory inputs several times
(each one ``setup_s`` sample), then serves the same fixed *pass* of work
at least :data:`MIN_PASSES` times, more when the first pass shows that
they fit the requested seconds.  Every pass repeats the same operations
in the same order on an identical state: passes that mutate their state
get a freshly built one each, and ``estimate`` serves each pass from a
new estimator over the set-up's synopsis.  Each operation reports the
median over passes.  Oracles run between timed sections and are never
timed; work done only for the oracles and the quality figures stays out
of the memory peak as well.

Reported times are scaled to a nominal machine speed.  On the shared
2-vCPU VM the benchmark was tuned on, the same work ran up to 1.9x
slower for a minute or more at a time, as other tenants came and went;
no statistic over one run's samples removed that.  Before and after
every set-up and pass, the benchmark times :func:`reference_work`, a
fixed pure-Python routine that uses none of the program, and scales the
wall time in between by ``REFERENCE_S / reference time``.  Over such
swings, route time over reference time stayed within 3% while route
time alone moved by 70%.

The data set is fixed, as the paper's is: documents come from
``DocumentGenerator`` and subscription and query patterns from
``WorkloadBuilder`` under :data:`DATA_SEED`, exact values from
``GroundTruth``.  So are the query partners and the subscription
trajectory (which patterns join where, which subscriptions leave).  The
run's seed drives the order of the query and document streams and the
estimate oracle's sample.  Seeding the data set itself moved the metrics
by 20-60% from seed to seed at these sizes — per-document synopsis
growth and per-pattern ``SEL`` cost are heavy-tailed — which no bound
could absorb; seeding the synopsis's hash sample moved deliver's set-up
time by a third, as other communities formed.  The deployment — DTD,
synopsis mode, capacity and hash seed, broker topology, community
threshold, LSH family — is fixed as well.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from tracer import Tracer

from repro.core.candidates import LSHCandidates
from repro.core.errors import average_relative_error
from repro.core.pattern import TreePattern
from repro.core.selectivity import SelectivityEstimator
from repro.core.similarity import METRICS, SimilarityEstimator
from repro.dtd.builtin import builtin_dtd
from repro.experiments.config import ExperimentConfig
from repro.experiments.ground_truth import GroundTruth
from repro.generators.docgen import DocumentGenerator
from repro.generators.workload import WorkloadBuilder
from repro.routing.builder import OverlayBuilder
from repro.routing.engine import BatchServiceModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.tree import XMLTree

__all__ = [
    "Sizes",
    "SIZES",
    "MINI_SIZES",
    "Inputs",
    "Outcome",
    "make_inputs",
    "rss_mb",
    "deploy",
    "publish",
    "percentile",
    "WORKLOADS",
]

DTD_NAME = "nitf"
SYNOPSIS_MODE = "hashes"
SYNOPSIS_CAPACITY = 100
#: Hash seed of the synopsis's sample.
SYNOPSIS_SEED = 2012
TOPOLOGY = "random_tree"
TOPOLOGY_SEED = 11
COMMUNITY_THRESHOLD = 0.5
#: Documents per simulated time unit; below the saturation knee of the
#: default affine ``ServiceModel`` on the deliver overlay (``sweep.py``).
RATE = 0.05
#: Documents per engine run in ``deliver`` (one fresh engine per chunk).
ENGINE_CHUNK = 50
#: Wall seconds of :func:`reference_work` at the nominal machine speed:
#: its fastest time on the 2-vCPU VM the benchmark was tuned on.  Every
#: reported time is scaled to this speed.
REFERENCE_S = 0.0016
#: Reference runs per machine-speed reading.
REFERENCE_REPEATS = 5
#: Timed set-ups per run when the passes do not mutate their state.
SETUPS = 3
#: The same for estimate, whose set-up takes a fraction of a second.
ESTIMATE_SETUPS = 10
#: Serving passes per run, at least.
MIN_PASSES = 15
#: Share of estimate queries recomputed on a fresh estimator.
ORACLE_SAMPLE = 0.15
#: Generated patterns classified per requested pattern, at most.
ATTEMPTS_FACTOR = 6
#: Seed of the fixed data set (the experiment harness's default seed).
DATA_SEED = 2007


@dataclass(frozen=True)
class Sizes:
    """Input and pass sizes of one workload."""

    synopsis_docs: int
    positives: int
    negatives: int = 0
    stream_docs: int = 0
    reserve: int = 0
    cycles: int = 0
    cycle_docs: int = 0
    brokers: int = 8


SIZES: dict[str, Sizes] = {
    "estimate": Sizes(synopsis_docs=300, positives=40, negatives=8),
    "deliver": Sizes(synopsis_docs=300, positives=120, stream_docs=200),
    "resubscribe": Sizes(
        synopsis_docs=200, positives=64, reserve=30, cycles=30, cycle_docs=5
    ),
    "churn": Sizes(
        synopsis_docs=200, positives=64, reserve=30, cycles=30, cycle_docs=5
    ),
}

#: Miniature sizes for the self-tests: same code paths, seconds per run.
MINI_SIZES: dict[str, Sizes] = {
    "estimate": Sizes(synopsis_docs=40, positives=12, negatives=4),
    "deliver": Sizes(synopsis_docs=40, positives=16, stream_docs=20, brokers=4),
    "resubscribe": Sizes(
        synopsis_docs=40, positives=16, reserve=4, cycles=3, cycle_docs=5, brokers=4
    ),
    "churn": Sizes(
        synopsis_docs=40, positives=16, reserve=4, cycles=3, cycle_docs=5, brokers=4
    ),
}


@dataclass
class Inputs:
    """Everything a workload reads: the fixed data set, with the run's
    seed."""

    seed: int
    sizes: Sizes
    documents: list[XMLTree]
    corpus: GroundTruth
    positive: list[TreePattern]
    negative: list[TreePattern]
    stream: list[XMLTree]
    reserve: list[TreePattern]


def make_inputs(sizes: Sizes, seed: int) -> Inputs:
    """The data set for *sizes*, with the stream in *seed* order."""
    config = ExperimentConfig.quick(DTD_NAME)
    dtd = builtin_dtd(DTD_NAME)
    documents = list(
        DocumentGenerator(dtd, seed=DATA_SEED, config=config.doc_config).stream(
            sizes.synopsis_docs
        )
    )
    corpus = GroundTruth(documents)
    workload = WorkloadBuilder(
        dtd, corpus, seed=DATA_SEED + 1, config=config.pattern_config
    ).build(
        n_positive=sizes.positives + sizes.reserve,
        n_negative=sizes.negatives,
        max_attempts_factor=ATTEMPTS_FACTOR,
    )
    stream = list(
        DocumentGenerator(dtd, seed=DATA_SEED + 2, config=config.doc_config).stream(
            max(sizes.stream_docs, sizes.cycles * sizes.cycle_docs),
            start_id=sizes.synopsis_docs,
        )
    )
    random.Random(seed).shuffle(stream)
    return Inputs(
        seed=seed,
        sizes=sizes,
        documents=documents,
        corpus=corpus,
        positive=workload.positive[: sizes.positives],
        negative=workload.negative,
        stream=stream,
        reserve=workload.positive[sizes.positives :],
    )


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------


def reference_work() -> int:
    """A fixed pure-Python routine — dict, set, sort and string work — that
    uses none of the program, so its time tracks the machine alone."""
    table = {}
    for i in range(3000):
        table[(i % 97, str(i))] = [i, i * 2]
    kept = {key[1] for key in table if key[0] % 3}
    return len(sorted(kept, key=len)) + sum(len(value) for value in table.values())


def machine_speed() -> list[float]:
    """Wall seconds of :data:`REFERENCE_REPEATS` reference runs, now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


def scale_between(before: list[float], after: list[float]) -> float:
    """Factor taking wall time measured between two machine-speed readings
    to time at the nominal speed :data:`REFERENCE_S`."""
    return REFERENCE_S / statistics.median(before + after)


def _reset_peak_rss() -> None:
    """Make the kernel's peak-RSS mark start again from the current RSS."""
    with contextlib.suppress(OSError), open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def rss_mb(field: str) -> float:
    """``VmRSS`` / ``VmHWM`` of this process in MB (getrusage fallback)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Set-up times, scaled to the nominal machine speed.
    setup_s: list[float] = field(default_factory=list)
    #: Per pass: the wall milliseconds of each operation, in order.
    op_ms: list[list[float]] = field(default_factory=list)
    #: Per pass: ``(items, wall seconds)`` of each bulk section, in order;
    #: the sections' items per second make the throughput.
    bulk: list[list[tuple[int, float]]] = field(default_factory=list)
    #: Per pass: the factor scaling its wall times to the nominal speed.
    scales: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    serve_wall_s: float = 0.0
    #: Highest RSS (MB) seen inside any set-up or serving section.
    peak_rss_mb: float = 0.0
    #: Deterministic quality figures, reported with the per-layer metrics.
    quality: dict[str, float] = field(default_factory=dict)
    #: Final set-up state, for the per-layer state metrics.
    synopsis: Optional[DocumentSynopsis] = None
    overlay: Optional[BrokerOverlay] = None

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; report it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"oracle failed: {what}", file=sys.stderr)

    def crashed(self, what: str, op: bool, items: int = 0) -> None:
        """Count one operation that raised; it times as infinite.

        *op* says whether the section was a timed operation, *items*
        how many bulk items it served (0: not a bulk section), so that
        every pass keeps the same shape.
        """
        self.attempted += 1
        self.failed += 1
        if op:
            self.op_ms[-1].append(math.inf)
        if items:
            self.bulk[-1].append((items, math.inf))
        print(f"operation raised: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def note_peak(self) -> None:
        """Fold the peak RSS of the section that just ended."""
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb("VmHWM"))

    def op_latencies(self) -> list[float]:
        """Per operation, the median over passes of its scaled time (ms).

        Every pass repeats the same operations on an identical state, so
        the passes are repeated measurements of one cost.
        """
        return [
            statistics.median(
                milliseconds * scale
                for milliseconds, scale in zip(times, self.scales, strict=True)
            )
            for times in zip(*self.op_ms, strict=True)
        ]

    def throughput(self) -> float:
        """Items per second at the nominal machine speed: all bulk items
        over the sum of each bulk section's median scaled time."""
        items = seconds = 0.0
        for sections in zip(*self.bulk, strict=True):
            items += sections[0][0]
            seconds += statistics.median(
                elapsed * scale
                for (_, elapsed), scale in zip(sections, self.scales, strict=True)
            )
        return items / seconds


def passes(
    seconds: float,
    outcome: Outcome,
    tracer: Tracer,
    setup: Callable[[], Any],
    serve: Callable[[int, Any], Any],
    check: Callable[[int, Any, Any], None],
    mutates: bool,
    setups: int = SETUPS,
) -> Any:
    """Time every set-up and serving pass; returns the last pass's state.

    A workload whose passes only read their state sets up *setups* times
    and serves every pass from the last state; one whose passes *mutate*
    it sets up afresh before each pass.  ``serve(pass, state)`` is the
    timed pass and returns what it served; ``check(pass, state, served)``
    then runs its oracles.  The machine's speed and the peak RSS are read
    around every set-up and pass, so neither includes the oracles.  The
    first pass decides how many passes fill *seconds*, at least
    :data:`MIN_PASSES`.
    """

    def fresh() -> Any:
        gc.collect()
        before = machine_speed()
        _reset_peak_rss()
        state, elapsed = tracer.timed("setup", setup)
        outcome.note_peak()
        outcome.setup_s.append(elapsed * scale_between(before, machine_speed()))
        return state

    state = None
    if not mutates:
        for _ in range(setups):
            state = None  # one state alive at a time, as in a deployment
            state = fresh()
    planned = MIN_PASSES
    index = 0
    while index < planned:
        if mutates:
            state = None
            state = fresh()
        outcome.op_ms.append([])
        outcome.bulk.append([])
        gc.collect()
        before = machine_speed()
        _reset_peak_rss()
        started = time.perf_counter()
        served = serve(index, state)
        outcome.serve_wall_s += time.perf_counter() - started
        outcome.note_peak()
        outcome.scales.append(scale_between(before, machine_speed()))
        tracer.op_id = -1
        with tracer.paused():
            check(index, state, served)
        del served
        if index == 0:
            planned = max(MIN_PASSES, round(seconds / outcome.serve_wall_s))
        index += 1
    return state


def _ingest(inputs: Inputs) -> DocumentSynopsis:
    synopsis = DocumentSynopsis(
        mode=SYNOPSIS_MODE, capacity=SYNOPSIS_CAPACITY, seed=SYNOPSIS_SEED
    )
    for document in inputs.documents:
        synopsis.insert_document(document)
    return synopsis


def _sel_rel_error(inputs: Inputs, estimator: SelectivityEstimator) -> float:
    """E_rel of positive-pattern selectivity against exact."""
    estimates = [estimator.selectivity(p) for p in inputs.positive]
    exact = [inputs.corpus.selectivity(p) for p in inputs.positive]
    return average_relative_error(exact, estimates).value


# ---------------------------------------------------------------------------
# estimate: SEL and M1/M2/M3 queries over a synopsis
# ---------------------------------------------------------------------------


#: An estimator query: ``(p, None)`` asks ``P(p)``, ``(p, q)`` asks M1, M2
#: and M3 of the pair.
Query = tuple[TreePattern, Optional[TreePattern]]


def _queries(inputs: Inputs) -> list[Query]:
    """One pass of estimator queries: ``P(p)`` of every positive and
    negative pattern, then each pattern paired with a positive partner
    fixed by the data set, each half in the run seed's order.

    Every pattern's selectivity is asked before any pair, so each ``P(p)``
    query is the first for its pattern and each pair finds ``P(p)`` and
    ``P(q)`` cached: what a query costs does not depend on the order.
    """
    pairing = random.Random(DATA_SEED + 3)
    patterns = inputs.positive + inputs.negative
    pairs: list[Query] = []
    for pattern in patterns:
        partner = pairing.choice(inputs.positive)
        while partner == pattern:
            partner = pairing.choice(inputs.positive)
        pairs.append((pattern, partner))
    single: list[Query] = [(pattern, None) for pattern in patterns]
    order = random.Random(inputs.seed + 4)
    order.shuffle(single)
    order.shuffle(pairs)
    return single + pairs


def _answer(estimator: SelectivityEstimator, query: Query) -> tuple[float, ...]:
    """``(P(p),)`` or ``(M1, M2, M3)`` of the pair, through *estimator*."""
    pattern, partner = query
    if partner is None:
        return (estimator.selectivity(pattern),)
    similarity = SimilarityEstimator(estimator)
    return tuple(
        similarity.similarity(pattern, partner, metric)
        for metric in ("M1", "M2", "M3")
    )


def run_estimate(inputs: Inputs, seconds: float, tracer: Tracer) -> Outcome:
    """``estimate``: ingest the synopsis, then answer every query through
    one estimator per pass, whose caches warm as the pass goes on."""
    outcome = Outcome()
    queries = _queries(inputs)
    sample = sorted(
        random.Random(inputs.seed + 5).sample(
            range(len(queries)), max(1, round(ORACLE_SAMPLE * len(queries)))
        )
    )
    reference: list[Any] = []

    def serve(_index: int, synopsis: DocumentSynopsis) -> list[Any]:
        estimator = SelectivityEstimator(synopsis)
        answers: list[Any] = []
        for op, query in enumerate(queries):
            tracer.op_id = op
            try:
                answer, elapsed = tracer.timed(
                    "serve.query", _answer, estimator, query
                )
            except Exception:
                outcome.crashed(f"estimate query {op}", op=True, items=1)
                answers.append(None)
                continue
            outcome.op_ms[-1].append(elapsed * 1e3)
            outcome.bulk[-1].append((1, elapsed))
            answers.append(answer)
        return answers

    def check(index: int, synopsis: DocumentSynopsis, answers: list[Any]) -> None:
        if index == 0:
            reference.extend(answers)
            for op in sample:
                if answers[op] is not None:
                    # A fresh estimator has no cache another query warmed.
                    fresh = _answer(SelectivityEstimator(synopsis), queries[op])
                    outcome.check(fresh == answers[op], f"query {op} vs fresh")
        for op, answer in enumerate(answers):
            if answer is not None:
                outcome.check(answer == reference[op], f"query {op} pass {index}")

    outcome.synopsis = passes(
        seconds,
        outcome,
        tracer,
        lambda: _ingest(inputs),
        serve,
        check,
        mutates=False,
        setups=ESTIMATE_SETUPS,
    )
    if not outcome.failed:
        with tracer.paused():
            _estimate_quality(inputs, queries, reference, outcome)
    return outcome


def _estimate_quality(
    inputs: Inputs,
    queries: list[Query],
    answers: list[tuple[float, ...]],
    outcome: Outcome,
) -> None:
    """E_rel of positive-pattern selectivity and of M3, against exact."""
    positive = set(inputs.positive)
    scored = [
        (query, answer)
        for query, answer in zip(queries, answers, strict=True)
        if query[0] in positive
    ]
    single = [(query[0], answer[0]) for query, answer in scored if query[1] is None]
    pairs = [(query, answer[2]) for query, answer in scored if query[1] is not None]
    corpus = inputs.corpus
    m3 = METRICS["M3"]
    outcome.quality["selectivity.sel_rel_error"] = average_relative_error(
        [corpus.selectivity(pattern) for pattern, _ in single],
        [value for _, value in single],
    ).value
    outcome.quality["similarity.m3_rel_error"] = average_relative_error(
        [m3(corpus, *pair) for pair, _ in pairs],
        [value for _, value in pairs],
    ).value


# ---------------------------------------------------------------------------
# deliver / resubscribe / churn: communities over the synopsis-backed
# estimator
# ---------------------------------------------------------------------------


@dataclass
class Deployment:
    """One set-up's serving state."""

    synopsis: DocumentSynopsis
    estimator: SelectivityEstimator
    overlay: BrokerOverlay
    builder: OverlayBuilder


def deploy(inputs: Inputs) -> Deployment:
    """Ingest, home the subscriptions round-robin on the broker tree, and
    advertise with ``CommunityPolicy`` over the synopsis-backed
    estimator, LSH-gated."""
    synopsis = _ingest(inputs)
    estimator = SelectivityEstimator(synopsis)
    builder = (
        OverlayBuilder()
        .topology(TOPOLOGY, n_brokers=inputs.sizes.brokers, seed=TOPOLOGY_SEED)
        .subscriptions(inputs.positive)
        .provider(estimator)
        .advertisement(CommunityPolicy(COMMUNITY_THRESHOLD))
        .candidates(LSHCandidates())
    )
    return Deployment(synopsis, estimator, builder.build_overlay(), builder)


def publish(
    engine: Any,
    documents: list[XMLTree],
    first: int,
    brokers: int,
    rate: float = RATE,
) -> None:
    """Publish *documents* every ``1 / rate`` simulated time units,
    round-robin over brokers by their stream position (*first* is the
    position of the first)."""
    for offset, document in enumerate(documents):
        engine.publish(
            document, at_broker=(first + offset) % brokers, time=offset / rate
        )


def _delivery_quality(
    inputs: Inputs, overlay: BrokerOverlay, routed: list[set[int]]
) -> tuple[float, float]:
    """Precision and recall of *routed* against exact match sets."""
    stream = GroundTruth(inputs.stream)
    interest = {
        subscriber: stream.match_set(pattern)
        for subscriber, (_, pattern) in overlay.subscriptions.items()
    }
    true = delivered = wanted_total = 0
    for document, got in zip(inputs.stream, routed, strict=True):
        wanted = {s for s, ids in interest.items() if document.doc_id in ids}
        true += len(got & wanted)
        delivered += len(got)
        wanted_total += len(wanted)
    precision = true / delivered if delivered else 1.0
    recall = true / wanted_total if wanted_total else 1.0
    return precision, recall


def run_deliver(inputs: Inputs, seconds: float, tracer: Tracer) -> Outcome:
    """``deliver``: route fresh documents one by one, then publish the
    same stream through delivery engines, one per chunk."""
    outcome = Outcome()
    stream = inputs.stream
    brokers = inputs.sizes.brokers
    reference: list[set[int]] = []

    def serve(_index: int, deployment: Deployment) -> tuple[list, list]:
        overlay = deployment.overlay
        routed: list[set[int]] = []
        for op, document in enumerate(stream):
            tracer.op_id = op
            try:
                result, elapsed = tracer.timed(
                    "serve.route", overlay.route, document, op % brokers
                )
            except Exception:
                outcome.crashed(f"route document {op}", op=True)
                routed.append(set())
                continue
            outcome.op_ms[-1].append(elapsed * 1e3)
            routed.append(result[0])
        engines = []
        for first in range(0, len(stream), ENGINE_CHUNK):
            chunk = stream[first : first + ENGINE_CHUNK]
            tracer.op_id = len(stream) + first
            engine = deployment.builder.build_engine(overlay)
            publish(engine, chunk, first, brokers)
            try:
                _, elapsed = tracer.timed("serve.engine", engine.run)
            except Exception:
                outcome.crashed(f"engine chunk at {first}", op=False, items=len(chunk))
                continue
            outcome.bulk[-1].append((len(chunk), elapsed))
            engines.append((first, engine))
        return routed, engines

    def check(index: int, _deployment: Deployment, served: tuple[list, list]) -> None:
        routed, engines = served
        for first, engine in engines:
            for offset, delivered in engine.delivered_sets().items():
                outcome.check(
                    set(delivered) == routed[first + offset],
                    f"engine vs route, document {first + offset}",
                )
        if index == 0:
            reference.extend(routed)

    deployment = passes(
        seconds,
        outcome,
        tracer,
        lambda: deploy(inputs),
        serve,
        check,
        mutates=False,
    )
    outcome.synopsis = deployment.synopsis
    outcome.overlay = deployment.overlay
    with tracer.paused():
        _deliver_quality(inputs, deployment, reference, outcome)
    return outcome


def _deliver_quality(
    inputs: Inputs, deployment: Deployment, routed: list[set[int]], outcome: Outcome
) -> None:
    """Estimator accuracy, delivery quality and the engine's simulated
    p99 over the whole stream."""
    outcome.quality["selectivity.sel_rel_error"] = _sel_rel_error(
        inputs, SelectivityEstimator(deployment.synopsis)
    )
    precision, recall = _delivery_quality(inputs, deployment.overlay, routed)
    outcome.quality["policy.delivery_precision"] = precision
    outcome.quality["policy.delivery_recall"] = recall
    whole = deployment.builder.build_engine(deployment.overlay)
    publish(whole, inputs.stream, 0, inputs.sizes.brokers)
    outcome.quality["engine.sim_latency_p99"] = whole.run().latency_p99


class _MemoReplay:
    """Selectivity provider answering through the live per-broker indexes.

    Each subscription's home index memoises the values its communities
    were formed with.  A rebuild fed these values must reproduce the live
    tables if incremental maintenance lost nothing; values an index never
    memoised are computed through it from the current synopsis.
    """

    def __init__(self, overlay: BrokerOverlay) -> None:
        self._index_of = {
            pattern: overlay.brokers[home].index
            for home, pattern in overlay.subscriptions.values()
        }

    def selectivity(self, pattern: TreePattern) -> float:
        return self._index_of[pattern].selectivity(pattern)

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        return self._index_of[p].joint_selectivity(p, q)


def _divergence(first: dict, second: dict) -> int:
    """Routing-table entries present in one signature but not the other."""
    return sum(
        len(first.get(broker, frozenset()) ^ second.get(broker, frozenset()))
        for broker in set(first) | set(second)
    )


def _check_tables(outcome: Outcome, overlay: BrokerOverlay) -> None:
    """Trie invariants at every broker; live tables against a rebuild
    from nothing, and against a rebuild fed the live indexes' values."""
    for broker_id, node in overlay.brokers.items():
        try:
            # The table keeps its merged trie private; check() only reads.
            node.table._trie.check()
            ok = True
        except AssertionError:
            ok = False
        outcome.check(ok, f"trie check at broker {broker_id}")
    live = overlay.topology_signature()
    divergence = _divergence(live, overlay.rebuilt().topology_signature())
    outcome.check(
        divergence == 0,
        f"live tables vs rebuilt(): {divergence} entries differ",
    )
    replayed = overlay.rebuilt(provider=_MemoReplay(overlay)).topology_signature()
    outcome.check(live == replayed, "live tables vs rebuilt() over the live values")


def _run_cycles(
    inputs: Inputs, seconds: float, tracer: Tracer, grow_synopsis: bool
) -> Outcome:
    """Per cycle: optionally grow the synopsis and clear the estimator's
    cache, publish the cycle's documents through a batched engine, then
    one subscribe and one unsubscribe, each one timed operation."""
    outcome = Outcome()
    sizes = inputs.sizes
    signature: list[dict] = []

    def setup() -> Deployment:
        deployment = deploy(inputs)
        deployment.builder.service(BatchServiceModel())
        return deployment

    def serve(_index: int, deployment: Deployment) -> list:
        overlay = deployment.overlay
        trajectory = random.Random(DATA_SEED + 4)
        drains = []
        for cycle in range(sizes.cycles):
            first = cycle * sizes.cycle_docs
            batch = inputs.stream[first : first + sizes.cycle_docs]
            tracer.op_id = cycle
            try:
                if grow_synopsis:
                    for document in batch:
                        deployment.synopsis.insert_document(document)
                    deployment.estimator.clear_cache()
                engine = deployment.builder.build_engine(overlay)
                publish(engine, batch, first, sizes.brokers)
                _, elapsed = tracer.timed("serve.engine", engine.run)
            except Exception:
                outcome.crashed(
                    f"cycle {cycle}: publish", op=False, items=len(batch)
                )
            else:
                outcome.bulk[-1].append((len(batch), elapsed))
                # The subscription change that follows changes routing, so
                # the oracle's route results are taken now, untraced.
                with tracer.paused():
                    routed = [
                        overlay.route(document, (first + offset) % sizes.brokers)[0]
                        for offset, document in enumerate(batch)
                    ]
                drains.append((cycle, engine.delivered_sets(), routed))
            home = trajectory.randrange(sizes.brokers)
            pattern = inputs.reserve[cycle % len(inputs.reserve)]
            try:
                _, elapsed = tracer.timed("serve.subscribe", overlay.subscribe, home, pattern)
            except Exception:
                outcome.crashed(f"cycle {cycle}: subscribe", op=True)
            else:
                outcome.op_ms[-1].append(elapsed * 1e3)
            victim = trajectory.choice(sorted(overlay.subscriptions))
            try:
                _, elapsed = tracer.timed("serve.unsubscribe", overlay.unsubscribe, victim)
            except Exception:
                outcome.crashed(f"cycle {cycle}: unsubscribe", op=True)
            else:
                outcome.op_ms[-1].append(elapsed * 1e3)
        return drains

    def check(index: int, deployment: Deployment, drains: list) -> None:
        for cycle, delivered_sets, routed in drains:
            for offset, delivered in delivered_sets.items():
                outcome.check(
                    set(delivered) == routed[offset],
                    f"cycle {cycle} engine vs route, document {offset}",
                )
        live = deployment.overlay.topology_signature()
        if index == 0:
            signature.append(live)
            _check_tables(outcome, deployment.overlay)
        else:
            outcome.check(live == signature[0], f"pass {index} tables vs pass 0")

    deployment = passes(
        seconds, outcome, tracer, setup, serve, check, mutates=True
    )
    outcome.synopsis = deployment.synopsis
    outcome.overlay = deployment.overlay
    with tracer.paused():
        outcome.quality["selectivity.sel_rel_error"] = _sel_rel_error(
            inputs, SelectivityEstimator(_ingest(inputs))
        )
    return outcome


def run_resubscribe(inputs: Inputs, seconds: float, tracer: Tracer) -> Outcome:
    """``resubscribe``: subscription churn and batched drains over a
    synopsis that stays as set-up built it."""
    return _run_cycles(inputs, seconds, tracer, grow_synopsis=False)


def run_churn(inputs: Inputs, seconds: float, tracer: Tracer) -> Outcome:
    """``churn``: as ``resubscribe``, and each cycle first inserts its
    documents into the synopsis and calls ``clear_cache()``."""
    return _run_cycles(inputs, seconds, tracer, grow_synopsis=True)


WORKLOADS: dict[str, Callable[[Inputs, float, Tracer], Outcome]] = {
    "estimate": run_estimate,
    "deliver": run_deliver,
    "resubscribe": run_resubscribe,
    "churn": run_churn,
}


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile of *samples*."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
