"""Unit tests for the merged pattern trie.

The property suites (``test_trie_properties``) pin the trie against the
per-pattern oracle on random workloads; here the structure itself is
exercised: prefix sharing, degree-sorted branch order, operation
accounting, the incremental-maintenance invariants under churn, a golden
counter digest on a generated deployment, and documents deeper than the
interpreter's recursion limit.
"""

import hashlib

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.dtd.builtin import builtin_dtd
from repro.experiments.config import ExperimentConfig
from repro.generators.docgen import DocumentGenerator
from repro.generators.workload import WorkloadBuilder
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy
from repro.routing.trie import PatternTrie, TrieMatch, prepare
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.matcher import matches
from repro.xmltree.parser import parse_xml
from repro.xmltree.tree import XMLTreeBuilder


def doc(markup: str):
    return parse_xml(markup, doc_id=0)


class TestBasics:
    def test_empty_trie_matches_nothing_for_free(self):
        trie = PatternTrie()
        result = trie.match(doc("<a><b/></a>"))
        assert result == TrieMatch(set(), set(), 0)

    def test_single_pattern_roundtrip(self):
        trie = PatternTrie()
        pattern = parse_xpath("/a/b")
        trie.add(pattern, "link-1")
        result = trie.match(doc("<a><b/></a>"))
        assert result.destinations == {"link-1"}
        assert result.patterns == {pattern}
        assert result.operations > 0
        assert trie.match(doc("<a><c/></a>")).destinations == set()

    def test_equal_patterns_share_one_entry(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a/b"), "link-1")
        nodes = trie.node_count
        trie.add(parse_xpath("/a/b"), "link-2")
        assert len(trie) == 1
        assert trie.node_count == nodes
        assert trie.destinations_of(parse_xpath("/a/b")) == {
            "link-1",
            "link-2",
        }

    def test_contains_and_len(self):
        trie = PatternTrie()
        assert parse_xpath("/a") not in trie
        trie.add(parse_xpath("/a"), "link-1")
        assert parse_xpath("/a") in trie
        assert "not a pattern" not in trie
        assert len(trie) == 1

    def test_clear_resets_everything(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a/b[c]"), "link-1")
        trie.add(parse_xpath("//d"), "link-2")
        trie.clear()
        assert len(trie) == 0
        assert trie.node_count == 0
        assert trie.interned_count == 0
        assert trie.match(doc("<a><b><c/></b></a>")).destinations == set()
        trie.check()


class TestAgainstOracle:
    PATTERNS = [
        "/a",
        "/*",
        "//a",
        "//*",
        "/a/b",
        "/a/*/c",
        "/a//c",
        "/a[b][c]",
        "/a[b[d]]/c",
        "/a[.//d]",
        "//b[c]",
        "//b//d",
        "/a[b][.//d]",
        "/*[b]/c",
        "//*[b][c]",
    ]
    DOCS = [
        "<a/>",
        "<a><b/></a>",
        "<a><b/><c/></a>",
        "<a><b><d/></b><c/></a>",
        "<a><x><c/></x></a>",
        "<a><x><b><c/><d/></b></x></a>",
        "<b><c/></b>",
        "<z><a><b/><c><d/></c></a></z>",
    ]

    def test_trie_agrees_with_matcher_on_tricky_patterns(self):
        trie = PatternTrie()
        patterns = [parse_xpath(text) for text in self.PATTERNS]
        for index, pattern in enumerate(patterns):
            trie.add(pattern, f"link-{index}")
        trie.check()
        for markup in self.DOCS:
            document = doc(markup)
            result = trie.match(document)
            expected = {
                pattern for pattern in patterns if matches(document, pattern)
            }
            assert result.patterns == expected, markup
            assert result.destinations == {
                f"link-{patterns.index(pattern)}" for pattern in expected
            }


class TestSharing:
    def test_common_prefix_shares_spine_nodes(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a/b/c"), "link-1")
        assert trie.node_count == 3
        trie.add(parse_xpath("/a/b/d"), "link-2")
        # Only the diverging leaf is new; /a/b is shared.
        assert trie.node_count == 4

    def test_equal_branch_subtrees_intern_to_one_node(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a[x[y]]/b"), "link-1")
        interned = trie.interned_count
        trie.add(parse_xpath("/c[x[y]]/d"), "link-2")
        # The [x[y]] constraint is hash-consed, not duplicated.
        assert trie.interned_count == interned

    def test_dead_shared_prefix_prunes_for_one_operation(self):
        trie = PatternTrie()
        for index in range(50):
            trie.add(parse_xpath(f"/z/t{index}"), f"link-{index}")
        result = trie.match(doc("<a><b/></a>"))
        # All 50 spines hang under the shared /z root step: one root
        # label test kills the entire subtrie.
        assert result.destinations == set()
        assert result.operations == 1


class TestDegreeSortedOrder:
    def test_exact_steps_sort_before_wildcard_before_descendant(self):
        trie = PatternTrie()
        trie.add(parse_xpath("//a"), "link-descendant")
        trie.add(parse_xpath("/*"), "link-wild")
        trie.add(parse_xpath("/a"), "link-exact")
        trie.add(parse_xpath("//*"), "link-wildest")
        order = [
            (node.axis, node.label) for node in trie._root.child_order
        ]
        assert order == [
            ("self", "a"),
            ("self", "*"),
            ("anywhere", "a"),
            ("anywhere", "*"),
        ]

    def test_order_is_insertion_independent(self):
        texts = ["/a", "/*", "//a", "/a/b", "/a//b", "/a[x]/b"]
        forward, backward = PatternTrie(), PatternTrie()
        for index, text in enumerate(texts):
            forward.add(parse_xpath(text), index)
        for index, text in reversed(list(enumerate(texts))):
            backward.add(parse_xpath(text), index)
        document = doc("<a><b/><x/></a>")
        first = forward.match(document)
        second = backward.match(document)
        assert first.destinations == second.destinations
        assert first.operations == second.operations

    def test_exact_branch_becomes_spine_not_branch(self):
        # In /a[*]/b the exact child b is degree-first, so the spine is
        # a → b and the wildcard rides along as a branch constraint.
        trie = PatternTrie()
        trie.add(parse_xpath("/a[*]/b"), "link-1")
        labels = []
        node = trie._root
        while node.child_order:
            node = node.child_order[0]
            labels.append(node.label)
        assert labels == ["a", "b"]


class TestOperationAccounting:
    def test_shared_structure_costs_once(self):
        single = PatternTrie()
        single.add(parse_xpath("/a/b/c"), "link-0")
        document = doc("<a><b><c/></b></a>")
        base = single.match(document).operations

        shared = PatternTrie()
        for index in range(40):
            shared.add(parse_xpath("/a/b/c"), f"link-{index}")
        result = shared.match(document)
        assert len(result.destinations) == 40
        # 40 destinations on one canonical pattern: identical trie work.
        assert result.operations == base

    def test_operations_deterministic_per_document(self):
        trie = PatternTrie()
        for index, text in enumerate(["/a/b", "/a[c]/b", "//b", "/a/*"]):
            trie.add(parse_xpath(text), index)
        document = doc("<a><b/><c/></a>")
        assert (
            trie.match(document).operations
            == trie.match(document).operations
        )


class TestIncrementalMaintenance:
    def test_discard_returns_trie_to_pristine(self):
        trie = PatternTrie()
        patterns = [
            parse_xpath(text)
            for text in ["/a/b[c]/d", "/a/b", "//x[y]", "/a[.//d]/b"]
        ]
        for index, pattern in enumerate(patterns):
            trie.add(pattern, f"link-{index}")
        for index, pattern in enumerate(patterns):
            trie.discard(pattern, f"link-{index}")
            trie.check()
        assert len(trie) == 0
        assert trie.node_count == 0
        assert trie.interned_count == 0

    def test_discard_one_destination_keeps_shared_entry(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a"), "link-1")
        trie.add(parse_xpath("/a"), "link-2")
        trie.discard(parse_xpath("/a"), "link-1")
        assert trie.destinations_of(parse_xpath("/a")) == {"link-2"}
        assert trie.match(doc("<a/>")).destinations == {"link-2"}
        trie.check()

    def test_discard_keeps_shared_prefix_of_survivors(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a/b/c"), "link-1")
        trie.add(parse_xpath("/a/b/d"), "link-2")
        trie.discard(parse_xpath("/a/b/c"), "link-1")
        trie.check()
        assert trie.node_count == 3
        assert trie.match(doc("<a><b><d/></b></a>")).destinations == {
            "link-2"
        }

    def test_rename_destination_rekeys_in_place(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a"), "link-1")
        trie.add(parse_xpath("/a/b"), "link-1")
        trie.add(parse_xpath("/a"), "link-2")
        nodes = trie.node_count
        trie.rename_destination(
            "link-1", "link-9", [parse_xpath("/a"), parse_xpath("/a/b")]
        )
        assert trie.node_count == nodes
        assert trie.destinations_of(parse_xpath("/a")) == {
            "link-9",
            "link-2",
        }
        assert trie.match(doc("<a><b/></a>")).destinations == {
            "link-9",
            "link-2",
        }
        trie.check()

    def test_mutations_reset_cached_plans_on_their_path(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a/b/c"), "link-1")
        document = doc("<a><b><c/><d/></b></a>")
        trie.match(document)  # caches the plans along /a/b
        trie.add(parse_xpath("/a/b/d"), "link-2")
        trie.check()
        assert trie.match(document).destinations == {"link-1", "link-2"}
        trie.discard(parse_xpath("/a/b/c"), "link-1")
        trie.check()
        assert trie.match(document).destinations == {"link-2"}

    def test_discard_unknown_pattern_raises(self):
        trie = PatternTrie()
        with pytest.raises(KeyError):
            trie.discard(parse_xpath("/a"), "link-1")

    def test_checked_churn_interleaving(self):
        trie = PatternTrie()
        texts = ["/a/b", "/a/b/c", "//d", "/a[x]/b", "/a/b", "/*[y]"]
        for step, text in enumerate(texts):
            trie.add(parse_xpath(text), f"link-{step % 3}")
            trie.check()
        trie.discard(parse_xpath("/a/b"), "link-0")
        trie.check()
        # /a/b is still active: step 4 registered it for link-1 too.
        assert parse_xpath("/a/b") in trie


def deployment_counter_digest() -> str:
    """sha256 over every broker trie's counters on a generated NITF
    deployment: 60 stream documents, 60 positive patterns, a 6-broker
    random tree under per-subscription advertisement.

    The patterns reach the ``//*``, descendant, wildcard, branch and
    gate paths of the kernel.  Per broker the digest holds ``match()``
    of every document (operations, sorted destinations, sorted
    patterns) and one ``match_batch`` over 20 prepared documents
    (operations, memo hits and misses, per-document operations).
    """
    config = ExperimentConfig.quick("nitf")
    dtd = builtin_dtd("nitf")
    documents = list(
        DocumentGenerator(dtd, seed=2007, config=config.doc_config).stream(60)
    )
    workload = WorkloadBuilder(
        dtd,
        DocumentCorpus(documents[:30]),
        seed=2008,
        config=config.pattern_config,
    ).build(n_positive=60, n_negative=0)
    overlay = BrokerOverlay.random_tree(6, seed=11)
    overlay.attach_round_robin(workload.positive)
    overlay.advertise(PerSubscriptionPolicy())
    records: list[tuple] = []
    for broker_id in sorted(overlay.brokers):
        trie = overlay.brokers[broker_id].table._trie
        for document in documents:
            result = trie.match(document)
            records.append(
                (
                    broker_id,
                    result.operations,
                    sorted(result.destinations),
                    sorted(str(pattern) for pattern in result.patterns),
                )
            )
        batch = trie.match_batch([prepare(d) for d in documents[:20]])
        records.append(
            (
                broker_id,
                batch.operations,
                batch.memo_hits,
                batch.memo_misses,
                [result.operations for result in batch.results],
            )
        )
    return hashlib.sha256(repr(records).encode()).hexdigest()


#: :func:`deployment_counter_digest` as cut before the matching plans
#: were compiled; any change to traversal or candidate order, or to an
#: ``ops``/``hits``/``misses`` increment, moves it.
GOLDEN_DEPLOYMENT_DIGEST = (
    "dd8d87143fd9ddc429dd411d59508a2cc4bad5421db9a73c17dad73356c8c029"
)


class TestGoldenCounters:
    def test_deployment_counters_are_pinned(self):
        assert deployment_counter_digest() == GOLDEN_DEPLOYMENT_DIGEST


def deep_chain(depth: int):
    """``a`` nested *depth* deep with a ``b`` leaf at the bottom; the
    root ``a`` also holds a ``c`` leaf after the chain."""
    builder = XMLTreeBuilder()
    top = node = builder.add("a")
    for _ in range(depth - 1):
        node = builder.add("a", node)
    builder.add("b", node)
    builder.add("c", top)
    return builder.build(doc_id=0)


class TestDeepDocuments:
    DEPTH = 10_000

    def test_deep_chain_routes_to_its_subscriber(self):
        overlay = BrokerOverlay.chain(2)
        subscriber = overlay.attach(1, parse_xpath("/a[c][.//a/b]"))
        overlay.advertise(PerSubscriptionPolicy())
        delivered, _, _ = overlay.route(deep_chain(self.DEPTH), 0)
        assert delivered == {subscriber}

    @pytest.mark.parametrize(
        "text, extra", [("/a[c][.//a/b]", 5), ("/a[c][.//*/b]", 6)]
    )
    def test_self_descent_costs_three_ops_per_level(self, text, extra):
        trie = PatternTrie()
        trie.add(parse_xpath(text), "link-1")
        result = trie.match(deep_chain(self.DEPTH))
        assert result.destinations == {"link-1"}
        assert result.operations == 3 * self.DEPTH + extra
