"""Property suite pinning the merged trie to the per-pattern oracle.

Three layers, each on random workloads:

* **trie vs matcher** — ``PatternTrie.match`` returns exactly the
  patterns the memoised :class:`PatternMatcher` accepts, across add /
  discard churn, with the maintenance invariants (``check()``, cached
  match plans included) audited after every mutation and the churned
  trie's batch results and counters equal to a fresh build's;
* **table, both modes** — ``RoutingTable.destinations_for`` answers
  identically in trie and linear mode on the *same* table (both
  structures are always maintained) across add / remove / surgery
  interleavings;
* **overlay sweep** — after subscribe / unsubscribe / join / leave
  churn under all three advertisement policies, every broker table
  agrees across modes, routed delivery equals flat exact matching, and
  every broker trie still passes its invariant audit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.table import RoutingTable
from repro.routing.trie import PatternTrie
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.matcher import matches
from tests.strategies import property_max_examples, tree_patterns, xml_trees
from tests.test_selectivity_properties import corpora
from tests.test_topology_properties import (
    POLICIES,
    churn,
    flat_delivered,
    seeded_overlay,
)


class TestTrieVersusMatcher:
    @settings(max_examples=property_max_examples(30), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=8),
        st.lists(xml_trees(), min_size=1, max_size=4),
    )
    def test_match_set_equals_per_pattern_oracle(self, patterns, documents):
        trie = PatternTrie()
        for index, pattern in enumerate(patterns):
            trie.add(pattern, index)
        trie.check()
        for document in documents:
            result = trie.match(document)
            expected = {
                index
                for index, pattern in enumerate(patterns)
                if matches(document, pattern)
            }
            assert result.destinations == expected
            assert result.patterns == {patterns[i] for i in expected}

    @settings(max_examples=property_max_examples(20), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=2, max_size=8),
        st.lists(xml_trees(), min_size=1, max_size=3),
        st.data(),
    )
    def test_churned_trie_stays_exact_and_consistent(
        self, patterns, documents, data
    ):
        trie = PatternTrie()
        active: list[tuple] = []
        for step in range(data.draw(st.integers(2, 10), label="ops")):
            if active and data.draw(st.booleans(), label=f"discard{step}"):
                registration = data.draw(
                    st.sampled_from(active), label=f"victim{step}"
                )
                active.remove(registration)
                trie.discard(*registration)
            else:
                pattern = data.draw(
                    st.sampled_from(patterns), label=f"pattern{step}"
                )
                destination = data.draw(
                    st.integers(0, 3), label=f"destination{step}"
                )
                if (pattern, destination) in active:
                    continue
                active.append((pattern, destination))
                trie.add(pattern, destination)
            # check() also compares every cached match plan with a fresh
            # one; the batch below builds the plans the next mutation
            # must reset.
            trie.check()
            fresh = PatternTrie()
            for registration in active:
                fresh.add(*registration)
            assert trie.match_batch(documents) == fresh.match_batch(documents)
        for document in documents:
            expected = {
                destination
                for pattern, destination in active
                if matches(document, pattern)
            }
            assert trie.match(document).destinations == expected

    @settings(max_examples=property_max_examples(20), deadline=None)
    @given(st.lists(tree_patterns(), min_size=1, max_size=8))
    def test_full_drain_leaves_no_residue(self, patterns):
        trie = PatternTrie()
        for index, pattern in enumerate(patterns):
            trie.add(pattern, index % 3)
        for index, pattern in enumerate(patterns):
            if pattern in trie and (index % 3) in trie.destinations_of(
                pattern
            ):
                trie.discard(pattern, index % 3)
        assert len(trie) == 0
        assert trie.node_count == 0
        assert trie.interned_count == 0
        trie.check()


class TestTableModeEquality:
    @settings(max_examples=property_max_examples(20), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=6),
        st.lists(xml_trees(), min_size=1, max_size=3),
        st.data(),
    )
    def test_destinations_agree_across_modes_under_churn(
        self, patterns, documents, data
    ):
        table = RoutingTable()
        destinations = ["link-0", "link-1", "link-2"]
        for step in range(data.draw(st.integers(1, 12), label="ops")):
            op = data.draw(
                st.sampled_from(
                    ["add", "add", "add", "remove", "drop", "rename"]
                ),
                label=f"op{step}",
            )
            if op == "add":
                table.add(
                    data.draw(st.sampled_from(patterns), label=f"p{step}"),
                    data.draw(
                        st.sampled_from(destinations), label=f"d{step}"
                    ),
                )
            elif op == "remove":
                destination = data.draw(
                    st.sampled_from(destinations), label=f"d{step}"
                )
                held = table.patterns_for(destination)
                if held:
                    table.remove_pattern(
                        data.draw(st.sampled_from(held), label=f"p{step}"),
                        destination,
                    )
            elif op == "drop":
                table.remove_destination(
                    data.draw(
                        st.sampled_from(destinations), label=f"d{step}"
                    )
                )
            else:
                source = data.draw(
                    st.sampled_from(destinations), label=f"src{step}"
                )
                spare = f"renamed-{step}"
                if table.rename_destination(source, spare):
                    table.rename_destination(spare, source)
            table._trie.check()
            for document in documents:
                via_trie, _ = table.destinations_for(
                    document, matching="trie"
                )
                via_linear, _ = table.destinations_for(
                    document, matching="linear"
                )
                assert via_trie == via_linear, op


class TestOverlaySweep:
    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from(["chain", "star", "random_tree"]),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_trie_equals_per_pattern_across_churn_and_policies(
        self, docs, patterns, topology, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay(topology, 3, patterns, policy, provider, data)
        assert overlay.matching == "trie"
        for op in churn(overlay, patterns, data):
            for node in overlay.brokers.values():
                node.table._trie.check()
                for document in corpus.documents:
                    via_trie, _ = node.table.destinations_for(
                        document, matching="trie"
                    )
                    via_linear, _ = node.table.destinations_for(
                        document, matching="linear"
                    )
                    assert via_trie == via_linear, (op, policy_name)
        order = sorted(overlay.brokers)
        for index, document in enumerate(corpus.documents):
            delivered, _, _ = overlay.route(
                document, order[index % len(order)]
            )
            assert delivered == flat_delivered(
                overlay, corpus, document
            ), policy_name
