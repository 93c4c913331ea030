"""Public API surface: imports, __all__, and the CLI entry point."""

import importlib
import subprocess
import sys
import types

import pytest

#: ``__all__`` of the packages whose surface the policy redesign shrank.
SURFACES = {
    "repro": """
        BatchServiceModel BrokerId BrokerOverlay ClosedLoopSource CommunityPolicy
        DeadlineScheduling DeliveryEngine DocumentSynopsis ExactCandidates
        FifoScheduling HybridPolicy LSHCandidates LatencyStats LinkModel
        OverlayBuilder OverlayStats PatternMatcher PatternTrie PerSubscriptionPolicy
        PriorityScheduling QueuePolicy RoutingTable SelectivityEstimator
        ServiceModel SimilarityEstimator SimilarityIndex SourceReport TopologyEvent
        TreePattern WeightedFairScheduling XMLTree __version__
        average_relative_error compress_to_ratio matches measure merge_patterns
        parse_xml parse_xpath root_mean_square_error skeleton to_xpath
    """,
    "repro.core": """
        CandidateGenerator DESCENDANT ErrorSummary ExactCandidates IndexStats
        LSHCandidates METRICS PatternError PatternNode ROOT_LABEL
        SelectivityEstimator SimilarityEstimator SimilarityIndex TreePattern
        WILDCARD XPathSyntaxError average_relative_error containment_order contains
        equivalent is_minimal label_below m1_conditional m2_mean_conditional
        m3_joint_over_union merge_patterns minimize parse_xpath path_pattern
        pattern_from_paths root_mean_square_error to_xpath
    """,
    "repro.routing": """
        AdvertisementPolicy BatchMatch BatchServiceModel BrokerId BrokerNode
        BrokerOverlay BrokerStep ClassLatency ClosedLoopSource Community
        CommunityPolicy DeadlineScheduling DeliveryEngine FifoScheduling
        HybridPolicy InclusionForest InclusionNode LatencyStats LinkModel
        OverlayBuilder OverlayStats PatternTrie PerSubscriptionPolicy
        PreparedDocument PriorityScheduling QueuePolicy RoutingSimulator
        RoutingStats RoutingTable SchedulingPolicy ServiceModel SourceReport
        SubscriptionId TOPOLOGIES TableBatchMatch TableEntry TopologyEvent TrieMatch
        WeightedFairScheduling agglomerative_clustering leader_clustering
        ordered_percentile percentile prepare
    """,
}


class TestTopLevelExports:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.xmltree",
            "repro.synopsis",
            "repro.dtd",
            "repro.generators",
            "repro.routing",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_importable(self, module):
        imported = __import__(module, fromlist=["__all__"])
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"

    @pytest.mark.parametrize("module", sorted(SURFACES))
    def test_surface_is_pinned(self, module):
        # The whole public surface, spelled out: a retired name (or a
        # new one) shows up here as a diff, and no public attribute
        # outside ``__all__`` lingers beside the submodules.
        imported = importlib.import_module(module)
        assert sorted(imported.__all__) == sorted(SURFACES[module].split())
        stray = {
            name
            for name, value in vars(imported).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)
            and name not in imported.__all__
        }
        assert stray == set()

    def test_prepared_document_exported(self):
        import repro.routing
        from repro.routing.trie import PreparedDocument, prepare

        assert "PreparedDocument" in repro.routing.__all__
        assert "prepare" in repro.routing.__all__
        assert repro.routing.PreparedDocument is PreparedDocument
        assert repro.routing.prepare is prepare

    def test_quickstart_flow(self):
        """The README quickstart in one test."""
        from repro import (
            DocumentSynopsis,
            SelectivityEstimator,
            SimilarityEstimator,
            parse_xml,
            parse_xpath,
        )

        synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=1)
        for doc_id in range(20):
            flavour = "b" if doc_id % 2 else "c"
            synopsis.insert_document(
                parse_xml(f"<a><{flavour}><d/></{flavour}></a>", doc_id=doc_id)
            )
        estimator = SelectivityEstimator(synopsis)
        p = parse_xpath("/a/b/d")
        q = parse_xpath("/a//d")
        assert 0.0 <= estimator.selectivity(p) <= 1.0
        sim = SimilarityEstimator(estimator)
        assert 0.0 <= sim.similarity(p, q, metric="M3") <= 1.0


class TestCommandLine:
    def test_cli_tiny_figure(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "summary",
                "--scale",
                "tiny",
                "--dtd",
                "nitf",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "nitf" in result.stdout

    def test_cli_rejects_unknown_target(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "figure99"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0
