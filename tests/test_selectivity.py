"""Selectivity estimation (Algorithms 1 and 2) over the Figure 2 synopsis,
including the Section 3.2 counter-failure examples."""

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.tree import XMLTree


@pytest.fixture()
def sets_estimator(figure2_synopsis_factory):
    return SelectivityEstimator(figure2_synopsis_factory(mode="sets"))


@pytest.fixture()
def counter_estimator(figure2_synopsis_factory):
    return SelectivityEstimator(figure2_synopsis_factory(mode="counters"))


@pytest.fixture()
def hashes_estimator(figure2_synopsis_factory):
    return SelectivityEstimator(
        figure2_synopsis_factory(mode="hashes", capacity=100)
    )


class TestSimplePaths:
    """Path frequencies read straight off Figure 2."""

    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("/a", 1.0),
            ("/a/b", 3 / 6),
            ("/a/c", 2 / 6),
            ("/a/d", 3 / 6),
            ("/a/b/e", 3 / 6),
            ("/a/b/e/k", 3 / 6),
            ("/a/b/e/m", 2 / 6),
            ("/a/c/h", 1 / 6),
            ("/a/d/q", 1 / 6),
            ("/a/z", 0.0),
            ("/z", 0.0),
        ],
    )
    def test_sets_exact(self, sets_estimator, expression, expected):
        assert sets_estimator.selectivity(parse_xpath(expression)) == pytest.approx(
            expected
        )

    @pytest.mark.parametrize(
        "expression,expected",
        [("/a", 1.0), ("/a/b", 0.5), ("/a/c", 2 / 6), ("/a/b/h", 0.0)],
    )
    def test_counters_single_path(self, counter_estimator, expression, expected):
        # Single paths need no independence assumption: counters are exact.
        assert counter_estimator.selectivity(
            parse_xpath(expression)
        ) == pytest.approx(expected)

    def test_hashes_small_corpus_exact(self, hashes_estimator):
        assert hashes_estimator.selectivity(parse_xpath("/a/b")) == pytest.approx(
            0.5
        )


class TestBranchingCorrelations:
    """The Section 3.2 examples: correlation vs the independence assumption."""

    def test_mutually_exclusive_branches_sets(self, sets_estimator):
        # b and d never co-occur: correct probability 0.
        assert sets_estimator.selectivity(parse_xpath("/a[b][d]")) == 0.0

    def test_mutually_exclusive_branches_counters(self, counter_estimator):
        # Counters estimate P(a/b) * P(a/d) = 1/2 * 1/2 = 1/4.
        assert counter_estimator.selectivity(
            parse_xpath("/a[b][d]")
        ) == pytest.approx(0.25)

    def test_cooccurring_branches_sets(self, sets_estimator):
        # f and o always co-occur below c (docs 3 and 4): correct value 1/3.
        assert sets_estimator.selectivity(
            parse_xpath("/a[c/f][c/f/o]")
        ) == pytest.approx(2 / 6)

    def test_cooccurring_branches_counters(self, counter_estimator):
        # Counters: P(a/c/f) * P(a/c/f/o) = 1/3 * 1/3 = 1/9 (paper's 1/9).
        assert counter_estimator.selectivity(
            parse_xpath("/a[c/f][c/f/o]")
        ) == pytest.approx(1 / 9)

    def test_hashes_capture_correlation(self, hashes_estimator):
        assert hashes_estimator.selectivity(parse_xpath("/a[b][d]")) == 0.0


class TestWildcardAndDescendant:
    def test_wildcard_step(self, sets_estimator):
        # /a/*/e: b, c and d all have e children -> every document.
        assert sets_estimator.selectivity(parse_xpath("/a/*/e")) == pytest.approx(
            1.0
        )

    def test_wildcard_leaf(self, sets_estimator):
        assert sets_estimator.selectivity(parse_xpath("/a/*")) == pytest.approx(1.0)

    def test_root_wildcard(self, sets_estimator):
        assert sets_estimator.selectivity(parse_xpath("/*")) == pytest.approx(1.0)

    def test_descendant_leaf(self, sets_estimator):
        # //q appears only in document 4.
        assert sets_estimator.selectivity(parse_xpath("//q")) == pytest.approx(
            1 / 6
        )

    def test_descendant_path(self, sets_estimator):
        # //f/o : f with child o -> documents 3, 4.
        assert sets_estimator.selectivity(parse_xpath("//f/o")) == pytest.approx(
            2 / 6
        )

    def test_descendant_zero_length(self, sets_estimator):
        # /a//b: the 'b' is a direct child of 'a' (zero-length //).
        assert sets_estimator.selectivity(parse_xpath("/a//b")) == pytest.approx(
            3 / 6
        )

    def test_descendant_with_branch(self, sets_estimator):
        # //e[k][m]: an e-node with both k and m below -> docs 1,2 (b/e) and 4 (d/e).
        assert sets_estimator.selectivity(
            parse_xpath("//e[k][m]")
        ) == pytest.approx(3 / 6)

    def test_root_constraints_conjunction(self, sets_estimator):
        # /.[//h][//q]: h occurs in doc 3, q in doc 4; never together.
        assert sets_estimator.selectivity(
            parse_xpath("/.[.//h][.//q]")
        ) == pytest.approx(0.0)

    def test_root_constraints_cooccur(self, sets_estimator):
        # /.[//o][//q]: o in {3,4}, q in {4} -> doc 4.
        assert sets_estimator.selectivity(
            parse_xpath("/.[.//o][.//q]")
        ) == pytest.approx(1 / 6)


class TestEstimatorMechanics:
    def test_empty_synopsis_returns_zero(self):
        estimator = SelectivityEstimator(DocumentSynopsis(mode="sets"))
        assert estimator.selectivity(parse_xpath("/a")) == 0.0

    def test_empty_counter_synopsis(self):
        estimator = SelectivityEstimator(DocumentSynopsis(mode="counters"))
        assert estimator.selectivity(parse_xpath("/a")) == 0.0

    def test_results_cached(self, sets_estimator):
        pattern = parse_xpath("/a/b")
        first = sets_estimator.selectivity(pattern)
        assert sets_estimator.selectivity(pattern) == first
        assert pattern in sets_estimator._selectivity_cache

    def test_clear_cache(self, figure2_synopsis_factory):
        for mode in ("sets", "hashes", "counters"):
            estimator = SelectivityEstimator(figure2_synopsis_factory(mode=mode))
            estimator.joint_selectivity(parse_xpath("/a/b"), parse_xpath("//o"))
            assert estimator._subtree_ids
            estimator.clear_cache()
            assert not estimator._selectivity_cache
            assert not estimator._subtree_ids
            assert not estimator._branch_views
            assert not estimator._branch_counts

    @pytest.mark.parametrize("mode", ["sets", "hashes", "counters"])
    def test_clear_cache_after_insert_equals_fresh(
        self, figure2_synopsis_factory, mode
    ):
        synopsis = figure2_synopsis_factory(mode=mode)
        estimator = SelectivityEstimator(synopsis)
        patterns = [
            parse_xpath(xpath)
            for xpath in ("/a/b", "//o", "/a[b][c]", "/a/*/q", "/a/c//q")
        ]

        def answers(est):
            result = [est.selectivity(p) for p in patterns]
            result += [est.joint_selectivity(p, q) for p in patterns for q in patterns]
            if mode != "counters":
                result += [est.matching_view(p) for p in patterns]
            return result

        answers(estimator)
        synopsis.insert_document(
            XMLTree.from_nested(("a", [("b", ["o"]), ("c", ["q"])]), doc_id=7)
        )
        fresh = answers(SelectivityEstimator(synopsis))
        assert answers(estimator) != fresh  # stale until cleared
        estimator.clear_cache()
        assert answers(estimator) == fresh

    def test_joint_reuses_cached_branches(self, sets_estimator):
        p, q = parse_xpath("/a[b][c]"), parse_xpath("/a/c/q")
        sets_estimator.selectivity(p)
        sets_estimator.selectivity(q)
        assert len(sets_estimator._branch_views) == 2
        sets_estimator.joint_selectivity(p, q)
        assert len(sets_estimator._branch_views) == 2
        # a[c][b] is p's branch with its siblings permuted: only //o is new.
        sets_estimator.selectivity(parse_xpath("/.[.//o][a[c][b]]"))
        assert len(sets_estimator._branch_views) == 3

    def test_counter_products_ignore_branch_order(self):
        # Branch factors 0.8, 0.8 and 0.6: a left-to-right product gives
        # 0.384 or 0.38400000000000006 depending on the order of the three.
        synopsis = DocumentSynopsis(mode="counters")
        for doc_id, kids in enumerate(
            [["b", "c", "d"]] * 3 + [["b", "c"], []]
        ):
            synopsis.insert_document(XMLTree.from_nested(("a", kids), doc_id=doc_id))
        p, q = parse_xpath("/.[.//b][.//c]"), parse_xpath("//d")
        warm = SelectivityEstimator(synopsis)
        warm.joint_selectivity(p, q)
        fresh = SelectivityEstimator(synopsis)
        assert warm.joint_selectivity(q, p) == fresh.joint_selectivity(q, p)

    def test_estimated_count(self, sets_estimator):
        assert sets_estimator.estimated_count(parse_xpath("/a/b")) == pytest.approx(
            3.0
        )

    def test_joint_selectivity(self, sets_estimator):
        joint = sets_estimator.joint_selectivity(
            parse_xpath("//o"), parse_xpath("//q")
        )
        assert joint == pytest.approx(1 / 6)

    def test_matching_view_sets(self, sets_estimator):
        view = sets_estimator.matching_view(parse_xpath("/a/b"))
        assert set(view.ids) == {1, 2, 3}

    def test_matching_view_counters_raises(self, counter_estimator):
        with pytest.raises(TypeError):
            counter_estimator.matching_view(parse_xpath("/a"))

    def test_probability_clamped(self, sets_estimator):
        value = sets_estimator.selectivity(parse_xpath("//e"))
        assert 0.0 <= value <= 1.0


class TestCounterDescendants:
    def test_descendant_leaf(self, counter_estimator):
        assert counter_estimator.selectivity(parse_xpath("//q")) == pytest.approx(
            1 / 6
        )

    def test_descendant_max_over_depths(self, counter_estimator):
        # //e: max over the three e-nodes' counts = 3 (b/e and d/e).
        assert counter_estimator.selectivity(parse_xpath("//e")) == pytest.approx(
            3 / 6
        )

    def test_descendant_and_branch(self, counter_estimator):
        value = counter_estimator.selectivity(parse_xpath("//e[k][m]"))
        assert 0.0 <= value <= 1.0
