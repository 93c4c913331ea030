"""Property tests for SEL (Algorithm 1).

With unbounded explicit sets ("sets" mode, capacity >= corpus), the synopsis
is lossless at path granularity, so ``SEL`` must return *exactly* the
documents whose **skeleton tree** matches the pattern — skeletonisation is
the only approximation left.  The exact matcher on skeleton trees is an
independent implementation, making this a strong cross-validation of
Algorithm 1's recursion (branch intersections, ``//`` zero/deep splits,
wildcard handling).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern import PatternNode, TreePattern
from repro.core.selectivity import SelectivityEstimator
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.matcher import PatternMatcher, matches
from repro.xmltree.skeleton import skeleton
from tests.strategies import property_max_examples, tree_patterns, xml_trees


@st.composite
def corpora(draw, max_docs: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_docs))
    docs = []
    for doc_id in range(n):
        tree = draw(xml_trees())
        docs.append(
            type(tree)(tree.labels, tree.parents, tree.children, doc_id=doc_id)
        )
    return docs


def build_synopsis(docs, mode="sets", capacity=1000, seed=0):
    synopsis = DocumentSynopsis(mode=mode, capacity=capacity, seed=seed)
    for doc in docs:
        synopsis.insert_document(doc)
    return synopsis


@settings(max_examples=200, deadline=None)
@given(corpora(), tree_patterns())
def test_sel_equals_skeleton_matching(docs, pattern):
    """SEL over unbounded sets == exact matching on skeleton trees."""
    synopsis = build_synopsis(docs)
    estimator = SelectivityEstimator(synopsis)
    result = set(estimator.matching_view(pattern).ids)
    matcher = PatternMatcher(pattern)
    expected = {doc.doc_id for doc in docs if matcher.matches(skeleton(doc))}
    assert result == expected


@settings(max_examples=150, deadline=None)
@given(corpora(), tree_patterns())
def test_sel_overestimates_true_matching(docs, pattern):
    """Documents truly matching p always appear in the lossless SEL result
    (skeletonisation only adds matches, never removes them)."""
    synopsis = build_synopsis(docs)
    estimator = SelectivityEstimator(synopsis)
    result = set(estimator.matching_view(pattern).ids)
    truly = {doc.doc_id for doc in docs if matches(doc, pattern)}
    assert truly <= result


@settings(max_examples=150, deadline=None)
@given(corpora(), tree_patterns())
def test_selectivity_in_unit_interval(docs, pattern):
    for mode in ("counters", "sets", "hashes"):
        estimator = SelectivityEstimator(build_synopsis(docs, mode=mode))
        value = estimator.selectivity(pattern)
        assert 0.0 <= value <= 1.0


@settings(max_examples=100, deadline=None)
@given(corpora(), tree_patterns())
def test_counters_zero_iff_no_path_support(docs, pattern):
    """Counter estimates are zero exactly when the lossless set estimate is
    zero: both require every branch to have path support somewhere."""
    sets_est = SelectivityEstimator(build_synopsis(docs, mode="sets"))
    counter_est = SelectivityEstimator(build_synopsis(docs, mode="counters"))
    sets_zero = sets_est.selectivity(pattern) == 0.0
    counter_zero = counter_est.selectivity(pattern) == 0.0
    # Counters lose correlations, never path support: they may report a
    # non-zero value where sets report zero, but not the other way round.
    if counter_zero:
        assert sets_zero


@settings(max_examples=100, deadline=None)
@given(corpora(), tree_patterns(), tree_patterns())
def test_joint_never_exceeds_marginals_sets(docs, p, q):
    estimator = SelectivityEstimator(build_synopsis(docs, mode="sets"))
    joint = estimator.joint_selectivity(p, q)
    assert joint <= estimator.selectivity(p) + 1e-12
    assert joint <= estimator.selectivity(q) + 1e-12


@settings(max_examples=100, deadline=None)
@given(corpora(), tree_patterns())
def test_hash_estimate_matches_sets_when_unbounded(docs, pattern):
    """With capacity above the corpus size the hash samples never level up,
    so hashes and sets must agree exactly."""
    sets_est = SelectivityEstimator(build_synopsis(docs, mode="sets"))
    hash_est = SelectivityEstimator(build_synopsis(docs, mode="hashes"))
    assert hash_est.selectivity(pattern) == sets_est.selectivity(pattern)


def _permuted(children, rng):
    """*children* in a shuffled order, each with its sibling lists shuffled
    too: a canonically equal copy."""
    copies = [PatternNode(c.label, _permuted(c.children, rng)) for c in children]
    rng.shuffle(copies)
    return tuple(copies)


@st.composite
def pattern_pools(draw):
    """Random patterns plus sibling-permuted copies of some of them."""
    patterns = draw(
        st.lists(tree_patterns(max_root_children=3), min_size=1, max_size=4)
    )
    rng = draw(st.randoms(use_true_random=False))
    copies = [
        TreePattern(_permuted(pattern.root_children, rng))
        for pattern in draw(st.lists(st.sampled_from(patterns), max_size=3))
    ]
    return patterns + copies


@settings(max_examples=property_max_examples(60), deadline=None)
@given(corpora(), pattern_pools(), st.data())
def test_warm_estimator_answers_equal_fresh(docs, pool, data):
    """A warm estimator's answers are bit-equal to a fresh estimator's
    under any interleaving of ``P(p)``, ``P(p ∧ q)`` and ``P(q ∧ p)``,
    whichever canonically equal copy warmed the caches first."""
    indices = st.integers(min_value=0, max_value=len(pool) - 1)
    queries = data.draw(
        st.lists(st.tuples(indices, st.none() | indices), min_size=1, max_size=12)
    )
    for mode in ("counters", "sets", "hashes"):
        # Capacity 3 makes hash samples level up on larger corpora.
        synopsis = build_synopsis(docs, mode=mode, capacity=3)
        warm = SelectivityEstimator(synopsis)
        for i, j in queries:
            p = pool[i]
            fresh = SelectivityEstimator(synopsis)
            if j is None:
                assert warm.selectivity(p) == fresh.selectivity(p)
                continue
            q = pool[j]
            assert warm.joint_selectivity(p, q) == fresh.joint_selectivity(p, q)
            fresh = SelectivityEstimator(synopsis)
            assert warm.joint_selectivity(q, p) == fresh.joint_selectivity(q, p)
