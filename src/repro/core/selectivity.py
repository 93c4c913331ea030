"""Tree-pattern selectivity estimation over a document synopsis.

Implements Algorithms 1 and 2 of the paper.  ``SEL(v, u)`` recursively pairs
synopsis nodes with pattern nodes:

* a label mismatch (synopsis label not below the pattern label in the
  ``a ≼ * ≼ //`` order) prunes the pair;
* a pattern leaf contributes the synopsis node's *full* matching set;
* an inner pattern node takes, for each of its children, the union over the
  synopsis node's children, and intersects across pattern children
  (branching = conjunction);
* a ``//`` node either matches a zero-length path (children evaluated at the
  current synopsis node) or recurses into each synopsis child.

``P(p) = |SEL(rs, rp)| / |S(rs)|``.

Two evaluation modes share this structure:

* **set mode** (``"sets"``/``"hashes"``) manipulates
  :class:`~repro.synopsis.setops.SampleView` values, so correlations between
  branches are captured by actual id intersections;
* **counter mode** replaces union / intersection / cardinality by
  maximum / scaled product / value (the independence assumption of [4]).

Folded synopsis labels (``c[f][o[n]]``) are expanded transparently: each
nested label component behaves as a virtual child whose matching set equals
the folded node's, which is exactly the approximation the fold made when it
unioned the samples.

Memoisation has two tiers.  Within one evaluation, a per-call cell memo
over ``(synopsis node, label, pattern node)`` makes it ``O(|HS| · |p|)`` set
operations.  Across evaluations, the estimator keeps a branch cache: every
pattern subtree is interned bottom-up to a small integer id from its label
and its sorted child ids, so canonically equal subtrees share one id, and
each root branch's unioned view (or best count) is stored under its id.
Since ``P(p ∧ q)`` root-merges *p* and *q*, a joint estimate is just the
intersection (or product) of branches ``P(p)`` and ``P(q)`` already
evaluated.  Whole-pattern results are cached too.  Every cache describes
the synopsis as it was, so call :meth:`SelectivityEstimator.clear_cache`
after any synopsis update.

Counter-mode products multiply their factors in ascending order, so an
estimate never depends on sibling order, nor on which of two canonically
equal patterns warmed the caches first.
"""

from __future__ import annotations

import math

from repro.core.labels import DESCENDANT, label_below
from repro.core.pattern import TreePattern
from repro.core.pattern_algebra import merge_patterns
from repro.synopsis.node import LabelTree, SynopsisNode
from repro.synopsis.setops import SampleView, intersect_views, union_views
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.matcher import CompiledPattern

__all__ = ["SelectivityEstimator"]

_Cursor = tuple[SynopsisNode, LabelTree]


class SelectivityEstimator:
    """Estimates ``P(p)`` and matching-set samples for tree patterns.

    >>> from repro.synopsis.synopsis import DocumentSynopsis
    >>> from repro.xmltree.tree import XMLTree
    >>> from repro.core.pattern_parser import parse_xpath
    >>> synopsis = DocumentSynopsis(mode="sets", capacity=100)
    >>> _ = synopsis.insert_document(XMLTree.from_nested(("a", ["b"])))
    >>> _ = synopsis.insert_document(XMLTree.from_nested(("a", ["c"])))
    >>> SelectivityEstimator(synopsis).selectivity(parse_xpath("/a/b"))
    0.5
    """

    def __init__(self, synopsis: DocumentSynopsis) -> None:
        self.synopsis = synopsis
        self._selectivity_cache: dict[TreePattern, float] = {}
        # Subtree id by (label, sorted child ids), and the per-branch
        # results of root children keyed on those ids.
        self._subtree_ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self._branch_views: dict[int, SampleView] = {}
        self._branch_counts: dict[int, float] = {}
        self._empty = SampleView.empty(synopsis.hasher)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def selectivity(self, pattern: TreePattern) -> float:
        """Estimated probability that a stream document matches *pattern*."""
        cached = self._selectivity_cache.get(pattern)
        if cached is None:
            cached = self._estimate(pattern)
            self._selectivity_cache[pattern] = cached
        return cached

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        """Estimated ``P(p ∧ q)`` via the root-merge construction."""
        return self.selectivity(merge_patterns(p, q))

    def estimated_count(self, pattern: TreePattern) -> float:
        """Estimated number of stream documents matching *pattern*."""
        return self.selectivity(pattern) * self.synopsis.n_documents

    def matching_view(self, pattern: TreePattern) -> SampleView:
        """The raw ``SEL(rs, rp)`` sample (set modes only)."""
        if self.synopsis.mode == "counters":
            raise TypeError("counter mode has no matching-set view")
        return self._sel_root_view(CompiledPattern(pattern))

    def clear_cache(self) -> None:
        """Forget cached results after the synopsis has been updated."""
        self._selectivity_cache.clear()
        self._subtree_ids.clear()
        self._branch_views.clear()
        self._branch_counts.clear()

    # ------------------------------------------------------------------
    # shared cursor plumbing
    # ------------------------------------------------------------------

    def _root_branches(self, cp: CompiledPattern) -> list[tuple[int, int]]:
        """``(node, interned subtree id)`` of each of *cp*'s root children.

        Nodes are compiled in preorder, so a reverse scan interns every
        child before its parent."""
        interned = self._subtree_ids
        ids = [0] * len(cp)
        for u in range(len(cp) - 1, -1, -1):
            key = (cp.labels[u], tuple(sorted(ids[c] for c in cp.children[u])))
            sid = interned.get(key)
            if sid is None:
                sid = interned[key] = len(interned)
            ids[u] = sid
        return [(u, ids[u]) for u in cp.root_children]

    def _cursor_children(self, node: SynopsisNode, label: LabelTree) -> list[_Cursor]:
        """Children of a cursor: real synopsis children when the cursor sits
        on the node's own label, plus virtual children for folded nested
        components at the current label position."""
        result: list[_Cursor] = []
        if label is node.label:
            for child in node.children:
                result.append((child, child.label))
        for component in label.children:
            result.append((node, component))
        return result

    # ------------------------------------------------------------------
    # set mode (Sets / Hashes)
    # ------------------------------------------------------------------

    def _sel_root_view(self, cp: CompiledPattern) -> SampleView:
        cache = self._branch_views
        memo: dict[tuple[int, int, int], SampleView] = {}
        root = self.synopsis.root
        kids = self._cursor_children(root, root.label)
        branch_views: list[SampleView] = []
        for u, sid in self._root_branches(cp):
            view = cache.get(sid)
            if view is None:
                view = union_views(
                    [self._sel_view(cp, node, label, u, memo) for node, label in kids]
                ) if kids else self._empty
                cache[sid] = view
            if view.is_empty():
                return self._empty
            branch_views.append(view)
        return intersect_views(branch_views)

    def _sel_view(
        self,
        cp: CompiledPattern,
        node: SynopsisNode,
        label: LabelTree,
        u: int,
        memo: dict[tuple[int, int, int], SampleView],
    ) -> SampleView:
        if not label_below(label.tag, cp.labels[u]):
            return self._empty
        # Per-call memo over interned LabelTree nodes; keys die with this
        # traversal and the view is id-independent.
        # reprolint: disable=RL003 -- transient per-call memo key, never persisted
        key = (node.node_id, id(label), u)
        cached = memo.get(key)
        if cached is not None:
            return cached

        pattern_kids = cp.children[u]
        if not pattern_kids:
            result = self.synopsis.full_view(node)
        elif cp.labels[u] != DESCENDANT:
            kids = self._cursor_children(node, label)
            if not kids:
                result = self._empty
            else:
                branch_views: list[SampleView] = []
                for child_u in pattern_kids:
                    view = union_views(
                        [
                            self._sel_view(cp, kn, kl, child_u, memo)
                            for kn, kl in kids
                        ]
                    )
                    if view.is_empty():
                        branch_views = []
                        break
                    branch_views.append(view)
                result = intersect_views(branch_views) if branch_views else self._empty
        else:
            # '//': zero-length mapping evaluates the (single) pattern child
            # at this cursor; otherwise descend into each synopsis child.
            zero = intersect_views(
                [self._sel_view(cp, node, label, cu, memo) for cu in pattern_kids]
            )
            kids = self._cursor_children(node, label)
            deeper = union_views(
                [self._sel_view(cp, kn, kl, u, memo) for kn, kl in kids]
            )
            result = zero.union(deeper)

        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # counter mode
    # ------------------------------------------------------------------

    def _sel_root_count(self, cp: CompiledPattern) -> float:
        synopsis = self.synopsis
        total = float(synopsis.root.summary.count)
        if total <= 0:
            return 0.0
        cache = self._branch_counts
        memo: dict[tuple[int, int, int], float] = {}
        kids = self._cursor_children(synopsis.root, synopsis.root.label)
        factors: list[float] = []
        for u, sid in self._root_branches(cp):
            best = cache.get(sid)
            if best is None:
                best = max(
                    (self._sel_count(cp, kn, kl, u, memo, total) for kn, kl in kids),
                    default=0.0,
                )
                cache[sid] = best
            if best <= 0.0:
                return 0.0
            factors.append(best / total)
        return _product(factors) * total

    def _sel_count(
        self,
        cp: CompiledPattern,
        node: SynopsisNode,
        label: LabelTree,
        u: int,
        memo: dict[tuple[int, int, int], float],
        total: float,
    ) -> float:
        if not label_below(label.tag, cp.labels[u]):
            return 0.0
        # Per-call memo over interned LabelTree nodes; keys die with this
        # traversal and the count is id-independent.
        # reprolint: disable=RL003 -- transient per-call memo key, never persisted
        key = (node.node_id, id(label), u)
        cached = memo.get(key)
        if cached is not None:
            return cached

        pattern_kids = cp.children[u]
        if not pattern_kids:
            result = float(node.summary.count)
        elif cp.labels[u] != DESCENDANT:
            kids = self._cursor_children(node, label)
            factors: list[float] = []
            for child_u in pattern_kids:
                best = max(
                    (
                        self._sel_count(cp, kn, kl, child_u, memo, total)
                        for kn, kl in kids
                    ),
                    default=0.0,
                )
                if best <= 0.0:
                    factors = []
                    break
                factors.append(best / total)
            result = _product(factors) * total if factors else 0.0
        else:
            zero = _product(
                [
                    self._sel_count(cp, node, label, child_u, memo, total) / total
                    for child_u in pattern_kids
                ]
            ) * total
            kids = self._cursor_children(node, label)
            deeper = max(
                (self._sel_count(cp, kn, kl, u, memo, total) for kn, kl in kids),
                default=0.0,
            )
            result = max(zero, deeper)

        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # P(p) — Algorithm 2
    # ------------------------------------------------------------------

    def _estimate(self, pattern: TreePattern) -> float:
        cp = CompiledPattern(pattern)
        synopsis = self.synopsis

        if synopsis.mode == "counters":
            total = float(synopsis.root.summary.count)
            if total <= 0:
                return 0.0
            return _clamp(self._sel_root_count(cp) / total)

        result = self._sel_root_view(cp)
        if synopsis.mode == "sets":
            denominator = synopsis.represented_documents
            if denominator <= 0:
                return 0.0
            return _clamp(len(result.ids) / denominator)

        # Hashes: the SEL sample is expanded at its own level; the
        # denominator |S(rs)| is the whole stream, which the synopsis counts
        # exactly (a single counter).  Aligning the numerator up to the
        # *root* sample's level instead would discard resolution whenever
        # some universal path forced the root sample to a high level —
        # empirically 2-8x worse on selective workloads.
        if synopsis.n_documents <= 0:
            return 0.0
        return _clamp(result.estimate_cardinality() / synopsis.n_documents)


def _product(factors: list[float]) -> float:
    """Product of *factors* in ascending order: float multiplication is not
    associative, and a fixed order makes the result independent of the
    order the factors were found in."""
    return math.prod(sorted(factors))


def _clamp(value: float) -> float:
    """Clamp an estimate into the probability range [0, 1]."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value
