"""Merged pattern trie: one traversal matches a document against every
routing-table pattern at once.

A broker that evaluates each routing-table pattern independently pays
filtering cost linear in table size — the "large routing tables, complex
filtering" failure mode of Section 1.  :class:`PatternTrie` merges all of
a broker's patterns into one shared structure so the per-document cost is
driven by how much *structure* the table contains, not by how many
patterns spell it.

Structure
---------

Every pattern is decomposed deterministically into

* a **spine** — the chain obtained by repeatedly descending into the
  canonically first child (children ordered exact-first, see below).
  Each spine step is ``(axis, label, branches)``: the axis distinguishes
  the root anchor (``self``), a root-level ``//`` re-anchor
  (``anywhere``), a plain child edge (``child``) and a nested ``//``
  edge (``descendant``); ``branches`` are the step node's remaining
  children, kept as hash-consed subtree constraints;
* **gates** — the pattern's root children other than the spine head,
  evaluated once per document with root semantics.

Spine steps form the trie: two patterns share a node exactly when their
decompositions share a prefix (axis, label *and* branch constraints all
equal), so the common ``/nitf/head/…`` prefixes of a DTD workload are
evaluated once for the whole table.  A node where some pattern's spine
ends is an *accepting* node and carries that pattern's destination set
(keyed by its gates); one traversal therefore returns every matching
destination at once.

Branch and gate subtrees are *hash-consed*: structurally equal subtrees
— across patterns, branches and gates — intern to one node, and their
satisfaction per document node is memoised globally, so a subtree shared
by a thousand patterns is evaluated against a document region once.

Degree-sorted branch order
--------------------------

Children are ordered by *degree* — the number of ``*`` and ``//`` nodes
in the subtree — before the canonical key, so exact (tag-only) branches
are decomposed into the spine and tried before wildcard and descendant
branches; trie children are likewise iterated exact steps first, then
wildcard steps, then descendant steps.  The order never changes which
destinations match (matching is a pure conjunction/disjunction), but it
fails cheap exact prefixes before paying for expensive relocation scans,
and it makes the decomposition — and hence the trie shape and the
operation count — a canonical function of the pattern set, independent
of insertion history.

Matching cost
-------------

``match`` counts one *trie operation* per sibling aliveness test, per
anchor candidate examined — generated once per group of sibling trie
nodes sharing the same (axis, label) step, since only their (memoised)
branch constraints differ — per hash-consed subtree satisfaction
computed (memo misses only; shared work is free), and per gate
evaluated.  Every spine node carries the tags *all* patterns in its
subtrie require, so a subtrie the document cannot satisfy is killed for
one operation before any candidate scan; a prefix whose anchor set
comes up empty likewise prunes everything below it.  The cost of a
non-matching pattern therefore collapses into its shared prefix.  This
count is the filtering-cost unit
:class:`~repro.routing.table.RoutingTable` reports in trie mode.

The traversal follows a **match plan** cached on each spine node: its
children grouped into (axis, label) sibling groups, each member carrying
its required tags, branch constraints, accepting entries in gate-key
order and whether it has children of its own.  A plan is built on the
node's first visit and reused until the trie changes under it: ``add``
and ``discard`` reset the plan of the root and of every node on the
touched spine path, which covers every ``child_order``, ``accepts`` and
``req_tags`` a mutation can change (destination sets are shared with
the entries, so re-keying them needs no reset).  ``check()`` compares
every cached plan with a fresh one.  A plan only removes interpreter
work from a visit: groups, members and entries keep ``child_order`` and
gate-key order, so every count is what a plan-free traversal charges.

Document bookkeeping is not counted: building a document's
:class:`PreparedDocument` (skeleton ids and its three indexes: label →
positions, label → {parent → children} for child steps, and one
descendant-or-self bitmask per node, which turns the scope of a ``//``
step into one int OR and its parent test into a bit test) costs zero
trie operations, so a document costs the same operations whether it
arrives raw or prepared.  A ``//`` constraint's self-descent through the
document runs on an explicit stack, so no document is too deep to
match.

Batched matching
----------------

``match_batch`` evaluates a whole document batch against one shared
memo pool (:class:`_BatchMemo`), amortising constraint work *across
documents* the way hash-consing amortises it across patterns.  The key
is structural: every document node gets a **skeleton key** — the
interned canonical form of its subtree with identical sibling subtrees
deduplicated (sound, because matching quantifies document children
only existentially) — and branch satisfaction is memoised on
``(constraint id, skeleton key)`` instead of ``(constraint id, node
position)``.  Structurally identical subtrees across the batch (common
under the Zipfian generators) therefore hit the memo instead of being
re-traversed; aliveness tests share per-tag-set entries (one
``{required tags: alive}`` map per document tag set), gates share
per-root-key entries, and a document whose whole skeleton repeats
costs zero trie operations.  ``match`` is the batch machinery at
batch size one (a fresh pool per call), so the two paths cannot
drift.

The per-document half of this is a :class:`PreparedDocument`, built by
:func:`prepare` and independent of any trie or pool: the tree, its tag
set, doc-local skeleton ids with the table of its distinct shapes, and
the lazily built indexes.  A pool binds it through a thin per-pool
state holding only pool skeleton keys, the tag-set key and the op
counter.  The pool interner is lazy: the first document of a pool
adopts its doc-local ids as-is (a fresh interner would assign exactly
those) without copying its shapes, so a drain of one document interns
nothing; the copy is made only when a second document binds, which is
then translated through the interner over its distinct shapes only.
The pool never writes into the prepared document.  So one
preparation serves every broker a document visits:
:meth:`~repro.routing.overlay.BrokerOverlay.route` prepares once per
call, and :class:`~repro.routing.engine.DeliveryEngine` prepares a
publication at its first service and hands the prepared form to every
forwarded copy.  Preparation and pool binding are bookkeeping, never
trie operations (see *Matching cost*), so batched operations are
guaranteed ≤ the sum of the per-document counts.

Incremental-maintenance invariants
----------------------------------

The trie is never rebuilt from scratch.  ``add`` / ``discard`` keep it
consistent under covering churn and topology surgery by refcounting:

* every spine node counts the entries whose spine passes through it and
  is unlinked (never orphaned) when the count reaches zero;
* every hash-consed subtree node counts its referers — trie-node
  branches, entry gates, and interned parents — and leaves the intern
  store exactly when the last referer lets go;
* equal patterns (canonically) share one entry whose destination set is
  the union of their destinations, so per-destination add/remove is a
  set update;
* ``rename_destination`` re-keys destination sets in place — trie shape,
  sharing and refcounts are untouched.

``check()`` audits all of these invariants and is exercised by the
property suite after every churn operation.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Union

from repro.core.labels import DESCENDANT, WILDCARD, is_tag
from repro.core.pattern import PatternNode, TreePattern
from repro.xmltree.tree import XMLTree

__all__ = [
    "PatternTrie",
    "TrieMatch",
    "BatchMatch",
    "PreparedDocument",
    "prepare",
]

Destination = Hashable

# Spine-step axes.  _SELF anchors at the document root (plain root child),
# _ANYWHERE re-anchors at any document node (root-level ``//``), _CHILD is
# a plain child edge, _DESCENDANT a nested ``//`` edge (child of any
# descendant-or-self of the current anchors).
_SELF = "self"
_ANYWHERE = "anywhere"
_CHILD = "child"
_DESCENDANT = "descendant"


def _canonical(node: PatternNode) -> tuple:
    """The recursive canonical key of a pattern subtree (sorted children)."""
    return (node.label, tuple(sorted(_canonical(c) for c in node.children)))


def _degree(node: PatternNode) -> int:
    """Number of ``*`` / ``//`` nodes in the subtree — the wildness order."""
    return sum(
        1
        for sub in node.iter_subtree()
        if sub.label == WILDCARD or sub.label == DESCENDANT
    )


def _subtree_order(node: PatternNode) -> tuple:
    """Degree-sorted canonical order: exact subtrees first."""
    return (_degree(node), _canonical(node))


def _decompose(
    pattern: TreePattern,
) -> tuple[list[tuple[str, str, tuple[PatternNode, ...]]], tuple[PatternNode, ...]]:
    """Split *pattern* into its spine steps and its root gates.

    Deterministic: root children and every node's children are degree-
    sorted, the spine follows the first child, everything else becomes a
    branch (or, at the root, a gate).  The decomposition is a bijection
    on canonical patterns, so one pattern maps to exactly one accepting
    (node, gates) pair.
    """
    roots = sorted(pattern.root_children, key=_subtree_order)
    head, gates = roots[0], tuple(roots[1:])
    steps: list[tuple[str, str, tuple[PatternNode, ...]]] = []
    node, axis = head, _SELF
    while True:
        if node.label == DESCENDANT:
            axis = _ANYWHERE if axis == _SELF else _DESCENDANT
            node = node.children[0]
            continue
        kids = sorted(node.children, key=_subtree_order)
        steps.append((axis, node.label, tuple(kids[1:])))
        if not kids:
            return steps, gates
        node, axis = kids[0], _CHILD


class _BranchNode:
    """One hash-consed pattern subtree (branch / gate constraint)."""

    __slots__ = (
        "label",
        "children",
        "key",
        "degree",
        "tags",
        "node_id",
        "refs",
    )

    def __init__(
        self,
        label: str,
        children: tuple["_BranchNode", ...],
        key: tuple,
        degree: int,
        tags: frozenset,
        node_id: int,
    ) -> None:
        self.label = label
        self.children = children
        self.key = key
        self.degree = degree
        self.tags = tags
        self.node_id = node_id
        self.refs = 0


# Iteration rank of a spine step: exact child/self steps, then wildcard
# steps, then descendant/anywhere relocations.
def _step_rank(axis: str, label: str) -> int:
    rank = 2 if axis in (_ANYWHERE, _DESCENDANT) else 0
    if label == WILDCARD:
        rank += 1
    return rank


class _SpineNode:
    """One trie node: a shared spine prefix of one or more patterns."""

    __slots__ = (
        "axis",
        "label",
        "branches",
        "child_key",
        "order_key",
        "parent",
        "children",
        "child_order",
        "accepts",
        "refs",
        "own_tags",
        "req_tags",
        "plan",
    )

    def __init__(
        self,
        axis: str,
        label: str,
        branches: tuple[_BranchNode, ...],
        child_key: tuple,
        parent: "_SpineNode | None",
    ) -> None:
        self.axis = axis
        self.label = label
        self.branches = branches
        self.child_key = child_key
        self.order_key = (_step_rank(axis, label), child_key)
        self.parent = parent
        self.children: dict[tuple, _SpineNode] = {}
        self.child_order: list[_SpineNode] = []
        self.accepts: dict[tuple, _Entry] = {}
        self.refs = 0
        #: Tags this step itself demands of any matching document.
        own = frozenset([label]) if is_tag(label) else frozenset()
        for branch in branches:
            own |= branch.tags
        self.own_tags = own
        #: Tags *every* pattern in this subtrie demands: ``own_tags``
        #: plus the intersection of what each accepting entry's gates
        #: and each child subtrie require.  A document missing one of
        #: them cannot match anything below, so the whole subtrie is
        #: killed for one operation.  Maintained by
        #: :meth:`PatternTrie._recompute_req` on every add / discard.
        self.req_tags = own
        #: This node's :func:`_plan_of`, built on first visit; ``None``
        #: once an add / discard touches this node or a child.
        self.plan: tuple | None = None


class _Entry:
    """One canonical pattern's accepting record."""

    __slots__ = (
        "pattern",
        "node",
        "gate_key",
        "gates",
        "gate_tags",
        "destinations",
    )

    def __init__(
        self,
        pattern: TreePattern,
        node: _SpineNode,
        gate_key: tuple,
        gates: tuple[_BranchNode, ...],
        destinations: set,
    ) -> None:
        self.pattern = pattern
        self.node = node
        self.gate_key = gate_key
        self.gates = gates
        self.gate_tags = frozenset().union(*(g.tags for g in gates)) if (
            gates
        ) else frozenset()
        self.destinations = destinations


def _plan_of(node: _SpineNode) -> tuple:
    """*node*'s match plan: its ``child_order`` as sibling groups.

    Each group is ``(axis, label, members)`` over a maximal run of
    children sharing that step, since they share one candidate scan.
    Each member is ``(req_tags, branches, accepts, has_children,
    child)`` with ``accepts`` the child's ``(gates, destinations,
    pattern)`` in sorted gate-key order.  The plan reads every
    ``child_order``, ``accepts`` and ``req_tags`` a visit of *node*
    needs; destination sets are shared, not copied, so re-keying them
    in place never stales a plan.
    """
    groups: list[tuple[str, str, list[tuple]]] = []
    for child in node.child_order:
        member = (
            child.req_tags,
            child.branches,
            tuple(
                (entry.gates, entry.destinations, entry.pattern)
                for _, entry in sorted(child.accepts.items())
            ),
            bool(child.child_order),
            child,
        )
        if groups and groups[-1][:2] == (child.axis, child.label):
            groups[-1][2].append(member)
        else:
            groups.append((child.axis, child.label, [member]))
    return tuple((axis, label, tuple(members)) for axis, label, members in groups)


#: The :meth:`PreparedDocument.children_by_label` entry of a label that
#: no non-root node carries.
_NO_PARENTS: dict[int, list[int]] = {}


def _set_bits(mask: int) -> list[int]:
    """The positions of *mask*'s set bits, ascending."""
    bits = bin(mask)[:1:-1]  # least significant first, "0b" dropped
    return [position for position, bit in enumerate(bits) if bit == "1"]


class _BatchMemo:
    """The shared evaluation pool of one batch (or one ``match`` call).

    Everything keyed here is a pure function of *document structure*
    (skeleton keys, tag-set keys) and *trie constraints* (hash-consed
    node ids), so entries are sound across every document of the batch.
    ``stride`` is the trie's node-id horizon at pool creation; combined
    with the densely interned skeleton/tag-set keys it packs every memo
    key into one int.  A pool must not outlive a trie mutation — the
    matching entry points create one per call, so they never do.
    """

    __slots__ = (
        "stride",
        "first",
        "skeleton_keys",
        "tag_keys",
        "memo",
        "gate_cache",
        "alive",
        "alive_req",
        "results",
        "hits",
        "misses",
    )

    def __init__(self, stride: int) -> None:
        self.stride = stride
        #: The first document bound; the pool's skeleton keys for its
        #: shapes are its doc-local ids.
        self.first: PreparedDocument | None = None
        #: Interner: dedup-canonical ``(label, child skeleton keys)`` →
        #: dense skeleton key.  Empty until a second document binds.
        self.skeleton_keys: dict[tuple, int] = {}
        #: Interner: document tag set → dense key.
        self.tag_keys: dict[frozenset, int] = {}
        #: ``skeleton_key * stride + constraint id`` → branch satisfied.
        self.memo: dict[int, bool] = {}
        #: ``root skeleton key * stride + gate id`` → gate satisfied.
        self.gate_cache: dict[int, bool] = {}
        #: ``tag-set key * stride + constraint id`` → constraint alive.
        self.alive: dict[int, bool] = {}
        #: tag-set key → {required tags → subtrie alive}.
        self.alive_req: dict[int, dict[frozenset, bool]] = {}
        #: Root skeleton key → the whole document's match outcome (the
        #: first such document's result sets, copied on every hit).
        self.results: dict[int, tuple[set, set]] = {}
        self.hits = 0
        self.misses = 0

    def tag_key(self, tag_set: frozenset) -> int:
        key = self.tag_keys.get(tag_set)
        if key is None:
            key = len(self.tag_keys)
            self.tag_keys[tag_set] = key
        return key


class PreparedDocument:
    """One document's match index, built once and shared by every trie.

    Holds everything matching needs that depends on the document alone:
    the tree, its tag set, its doc-local skeleton ids and the table of
    its distinct skeleton shapes, plus three lazy indexes —
    label → positions, label → {parent → children} for child steps, and
    one descendant-or-self bitmask per node for ``//`` steps.  Nothing
    here depends on a trie or a memo pool, so a document routed through
    many brokers — or matched twice in one batch — is prepared once and
    read everywhere.  The skeleton is built eagerly; each index is built
    on first use and written once.  Building any of it is document
    bookkeeping, never counted as a trie operation.  Obtain one through
    :func:`prepare`.
    """

    __slots__ = (
        "tree",
        "n",
        "tag_set",
        "skel",
        "shapes",
        "_by_label",
        "_children_by_label",
        "_descendant_masks",
    )

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        self.n = len(tree.labels)
        self.tag_set = tree.tag_set
        # Skeleton ids, bottom-up: the builder appends parents before
        # children, so a reverse scan sees every child before its
        # parent.  Identical sibling subtrees intern to one id —
        # matching only ever quantifies document children existentially,
        # so the deduplication never changes satisfaction.
        interner: dict[tuple[str, tuple[int, ...]], int] = {}
        children = tree.children
        labels = tree.labels
        skel = [0] * self.n
        for position in reversed(range(self.n)):
            kids = children[position]
            shape = (
                labels[position],
                tuple(sorted({skel[kid] for kid in kids})) if kids else (),
            )
            key = interner.get(shape)
            if key is None:
                key = len(interner)
                interner[shape] = key
            skel[position] = key
        #: Doc-local skeleton id per node position.
        self.skel: tuple[int, ...] = tuple(skel)
        #: Distinct ``(label, sorted child ids)`` shapes; id ``i`` is
        #: ``shapes[i]``, in first-seen order of the reverse scan.
        self.shapes: tuple[tuple[str, tuple[int, ...]], ...] = tuple(interner)
        self._by_label: dict[str, list[int]] | None = None
        self._children_by_label: dict[str, dict[int, list[int]]] | None = None
        self._descendant_masks: list[int] | None = None

    def label_index(self) -> dict[str, list[int]]:
        """label → positions in ascending order, built on first use."""
        if self._by_label is None:
            index: dict[str, list[int]] = {}
            for position, label in enumerate(self.tree.labels):
                index.setdefault(label, []).append(position)
            self._by_label = index
        return self._by_label

    def children_by_label(self) -> dict[str, dict[int, list[int]]]:
        """label → {parent → its children with that label}, children in
        ascending order; built on first use like :meth:`label_index`."""
        if self._children_by_label is None:
            index: dict[str, dict[int, list[int]]] = {}
            labels = self.tree.labels
            for position, parent in enumerate(self.tree.parents):
                if parent >= 0:
                    index.setdefault(labels[position], {}).setdefault(
                        parent, []
                    ).append(position)
            self._children_by_label = index
        return self._children_by_label

    def descendant_masks(self) -> list[int]:
        """Per position, the bitmask of its descendants-or-self (bit
        ``i`` is position ``i``); built bottom-up on first use."""
        if self._descendant_masks is None:
            children = self.tree.children
            masks = [0] * self.n
            for position in reversed(range(self.n)):
                mask = 1 << position
                for kid in children[position]:
                    mask |= masks[kid]
                masks[position] = mask
            self._descendant_masks = masks
        return self._descendant_masks

    def __repr__(self) -> str:
        return f"PreparedDocument(nodes={self.n}, shapes={len(self.shapes)})"


Document = Union[XMLTree, PreparedDocument]


def prepare(document: Document) -> PreparedDocument:
    """*document*'s match index; idempotent on a prepared document."""
    if isinstance(document, PreparedDocument):
        return document
    return PreparedDocument(document)


class _MatchState:
    """One prepared document bound to a shared :class:`_BatchMemo`.

    Holds only what depends on the pool: the document's pool skeleton
    keys, its tag-set key with that key's aliveness memo, and the op
    counter.  Everything that depends on the document alone lives in
    the :class:`PreparedDocument`, which the pool reads but never
    writes.  A fresh pool's interner would assign exactly the doc-local
    skeleton ids in the same order, so the first document of a pool
    adopts them as-is and the pool's interner stays empty: a pool of one
    document copies nothing.  When a second document binds, the first
    one's shapes are entered under their ids, and the newcomer is
    translated through the interner over its distinct shapes only.
    Like preparation, this is bookkeeping, not trie work.
    """

    __slots__ = (
        "doc",
        "pool",
        "skel",
        "root_key",
        "tags_key",
        "alive_req",
        "ops",
    )

    def __init__(self, doc: PreparedDocument, pool: _BatchMemo) -> None:
        self.doc = doc
        self.pool = pool
        self.tags_key = pool.tag_key(doc.tag_set)
        self.alive_req = pool.alive_req.setdefault(self.tags_key, {})
        skel: Sequence[int]
        first = pool.first
        if first is None:
            pool.first = doc
            skel = doc.skel
        else:
            skeleton_keys = pool.skeleton_keys
            if not skeleton_keys:
                skeleton_keys.update(zip(first.shapes, range(len(first.shapes))))
            to_pool: list[int] = []
            for label, kids in doc.shapes:
                shape = (
                    label,
                    tuple(sorted([to_pool[kid] for kid in kids]))
                    if kids
                    else (),
                )
                key = skeleton_keys.get(shape)
                if key is None:
                    key = len(skeleton_keys)
                    skeleton_keys[shape] = key
                to_pool.append(key)
            skel = [to_pool[local] for local in doc.skel]
        self.skel = skel
        self.root_key = skel[doc.tree.root]
        self.ops = 0

    def is_alive(self, node: "_BranchNode") -> bool:
        """Does the document hold every tag *node* requires?  One memo
        entry per (constraint, document tag set) across the batch."""
        pool = self.pool
        key = self.tags_key * pool.stride + node.node_id
        alive = pool.alive.get(key)
        if alive is None:
            pool.misses += 1
            self.ops += 1
            alive = node.tags <= self.doc.tag_set
            pool.alive[key] = alive
        else:
            pool.hits += 1
        return alive


@dataclass
class TrieMatch:
    """Result of one trie traversal over one document."""

    destinations: set
    patterns: set
    operations: int


@dataclass
class BatchMatch:
    """Result of one shared-pool traversal over a document batch.

    ``results`` holds one :class:`TrieMatch` per input document, in
    order; each carries the operations *attributed* to that document
    (memo-amortised work is paid by the first document that needs it),
    so ``operations == sum(r.operations for r in results)``.  ``memo_hits``
    / ``memo_misses`` split the pool lookups into amortised answers and
    cold computations — the hit rate is the batch's structural-sharing
    measure.
    """

    results: list[TrieMatch]
    operations: int
    memo_hits: int
    memo_misses: int

    @property
    def hit_rate(self) -> float:
        """Fraction of pool lookups answered without recomputation."""
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0


class PatternTrie:
    """All of a broker's patterns merged into one matching structure."""

    def __init__(self) -> None:
        self._root = _SpineNode(_SELF, "", (), (), None)
        self._entries: dict[TreePattern, _Entry] = {}
        self._interned: dict[tuple, _BranchNode] = {}
        self._next_node_id = 0
        self._spine_count = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def add(self, pattern: TreePattern, destination: Destination) -> None:
        """Register *pattern* as active for *destination*."""
        entry = self._entries.get(pattern)
        if entry is not None:
            entry.destinations.add(destination)
            return
        steps, gate_nodes = _decompose(pattern)
        node = self._root
        path: list[_SpineNode] = []
        for axis, label, branches in steps:
            node = self._step_child(node, axis, label, branches)
            path.append(node)
        gates = tuple(self._intern(g) for g in gate_nodes)
        for gate in gates:
            gate.refs += 1
        gate_key = tuple(gate.key for gate in gates)
        entry = _Entry(pattern, node, gate_key, gates, {destination})
        node.accepts[gate_key] = entry
        for spine_node in path:
            spine_node.refs += 1
        self._entries[pattern] = entry
        # Unconditional bottom-up pass: freshly created parents were
        # initialised before this child existed, so no early stop here.
        for spine_node in reversed(path):
            spine_node.req_tags = self._req_of(spine_node)
            spine_node.plan = None
        self._root.plan = None

    def discard(self, pattern: TreePattern, destination: Destination) -> None:
        """Retire *pattern*'s active registration for *destination*."""
        entry = self._entries[pattern]
        entry.destinations.remove(destination)
        if entry.destinations:
            return
        del self._entries[pattern]
        del entry.node.accepts[entry.gate_key]
        for gate in entry.gates:
            self._release(gate)
        node = entry.node
        survivor: _SpineNode | None = None
        self._root.plan = None
        while node is not self._root:
            node.plan = None
            node.refs -= 1
            parent = node.parent
            assert parent is not None
            if node.refs == 0:
                del parent.children[node.child_key]
                parent.child_order.remove(node)
                for branch in node.branches:
                    self._release(branch)
                self._spine_count -= 1
            elif survivor is None:
                survivor = node
            node = parent
        if survivor is not None:
            self._recompute_req(survivor)

    def rename_destination(
        self,
        old: Destination,
        new: Destination,
        patterns: Iterable[TreePattern],
    ) -> None:
        """Re-key *old* to *new* in the entries of *patterns* (the active
        patterns of that destination); trie shape is untouched."""
        for pattern in patterns:
            destinations = self._entries[pattern].destinations
            destinations.remove(old)
            destinations.add(new)

    def clear(self) -> None:
        """Forget every entry and every shared node."""
        self._root = _SpineNode(_SELF, "", (), (), None)
        self._entries.clear()
        self._interned.clear()
        self._spine_count = 0

    def _step_child(
        self,
        parent: _SpineNode,
        axis: str,
        label: str,
        branches: tuple[PatternNode, ...],
    ) -> _SpineNode:
        branch_keys = tuple(_canonical(branch) for branch in branches)
        child_key = (axis, label, branch_keys)
        child = parent.children.get(child_key)
        if child is None:
            interned = tuple(self._intern(branch) for branch in branches)
            for branch in interned:
                branch.refs += 1
            child = _SpineNode(axis, label, interned, child_key, parent)
            parent.children[child_key] = child
            insort(parent.child_order, child, key=lambda n: n.order_key)
            self._spine_count += 1
        return child

    @staticmethod
    def _req_of(node: _SpineNode) -> frozenset:
        """The required-tag summary *node* should carry right now."""
        parts = [entry.gate_tags for entry in node.accepts.values()]
        parts.extend(child.req_tags for child in node.child_order)
        below = frozenset.intersection(*parts) if parts else frozenset()
        return node.own_tags | below

    def _recompute_req(self, node: _SpineNode | None) -> None:
        """Re-derive ``req_tags`` from *node* upward, stopping at the
        first ancestor whose requirement is unchanged.  Only valid when
        every ancestor was consistent beforehand (discard path)."""
        while node is not None and node is not self._root:
            req = self._req_of(node)
            if req == node.req_tags:
                return
            node.req_tags = req
            node = node.parent

    def _intern(self, pnode: PatternNode) -> _BranchNode:
        key = _canonical(pnode)
        node = self._interned.get(key)
        if node is not None:
            return node
        kids = sorted(pnode.children, key=_subtree_order)
        children = tuple(self._intern(kid) for kid in kids)
        for child in children:
            child.refs += 1
        tags = frozenset(
            label
            for label in [pnode.label]
            if is_tag(label)
        ).union(*(child.tags for child in children)) if children else (
            frozenset([pnode.label]) if is_tag(pnode.label) else frozenset()
        )
        node = _BranchNode(
            pnode.label, children, key, _degree(pnode), tags,
            self._next_node_id,
        )
        self._next_node_id += 1
        self._interned[key] = node
        return node

    def _release(self, node: _BranchNode) -> None:
        node.refs -= 1
        if node.refs == 0:
            del self._interned[node.key]
            for child in node.children:
                self._release(child)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------

    def match(self, document: Document) -> TrieMatch:
        """One traversal: every matching pattern and destination, plus the
        trie operations spent.

        Routed through the batch machinery at batch size one (a fresh
        memo pool per call), so the single-document and batched paths
        share every line of evaluation code and cannot drift.
        """
        return self.match_batch((document,)).results[0]

    def match_batch(self, documents: Iterable[Document]) -> BatchMatch:
        """Match every document of a batch through one shared memo pool.

        Branch/gate satisfaction, aliveness tests and whole-document
        outcomes are memoised across the batch on skeleton keys (see
        the module docstring), so structurally repeated work is paid
        once: batched operations are always ≤ the sum of per-document
        ``match`` costs, with equality exactly when the batch shares no
        structure.  The trie must not be mutated while a batch is being
        evaluated (the pool is private to the call, so this only
        excludes mutation from within the iterable).
        """
        results: list[TrieMatch] = []
        if not self._entries:
            for _ in documents:
                results.append(TrieMatch(set(), set(), 0))
            return BatchMatch(results, 0, 0, 0)
        pool = _BatchMemo(max(1, self._next_node_id))
        total = 0
        for document in documents:
            state = _MatchState(prepare(document), pool)
            cached = pool.results.get(state.root_key)
            if cached is not None:
                pool.hits += 1
                destinations, patterns = cached
                results.append(TrieMatch(set(destinations), set(patterns), 0))
                continue
            pool.misses += 1
            destinations = set()
            patterns: set[TreePattern] = set()
            self._visit(self._root, (), state, destinations, patterns)
            pool.results[state.root_key] = (destinations, patterns)
            total += state.ops
            results.append(TrieMatch(destinations, patterns, state.ops))
        return BatchMatch(results, total, pool.hits, pool.misses)

    def _visit(
        self,
        node: _SpineNode,
        anchors: Sequence[int],
        state: _MatchState,
        destinations: set,
        patterns: set,
    ) -> None:
        """Match *node*'s children from *anchors*, following its plan."""
        plan = node.plan
        if plan is None:
            plan = node.plan = _plan_of(node)
        pool = state.pool
        alive_req = state.alive_req
        tag_set = state.doc.tag_set
        # The descendant-or-self scope of *anchors*, shared by every
        # ``//`` group of this visit; 0 until one needs it (a visit that
        # reaches a ``//`` step always has anchors).
        scope = 0
        for axis, label, members in plan:
            # One op per distinct (requirement set, document tag set)
            # across the whole batch kills every subtrie whose required
            # tags the document lacks — before any candidate scan is
            # paid.
            alive_members: list[tuple] = []
            for member in members:
                req_tags = member[0]
                alive = alive_req.get(req_tags)
                if alive is None:
                    pool.misses += 1
                    state.ops += 1
                    alive = req_tags <= tag_set
                    alive_req[req_tags] = alive
                else:
                    pool.hits += 1
                if alive:
                    alive_members.append(member)
            if not alive_members:
                continue
            candidates: Sequence[int]
            if axis == _DESCENDANT:
                if not scope:
                    masks = state.doc.descendant_masks()
                    for anchor in anchors:
                        scope |= masks[anchor]
                candidates = self._in_scope(label, anchors, scope, state)
            else:
                candidates = self._candidates(axis, label, anchors, state)
            if not candidates:
                continue
            for _, branches, accepts, has_children, child in alive_members:
                member_anchors: Sequence[int] = candidates
                if branches:
                    member_anchors = []
                    for anchor in candidates:
                        for branch in branches:
                            if not self._branch_sat(branch, anchor, state):
                                break
                        else:
                            member_anchors.append(anchor)
                    if not member_anchors:
                        continue
                for gates, entry_destinations, pattern in accepts:
                    for gate in gates:
                        if not self._gate_sat(gate, state):
                            break
                    else:
                        destinations.update(entry_destinations)
                        patterns.add(pattern)
                if has_children:
                    self._visit(
                        child, member_anchors, state, destinations, patterns
                    )

    def _candidates(
        self,
        axis: str,
        label: str,
        anchors: Sequence[int],
        state: _MatchState,
    ) -> Sequence[int]:
        """Document nodes a ``self`` / ``anywhere`` / ``child`` step
        reaches from *anchors*: for a child step, each anchor's children
        in turn, in document order."""
        doc = state.doc
        tree = doc.tree
        if axis == _SELF:
            state.ops += 1
            root = tree.root
            if label != WILDCARD and tree.labels[root] != label:
                return ()
            return (root,)
        # An exact label is guaranteed present here: a member whose
        # required tags include it survived the aliveness filter.
        if axis == _ANYWHERE:
            if label == WILDCARD:
                candidates: Sequence[int] = range(doc.n)
            else:
                candidates = doc.label_index().get(label, ())
            state.ops += len(candidates)
            return candidates
        # _CHILD: one op per anchor looked up, one per candidate
        # surfaced — the index is amortised across the table.  A single
        # anchor's children are returned as they sit in the index.
        lookup: Callable[[int], Sequence[int] | None]
        if label == WILDCARD:
            lookup = tree.children.__getitem__
        else:
            lookup = doc.children_by_label().get(label, _NO_PARENTS).get
        if len(anchors) == 1:
            kids: Sequence[int] = lookup(anchors[0]) or ()
            state.ops += 1 + len(kids)
            return kids
        found: list[int] = []
        for group in map(lookup, anchors):
            if group:
                found += group
        state.ops += len(anchors) + len(found)
        return found

    def _in_scope(
        self,
        label: str,
        anchors: Sequence[int],
        scope: int,
        state: _MatchState,
    ) -> list[int]:
        """Document nodes a ``//`` step reaches from *anchors*: those
        labelled *label* whose parent lies in *scope*, the anchors'
        descendant-or-self mask, in ascending order — one op per node
        examined.  A wildcard examines the whole scope; since the scope
        is closed under children, its nodes with a parent outside it
        are anchors."""
        parents = state.doc.tree.parents
        if label == WILDCARD:
            state.ops += scope.bit_count()
            inside = scope
            for anchor in anchors:
                parent = parents[anchor]
                if parent < 0 or not scope >> parent & 1:
                    inside &= ~(1 << anchor)
            return _set_bits(inside)
        positions = state.doc.label_index().get(label, ())
        state.ops += len(positions)
        found: list[int] = []
        for position in positions:
            parent = parents[position]
            if parent >= 0 and scope >> parent & 1:
                found.append(position)
        return found

    def _branch_sat(self, node: _BranchNode, t: int, state: _MatchState) -> bool:
        """(T, t) ⊨ Subtree(node) — the exact :class:`PatternMatcher`
        semantics, memoised on the document node's skeleton key: shared
        across every pattern in the trie *and* every structurally equal
        subtree in the batch."""
        pool = state.pool
        key = state.skel[t] * pool.stride + node.node_id
        memo = pool.memo
        cached = memo.get(key)
        if cached is not None:
            pool.hits += 1
            return cached
        if not state.is_alive(node):
            return False
        pool.misses += 1
        state.ops += 1
        label = node.label
        if label == DESCENDANT:
            return self._descend(node, t, key, state)
        tree = state.doc.tree
        kids = node.children
        doc_labels = tree.labels
        result = False
        for kid in tree.children[t]:
            if label != WILDCARD and doc_labels[kid] != label:
                continue
            for ku in kids:
                if not self._branch_sat(ku, kid, state):
                    break
            else:
                result = True
                break
        memo[key] = result
        return result

    def _descend(
        self, node: _BranchNode, t: int, key: int, state: _MatchState
    ) -> bool:
        """A ``//`` constraint at *t*, whose memo miss is already paid:
        its children hold at *t* itself, or the constraint holds at some
        child of *t*.

        The self-descent runs on an explicit stack of open frames, so a
        document deeper than the interpreter's recursion limit is fine;
        it makes the lookups and charges of the recursive definition, in
        its order, and leaves the same memo entries.  Each frame's memo
        entry holds a ``False``
        placeholder while the frame is open.  That stays sound under key
        sharing because a strict document descendant has a strictly
        smaller dedup-canonical height than its ancestor, so the two can
        never intern to the same skeleton key.
        """
        pool = state.pool
        memo = pool.memo
        skel = state.skel
        stride = pool.stride
        node_id = node.node_id
        kids = node.children
        doc_children = state.doc.tree.children
        frames: list[tuple[int, Iterator[int]]] = []
        while True:
            # Open a frame for (node, t): try node's children at t.
            memo[key] = False
            for ku in kids:
                if not self._branch_sat(ku, t, state):
                    break
            else:
                memo[key] = True
                for open_key, _ in frames:
                    memo[open_key] = True
                return True
            frames.append((key, iter(doc_children[t])))
            # Find the next child to open a frame for; a child that is
            # already decided settles without one, and an exhausted frame
            # closes with its ``False`` placeholder as the answer.
            while frames:
                for kid in frames[-1][1]:
                    kid_key = skel[kid] * stride + node_id
                    cached = memo.get(kid_key)
                    if cached is None:
                        if not state.is_alive(node):
                            continue
                        t, key = kid, kid_key
                        break
                    pool.hits += 1
                    if cached:
                        for open_key, _ in frames:
                            memo[open_key] = True
                        return True
                else:
                    frames.pop()
                    continue
                break
            else:
                return False
            pool.misses += 1
            state.ops += 1

    def _gate_sat(self, gate: _BranchNode, state: _MatchState) -> bool:
        """Root semantics for a non-spine root child, cached per root
        skeleton key — a gate reads the whole document, and documents
        with equal root keys are structurally indistinguishable to it."""
        pool = state.pool
        key = state.root_key * pool.stride + gate.node_id
        gate_cache = pool.gate_cache
        cached = gate_cache.get(key)
        if cached is not None:
            pool.hits += 1
            return cached
        if not state.is_alive(gate):
            gate_cache[key] = False
            return False
        pool.misses += 1
        state.ops += 1
        doc = state.doc
        label = gate.label
        result = False
        if label == DESCENDANT:
            target = gate.children[0]
            positions: Sequence[int]
            if target.label == WILDCARD:
                positions = range(doc.n)
            else:
                positions = doc.label_index().get(target.label, ())
            for position in positions:
                state.ops += 1
                for ku in target.children:
                    if not self._branch_sat(ku, position, state):
                        break
                else:
                    result = True
                    break
        else:
            root = doc.tree.root
            if label == WILDCARD or doc.tree.labels[root] == label:
                result = True
                for ku in gate.children:
                    if not self._branch_sat(ku, root, state):
                        result = False
                        break
        gate_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct (canonical) patterns held."""
        return len(self._entries)

    def __contains__(self, pattern: object) -> bool:
        return isinstance(pattern, TreePattern) and pattern in self._entries

    @property
    def node_count(self) -> int:
        """Spine (trie) nodes currently allocated."""
        return self._spine_count

    @property
    def interned_count(self) -> int:
        """Hash-consed branch/gate subtree nodes currently allocated."""
        return len(self._interned)

    def destinations_of(self, pattern: TreePattern) -> frozenset:
        """The destinations *pattern* is active for (empty if absent)."""
        entry = self._entries.get(pattern)
        if entry is None:
            return frozenset()
        return frozenset(entry.destinations)

    def check(self) -> None:
        """Audit every incremental-maintenance invariant; raises
        AssertionError on any inconsistency (test support)."""
        # Walk the spine trie, collecting nodes and recomputing refcounts.
        reachable: list[_SpineNode] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is not self._root:
                reachable.append(node)
            assert sorted(node.child_order, key=lambda n: n.order_key) == list(
                node.child_order
            ), "child_order not degree-sorted"
            assert set(node.children.values()) == set(node.child_order)
            assert node.plan is None or node.plan == _plan_of(node), (
                "stale match plan"
            )
            for key, child in node.children.items():
                assert child.child_key == key and child.parent is node
                stack.append(child)
        assert len(reachable) == self._spine_count, "spine count drifted"

        spine_refs: dict[int, int] = {}
        entries_seen: dict[TreePattern, _Entry] = {}
        for node in reachable + [self._root]:
            for gate_key, entry in node.accepts.items():
                assert entry.node is node and entry.gate_key == gate_key
                assert entry.destinations, "entry with no destinations"
                assert entry.pattern not in entries_seen
                entries_seen[entry.pattern] = entry
                walk: _SpineNode | None = node
                while walk is not None and walk is not self._root:
                    # check() is an in-process diagnostic audit; ids index
                    # live nodes for one pass.
                    # reprolint: disable=RL003 -- one-pass in-process audit keys
                    spine_refs[id(walk)] = spine_refs.get(id(walk), 0) + 1
                    walk = walk.parent
        assert entries_seen == self._entries, "entry index out of sync"
        for node in reachable:
            # reprolint: disable=RL003 -- same one-pass diagnostic audit.
            assert node.refs == spine_refs.get(id(node), 0), (
                "spine refcount drifted"
            )
            assert node.refs > 0, "orphan spine node"

        # Recompute branch/gate refcounts from every referer.
        branch_refs: dict[tuple, int] = {}
        for node in reachable:
            for branch in node.branches:
                branch_refs[branch.key] = branch_refs.get(branch.key, 0) + 1
        for entry in self._entries.values():
            for gate in entry.gates:
                branch_refs[gate.key] = branch_refs.get(gate.key, 0) + 1
        for interned in self._interned.values():
            for child in interned.children:
                branch_refs[child.key] = branch_refs.get(child.key, 0) + 1
        assert branch_refs == {
            key: node.refs for key, node in self._interned.items()
        }, "interned refcounts drifted"

        # Recompute required-tag summaries bottom-up and compare.
        def expected_req(node: _SpineNode) -> frozenset:
            own = (
                frozenset([node.label])
                if is_tag(node.label)
                else frozenset()
            )
            for branch in node.branches:
                own |= branch.tags
            assert node.own_tags == own, "own_tags drifted"
            parts = [entry.gate_tags for entry in node.accepts.values()]
            parts.extend(expected_req(child) for child in node.child_order)
            below = frozenset.intersection(*parts) if parts else frozenset()
            req = own | below
            assert node.req_tags == req, "req_tags drifted"
            return req

        for top in self._root.child_order:
            expected_req(top)
        for entry in self._entries.values():
            gate_tags = frozenset().union(
                *(gate.tags for gate in entry.gates)
            ) if entry.gates else frozenset()
            assert entry.gate_tags == gate_tags, "gate_tags drifted"

    def __repr__(self) -> str:
        return (
            f"PatternTrie(patterns={len(self._entries)}, "
            f"nodes={self._spine_count}, interned={len(self._interned)})"
        )
