"""Synopsis persistence.

A broker restarting should not have to replay the document stream to
rebuild its synopsis; this module round-trips a
:class:`~repro.synopsis.synopsis.DocumentSynopsis` — including folded
labels, DAG structure after merges, and every matching-set representation —
through a plain-JSON-compatible dict.

The format is versioned and self-describing::

    {"format": "repro-synopsis", "version": 1, "mode": "hashes", ...}
"""

from __future__ import annotations

import json
from typing import Any

from repro.synopsis.counters import CounterSummary
from repro.synopsis.hashes import HashSample
from repro.synopsis.node import LabelTree, SynopsisNode
from repro.synopsis.synopsis import DocumentSynopsis

__all__ = ["synopsis_to_dict", "synopsis_from_dict", "dump_synopsis", "load_synopsis"]

FORMAT_NAME = "repro-synopsis"
FORMAT_VERSION = 1


def _label_to_list(label: LabelTree) -> list:
    return [label.tag, [_label_to_list(child) for child in label.children]]


def _label_from_list(data: Any) -> LabelTree:
    if (
        not isinstance(data, list)
        or len(data) != 2
        or not isinstance(data[0], str)
        or not isinstance(data[1], list)
    ):
        raise ValueError(f"corrupt synopsis: malformed label {data!r}")
    tag, children = data
    return LabelTree(tag, tuple(_label_from_list(child) for child in children))


def _summary_to_jsonable(synopsis: DocumentSynopsis, node: SynopsisNode) -> Any:
    if synopsis.mode == "counters":
        return node.summary.count
    if synopsis.mode == "sets":
        return sorted(node.summary)
    return {"level": node.summary.level, "ids": sorted(node.summary.ids)}


def synopsis_to_dict(synopsis: DocumentSynopsis) -> dict:
    """Serialise *synopsis* to a JSON-compatible dict."""
    nodes = []
    id_order: list[int] = []
    for node in synopsis.iter_nodes():
        id_order.append(node.node_id)
        nodes.append(
            {
                "id": node.node_id,
                "label": _label_to_list(node.label),
                "children": [child.node_id for child in node.children],
                "summary": _summary_to_jsonable(synopsis, node),
            }
        )
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "mode": synopsis.mode,
        "capacity": synopsis.capacity,
        "seed": synopsis.seed,
        "n_documents": synopsis.n_documents,
        "next_doc_id": synopsis._next_doc_id,
        "pruned": synopsis._pruned,
        "root_id": synopsis.root.node_id,
        "nodes": nodes,
    }
    if synopsis.reservoir is not None:
        # Residents cannot be reconstructed from the summaries: pruning may
        # have deleted a resident document's last stored occurrence.
        payload["reservoir_members"] = sorted(synopsis.reservoir.members())
    return payload


def _field(data: Any, key: str, kind: type = object) -> Any:
    """``data[key]``, with a missing key, a non-mapping or a value that is
    not a *kind* reported as the loader's one error type."""
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise ValueError(f"corrupt synopsis: missing {key!r}") from None
    if not isinstance(value, kind):
        raise ValueError(
            f"corrupt synopsis: {key!r} must be a {kind.__name__}, got {value!r}"
        )
    return value


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _count(data: Any, key: str) -> int:
    """A non-negative integer field."""
    value = _field(data, key)
    if not _is_count(value):
        raise ValueError(
            f"corrupt synopsis: {key!r} must be a non-negative int, got {value!r}"
        )
    return value


def _ids(data: Any, key: str) -> set[int]:
    """A list field of non-negative integer document ids, as a set."""
    values = _field(data, key, list)
    if not all(_is_count(value) for value in values):
        raise ValueError(
            f"corrupt synopsis: {key!r} must list non-negative ints, got {values!r}"
        )
    return set(values)


def _check_acyclic(nodes_by_id: dict[int, SynopsisNode]) -> None:
    """Reject a child cycle (Kahn's algorithm: no recursion, so a deep or
    cyclic payload cannot exhaust the stack)."""
    indegree = dict.fromkeys(nodes_by_id, 0)
    for node in nodes_by_id.values():
        for child in node.children:
            indegree[child.node_id] += 1
    ready = [node for node in nodes_by_id.values() if indegree[node.node_id] == 0]
    ordered = 0
    while ready:
        node = ready.pop()
        ordered += 1
        for child in node.children:
            indegree[child.node_id] -= 1
            if indegree[child.node_id] == 0:
                ready.append(child)
    if ordered != len(indegree):
        raise ValueError("corrupt synopsis: child cycle")


def synopsis_from_dict(data: dict) -> DocumentSynopsis:
    """Rebuild a synopsis from :func:`synopsis_to_dict` output.

    Raises :class:`ValueError` on a foreign or corrupt payload — a
    missing or wrongly typed key, a negative count, summary or hash
    level, a hash sample larger than its capacity, a dangling node id or
    a child cycle — instead of loading a synopsis that answers wrongly.
    """
    if data.get("format") != FORMAT_NAME:
        raise ValueError("not a serialised repro synopsis")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported synopsis format version {data.get('version')}")

    synopsis = DocumentSynopsis(
        mode=_field(data, "mode"),
        capacity=_count(data, "capacity"),
        seed=_field(data, "seed"),
    )
    synopsis.n_documents = _count(data, "n_documents")
    synopsis._next_doc_id = _count(data, "next_doc_id")

    # Recreate all nodes first, then wire edges (the graph may be a DAG).
    nodes_by_id: dict[int, SynopsisNode] = {}
    max_id = 0
    entries = _field(data, "nodes", list)
    for entry in entries:
        node_id = _count(entry, "id")
        label = _label_from_list(_field(entry, "label"))
        node = SynopsisNode(node_id, label, None)
        node.summary = _summary_from_jsonable(synopsis, entry)
        nodes_by_id[node_id] = node
        max_id = max(max_id, node_id)
    synopsis._next_node_id = max_id + 1

    def resolve(node_id: Any) -> SynopsisNode:
        try:
            return nodes_by_id[node_id]
        except (KeyError, TypeError):
            raise ValueError(f"corrupt synopsis: dangling node id {node_id!r}") from None

    for entry in entries:
        node = nodes_by_id[entry["id"]]
        for child_id in _field(entry, "children", list):
            node.add_child(resolve(child_id))
    _check_acyclic(nodes_by_id)

    synopsis.root = resolve(_field(data, "root_id"))
    if _field(data, "pruned"):
        synopsis.mark_pruned()
    else:
        # Rebuild the sets-mode document index for cheap eviction, and the
        # reservoir's resident list.
        if synopsis.mode == "sets":
            index: dict[int, list[SynopsisNode]] = {}
            for node in synopsis.iter_nodes():
                for doc_id in node.summary:
                    index.setdefault(doc_id, []).append(node)
            synopsis._doc_index = index
    if synopsis.mode == "sets":
        assert synopsis.reservoir is not None
        synopsis.reservoir._members = list(_field(data, "reservoir_members", list))
        synopsis.reservoir._seen = synopsis.n_documents
    return synopsis


def _summary_from_jsonable(synopsis: DocumentSynopsis, entry: Any):
    """The matching-set summary of one serialised node *entry*."""
    if synopsis.mode == "counters":
        return CounterSummary(_count(entry, "summary"))
    if synopsis.mode == "sets":
        return _ids(entry, "summary")
    assert synopsis.hasher is not None
    data = _field(entry, "summary", dict)
    sample = HashSample(synopsis.hasher, synopsis.capacity)
    sample.level = _count(data, "level")
    sample.ids = _ids(data, "ids")
    if len(sample.ids) > synopsis.capacity:
        raise ValueError(
            f"corrupt synopsis: hash sample of {len(sample.ids)} ids exceeds "
            f"capacity {synopsis.capacity}"
        )
    return sample


def dump_synopsis(synopsis: DocumentSynopsis, path: str) -> None:
    """Write *synopsis* to a JSON file."""
    with open(path, "w") as handle:
        json.dump(synopsis_to_dict(synopsis), handle)


def load_synopsis(path: str) -> DocumentSynopsis:
    """Read a synopsis from a JSON file."""
    with open(path) as handle:
        return synopsis_from_dict(json.load(handle))
