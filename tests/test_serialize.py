"""Synopsis serialisation round trips for all modes and pruned structures."""

import json

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.synopsis.compression import compress_to_ratio
from repro.synopsis.serialize import (
    dump_synopsis,
    load_synopsis,
    synopsis_from_dict,
    synopsis_to_dict,
)
from repro.synopsis.size import measure
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.tree import XMLTree

PATTERNS = ["/a", "/a/b", "/a[b][d]", "//e", "/a/c/f/o", "//e[k][m]"]


def assert_estimates_equal(first, second):
    est_a = SelectivityEstimator(first)
    est_b = SelectivityEstimator(second)
    for expression in PATTERNS:
        pattern = parse_xpath(expression)
        assert est_a.selectivity(pattern) == pytest.approx(
            est_b.selectivity(pattern)
        ), expression


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["counters", "sets", "hashes"])
    def test_round_trip_preserves_estimates(self, figure2_synopsis_factory, mode):
        original = figure2_synopsis_factory(mode=mode)
        restored = synopsis_from_dict(synopsis_to_dict(original))
        assert restored.mode == original.mode
        assert restored.n_documents == original.n_documents
        assert measure(restored).total == measure(original).total
        assert_estimates_equal(original, restored)

    def test_json_compatible(self, figure2_synopsis_factory):
        data = synopsis_to_dict(figure2_synopsis_factory(mode="hashes"))
        json.dumps(data)  # must not raise

    def test_round_trip_compressed_synopsis(self, figure2_synopsis_factory):
        original = figure2_synopsis_factory(mode="hashes")
        compress_to_ratio(original, 0.6)
        restored = synopsis_from_dict(synopsis_to_dict(original))
        assert measure(restored).total == measure(original).total
        assert_estimates_equal(original, restored)

    def test_round_trip_preserves_folded_labels(self, figure2_synopsis_factory):
        from repro.synopsis.pruning import fold_leaves

        original = figure2_synopsis_factory(mode="sets")
        fold_leaves(original, lossless_only=True)
        restored = synopsis_from_dict(synopsis_to_dict(original))
        original_labels = sorted(
            node.label.render() for node in original.iter_nodes()
        )
        restored_labels = sorted(
            node.label.render() for node in restored.iter_nodes()
        )
        assert original_labels == restored_labels

    def test_round_trip_preserves_dag(self):
        from repro.synopsis.pruning import merge_same_label

        original = DocumentSynopsis(mode="sets", capacity=10)
        original.insert_document(
            XMLTree.from_nested(("a", [("b", ["x"]), ("c", ["x"])]), doc_id=0)
        )
        merge_same_label(original, min_similarity=0.0)
        restored = synopsis_from_dict(synopsis_to_dict(original))
        assert restored.n_nodes == original.n_nodes
        assert measure(restored).edges == measure(original).edges

    def test_continue_inserting_after_restore(self, figure2_synopsis_factory):
        restored = synopsis_from_dict(
            synopsis_to_dict(figure2_synopsis_factory(mode="hashes"))
        )
        before = restored.n_documents
        restored.insert_document(XMLTree.from_nested(("a", [("b", ["e"])])))
        assert restored.n_documents == before + 1
        estimator = SelectivityEstimator(restored)
        assert estimator.selectivity(parse_xpath("/a")) == pytest.approx(1.0)

    def test_sets_mode_reservoir_restored(self, figure2_synopsis_factory):
        original = figure2_synopsis_factory(mode="sets")
        restored = synopsis_from_dict(synopsis_to_dict(original))
        assert restored.reservoir is not None
        assert sorted(restored.reservoir.members()) == [1, 2, 3, 4, 5, 6]
        assert restored.reservoir.seen == 6


class TestFileIO:
    def test_dump_and_load(self, figure2_synopsis_factory, tmp_path):
        original = figure2_synopsis_factory(mode="hashes")
        path = tmp_path / "synopsis.json"
        dump_synopsis(original, str(path))
        restored = load_synopsis(str(path))
        assert_estimates_equal(original, restored)


class TestFormatGuards:
    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            synopsis_from_dict({"format": "something-else"})

    def test_rejects_future_version(self, figure2_synopsis_factory):
        data = synopsis_to_dict(figure2_synopsis_factory())
        data["version"] = 99
        with pytest.raises(ValueError):
            synopsis_from_dict(data)


@pytest.fixture()
def ab_payload():
    """A 20-document hashes synopsis in which ``/a/b`` has P = 0.4."""
    synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=1)
    for doc_id in range(20):
        child = "b" if doc_id % 5 < 2 else "c"
        synopsis.insert_document(
            XMLTree.from_nested(("a", [(child, [])]), doc_id=doc_id)
        )
    data = synopsis_to_dict(synopsis)
    restored = SelectivityEstimator(synopsis_from_dict(data))
    assert restored.selectivity(parse_xpath("/a/b")) == pytest.approx(0.4)
    return data


def node_labelled(data, tag):
    return next(entry for entry in data["nodes"] if entry["label"][0] == tag)


class TestCorruptPayloads:
    """Corrupt input raises ValueError, never a wrong answer or a
    KeyError."""

    def test_rejects_negative_hash_level(self, ab_payload):
        node_labelled(ab_payload, "b")["summary"]["level"] = -2
        with pytest.raises(ValueError, match="level"):
            synopsis_from_dict(ab_payload)

    def test_rejects_negative_document_count(self, ab_payload):
        ab_payload["n_documents"] = -5
        with pytest.raises(ValueError, match="n_documents"):
            synopsis_from_dict(ab_payload)

    def test_rejects_dangling_child_id(self, ab_payload):
        node_labelled(ab_payload, "a")["children"].append(999)
        with pytest.raises(ValueError, match="dangling"):
            synopsis_from_dict(ab_payload)

    def test_rejects_missing_capacity(self, ab_payload):
        del ab_payload["capacity"]
        with pytest.raises(ValueError, match="capacity"):
            synopsis_from_dict(ab_payload)


def _corrupt_payload(mode):
    """The ``ab_payload`` stream, serialised in *mode*."""
    synopsis = DocumentSynopsis(mode=mode, capacity=64, seed=1)
    for doc_id in range(20):
        child = "b" if doc_id % 5 < 2 else "c"
        synopsis.insert_document(
            XMLTree.from_nested(("a", [(child, [])]), doc_id=doc_id)
        )
    return synopsis_to_dict(synopsis)


def _close_cycle(data):
    node_labelled(data, "b")["children"].append(data["root_id"])


def _retype(key, value):
    def corrupt(data):
        node_labelled(data, "b")[key] = value

    return corrupt


_WRONG_SUMMARY = {"counters": [1], "sets": 5, "hashes": {"level": 0, "ids": 5}}

_CORRUPTIONS = [
    (mode, name, corrupt)
    for mode in ("counters", "sets", "hashes")
    for name, corrupt in (
        ("child-cycle", _close_cycle),
        ("label-type", _retype("label", 5)),
        ("children-type", _retype("children", 5)),
        ("id-type", _retype("id", "b")),
        ("capacity-type", lambda data: data.__setitem__("capacity", "64")),
        ("nodes-type", lambda data: data.__setitem__("nodes", 5)),
        ("summary-type", _retype("summary", _WRONG_SUMMARY[mode])),
    )
] + [
    ("counters", "negative-summary", _retype("summary", -3)),
    (
        "hashes",
        "ids-over-capacity",
        lambda data: node_labelled(data, "b")["summary"].__setitem__(
            "ids", list(range(data["capacity"] + 1))
        ),
    ),
]


@pytest.mark.parametrize(
    ("mode", "corrupt"),
    [(mode, corrupt) for mode, _, corrupt in _CORRUPTIONS],
    ids=[f"{mode}-{name}" for mode, name, _ in _CORRUPTIONS],
)
def test_loader_rejects_corruption_with_value_error(mode, corrupt):
    data = _corrupt_payload(mode)
    corrupt(data)
    with pytest.raises(ValueError, match="corrupt synopsis"):
        synopsis_from_dict(data)
