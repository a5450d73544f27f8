"""Versioned knowledge store: log replay determinism, snapshots, maintenance.

The load-bearing properties pinned here:

* **replay determinism** — ``log -> replay -> byte-identical graph /
  corpus / indexes`` (state digests cover interning order, per-node edge
  order, and posting-array bytes);
* **incremental == rebuild** — applying a mutation batch in place yields
  the same search results, paths, and index bytes as building everything
  from scratch over the final state;
* the dirty-fraction fallbacks take the rebuild path without changing
  observable behaviour;
* snapshots are immutable point-in-time views, cheap at the current epoch;
* compaction preserves state, raises the snapshot floor, and keeps the
  ``store == replay(log)`` invariant;
* **one durable format** — every way of persisting a store writes a
  segment file that reloads to the live state; JSONL is only ever an
  export, and no pass-through or CLI flag can choose otherwise.
"""

from __future__ import annotations

import inspect
import io
import json
import random
from pathlib import Path

import pytest

from repro.kg import KnowledgeGraph, Triple
from repro.retrieval import Corpus, SearchEngine
from repro.retrieval.corpus import Document
from repro.retrieval.embeddings import HashingEmbedder
from repro.store import (
    EdgeReplica,
    GeoReplicator,
    Mutation,
    MutationLog,
    ShardedStore,
    VersionedKnowledgeStore,
    read_mutations_jsonl,
)
from repro.store import segment as segment_module
from repro.store import store as store_module
from repro.store.log import group_batches
from repro.store.segment import SEGMENT_MAGIC


def _triples(count: int, seed: int = 0) -> list:
    rng = random.Random(seed)
    triples = []
    seen = set()
    while len(triples) < count:
        triple = Triple(
            f"e{rng.randrange(count // 2)}",
            f"p{rng.randrange(10)}",
            f"e{rng.randrange(count // 2)}",
        )
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    return triples


def _documents(count: int, prefix: str = "d") -> list:
    return [
        Document(
            doc_id=f"{prefix}{i}",
            url=f"https://corpus.example/{prefix}{i}",
            title=f"entity e{i % 40} profile",
            text=f"entity e{i % 40} relates p{i % 10} to entity e{(i + 7) % 40} item {i}",
            source="corpus.example",
        )
        for i in range(count)
    ]


@pytest.fixture()
def store() -> VersionedKnowledgeStore:
    return VersionedKnowledgeStore.bootstrap(
        triples=_triples(300), documents=_documents(80)
    )


class TestMutationSerialisation:
    def test_triple_ops_round_trip(self):
        for factory in (Mutation.add_triple, Mutation.remove_triple):
            mutation = factory("Ada Lovelace", "worksFor", "Analytical Engines")
            assert Mutation.from_json(mutation.to_json()) == mutation

    def test_document_op_round_trips_all_fields(self):
        document = Document(
            doc_id="d1", url="https://x.org/1", title="t", text="body",
            source="x.org", fact_id="fb-1", kind="news",
        )
        mutation = Mutation.add_document(document)
        assert Mutation.from_json(mutation.to_json()).document == document

    def test_triples_and_mutations_are_slotted_and_pickle(self):
        """Every decoded page holds one of each per record, so neither
        carries a ``__dict__``; the fork pool still pickles both."""
        import pickle

        document = Document(doc_id="d1", url="u", title="t", text="body", source="x")
        values = [
            Triple("s", "p", "o"),
            Mutation.add_triple("s", "p", "o"),
            Mutation.remove_triple("s", "p", "o"),
            Mutation.add_document(document),
        ]
        for value in values:
            assert not hasattr(value, "__dict__")
            twin = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            values[0].subject = "other"  # still frozen

    def test_malformed_records_rejected(self):
        with pytest.raises(ValueError):
            Mutation.from_json({"op": "drop_table"})
        with pytest.raises(ValueError):
            Mutation.from_json({"op": "add_triple", "subject": "s"})
        with pytest.raises(ValueError):
            Mutation.from_json({"op": "add_document"})
        with pytest.raises(ValueError):
            Mutation("add_triple")  # missing payload

    def test_log_epochs_must_be_monotonic(self):
        log = MutationLog()
        log.append_batch(1, [Mutation.add_triple("a", "p", "b")])
        with pytest.raises(ValueError):
            log.append_batch(1, [Mutation.add_triple("c", "p", "d")])

    def test_log_windows_are_open_closed_and_batches_group_by_epoch(self):
        log = MutationLog()
        batches = {
            epoch: [Mutation.add_triple(f"s{epoch}", "p", f"o{index}") for index in range(epoch)]
            for epoch in (1, 2, 4)
        }
        for epoch, batch in batches.items():
            log.append_batch(epoch, batch)
        assert log.max_epoch == 4 and len(log) == 7
        assert [epoch for epoch, _ in log.records_between(after=1, upto=2)] == [2, 2]
        assert [epoch for epoch, _ in log.records_between(after=2)] == [4] * 4
        assert list(log.records_between(upto=0)) == []
        assert log.batches() == sorted(batches.items())
        assert log.batches(after=1, upto=3) == [(2, batches[2])]
        assert group_batches([]) == []


class TestApply:
    def test_epoch_advances_once_per_batch(self, store):
        assert store.epoch == 1  # genesis
        report = store.apply(
            [Mutation.add_triple("x", "p0", "y"), Mutation.add_triple("y", "p0", "z")]
        )
        assert report.epoch == store.epoch == 2
        assert report.triples_added == 2

    def test_batch_validated_before_any_mutation_lands(self, store):
        digest = store.state_digest()
        bad = [
            Mutation.add_triple("new", "p0", "node"),
            Mutation.remove_triple("absent", "p9", "nothing"),
        ]
        with pytest.raises(ValueError, match="absent"):
            store.apply(bad)
        assert store.state_digest() == digest  # atomic: nothing applied
        assert store.epoch == 1

    def test_duplicate_document_id_rejected(self, store):
        with pytest.raises(ValueError, match="duplicate document id"):
            store.apply([Mutation.add_document(_documents(1)[0])])

    def test_duplicate_triple_add_is_a_counted_noop(self, store):
        existing = list(store.graph)[0]
        report = store.apply([Mutation(op="add_triple", triple=existing)])
        assert report.triples_added == 0
        assert store.epoch == 2

    def test_empty_batch_rejected(self, store):
        with pytest.raises(ValueError):
            store.apply([])

    def test_listeners_fire_with_epoch_and_batch(self, store):
        seen = []
        store.subscribe(lambda epoch, batch: seen.append((epoch, len(batch))))
        store.apply([Mutation.add_triple("a", "p0", "b")])
        assert seen == [(2, 1)]


class TestReplayDeterminism:
    def test_replay_is_byte_identical_across_mixed_batches(self, store):
        live = list(store.graph)
        _ = store.search_engine  # materialise so incremental paths run
        store.apply(
            [Mutation.remove_triple(*t.as_tuple()) for t in live[:10]]
            + [Mutation.add_triple(f"fresh{i}", "p1", f"e{i}") for i in range(5)]
            + [Mutation.add_document(d) for d in _documents(6, prefix="n")]
        )
        store.apply([Mutation.add_document(d) for d in _documents(4, prefix="m")])
        twin = VersionedKnowledgeStore.replay(store.log)
        assert twin.epoch == store.epoch
        assert twin.state_digest() == store.state_digest()
        assert twin.graph.state_digest() == store.graph.state_digest()

    def test_save_load_round_trip_preserves_state_and_persists_no_config(
        self, store, tmp_path
    ):
        store.apply([Mutation.add_document(d) for d in _documents(3, prefix="x")])
        path = str(tmp_path / "store.seg")
        store.save(path)
        loaded = VersionedKnowledgeStore.load(path)
        assert loaded.epoch == store.epoch
        assert loaded.state_digest() == store.state_digest()
        # The header holds the format and the floor; the rebuild thresholds
        # live in the code that replays the file.
        data = Path(path).read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        assert json.loads(data[16 : 16 + header_len]) == {"floor_epoch": 0, "version": 1}

    def test_replay_honours_graph_rebuild_threshold_deterministically(self, monkeypatch):
        monkeypatch.setattr(store_module, "GRAPH_REBUILD_FRACTION", 0.05)
        store = VersionedKnowledgeStore.bootstrap(triples=_triples(200))
        live = list(store.graph)
        report = store.apply([Mutation.remove_triple(*t.as_tuple()) for t in live[:40]])
        assert report.graph_rebuilt  # 40/160 > 5%
        twin = VersionedKnowledgeStore.replay(store.log)
        assert twin.graph.state_digest() == store.graph.state_digest()

    def test_mutations_jsonl_reader(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text(
            '{"op": "add_triple", "subject": "a", "predicate": "p", "object": "b"}\n'
            "\n"
            '{"op": "add_document", "document": {"doc_id": "d", "url": "u", '
            '"title": "t", "text": "x", "source": "s"}}\n'
        )
        mutations = read_mutations_jsonl(str(path))
        assert [m.op for m in mutations] == ["add_triple", "add_document"]


class TestIncrementalEqualsRebuild:
    def test_search_engine_add_documents_matches_full_rebuild(self):
        documents = _documents(120)
        corpus = Corpus(documents[:100])
        engine = SearchEngine(corpus)
        for document in documents[100:]:
            corpus.add(document)
        engine.add_documents(documents[100:])
        rebuilt = SearchEngine(corpus)
        assert engine.state_digest() == rebuilt.state_digest()
        for query in ("entity e3 profile", "relates p7 item", "entity e11"):
            fast = [(r.document.doc_id, r.score) for r in engine.search(query, 20)]
            slow = [(r.document.doc_id, r.score) for r in rebuilt.search(query, 20)]
            assert fast == slow

    def test_store_incremental_index_matches_scratch_rebuild(self, store):
        _ = store.search_engine
        report = store.apply([Mutation.add_document(d) for d in _documents(9, prefix="z")])
        assert report.index_strategy == "incremental"
        assert store.search_engine.state_digest() == SearchEngine(store.corpus).state_digest()

    def test_index_rebuild_fallback_above_dirty_fraction(self, monkeypatch):
        monkeypatch.setattr(store_module, "INDEX_REBUILD_FRACTION", 0.1)
        store = VersionedKnowledgeStore.bootstrap(documents=_documents(20))
        _ = store.search_engine
        report = store.apply([Mutation.add_document(d) for d in _documents(10, prefix="big")])
        assert report.index_strategy == "rebuild"
        assert store.search_engine.state_digest() == SearchEngine(store.corpus).state_digest()

    def test_incremental_paths_match_scratch_rebuild(self, store):
        live = list(store.graph)
        store.apply(
            [Mutation.remove_triple(*t.as_tuple()) for t in live[:15]]
            + [Mutation.add_triple(f"e{i}", "p2", f"e{i + 3}") for i in range(10)]
        )
        scratch = VersionedKnowledgeStore.replay(store.log)
        nodes = store.graph.nodes()
        assert nodes == scratch.graph.nodes()
        rng = random.Random(7)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(25)]
        for source, target in pairs:
            assert store.graph.find_paths(source, target, max_length=3) == (
                scratch.graph.find_paths(source, target, max_length=3)
            )

    def test_embedder_warm_cache_extended_on_ingest(self):
        embedder = HashingEmbedder()
        store = VersionedKnowledgeStore.bootstrap(
            documents=_documents(10), embedder=embedder
        )
        new_doc = _documents(1, prefix="warm")[0]
        store.apply([Mutation.add_document(new_doc)])
        assert new_doc.text in embedder._cache  # already embedded, no recompute


class TestSnapshots:
    def test_current_snapshot_is_cheap_and_immutable(self, store):
        snapshot = store.snapshot()
        assert snapshot.epoch == 1
        graph_digest = snapshot.graph.state_digest()
        store.apply([Mutation.add_triple("later", "p0", "thing")])
        # The live store moved on; the snapshot did not.
        assert snapshot.graph.state_digest() == graph_digest
        assert len(snapshot.corpus) == 80
        assert not snapshot.graph.contains("later", "p0", "thing")

    def test_historical_snapshot_replays_the_log(self, store):
        store.apply([Mutation.add_document(d) for d in _documents(5, prefix="h")])
        store.apply([Mutation.add_triple("latest", "p0", "node")])
        old = store.snapshot(1)
        assert len(old.corpus) == 80
        assert not old.graph.contains("latest", "p0", "node")
        mid = store.snapshot(2)
        assert len(mid.corpus) == 85
        assert not mid.graph.contains("latest", "p0", "node")

    def test_a_historical_snapshot_logs_nothing_and_a_bounded_replay_keeps_its_log(
        self, store, tmp_path, monkeypatch
    ):
        for step in range(6):
            store.apply(
                [Mutation.add_triple(f"n{step}", "p0", f"n{step + 1}"),
                 Mutation.remove_triple(*_triples(300)[step].as_tuple())]
            )
        in_memory = VersionedKnowledgeStore.replay(store.log)
        # A checkpoint at epoch 4: snapshot(6) seeks it and replays a suffix.
        monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 385)
        store.save(str(tmp_path / "s.seg"))
        assert [b.first_epoch for b in store.log.reader.checkpoints] == [4, 7]
        store.apply([Mutation.add_triple("tail", "p0", "node")])
        calls = []
        append_batch = MutationLog.append_batch

        def counting(log, epoch, mutations):
            calls.append(epoch)
            return append_batch(log, epoch, mutations)

        monkeypatch.setattr(MutationLog, "append_batch", counting)
        # (source, epoch, batches the bounded replay applies and records):
        # the segment-backed log seeks its epoch-4 checkpoint for epoch 6.
        cases = [(store, 1, [1]), (store, 3, [1, 2, 3]), (store, 6, [5, 6]),
                 (in_memory, 3, [1, 2, 3]), (in_memory, 6, [1, 2, 3, 4, 5, 6])]
        for source, epoch, recorded in cases:
            snapshot = source.snapshot(epoch)
            assert calls == []
            bounded = VersionedKnowledgeStore.replay(source.log, upto=epoch)
            assert calls == recorded
            calls.clear()
            assert snapshot.graph.state_digest() == bounded.graph.state_digest()
            assert [d.doc_id for d in snapshot.corpus] == [d.doc_id for d in bounded.corpus]
            if recorded[0] == 1:  # a from-zero replay's log replays to its state
                again = VersionedKnowledgeStore.replay(bounded.log)
                assert again.state_digest() == bounded.state_digest()

    def test_snapshot_search_engine_reflects_its_epoch(self, store):
        _ = store.search_engine
        store.apply([Mutation.add_document(d) for d in _documents(5, prefix="s")])
        old = store.snapshot(1)
        assert len(old.search_engine()) == 80
        assert len(store.search_engine) == 85

    def test_future_epoch_rejected(self, store):
        with pytest.raises(ValueError, match="future"):
            store.snapshot(99)


class TestCompaction:
    def test_compaction_preserves_state_and_raises_floor(self, store, tmp_path):
        live = list(store.graph)
        store.apply([Mutation.remove_triple(*t.as_tuple()) for t in live[:5]])
        store.apply([Mutation.add_document(d) for d in _documents(3, prefix="c")])
        _ = store.search_engine
        epoch = store.epoch
        dropped = store.compact()
        assert dropped > 0
        assert store.epoch == epoch  # epochs stay monotonic across compaction
        assert store.log.floor_epoch == epoch
        # The invariant store == replay(log) still holds post-compaction.
        twin = VersionedKnowledgeStore.replay(store.log)
        assert twin.state_digest() == store.state_digest()
        # And it round-trips through disk.
        path = str(tmp_path / "compacted.seg")
        store.save(path)
        assert VersionedKnowledgeStore.load(path).state_digest() == store.state_digest()

    def test_snapshots_below_the_floor_are_gone(self, store):
        store.apply([Mutation.add_triple("x", "p0", "y")])
        store.compact()
        with pytest.raises(ValueError, match="floor"):
            store.snapshot(1)


class TestAdoption:
    def test_adopted_substrates_are_maintained_in_place(self):
        corpus = Corpus(_documents(30))
        engine = SearchEngine(corpus)
        store = VersionedKnowledgeStore.adopt(
            corpus=corpus, search_engine=engine, triples=_triples(40)
        )
        assert store.epoch == 1
        new_doc = _documents(1, prefix="adopted")[0]
        store.apply([Mutation.add_document(new_doc)])
        # The adopted objects themselves grew — no rebuild, no copies.
        assert store.corpus is corpus and store.search_engine is engine
        assert len(engine) == 31
        twin = VersionedKnowledgeStore.replay(store.log)
        assert twin.state_digest() == store.state_digest()

    def test_adopt_rejects_foreign_engine(self):
        corpus = Corpus(_documents(5))
        other = Corpus(_documents(5, prefix="o"))
        with pytest.raises(ValueError):
            VersionedKnowledgeStore.adopt(corpus=corpus, search_engine=SearchEngine(other))


class TestGraphCopy:
    def test_copy_preserves_interning_and_traversal_order(self):
        graph = KnowledgeGraph("orig")
        for triple in _triples(150, seed=3):
            graph.add(triple)
        graph.remove(list(graph)[0])  # leave a ghost entry
        clone = graph.copy()
        assert clone.state_digest() == graph.state_digest()
        assert clone._node_ids == graph._node_ids  # interning tables intact
        nodes = graph.nodes()
        rng = random.Random(1)
        for _ in range(15):
            s, t = rng.choice(nodes), rng.choice(nodes)
            assert clone.find_paths(s, t, max_length=3) == graph.find_paths(s, t, max_length=3)

    def test_copy_is_independent_of_the_source(self):
        graph = KnowledgeGraph("orig")
        graph.add(Triple("a", "p", "b"))
        clone = graph.copy()
        clone.add(Triple("c", "p", "d"))
        graph.remove(Triple("a", "p", "b"))
        assert graph.state_digest() != clone.state_digest()
        assert clone.contains("a", "p", "b")
        assert not graph.contains("c", "p", "d")
        assert len(graph) == 0 and len(clone) == 2


class TestCoreOnlyGraphs:
    def test_no_store_path_builds_string_indexes_nobody_asked_for(
        self, tmp_path, monkeypatch
    ):
        """A new store, a from-zero replay, a snapshot, a load, the re-intern
        and a compaction each hand back a graph that is its interned core
        until a string-level query runs."""
        monkeypatch.setattr(store_module, "GRAPH_REBUILD_FRACTION", 0.05)
        store = VersionedKnowledgeStore.bootstrap(_triples(200), _documents(10))
        assert not store.graph.hydrated
        report = store.apply(
            [Mutation.remove_triple(*t.as_tuple()) for t in list(store.graph)[:40]]
        )
        assert report.graph_rebuilt
        from_zero = store.log.fork()  # a plain log: replay starts at epoch 0
        path = str(tmp_path / "s")
        store.save(path)
        replayed = VersionedKnowledgeStore.replay(from_zero)
        compacted = VersionedKnowledgeStore.load(path)
        compacted.compact()
        graphs = {
            "new": KnowledgeGraph(),
            "re-interned": store.graph,
            "replay from zero": replayed.graph,
            "historical snapshot": store.snapshot(1).graph,
            "current snapshot": store.snapshot().graph,
            "load": VersionedKnowledgeStore.load(path).graph,
            "compact": compacted.graph,
        }
        for how, graph in graphs.items():
            assert not graph.hydrated, how
        for how, graph in graphs.items():
            graph.predicates()
            assert graph.hydrated, how



def _digest(store: VersionedKnowledgeStore) -> str:
    return store.state_digest(include_index=False)


def _cli(*argv: str) -> str:
    from repro.benchmark.cli import main

    out = io.StringIO()
    assert main(list(argv), stream=out) == 0
    return out.getvalue()


def _ops_file(tmp_path) -> tuple:
    """A mutations file for the CLI and the same batch for an in-process twin."""
    batch = [Mutation("add_triple", triple=t) for t in _triples(40)]
    batch += [Mutation.add_document(d) for d in _documents(6)]
    path = tmp_path / "ops.jsonl"
    path.write_text("".join(json.dumps(m.to_json()) + "\n" for m in batch))
    return str(path), batch


# Each way of persisting returns [(file written, digest of the live state)].


def _via_store_save(tmp_path):
    store = VersionedKnowledgeStore.bootstrap(_triples(60), _documents(10))
    store.save(str(tmp_path / "s"))
    return [(str(tmp_path / "s"), _digest(store))]


def _via_sharded_save(tmp_path):
    fleet = ShardedStore.partition(_triples(60), _documents(10), num_shards=2)
    paths = fleet.save(str(tmp_path / "fleet"))
    return list(zip(paths, map(_digest, fleet.shards)))


def _via_edge_save(tmp_path):
    fleet = ShardedStore.partition(_triples(60), _documents(10), num_shards=2)
    edge = GeoReplicator(fleet).add_edge("edge-0")
    paths = edge.save(str(tmp_path / "edge"))
    return list(zip(paths, map(_digest, edge.stores)))


def _via_cli_ingest(tmp_path):
    ops, batch = _ops_file(tmp_path)
    _cli("ingest", "--store", str(tmp_path / "s"), "--mutations", ops)
    twin = VersionedKnowledgeStore()
    twin.apply(batch)
    return [(str(tmp_path / "s"), _digest(twin))]


def _via_cli_sharded_ingest(tmp_path):
    ops, batch = _ops_file(tmp_path)
    _cli("ingest", "--store", str(tmp_path / "s"), "--mutations", ops, "--shards", "2")
    twin = ShardedStore.partition(num_shards=2)
    twin.apply(batch)
    return [(f"{tmp_path / 's'}.shard{i}", _digest(shard)) for i, shard in enumerate(twin.shards)]


def _via_cli_compact(tmp_path):
    ops, batch = _ops_file(tmp_path)
    _cli("ingest", "--store", str(tmp_path / "s"), "--mutations", ops)
    _cli("compact", "--store", str(tmp_path / "s"), "--output", str(tmp_path / "c"))
    twin = VersionedKnowledgeStore()
    twin.apply(batch)
    twin.compact()
    return [(str(tmp_path / "c"), _digest(twin))]


def _via_save_compact_save(tmp_path):
    store = VersionedKnowledgeStore.bootstrap(_triples(60), _documents(10))
    store.save(str(tmp_path / "s"))
    store.compact()
    store.save(str(tmp_path / "s"))
    return [(str(tmp_path / "s"), _digest(store))]


def _via_load_apply_save(tmp_path):
    VersionedKnowledgeStore.bootstrap(_triples(60), _documents(10)).save(str(tmp_path / "s"))
    store = VersionedKnowledgeStore.load(str(tmp_path / "s"))
    store.apply([Mutation.add_triple("late", "p0", "e1")])
    store.save(str(tmp_path / "s"))
    return [(str(tmp_path / "s"), _digest(store))]


_WAYS_TO_PERSIST = {
    "VersionedKnowledgeStore.save": _via_store_save,
    "ShardedStore.save": _via_sharded_save,
    "EdgeReplica.save": _via_edge_save,
    "cli ingest": _via_cli_ingest,
    "cli ingest --shards 2": _via_cli_sharded_ingest,
    "cli compact": _via_cli_compact,
    "save, compact(), save": _via_save_compact_save,
    "load, apply, save": _via_load_apply_save,
}


class TestOneDurableFormat:
    @pytest.mark.parametrize("way", sorted(_WAYS_TO_PERSIST))
    def test_every_way_of_persisting_leaves_segments_that_reload_to_live_state(
        self, way, tmp_path
    ):
        written = _WAYS_TO_PERSIST[way](tmp_path)
        assert written
        for path, live_digest in written:
            with open(path, "rb") as handle:
                assert handle.read(len(SEGMENT_MAGIC)) == SEGMENT_MAGIC, path
            assert _digest(VersionedKnowledgeStore.load(path)) == live_digest, path

    def test_convert_exports_and_imports_without_being_told_which(
        self, tmp_path, monkeypatch
    ):
        segment, exported, imported = (str(tmp_path / n) for n in ("s", "e.jsonl", "s2"))
        monkeypatch.setattr(store_module, "GRAPH_REBUILD_FRACTION", 0.05)
        store = VersionedKnowledgeStore.bootstrap(_triples(60), _documents(10))
        store.apply([Mutation.remove_triple(*t.as_tuple()) for t in list(store.graph)[:20]])
        store.save(segment)
        assert "(jsonl)" in _cli("convert", "--store", segment, "--output", exported)
        assert json.loads(Path(exported).read_text().splitlines()[0]) == {
            "floor_epoch": 0, "kind": "header", "version": 1
        }
        assert "(segment)" in _cli("convert", "--store", exported, "--output", imported)
        reloaded = VersionedKnowledgeStore.load(imported)
        assert _digest(reloaded) == _digest(store)

    def test_format_is_one_argument_of_one_method(self, tmp_path):
        from repro.benchmark.cli import build_service_parser

        assert "format" in inspect.signature(VersionedKnowledgeStore.save).parameters
        for passthrough in (ShardedStore.save, EdgeReplica.save):
            assert "format" not in inspect.signature(passthrough).parameters
        store = VersionedKnowledgeStore.bootstrap(_triples(10))
        with pytest.raises(ValueError, match="unknown store format"):
            store.save(str(tmp_path / "s"), format="auto")
        for argv in (
            ["ingest", "--store", "s", "--mutations", "m", "--format", "segment"],
            ["compact", "--store", "s", "--format", "segment"],
            ["convert", "--store", "s", "--output", "o", "--format", "jsonl"],
        ):
            with pytest.raises(SystemExit):
                build_service_parser().parse_args(argv)
            build_service_parser().parse_args(argv[:-2])  # ... and only for the flag
