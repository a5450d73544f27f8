"""Tests for the paged binary storage engine and the log durability fixes.

Covers the crash-safety contract end to end:

* segment round-trips are byte-identical to JSONL (``state_digest``);
* truncating a saved segment at *any* byte offset either recovers the
  longest valid batch prefix or raises the typed ``CorruptSegmentError``
  — never silently-wrong state (hypothesis property plus fixed fixtures
  for a torn final record and a truncated segment);
* mid-file corruption behind a valid footer raises on read;
* hostile input: a zlib bomb inflates only to its stated length, a
  CRC-valid footer that does not tile the file falls back to the scan,
  an index row its block or checkpoint contradicts raises, and a header
  with an unusable floor (or a JSONL header past the first line) is a
  typed error, from ``load`` and from ``convert`` alike;
* files whose header still carries the ``config`` key older writers
  added load to the same state; a version-1 segment (tuple-keyed
  checkpoint edges) is refused at open;
* flipping any bytes of a saved segment loads a batch prefix or raises
  the typed error (hypothesis property); the record codec round-trips
  and a damaged record payload raises its typed message;
* no graph a load, a seek, a copy or an apply builds holds a tracked
  edge dict;
* a historical snapshot equals the from-zero replay at every epoch, in
  any request order and from several threads at once, whether its checkpoint
  was decoded or copied from the reader's resident one; the resident
  is decoded on the second consecutive seek, and nothing a caller does
  to a snapshot reaches it;
* ``MutationLog.save`` (and the segment writer) are crash-atomic: a
  simulated crash mid-write leaves the previous log intact;
* ``MutationLog.load`` rejects non-monotonic / below-floor epochs with
  the offending line number;
* ``Mutation.from_json`` requires ``doc_id`` and ``text`` on
  ``add_document`` records instead of defaulting them to ``""``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import struct
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.triples import Triple
from repro.retrieval.corpus import Document
from repro.store import (
    CorruptSegmentError,
    Mutation,
    MutationLog,
    PageCache,
    SegmentBackedLog,
    SegmentReader,
    ShardedStore,
    VersionedKnowledgeStore,
    atomic_write,
)
from repro.store import segment as segment_module
from repro.store.log import ADD_DOCUMENT_CODE, ADD_TRIPLE_CODE, REMOVE_TRIPLE_CODE
from support import hostile_line, string_fields


def _document(index: int, text: str = "") -> Document:
    return Document(
        doc_id=f"doc{index}",
        url=f"https://example.org/{index}",
        title=f"Doc {index}",
        text=text or f"evidence text {index}",
        source="test",
        fact_id=f"fact{index % 5}",
    )


@contextlib.contextmanager
def _engine(**constants):
    """The segment engine with some of its module constants changed (for
    helpers that cannot take the ``monkeypatch`` fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(segment_module, name, value)
        yield


def _grow_store(batches: int, rng_seed: int = 11, batch_size: int = 4) -> VersionedKnowledgeStore:
    """A store with a mixed add/remove/document history of ``batches`` epochs."""
    rng = random.Random(rng_seed)
    store = VersionedKnowledgeStore(name="seg-test")
    live: List[tuple] = []
    doc_index = 0
    for _ in range(batches):
        batch: List[Mutation] = []
        for _ in range(batch_size):
            roll = rng.random()
            if roll < 0.6 or not live:
                triple = (f"s{rng.randrange(25)}", f"p{rng.randrange(3)}", f"o{rng.randrange(25)}")
                batch.append(Mutation.add_triple(*triple))
                live.append(triple)
            elif roll < 0.8:
                doc_index += 1
                batch.append(Mutation.add_document(_document(doc_index)))
            else:
                victim = live.pop(rng.randrange(len(live)))
                if store.graph.contains(*victim) and not any(
                    m.op == "remove_triple" and m.triple.as_tuple() == victim for m in batch
                ):
                    batch.append(Mutation.remove_triple(*victim))
                else:
                    batch.append(Mutation.add_triple(*victim))
                    live.append(victim)
        store.apply(batch)
    return store


# ---------------------------------------------------------------------------
# round-trip parity


def test_segment_round_trip_digest_parity(tmp_path, monkeypatch):
    store = _grow_store(80)
    jsonl_path = str(tmp_path / "log.jsonl")
    segment_path = str(tmp_path / "log.seg")
    store.save(jsonl_path, format="jsonl")
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 50)
    store.save(segment_path, format="segment")

    # The JSONL export replayed from zero is the reference path.
    via_jsonl = VersionedKnowledgeStore.replay(MutationLog.load(jsonl_path))
    via_segment = VersionedKnowledgeStore.load(segment_path)
    assert via_segment.epoch == via_jsonl.epoch == store.epoch
    assert via_segment.state_digest() == via_jsonl.state_digest() == store.state_digest()

    # Files saved before the rebuild thresholds became constants carry
    # them in the header; nothing reads that key, so a segment header that
    # carries it loads the same.  (Those segments are version 1, which is
    # refused: test_a_segment_in_the_tuple_keyed_format_is_refused.)
    # (Re-heading with the header the writer wrote changes no byte.)
    honest_header = _with_header(Path(segment_path), {"version": 2, "floor_epoch": 0})
    assert Path(honest_header).read_bytes() == Path(segment_path).read_bytes()
    old_segment = _with_header(Path(segment_path), dict(_OLD_HEADER, version=2, floor_epoch=0))
    reader, honest = SegmentReader.open(old_segment), SegmentReader.open(segment_path)
    assert not reader.recovered  # its footer tiles the file: the blocks moved intact
    assert [b.crc for b in reader.blocks] == [b.crc for b in honest.blocks]
    reader.close()
    honest.close()
    assert VersionedKnowledgeStore.load(old_segment).state_digest() == store.state_digest()
    lines = Path(jsonl_path).read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    assert "config" not in header
    old_jsonl = tmp_path / "old.jsonl"
    old_jsonl.write_text(
        json.dumps(dict(header, **_OLD_HEADER), sort_keys=True) + "\n" + "".join(lines[1:]),
        encoding="utf-8",
    )
    via_old = VersionedKnowledgeStore.replay(MutationLog.load(str(old_jsonl)))
    assert via_old.state_digest() == store.state_digest()


#: The header key every file saved before the rebuild thresholds became
#: module constants carried (their values never changed).
_OLD_HEADER = {
    "version": 1,
    "config": {"graph_rebuild_fraction": 0.5, "index_rebuild_fraction": 0.5},
}


def _with_header(path: Path, header: dict, name: str = "reheaded.seg") -> str:
    """``path`` re-written under a CRC-valid ``header``: the blocks byte for
    byte, the footer rows moved to where the blocks now lie."""
    from repro.store.segment import _END_MAGIC, _FOOTER_TAIL, SEGMENT_MAGIC

    data = path.read_bytes()
    (old_len,) = struct.unpack_from("<I", data, len(SEGMENT_MAGIC))
    data_start = len(SEGMENT_MAGIC) + 8 + old_len
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    footer_len, _, _ = _FOOTER_TAIL.unpack(data[-_FOOTER_TAIL.size:])
    footer_start = len(data) - _FOOTER_TAIL.size - footer_len
    rows = json.loads(zlib.decompress(data[footer_start:-_FOOTER_TAIL.size]))["blocks"]
    moved = [[row[0], row[1] + len(raw) - old_len] + row[2:] for row in rows]
    footer = zlib.compress(json.dumps({"blocks": moved}, separators=(",", ":")).encode(), 6)
    out = path.with_name(name)
    out.write_bytes(
        SEGMENT_MAGIC + struct.pack("<II", len(raw), zlib.crc32(raw)) + raw
        + data[data_start:footer_start]
        + footer + _FOOTER_TAIL.pack(len(footer), zlib.crc32(footer), _END_MAGIC)
    )
    return str(out)


def test_segment_smaller_than_jsonl(tmp_path):
    store = _grow_store(120)
    jsonl_path = str(tmp_path / "log.jsonl")
    segment_path = str(tmp_path / "log.seg")
    store.save(jsonl_path, format="jsonl")
    store.save(segment_path, format="segment")
    assert os.path.getsize(segment_path) < os.path.getsize(jsonl_path)


def test_historical_snapshot_parity(tmp_path, monkeypatch):
    store = _grow_store(60)
    epochs = (1, store.epoch // 2, store.epoch - 1)
    # Taken before the save: from-zero replays of the in-memory log.
    expected = {epoch: store.snapshot(epoch) for epoch in epochs}
    segment_path = str(tmp_path / "log.seg")
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 40)
    store.save(segment_path, format="segment")
    via_segment = VersionedKnowledgeStore.load(segment_path)
    for epoch in epochs:
        for got in (via_segment.snapshot(epoch), store.snapshot(epoch)):
            assert got.graph.state_digest() == expected[epoch].graph.state_digest()
            assert [d.doc_id for d in got.corpus] == [
                d.doc_id for d in expected[epoch].corpus
            ]


def test_a_saved_store_reads_its_segment_so_a_resave_encodes_nothing(
    tmp_path, monkeypatch
):
    """Only the first save of a never-loaded store encodes records and
    shadow-replays batches; the store then reads the file it wrote, so the
    next save copies it byte for byte and a historical snapshot seeks."""
    store = _grow_store(60)
    from_zero = store.log.fork()  # a plain log: replay starts at epoch 0
    calls = {"encode_record": 0, "_apply_batch": 0}
    encode_record = segment_module.encode_record
    apply_batch = VersionedKnowledgeStore._apply_batch

    def counting_encode(record):
        calls["encode_record"] += 1
        assert type(record) is tuple  # the log's own record, not a Mutation
        return encode_record(record)

    def counting_apply(self, epoch, records, record):
        calls["_apply_batch"] += 1
        # A batch of flat log records, stamped with its epoch.
        assert all(type(r) is tuple and r[0] == epoch for r in records)
        return apply_batch(self, epoch, records, record)

    monkeypatch.setattr(segment_module, "encode_record", counting_encode)
    monkeypatch.setattr(VersionedKnowledgeStore, "_apply_batch", counting_apply)
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 40)

    def save(name: str) -> dict:
        calls.update(encode_record=0, _apply_batch=0)
        store.save(str(tmp_path / name))
        return dict(calls)

    first = save("first.seg")
    assert first["encode_record"] == len(from_zero) == 240
    assert first["_apply_batch"] > 0  # the shadow replay behind the checkpoints
    assert isinstance(store.log, SegmentBackedLog)
    assert store.log.reader.path == str(tmp_path / "first.seg")
    assert save("second.seg") == {"encode_record": 0, "_apply_batch": 0}
    assert (tmp_path / "first.seg").read_bytes() == (tmp_path / "second.seg").read_bytes()
    monkeypatch.undo()

    first_checkpoint = store.log.reader.checkpoints[0].first_epoch
    for epoch in (first_checkpoint + 1, store.epoch // 2, store.epoch - 1):
        assert store.log.replay_base(epoch) is not None  # seeks, not from zero
        expected = VersionedKnowledgeStore.replay(from_zero, upto=epoch)
        got = store.snapshot(epoch)
        assert got.graph.state_digest() == expected.graph.state_digest()
        assert [d.doc_id for d in got.corpus] == [d.doc_id for d in expected.corpus]


def test_historical_replay_builds_no_mutation_or_triple(tmp_path, monkeypatch):
    """A load and snapshots behind every checkpoint, and behind none, apply
    the page caches' flat records as they are, re-interns included: no
    ``Mutation`` or ``Triple`` is built, and no cached triple record is
    left tracked for the cycle collector to scan."""
    from repro.kg.graph import KnowledgeGraph
    from repro.store import store as store_module

    # Saved, loaded and replayed alike: replays re-intern their graphs.
    monkeypatch.setattr(store_module, "GRAPH_REBUILD_FRACTION", 0.05)
    store, path, _ = _saved_segment(tmp_path, batches=40, block_size=384)
    calls = {Mutation: 0, Triple: 0, KnowledgeGraph: 0}
    with pytest.MonkeyPatch.context() as patch:
        for cls, name in ((Mutation, "__init__"), (Triple, "__init__"),
                          (KnowledgeGraph, "reinterned")):
            def counting(self, *args, _cls=cls, _method=getattr(cls, name), **kwargs):
                calls[_cls] += 1
                return _method(self, *args, **kwargs)

            patch.setattr(cls, name, counting)

        def alive() -> List[int]:
            gc.collect()
            objects = gc.get_objects()
            return [sum(type(o) is cls for o in objects) for cls in (Mutation, Triple)]

        before = alive()
        loaded = VersionedKnowledgeStore.load(path)
        reader = loaded.log.reader
        checkpoints = [block.first_epoch for block in reader.checkpoints]
        assert len(checkpoints) >= 3 and checkpoints[-1] == loaded.epoch
        assert any(block.continues for block in reader.record_blocks)
        epochs = [checkpoints[0] // 2] + [epoch + 3 for epoch in checkpoints[:-1]]
        # Twice each: the second consecutive seek decodes into the resident.
        snapshots = [(e, loaded.snapshot(e)) for e in epochs for _ in range(2)]
        assert calls[Mutation] == calls[Triple] == 0
        assert calls[KnowledgeGraph] > 0
        assert alive() == before
        pages = [*reader.page_cache._pages.values(), *reader._pinned_pages.values()]
        triples = [record for page in pages for record in page if len(record) == 5]
        assert len(triples) > 50
        assert not any(gc.is_tracked(record) for record in triples)
    for epoch, snapshot in snapshots:
        expected = VersionedKnowledgeStore.replay(store.log, upto=epoch)
        assert snapshot.graph.state_digest() == expected.graph.state_digest()
        assert list(snapshot.corpus) == list(expected.corpus)


def test_a_save_builds_no_mutation_or_triple(tmp_path, monkeypatch):
    """The first save of a never-saved store (a full rewrite behind a
    shadow replay) and the append after it hand the log's records to the
    writer as they are: no ``Mutation`` or ``Triple`` is built."""
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 40)
    monkeypatch.setattr(segment_module, "BLOCK_SIZE", 512)
    store = _grow_store(60)
    calls = {Mutation: 0, Triple: 0}

    def counted_save(name: str) -> None:
        with pytest.MonkeyPatch.context() as patch:
            for cls in calls:
                def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                    calls[_cls] += 1
                    _init(self, *args, **kwargs)

                patch.setattr(cls, "__init__", counting)
            store.save(str(tmp_path / name))

    counted_save("full.seg")
    assert len(store.log.reader.checkpoints) > 1  # the shadow replay ran
    store.apply([Mutation.add_triple("tail", "p0", "o"), Mutation.add_document(_document(99))])
    counted_save("incremental.seg")
    assert store.log.reader.record_count == len(store.log) == 242
    assert calls == {Mutation: 0, Triple: 0}


def _pinned_history(store: VersionedKnowledgeStore, epochs: range) -> None:
    """Apply a fixed history: fresh and duplicate triple adds, removes of
    live triples, and documents whose fields hold non-ASCII text."""
    for epoch in epochs:
        batch = [
            Mutation.add_triple(f"s{epoch % 7}", f"p{epoch % 3}", f"o{epoch}"),
            Mutation.add_triple("Zoë", "bornIn", f"Zürich {epoch % 4}"),
        ]
        if epoch % 3 == 0:
            batch.append(Mutation.remove_triple(
                f"s{(epoch - 1) % 7}", f"p{(epoch - 1) % 3}", f"o{epoch - 1}"
            ))
        if epoch % 4 == 0:
            batch.append(Mutation.add_document(Document(
                doc_id=f"d{epoch}", url=f"https://example.org/é/{epoch}",
                title="Café 中文", text=f"évidence 😀 {epoch} \U00010348",
                source="pin", fact_id=f"f{epoch % 5}", kind="wiki" if epoch % 8 else "",
            )))
        store.apply(batch)


def _segment_layout_digest(path: str) -> str:
    """sha256 of a segment's floor, each block's header fields and its
    decoded contents: the record bytes, or the checkpoint's state.  Raw
    file bytes would also pin zlib's deflate output and pickle's stream,
    which a different build of either may change without a code change."""
    reader = SegmentReader.open(path)
    digest = hashlib.sha256(ascii(reader.floor_epoch).encode("ascii"))
    for block in reader.blocks:
        digest.update(ascii((
            block.kind, block.flags, block.count, block.raw_len,
            block.first_epoch, block.last_epoch,
        )).encode("ascii"))
        if block.kind == segment_module.BLOCK_CHECKPOINT:
            state = reader.load_checkpoint(block)
            digest.update(ascii((
                state.epoch, state.graph_core, state.documents, state.removed_since_reintern,
            )).encode("ascii"))
        else:
            digest.update(zlib.decompress(reader.read_raw_block(block)))
    reader.close()
    return digest.hexdigest()


#: sha256 of what :func:`_pinned_history` writes and folds, computed by the
#: encoder that took ``Mutation``s: a change to the record codec, the block
#: cutting, the checkpoint contents, the JSONL export or the chain shows here.
_PINNED = {
    "full.seg": "6470f27ac04d3d1e8b1522fbf12ce7d4435a5b60dcbc02875a4b0ea4525ea6d0",
    "export.jsonl": "93f021fdb539bec59dcca46aab535c274fa614f95711d5414c89b171ca8ee742",
    "incremental.seg": "150685f2cef2e7f2f752f87ac0860ff979ded5f3aa90574ac3fe4747fbb333c4",
    "chain": "9812098305d1eb833f1890aa07743d99a1a9155c9a2f218181adf50414c59ce2",
    "state": "3ece4cbc902e2fbc99692f453eb2291ce356e59914b67d4ca5c199a0bfd48b30",
}


def test_the_store_writes_the_bytes_it_always_wrote(tmp_path, monkeypatch):
    """Pin the on-disk format across code versions, not only within one: a
    full rewrite (several blocks, a batch split across two, interleaved
    checkpoints), its JSONL export, an incremental save appending to it,
    and the chain and state digests.  Segments are pinned through
    :func:`_segment_layout_digest`, the export by its bytes."""
    monkeypatch.setattr(segment_module, "BLOCK_SIZE", 256)
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 30)
    store = VersionedKnowledgeStore(name="pinned")
    _pinned_history(store, range(1, 41))
    store.save(str(tmp_path / "full.seg"))
    store.save(str(tmp_path / "export.jsonl"), format="jsonl")
    full = SegmentReader.open(str(tmp_path / "full.seg"))
    assert len(full.checkpoints) > 1 and any(b.continues for b in full.record_blocks)
    full.close()
    _pinned_history(store, range(41, 46))
    store.save(str(tmp_path / "incremental.seg"))
    got = {
        name: _segment_layout_digest(str(tmp_path / name))
        for name in ("full.seg", "incremental.seg")
    }
    got["export.jsonl"] = hashlib.sha256((tmp_path / "export.jsonl").read_bytes()).hexdigest()
    got.update(chain=store.chain_digest, state=store.state_digest())
    assert got == _PINNED


def test_a_resave_after_new_batches_encodes_only_them(tmp_path, monkeypatch):
    store = _grow_store(30)
    store.save(str(tmp_path / "s"))
    store.apply([Mutation.add_triple("tail", "p0", "tail-object")])
    store.apply([Mutation.add_document(_document(999))])
    encoded = []
    encode_record = segment_module.encode_record
    monkeypatch.setattr(
        segment_module,
        "encode_record",
        lambda record: encoded.append(record) or encode_record(record),
    )
    store.save(str(tmp_path / "s"))
    assert [record[0] for record in encoded] == [store.epoch - 1, store.epoch]
    monkeypatch.undo()
    # The store reads the new file: nothing is left past its blocks.
    assert list(store.log.records(after=store.log.reader.max_epoch)) == []
    reloaded = VersionedKnowledgeStore.load(str(tmp_path / "s"))
    assert reloaded.state_digest() == store.state_digest()


def test_segment_load_seeks_instead_of_replaying(tmp_path, monkeypatch):
    """Cold start restores the head checkpoint: no record block is decoded."""
    store = _grow_store(50)
    segment_path = str(tmp_path / "log.seg")
    monkeypatch.setattr(segment_module, "CHECKPOINT_INTERVAL", 10_000)
    store.save(segment_path, format="segment")
    loaded = VersionedKnowledgeStore.load(segment_path)
    assert isinstance(loaded.log, SegmentBackedLog)
    stats = loaded.log.reader.page_cache.stats()
    assert stats["misses"] == 0  # head checkpoint covered the whole history
    assert loaded.state_digest() == store.state_digest()
    assert len(loaded.graph) == len(store.graph)


def test_incremental_save_appends_tail(tmp_path):
    store = _grow_store(30)
    segment_path = str(tmp_path / "log.seg")
    store.save(segment_path, format="segment")
    loaded = VersionedKnowledgeStore.load(segment_path)
    loaded.apply([Mutation.add_triple("tail", "p0", "tail-object")])
    loaded.apply([Mutation.add_document(_document(999))])
    second = str(tmp_path / "log2.seg")
    loaded.save(second)  # a segment-loaded store takes the incremental path
    reloaded = VersionedKnowledgeStore.load(second)
    assert reloaded.epoch == loaded.epoch
    assert reloaded.state_digest() == loaded.state_digest()


def test_compact_keeps_segment_format(tmp_path):
    store = _grow_store(40)
    segment_path = str(tmp_path / "log.seg")
    store.save(segment_path, format="segment")
    loaded = VersionedKnowledgeStore.load(segment_path)
    loaded.compact()
    loaded.save(segment_path)
    reloaded = VersionedKnowledgeStore.load(segment_path)
    assert isinstance(reloaded.log, SegmentBackedLog)
    assert reloaded.log.floor_epoch == loaded.epoch
    assert reloaded.state_digest() == loaded.state_digest()


def test_sharded_store_segment_round_trip(tmp_path):
    rng = random.Random(5)
    fleet = ShardedStore.partition(
        triples=[],
        documents=[],
        num_shards=2,
    )
    fleet.apply(
        [Mutation.add_triple(f"e{rng.randrange(20)}", "p", f"e{rng.randrange(20)}") for _ in range(30)]
    )
    prefix = str(tmp_path / "fleet")
    fleet.save(prefix)
    loaded = ShardedStore.load(prefix, num_shards=2)
    assert loaded.state_digests() == fleet.state_digests()
    assert all(isinstance(shard.log, SegmentBackedLog) for shard in loaded.shards)


def test_replication_from_segment_log_shares_reader(tmp_path):
    from repro.store import ReplicaGroup

    store = _grow_store(25)
    segment_path = str(tmp_path / "log.seg")
    store.save(segment_path, format="segment")
    primary = VersionedKnowledgeStore.load(segment_path)
    group = ReplicaGroup.replicate(primary, 3)
    assert {store.state_digest(include_index=True) for store in group.stores} == {
        primary.state_digest(include_index=True)
    }
    replica_log = group.stores[1].log
    assert isinstance(replica_log, SegmentBackedLog)
    assert replica_log.reader is primary.log.reader  # shared page cache


def test_service_ingest_on_segment_loaded_store(tmp_path):
    """A segment-loaded store keeps serving mutations (quiesce/ingest path)."""
    store = _grow_store(20)
    segment_path = str(tmp_path / "log.seg")
    store.save(segment_path, format="segment")
    loaded = VersionedKnowledgeStore.load(segment_path)
    seen = []
    loaded.subscribe(lambda epoch, batch: seen.append((epoch, len(batch))))
    report = loaded.apply([Mutation.add_triple("svc", "p0", "obj")])
    assert report.epoch == store.epoch + 1
    assert seen == [(report.epoch, 1)]
    assert loaded.snapshot().epoch == report.epoch


# ---------------------------------------------------------------------------
# crash recovery: truncation fixtures + hypothesis property


def _saved_segment(tmp_path, batches: int = 24, block_size: int = 512) -> tuple:
    store = _grow_store(batches, rng_seed=3)
    path = str(tmp_path / "crash.seg")
    with _engine(CHECKPOINT_INTERVAL=48, BLOCK_SIZE=block_size):
        store.save(path, format="segment")
    with open(path, "rb") as handle:
        data = handle.read()
    return store, path, data


def _assert_valid_prefix(store, truncated_path) -> None:
    """The recovered log must be an exact batch prefix of the original."""
    try:
        reader = SegmentReader.open(truncated_path)
    except CorruptSegmentError:
        return  # typed failure is an accepted outcome
    log = SegmentBackedLog(reader)
    try:
        recovered = log.batches()
        replayed = VersionedKnowledgeStore.replay(log)
    except CorruptSegmentError:
        reader.close()
        return
    original = store.log.batches()
    assert recovered == original[: len(recovered)]
    expected_epoch = recovered[-1][0] if recovered else log.floor_epoch
    assert replayed.epoch == expected_epoch
    # Recovered state must equal the genuine historical state at that epoch.
    if recovered:
        assert (
            replayed.graph.state_digest()
            == store.snapshot(expected_epoch).graph.state_digest()
        )
    reader.close()


def test_torn_final_record_truncates_to_batch_prefix(tmp_path):
    store, path, data = _saved_segment(tmp_path)
    # Cut mid-way through the final record block's payload: the tail block
    # fails its CRC and the last intact batch boundary wins.
    reader = SegmentReader.open(path)
    final_block = reader.record_blocks[-1]
    reader.close()
    torn = str(tmp_path / "torn.seg")
    with open(torn, "wb") as handle:
        handle.write(data[: final_block.offset + 10])
    _assert_valid_prefix(store, torn)
    recovered = SegmentReader.open(torn)
    assert recovered.recovered
    assert recovered.max_epoch < store.epoch
    recovered.close()


def test_truncated_segment_missing_footer_recovers(tmp_path):
    store, path, data = _saved_segment(tmp_path)
    # Drop the footer + trailer entirely: scan recovery must index every
    # intact block and still replay to the full final state.
    reader = SegmentReader.open(path)
    blocks_end = max(b.offset + 18 + b.comp_len for b in reader.blocks)
    reader.close()
    headless = str(tmp_path / "nofooter.seg")
    with open(headless, "wb") as handle:
        handle.write(data[:blocks_end])
    recovered = SegmentReader.open(headless)
    assert recovered.recovered
    log = SegmentBackedLog(recovered)
    assert log.batches() == store.log.batches()
    assert VersionedKnowledgeStore.replay(log).state_digest() == store.state_digest()


def test_empty_and_garbage_files_raise_typed_error(tmp_path):
    """Nothing but a segment opens — through the reader or through
    ``load``, which used to sniff the magic and hand anything else to the
    JSONL parser (an empty file came back as an empty store at epoch 0, a
    file cut inside the magic as ``JSONDecodeError``, binary junk as
    ``UnicodeDecodeError``)."""
    inputs = {
        "empty": b"",
        "garbage-behind-the-magic": b"RSEGMT01" + os.urandom(64),
        "cut-inside-the-magic": b"RSEG",
        "binary-junk": bytes(range(128, 256)) * 4,
        "jsonl-log": b'{"kind": "header", "version": 1, "floor_epoch": 0}\n',
    }
    for name, content in inputs.items():
        path = tmp_path / f"{name}.seg"
        path.write_bytes(content)
        with pytest.raises(CorruptSegmentError):
            SegmentReader.open(str(path))
        with pytest.raises(CorruptSegmentError):
            VersionedKnowledgeStore.load(str(path))
    with pytest.raises(CorruptSegmentError, match="import it with `convert`"):
        VersionedKnowledgeStore.load(str(tmp_path / "jsonl-log.seg"))


class _Reduces:
    """Pickles to a call of ``target(*args)`` — what a crafted checkpoint
    would carry to run code inside ``pickle.loads``."""

    def __init__(self, target, *args):
        self.call = (target, args)

    def __reduce__(self):
        return self.call


@pytest.mark.parametrize("footer", [True, False], ids=["load", "scan-recovery"])
@pytest.mark.parametrize(
    "target, argument",
    [(os.system, "touch {marker}"), (eval, "open({marker!r}, 'w')")],
    ids=["os.system", "builtins.eval"],
)
def test_checkpoint_pickle_cannot_import_a_global(tmp_path, target, argument, footer):
    """Every ``load`` unpickles a checkpoint, so a CRC-valid checkpoint
    block that reduces to a callable must raise, and run nothing."""
    import pickle

    from repro.store import SegmentWriter
    from repro.store.segment import BLOCK_CHECKPOINT

    marker = tmp_path / "executed"
    gadget = _Reduces(target, argument.format(marker=str(marker)))
    path = str(tmp_path / "crafted.seg")
    with SegmentWriter(path) as writer:
        writer.append_batch([(1, ADD_TRIPLE_CODE, "a", "p", "b")])
        writer._flush_records(partial_ok=False)
        # A well-formed checkpoint block (valid CRC, indexed by the footer)
        # whose ``epoch`` unpickles through the gadget.
        state = {"epoch": gadget, "graph_core": {}, "documents": [], "removed_since_reintern": 0}
        writer._write_block(BLOCK_CHECKPOINT, 0, 0, pickle.dumps(state), 1, 1)
    if not footer:
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-4])  # lose the end magic: forward CRC scan
    with pytest.raises(CorruptSegmentError, match="checkpoint pickle references"):
        VersionedKnowledgeStore.load(path)
    assert not marker.exists()


def _with_graph_core(tmp_path, **tables) -> str:
    """A segment whose one CRC-valid checkpoint carries the honest core of
    a two-triple graph with ``tables`` swapped in."""
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.triples import Triple
    from repro.store import SegmentWriter
    from repro.store.segment import StoreState

    graph = KnowledgeGraph()
    graph.add_all([Triple("a", "p", "b"), Triple("b", "q", "c")])
    path = str(tmp_path / "crafted-core.seg")
    with SegmentWriter(path) as writer:
        writer.append_batch([(1, ADD_TRIPLE_CODE, "a", "p", "b")])
        writer.checkpoint(
            StoreState(
                epoch=1,
                graph_core={**graph.core_state(), **tables},
                documents=[],
                removed_since_reintern=0,
            )
        )
    return path


@pytest.mark.parametrize(
    "tables",
    [{"out": [{}]}, {"in": [{}, {}, {}, {}]}, {"node_names": 5},
     {"pred_names": ("p", "q")}, {"out": {0: {}}}],
    ids=["short-out", "long-in", "int-names", "tuple-preds", "dict-out"],
)
def test_a_checkpoint_core_of_mismatched_tables_is_corrupt(tmp_path, tables):
    """A CRC-valid checkpoint whose core tables are not lists, or whose
    ``out``/``in`` do not hold one entry per node name, used to load into
    a graph with the wrong ``len`` (then an ``IndexError`` on lookup) or
    to raise ``TypeError``; it is a typed error before any graph is built."""
    path = _with_graph_core(tmp_path, **tables)
    with pytest.raises(CorruptSegmentError, match="checkpoint graph core is not four lists"):
        VersionedKnowledgeStore.load(path)


def test_an_honest_checkpoint_core_loads(tmp_path):
    loaded = VersionedKnowledgeStore.load(_with_graph_core(tmp_path))
    assert len(loaded.graph) == 2
    assert loaded.graph.contains("b", "q", "c")


def test_a_segment_in_the_tuple_keyed_format_is_refused(tmp_path):
    """Version 1 keyed each checkpoint edge by a ``(pred, other)`` tuple.
    Read as packed ints such a core is a wrong graph (``len`` 2, yet no
    triple found), so its header refuses the file before any block is read."""
    from repro.store import SegmentWriter
    from repro.store.segment import StoreState

    path = tmp_path / "tuple-keyed.seg"
    with SegmentWriter(str(path)) as writer:
        writer.append_batch([(1, ADD_TRIPLE_CODE, "a", "p", "b")])
        writer.append_batch([(2, ADD_TRIPLE_CODE, "b", "q", "c")])
        writer.checkpoint(StoreState(
            epoch=2,
            graph_core={
                "node_names": ["a", "b", "c"],
                "pred_names": ["p", "q"],
                "out": [{(0, 1): None}, {(1, 2): None}, {}],
                "in": [{}, {(0, 0): None}, {(1, 1): None}],
            },
            documents=[],
            removed_since_reintern=0,
        ))
    version_1 = _with_header(path, {"version": 1, "floor_epoch": 0}, "version-1.seg")
    message = "version-1.seg: header version 1 is not 2"
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        SegmentReader.open(version_1)
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        VersionedKnowledgeStore.load(version_1)
    assert message in _convert_exit(tmp_path, version_1)


def _assert_edges_are_untracked_ints(graph) -> None:
    """Every per-node edge dict holds packed ints only, so the cyclic
    collector never tracks it."""
    core = graph.core_state()
    for edges in itertools.chain(core["out"], core["in"]):
        assert not gc.is_tracked(edges)
        assert all(type(edge) is int for edge in edges)


def test_no_graph_core_feeds_the_cycle_collector(tmp_path):
    store, path, _ = _saved_segment(tmp_path, batches=40)
    loaded = VersionedKnowledgeStore.load(path)
    assert len(loaded.log.reader.checkpoints) > 1
    _assert_edges_are_untracked_ints(loaded.graph)
    historical = loaded.log.reader.checkpoints[0].first_epoch + 3
    for _ in range(3):  # decoded, decoded into the resident, then copied
        snapshot = loaded.snapshot(historical)
        _assert_edges_are_untracked_ints(snapshot.graph)
    _assert_edges_are_untracked_ints(loaded.graph.copy())
    loaded.apply([Mutation.add_triple("s0", "p9", "new"), Mutation.remove_triple(
        *next(iter(loaded.graph)).as_tuple())])
    _assert_edges_are_untracked_ints(loaded.graph)
    assert loaded.state_digest() == VersionedKnowledgeStore.replay(loaded.log).state_digest()


#: Field values a record may carry: empty, ASCII, and non-BMP characters.
_FIELD_TEXT = st.one_of(
    st.just(""), st.text(), st.text(alphabet="a\u00e9\u4e2d\U0001f600\U00010348", min_size=1)
)
_EPOCHS = st.integers(min_value=0, max_value=2**32 - 1)
_RECORDS = st.one_of(
    st.tuples(
        _EPOCHS, st.sampled_from([ADD_TRIPLE_CODE, REMOVE_TRIPLE_CODE]),
        _FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT,
    ),
    st.tuples(
        _EPOCHS,
        st.just(ADD_DOCUMENT_CODE),
        st.builds(
            Document, doc_id=_FIELD_TEXT, url=_FIELD_TEXT, title=_FIELD_TEXT,
            text=_FIELD_TEXT, source=_FIELD_TEXT, fact_id=_FIELD_TEXT, kind=_FIELD_TEXT,
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_RECORDS, max_size=12))
def test_the_record_codec_round_trips(records):
    from repro.store.segment import decode_records, encode_record

    payload = b"".join(encode_record(record) for record in records)
    assert decode_records(payload, len(records), "block") == records


def _field(raw: bytes) -> bytes:
    return struct.pack("<I", len(raw)) + raw


def _triple_record(subject: bytes = b"s") -> bytes:
    return struct.pack("<IB", 7, 0) + _field(subject) + _field(b"p") + _field(b"o")


@pytest.mark.parametrize(
    "payload, count, message",
    [
        (struct.pack("<IB", 7, 3) + _field(b"s"), 1, "block: unknown op code 3"),
        (struct.pack("<IB", 7, 0) + struct.pack("<I", 99) + b"s", 1,
         "block: record overruns block"),
        (_triple_record()[:-5] + struct.pack("<I", 2) + b"o", 1,
         "block: record overruns block"),
        (struct.pack("<IB", 7, 2) + _field(b"doc") + struct.pack("<I", 99), 1,
         "block: record overruns block"),
        (_triple_record()[:3], 1, "block: truncated record ("),
        (_triple_record()[:7], 1, "block: truncated record ("),
        (_triple_record(), 2, "block: truncated record ("),
        (_triple_record(b"\xffs"), 1, "block: record field is not UTF-8 ('utf-8' codec"),
        (_triple_record() + b"\x00\x00", 1, "block: 2 trailing bytes in block"),
    ],
    ids=["op-code", "subject-overrun", "object-overrun", "document-overrun", "head", "length",
         "missing-record", "non-utf8", "trailing"],
)
def test_a_damaged_record_payload_is_corrupt(payload, count, message):
    from repro.store.segment import decode_records

    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        decode_records(payload, count, "block")


def _structural_offsets(path: str, size: int) -> List[int]:
    """The header's bytes, every block header's and the footer tail's:
    the fields no block CRC covers."""
    from repro.store.segment import _BLOCK_HEADER, _FOOTER_TAIL

    reader = SegmentReader.open(path)
    first = reader.blocks[0].offset
    offsets = list(range(first))
    for block in reader.blocks:
        offsets.extend(range(block.offset, block.offset + _BLOCK_HEADER.size))
    reader.close()
    return offsets + list(range(size - _FOOTER_TAIL.size, size))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_flipped_bytes_load_a_batch_prefix_or_raise_typed(tmp_path_factory, data):
    """Damage anywhere in a multi-checkpoint segment, its header and length
    fields included, never loads a state the history did not pass through."""
    base = tmp_path_factory.mktemp("flip")
    store, path, payload = _saved_segment(base, batches=40, block_size=384)
    structural = _structural_offsets(path, len(payload))
    offsets = data.draw(st.lists(
        st.one_of(st.sampled_from(structural), st.integers(0, len(payload) - 1)),
        min_size=1, max_size=4,
    ))
    damaged = bytearray(payload)
    for offset in offsets:
        damaged[offset] ^= data.draw(st.integers(min_value=1, max_value=255))
    flipped = base / "flipped.seg"
    flipped.write_bytes(bytes(damaged))
    try:
        loaded = VersionedKnowledgeStore.load(str(flipped))
    except CorruptSegmentError:
        return
    reference = VersionedKnowledgeStore.replay(store.log, upto=loaded.epoch)
    assert loaded.epoch == reference.epoch
    assert loaded.state_digest() == reference.state_digest()
    try:
        batches = loaded.log.batches()
    except CorruptSegmentError:
        return  # a block the load did not need is damaged: reading it is typed
    assert batches == store.log.batches()[: len(batches)]
    assert not batches or batches[-1][0] == loaded.epoch


def test_midfile_bitflip_raises_on_read(tmp_path):
    store, path, data = _saved_segment(tmp_path)
    reader = SegmentReader.open(path)
    victim = reader.record_blocks[1]
    reader.close()
    flipped = bytearray(data)
    flipped[victim.offset + _headersize() + 2] ^= 0xFF
    bad = str(tmp_path / "flip.seg")
    with open(bad, "wb") as handle:
        handle.write(bytes(flipped))
    damaged = SegmentReader.open(bad)  # footer still valid: opens fine
    with pytest.raises(CorruptSegmentError):
        list(SegmentBackedLog(damaged))


def _headersize() -> int:
    from repro.store.segment import _BLOCK_HEADER

    return _BLOCK_HEADER.size


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncation_at_any_offset_is_prefix_or_typed_error(tmp_path_factory, data):
    """Core crash-safety property: byte-level truncation never yields
    silently-wrong state."""
    base = tmp_path_factory.mktemp("hyp")
    store, _, payload = _saved_segment(base, batches=12, block_size=384)
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    truncated = str(base / f"cut{cut}.seg")
    with open(truncated, "wb") as handle:
        handle.write(payload[:cut])
    _assert_valid_prefix(store, truncated)


def test_page_cache_eviction_and_stats(tmp_path, monkeypatch):
    store, path, _ = _saved_segment(tmp_path, batches=40, block_size=384)
    monkeypatch.setattr(segment_module, "PAGE_CACHE_BLOCKS", 2)
    reader = SegmentReader.open(path)
    cache = reader.page_cache
    assert isinstance(cache, PageCache) and cache.stats()["capacity"] == 2
    log = SegmentBackedLog(reader)
    assert log.batches() == store.log.batches()  # full scan through 2 pages
    stats = cache.stats()
    assert stats["resident"] <= 2
    assert stats["misses"] >= len(reader.record_blocks)
    assert stats["evictions"] > 0
    # Re-reading the hottest tail blocks now hits.
    list(reader.records(after=store.epoch - 2))
    assert cache.stats()["hits"] > 0


# ---------------------------------------------------------------------------
# the resident checkpoint: repeated seeks behind one checkpoint


def _history_store() -> VersionedKnowledgeStore:
    """80 epochs of triple adds, removes, re-adds of removed triples and
    documents."""
    rng = random.Random(29)
    store = VersionedKnowledgeStore(name="history")
    live: List[tuple] = []
    removed: List[tuple] = []
    doc_index = 0
    for _ in range(80):
        batch: List[Mutation] = []
        for _ in range(4):
            roll = rng.random()
            if roll < 0.2 and live:
                triple = live.pop(rng.randrange(len(live)))
                removed.append(triple)
                batch.append(Mutation.remove_triple(*triple))
            elif roll < 0.35 and removed:
                triple = removed.pop(rng.randrange(len(removed)))
                live.append(triple)
                batch.append(Mutation.add_triple(*triple))
            elif roll < 0.5:
                doc_index += 1
                batch.append(Mutation.add_document(_document(doc_index)))
            else:
                triple = (f"s{rng.randrange(20)}", f"p{rng.randrange(3)}", f"o{rng.randrange(20)}")
                if triple in removed:
                    removed.remove(triple)
                if triple not in live:
                    live.append(triple)
                batch.append(Mutation.add_triple(*triple))
        store.apply(batch)
    return store


def _view(graph, corpus) -> tuple:
    return graph.state_digest(), [d.doc_id for d in corpus], len(graph)


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """A saved history across several checkpoints, and the from-zero
    replay of its in-memory log at every epoch."""
    store = _history_store()
    from_zero = store.log.fork()
    ops = [mutation.op for _, mutation in from_zero]
    removed = {m.triple for _, m in from_zero if m.op == "remove_triple"}
    assert "add_document" in ops and removed
    assert any(m.op == "add_triple" and m.triple in removed for _, m in from_zero)
    path = str(tmp_path_factory.mktemp("history") / "history.seg")
    with _engine(CHECKPOINT_INTERVAL=40):
        store.save(path)
    reference = {}
    for epoch in range(store.epoch + 1):
        replayed = VersionedKnowledgeStore.replay(from_zero, upto=epoch)
        reference[epoch] = _view(replayed.graph, replayed.corpus)
    return path, reference


def _behind(reader: SegmentReader, block, reference) -> List[int]:
    """The historical epochs whose seek restores ``block``."""
    return [
        epoch for epoch in sorted(reference)
        if epoch < reader.max_epoch and reader.latest_checkpoint(upto=epoch) == block
    ]


def _in_order(order: str, epochs: List[int], reader: SegmentReader) -> List[int]:
    if order == "ascending":
        return epochs
    if order == "descending":
        return epochs[::-1]
    if order == "random":
        return random.Random(3).sample(epochs, len(epochs))
    # Round-robin over the checkpoints: consecutive seeks restore different ones.
    groups: dict = {}
    for epoch in epochs:
        checkpoint = reader.latest_checkpoint(upto=epoch)
        groups.setdefault(checkpoint and checkpoint.offset, []).append(epoch)
    rounds = itertools.zip_longest(*groups.values())
    return [epoch for round_ in rounds for epoch in round_ if epoch is not None]


@pytest.mark.parametrize("order", ["ascending", "descending", "random", "checkpoint-alternating"])
def test_a_seeked_snapshot_equals_the_from_zero_replay_in_any_order(history, order):
    path, reference = history
    loaded = VersionedKnowledgeStore.load(path)
    reader = loaded.log.reader
    assert len(reader.checkpoints) >= 2
    for epoch in _in_order(order, sorted(reference), reader):
        snapshot = loaded.snapshot(epoch)
        assert _view(snapshot.graph, snapshot.corpus) == reference[epoch], epoch


def test_a_seeked_snapshot_shares_nothing_with_the_resident(history):
    path, reference = history
    loaded = VersionedKnowledgeStore.load(path)
    reader = loaded.log.reader
    block = reader.checkpoints[2]
    behind = _behind(reader, block, reference)
    assert len(behind) >= 3 and behind[0] == block.first_epoch
    # Backwards, so the second seek finds no kept state below it: it fills
    # the resident, and at the checkpoint's own epoch the snapshot is the
    # resident's copy, unreplayed.
    loaded.snapshot(behind[1])
    snapshot = loaded.snapshot(block.first_epoch)
    offset, resident = reader._resident
    assert offset == block.offset
    graph = snapshot.graph
    victim = next(iter(graph))
    assert graph.remove(victim) and graph.add(Triple("alias", "p0", "alias-object"))
    snapshot.corpus.add(_document(10_000))
    # A store replayed behind the checkpoint applies batches on its copy.
    twin = VersionedKnowledgeStore.replay(loaded.log, upto=block.first_epoch)
    twin.apply(
        [Mutation.add_triple("alias", "p1", "other"), Mutation.remove_triple(*victim.as_tuple()),
         Mutation.add_document(_document(10_001))]
    )
    for epoch in behind:
        again = loaded.snapshot(epoch)
        assert _view(again.graph, again.corpus) == reference[epoch], epoch
    assert reader._resident[1] is resident


def test_the_first_two_seeks_of_a_checkpoint_decode_it_and_no_later_one(
    history, monkeypatch
):
    path, reference = history
    decodes = []
    unpickle = segment_module._unpickle_checkpoint
    monkeypatch.setattr(
        segment_module, "_unpickle_checkpoint",
        lambda payload: decodes.append(1) or unpickle(payload),
    )

    def decoded(seek) -> int:
        decodes.clear()
        seek()
        return len(decodes)

    loaded = None

    def load():
        nonlocal loaded
        loaded = VersionedKnowledgeStore.load(path)

    assert decoded(load) == 1
    reader = loaded.log.reader
    assert reader._resident is None  # a load leaves nothing resident
    block, other = reader.checkpoints[1], reader.checkpoints[3]
    behind = _behind(reader, block, reference)
    early, middle, late = _behind(reader, other, reference)[:3]
    # Forwards, each seek starts from the last one's kept state: one decode,
    # and the resident stays empty.
    assert [decoded(lambda: loaded.snapshot(e)) for e in behind[:5]] == [1, 0, 0, 0, 0]
    assert reader._resident is None
    # Backwards, no kept state lies below the next epoch: the second seek
    # of the checkpoint decodes it into the resident, and later ones copy it.
    assert [decoded(lambda: loaded.snapshot(e)) for e in behind[4::-1]] == [0, 1, 0, 0, 0]
    assert reader._resident[0] == block.offset
    # Forked logs share the reader, and so its resident.
    fork = loaded.log.fork()
    assert decoded(lambda: VersionedKnowledgeStore.replay(fork, upto=behind[1])) == 0
    # A seek behind another checkpoint breaks a run without evicting
    # ``block``; two consecutive seeks behind ``other`` replace it.
    order = [late, behind[0], late, middle, early]
    assert [decoded(lambda: loaded.snapshot(e)) for e in order] == [1, 0, 1, 1, 0]
    assert reader._resident[0] == other.offset
    # A full replay decodes and owns the head checkpoint, resident or not.
    head = reader.latest_checkpoint()
    for _ in range(2):
        VersionedKnowledgeStore.replay(loaded.log, upto=head.first_epoch)
    assert reader._resident[0] == head.offset
    assert decoded(lambda: VersionedKnowledgeStore.replay(loaded.log)) == 1
    assert decoded(lambda: VersionedKnowledgeStore.replay(fork)) == 1


def test_concurrent_seeks_all_match_the_reference(history):
    """Threads racing to fill and copy one reader's resident checkpoint
    (more threads than cores, a short switch interval) all get the
    from-zero replay's state."""
    path, reference = history
    loaded = VersionedKnowledgeStore.load(path)
    epochs = [epoch for epoch in sorted(reference) if epoch < loaded.epoch]
    threads = 4
    barrier = threading.Barrier(threads, timeout=30)
    seen: List[List[tuple]] = [[] for _ in range(threads)]

    def seek(slot: int) -> None:
        barrier.wait()
        for epoch in epochs:
            snapshot = loaded.snapshot(epoch)
            seen[slot].append((epoch, _view(snapshot.graph, snapshot.corpus)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=seek, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for views in seen:
        assert len(views) == len(epochs)
        assert all(view == reference[epoch] for epoch, view in views)


def _applied(monkeypatch) -> List[int]:
    """The epochs every store applies from now on, in order."""
    epochs: List[int] = []
    apply = VersionedKnowledgeStore._apply_batch

    def spy(self, epoch, records, record):
        epochs.append(epoch)
        return apply(self, epoch, records, record)

    monkeypatch.setattr(VersionedKnowledgeStore, "_apply_batch", spy)
    return epochs


def _epochs(after: int, upto: int) -> List[int]:
    return list(range(after + 1, upto + 1))


def test_a_forward_walk_behind_one_checkpoint_applies_each_batch_once(
    history, monkeypatch
):
    path, reference = history
    loaded = VersionedKnowledgeStore.load(path)
    reader = loaded.log.reader
    block = reader.checkpoints[1]
    behind = _behind(reader, block, reference)
    applied = _applied(monkeypatch)
    for epoch in behind:
        snapshot = loaded.snapshot(epoch)
        assert _view(snapshot.graph, snapshot.corpus) == reference[epoch], epoch
    assert applied == _epochs(block.first_epoch, behind[-1])


def test_a_never_saved_store_walking_forward_replays_only_the_gaps(monkeypatch):
    store = _history_store()
    reference = VersionedKnowledgeStore.replay(store.log.fork(), upto=50)
    applied = _applied(monkeypatch)
    for epoch in (10, 11, 30, 50):
        snapshot = store.snapshot(epoch)
    assert applied == _epochs(0, 50)
    assert _view(snapshot.graph, snapshot.corpus) == _view(reference.graph, reference.corpus)


def _change_graph_by_add(snapshot) -> None:
    assert snapshot.graph.add(Triple("alias", "p0", "alias-object"))


def _change_graph_by_remove(snapshot) -> None:
    assert snapshot.graph.remove(next(iter(snapshot.graph)))


def _change_corpus(snapshot) -> None:
    snapshot.corpus.add(_document(10_000))


@pytest.mark.parametrize("change", [_change_graph_by_add, _change_graph_by_remove, _change_corpus])
def test_a_changed_snapshot_is_not_the_next_ones_base(history, monkeypatch, change):
    path, reference = history
    loaded = VersionedKnowledgeStore.load(path)
    reader = loaded.log.reader
    block = reader.checkpoints[2]
    first, second, third, fourth = _behind(reader, block, reference)[1:5]
    applied = _applied(monkeypatch)
    loaded.snapshot(first)
    kept = loaded.snapshot(second)
    assert applied == _epochs(block.first_epoch, second)  # the gap only
    change(kept)
    applied.clear()
    snapshot = loaded.snapshot(third)
    assert applied == _epochs(block.first_epoch, third)  # from the checkpoint
    assert _view(snapshot.graph, snapshot.corpus) == reference[third]
    # ...and the snapshot that replaced it is kept in its place.
    applied.clear()
    snapshot = loaded.snapshot(fourth)
    assert applied == [fourth]
    assert _view(snapshot.graph, snapshot.corpus) == reference[fourth]


@pytest.mark.parametrize("racing", ["graph", "corpus"])
def test_a_change_racing_the_copy_of_a_kept_state_discards_the_copy(
    history, monkeypatch, racing
):
    """A holder changing the kept snapshot while a seek copies it (here:
    right after the copy, before the second read) costs the seek its base,
    never its correctness."""
    path, reference = history
    loaded = VersionedKnowledgeStore.load(path)
    reader = loaded.log.reader
    block = reader.checkpoints[2]
    first, second, third = _behind(reader, block, reference)[1:4]
    loaded.snapshot(first)
    applied = _applied(monkeypatch)
    kept = loaded.snapshot(second)
    assert applied == _epochs(first, second)  # unchanged, so copied
    holder = getattr(kept, racing)
    change = _change_corpus if racing == "corpus" else _change_graph_by_add
    copy = type(holder).copy

    def racing_copy(self):
        clone = copy(self)
        if self is holder:
            change(kept)
        return clone

    monkeypatch.setattr(type(holder), "copy", racing_copy)
    applied.clear()
    snapshot = loaded.snapshot(third)
    assert applied == _epochs(block.first_epoch, third)
    assert _view(snapshot.graph, snapshot.corpus) == reference[third]


def test_forks_of_one_loaded_log_never_borrow_each_others_kept_state(history, monkeypatch):
    path, _ = history
    loaded = VersionedKnowledgeStore.load(path)
    head = loaded.epoch
    assert loaded.log.reader.latest_checkpoint().first_epoch == head
    forks = [VersionedKnowledgeStore.replay(loaded.log) for _ in range(2)]
    for index, fork in enumerate(forks):
        for step in range(3):
            fork.apply([Mutation.add_triple(f"fork{index}", "p0", f"o{step}")])
    from_zero = []  # each fork's state at ``head + 2``, replayed from epoch 0
    for fork in forks:
        log = MutationLog()
        for epoch, records in fork.log.batches():
            log.append_records(epoch, records)
        replayed = VersionedKnowledgeStore.replay(log, upto=head + 2)
        from_zero.append(_view(replayed.graph, replayed.corpus))
    assert from_zero[0] != from_zero[1]

    applied = _applied(monkeypatch)
    ours, theirs = forks
    ours.snapshot(head + 1)
    # Past the segment, where the tails differ: the sibling starts from the
    # shared head checkpoint, not from the other fork's kept state.
    snapshot = theirs.snapshot(head + 2)
    assert _view(snapshot.graph, snapshot.corpus) == from_zero[1]
    assert applied == [head + 1, head + 1, head + 2]
    applied.clear()
    snapshot = ours.snapshot(head + 2)
    assert applied == [head + 2]
    assert _view(snapshot.graph, snapshot.corpus) == from_zero[0]


# ---------------------------------------------------------------------------
# hostile input: zlib bombs and forged footers


@functools.lru_cache(maxsize=1)
def _bomb() -> bytes:
    """One zlib stream of 256 MiB of zeros, ~261 KB compressed, built a
    MiB at a time so the test itself never holds the inflated bytes."""
    deflater = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    return b"".join([deflater.compress(chunk) for _ in range(256)] + [deflater.flush()])


def _bomb_segment(tmp_path, footer: bool) -> str:
    """A segment header plus one CRC-valid record block whose header says
    one default-size block but whose payload inflates to 256 MiB."""
    from repro.store import SegmentWriter
    from repro.store.segment import BLOCK_RECORDS, BLOCK_SIZE, BlockInfo

    comp = _bomb()
    path = tmp_path / "bomb.seg"
    with SegmentWriter(str(path)) as writer:
        header_end = writer._handle.tell()
        info = BlockInfo(
            BLOCK_RECORDS, header_end, 0, 1, BLOCK_SIZE, len(comp), zlib.crc32(comp), 1, 1
        )
        writer.copy_raw_block(info, comp)
    if not footer:
        path.write_bytes(path.read_bytes()[: header_end + _headersize() + len(comp)])
    return str(path)


def _peak_traced_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_bomb_block_found_by_the_scan_is_damage_and_inflates_bounded(tmp_path):
    path = _bomb_segment(tmp_path, footer=False)
    assert os.path.getsize(path) < 300_000
    opened = []
    peak = _peak_traced_bytes(lambda: opened.append(SegmentReader.open(path)))
    reader = opened[0]
    assert reader.recovered and reader.blocks == []
    assert peak < 4 * 1024 * 1024
    reader.close()


def test_a_bomb_block_behind_a_footer_raises_and_inflates_bounded(tmp_path):
    path = _bomb_segment(tmp_path, footer=True)
    reader = SegmentReader.open(path)
    assert not reader.recovered and len(reader.record_blocks) == 1
    reader.close()

    def load():
        with pytest.raises(CorruptSegmentError, match="does not inflate"):
            VersionedKnowledgeStore.load(path)

    assert _peak_traced_bytes(load) < 4 * 1024 * 1024


def test_inflate_rejects_a_longer_shorter_or_trailing_stream():
    from repro.store.segment import _inflate

    comp = zlib.compress(b"x" * 100)
    assert _inflate(comp, 100) == b"x" * 100
    assert _inflate(comp, 99) is None  # inflates past its limit
    assert _inflate(comp[:-3], 100) is None  # a truncated stream
    assert _inflate(comp + b"junk", 100) is None  # input left unconsumed
    assert _inflate(b"not zlib", 100) is None


def _one_triple_per_epoch(tmp_path, epochs: int = 30, **constants) -> tuple:
    store = VersionedKnowledgeStore(name="forged")
    for epoch in range(epochs):
        store.apply([Mutation.add_triple(f"s{epoch}", "p", f"o{epoch}")])
    path = tmp_path / "honest.seg"
    with _engine(**constants):
        store.save(str(path))
    return store, path


def _with_footer(path: Path, forge) -> str:
    """``path`` re-written with a CRC-valid footer whose block rows are
    ``forge(rows)``: the file's blocks stay byte-for-byte as they were."""
    from repro.store.segment import _FOOTER_TAIL

    data = path.read_bytes()
    footer_len, _, _ = _FOOTER_TAIL.unpack(data[-_FOOTER_TAIL.size:])
    footer_start = len(data) - _FOOTER_TAIL.size - footer_len
    rows = json.loads(zlib.decompress(data[footer_start:-_FOOTER_TAIL.size]))["blocks"]
    return _with_raw_footer(path, json.dumps({"blocks": forge(rows)}).encode("utf-8"))


def _with_raw_footer(path: Path, index: bytes) -> str:
    """``path`` re-written with ``index`` compressed as its CRC-valid
    footer: the file's blocks stay byte-for-byte as they were."""
    from repro.store.segment import _END_MAGIC, _FOOTER_TAIL

    data = path.read_bytes()
    footer_len, _, _ = _FOOTER_TAIL.unpack(data[-_FOOTER_TAIL.size:])
    footer_start = len(data) - _FOOTER_TAIL.size - footer_len
    footer = zlib.compress(index)
    forged = path.with_name("forged.seg")
    forged.write_bytes(
        data[:footer_start] + footer + _FOOTER_TAIL.pack(len(footer), zlib.crc32(footer), _END_MAGIC)
    )
    return str(forged)


@pytest.mark.parametrize(
    "forge",
    [
        lambda rows: [],
        lambda rows: [[9] + row[1:] if row[0] == 0 else row for row in rows],
        lambda rows: rows[1:],
        lambda rows: rows[::-1],
        lambda rows: rows + [rows[-1]],
        lambda rows: [[row[0], row[1] + 1] + row[2:] for row in rows],
        lambda rows: [[str(value) for value in row] for row in rows],
        lambda rows: [row[:4] + [-1] + row[5:] for row in rows],
        lambda rows: [row[:4] + [1 << 64] + row[5:] for row in rows],
    ],
    ids=[
        "no-blocks", "unknown-kind", "first-dropped", "out-of-order", "overlap", "shifted",
        "strings", "negative-length", "length-past-u32",
    ],
)
def test_a_footer_that_does_not_tile_the_file_falls_back_to_the_scan(tmp_path, forge):
    """A CRC-valid footer is trusted only when its blocks lie end to end
    over the data region; otherwise the scan rebuilds the honest index."""
    store, path = _one_triple_per_epoch(tmp_path)
    forged = _with_footer(path, forge)
    reader = SegmentReader.open(forged)
    assert reader.recovered
    reader.close()
    loaded = VersionedKnowledgeStore.load(forged)
    assert loaded.epoch == 30
    assert loaded.state_digest() == store.state_digest()
    assert len(loaded.snapshot(5).graph) == len(store.snapshot(5).graph) == 5


@pytest.mark.parametrize(
    "index", [b"[" * 100_000, b'{"blocks": ' + b"[" * 100_000], ids=["list", "rows"]
)
def test_a_footer_nested_too_deep_falls_back_to_the_scan(tmp_path, index):
    """A CRC-valid footer too deeply nested to decode (``json.dumps``
    cannot write one, so the bytes are written as they are) is lost, not a
    ``RecursionError``: the scan rebuilds the index."""
    store, path = _one_triple_per_epoch(tmp_path)
    forged = _with_raw_footer(path, index)
    reader = SegmentReader.open(forged)
    assert reader.recovered
    reader.close()
    loaded = VersionedKnowledgeStore.load(forged)
    assert loaded.epoch == 30
    assert loaded.state_digest() == store.state_digest()


def test_the_honest_footer_tiles_the_file(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path)
    reader = SegmentReader.open(_with_footer(path, lambda rows: rows))
    assert not reader.recovered
    reader.close()


def test_a_record_row_whose_epochs_the_block_does_not_span_raises(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path)
    # The one record block, claimed from the floor: the index stays
    # epoch-contiguous, so only decoding the block can tell.
    forged = _with_footer(
        path, lambda rows: [row[:7] + [row[7] - 1, row[8]] if row[0] == 0 else row for row in rows]
    )
    loaded = VersionedKnowledgeStore.load(forged)  # the head checkpoint
    with pytest.raises(CorruptSegmentError, match="do not span the indexed epochs"):
        loaded.snapshot(5)


def test_a_checkpoint_row_at_another_epoch_raises(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path, CHECKPOINT_INTERVAL=10)
    forged = _with_footer(
        path, lambda rows: [row[:7] + [row[7] - 1, row[8] - 1] if row[0] == 1 else row for row in rows]
    )
    with pytest.raises(CorruptSegmentError, match="checkpoint holds epoch"):
        VersionedKnowledgeStore.load(forged)


def test_a_footer_row_that_misplaces_an_undecoded_record_block_raises_at_open(tmp_path):
    """A CRC-valid footer moving the record block after the epoch-250
    checkpoint (epochs [251, 356]) to [250, 250] let a bounded seek skip it
    undecoded: ``snapshot(303)`` restored that checkpoint and silently
    returned 5,000 triples, not 6,060.  Record blocks must be
    epoch-contiguous, which the reader checks at open."""
    store = VersionedKnowledgeStore(name="misplaced")
    for batch in range(600):
        store.apply([Mutation.add_triple(f"s{batch}-{i}", "p", f"o{batch}-{i}") for i in range(20)])
    path = tmp_path / "honest.seg"
    store.save(str(path))
    honest = SegmentReader.open(str(path))
    assert [block.first_epoch for block in honest.checkpoints] == [250, 500, 600]
    assert [block.first_epoch for block in honest.record_blocks].count(251) == 1
    honest.close()
    forged = _with_footer(
        path, lambda rows: [row[:7] + [250, 250] if row[7] == 251 else row for row in rows]
    )
    with pytest.raises(CorruptSegmentError, match=r"\[250, 250\] do not start at 251"):
        SegmentReader.open(forged)


# ---------------------------------------------------------------------------
# hostile input: headers

#: ``floor_epoch`` values a CRC-valid header may carry that no writer
#: produces: each used to load (``true`` as floor 1, ``2.7`` as 2) or to
#: raise an untyped ``ValueError``.
_BAD_FLOORS = ["abc", -3, True, 2.7]

#: ``version`` values a CRC-valid JSONL header may carry that no writer
#: produces: the segment header used to load ``true`` (``True == 1``).
_BAD_VERSIONS = [True, "1", 2]
#: The segment's: version 1 is the format whose checkpoints keyed each
#: edge by a ``(pred, other)`` tuple, read as version 2 it is a wrong graph.
_BAD_SEGMENT_VERSIONS = [True, "1", "2", 2.0, 1, 3]


def _convert_exit(tmp_path, store: str) -> str:
    """``convert``'s exit message for ``store``: it must stop with one
    ``cannot read store log:`` line, not a traceback."""
    from repro.benchmark.cli import main

    argv = ["convert", "--store", store, "--output", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exited:
        main(argv, stream=io.StringIO())
    message = str(exited.value.code)
    assert message.startswith("cannot read store log: ") and "\n" not in message
    assert not (tmp_path / "out").exists()
    return message


@pytest.mark.parametrize("floor", _BAD_FLOORS, ids=repr)
def test_a_segment_header_floor_that_is_not_a_non_negative_int_is_corrupt(tmp_path, floor):
    _, path = _one_triple_per_epoch(tmp_path, epochs=3)
    hostile = _with_header(path, {"version": 2, "floor_epoch": floor})
    message = f"header floor_epoch {floor!r} is not a non-negative integer"
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        SegmentReader.open(hostile)
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        VersionedKnowledgeStore.load(hostile)
    assert message in _convert_exit(tmp_path, hostile)


@pytest.mark.parametrize("version", _BAD_SEGMENT_VERSIONS, ids=repr)
def test_a_segment_header_of_another_version_is_corrupt(tmp_path, version):
    _, path = _one_triple_per_epoch(tmp_path, epochs=3)
    hostile = _with_header(path, {"version": version, "floor_epoch": 0})
    message = f"header version {version!r} is not 2"
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        SegmentReader.open(hostile)
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        VersionedKnowledgeStore.load(hostile)
    assert message in _convert_exit(tmp_path, hostile)


def test_a_segment_header_that_is_not_an_object_is_corrupt(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path, epochs=3)
    with pytest.raises(CorruptSegmentError, match="header: record is not a JSON object"):
        VersionedKnowledgeStore.load(_with_header(path, [1, "floor_epoch"]))


_RECORD = {"op": "add_triple", "subject": "a", "predicate": "p", "object": "b"}


def test_a_jsonl_header_after_the_first_line_is_refused(tmp_path):
    """A second header used to move the floor to 10 under records at
    epochs 1-2: the log loaded as epoch 11 and ``convert`` died in the
    segment writer."""
    path = tmp_path / "two-headers.jsonl"
    _write_jsonl(
        path,
        [
            {"kind": "header", "version": 1, "floor_epoch": 0},
            dict(_RECORD, epoch=1),
            dict(_RECORD, subject="c", epoch=2),
            {"kind": "header", "version": 1, "floor_epoch": 10},
        ],
    )
    with pytest.raises(ValueError, match=r"two-headers\.jsonl:4: a header after the first line"):
        MutationLog.load(str(path))
    assert "two-headers.jsonl:4: a header after the first line" in _convert_exit(
        tmp_path, str(path)
    )


@pytest.mark.parametrize("floor", _BAD_FLOORS, ids=repr)
def test_a_jsonl_header_floor_that_is_not_a_non_negative_int_is_refused(tmp_path, floor):
    path = tmp_path / "floor.jsonl"
    _write_jsonl(path, [{"kind": "header", "version": 1, "floor_epoch": floor}])
    message = f"floor.jsonl:1: header floor_epoch {floor!r} is not a non-negative integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        MutationLog.load(str(path))
    assert message in _convert_exit(tmp_path, str(path))


@pytest.mark.parametrize(
    "line, message",
    [
        (b"{not json", "not valid JSON"),
        (b"[1, 2]", "record is not a JSON object"),
        (b'{"epoch": 1, "op": "add_triple", "subject": "\xffa"}', "not valid JSON"),
        (b"[" * 200_000, "not valid JSON"),
        (
            json.dumps(dict(_RECORD, subject=7, epoch=1)).encode(),
            "add_triple record field 'subject' is missing or not a string",
        ),
    ],
    ids=["not-json", "not-an-object", "not-utf8", "nested-too-deep", "int-subject"],
)
def test_a_jsonl_line_that_is_not_an_object_names_its_line(tmp_path, line, message):
    """Beyond malformed JSON and non-objects: a non-UTF-8 byte used to raise
    ``UnicodeDecodeError`` with no line, deep nesting ``RecursionError``,
    and an int subject loaded."""
    path = tmp_path / "junk.jsonl"
    path.write_bytes(
        json.dumps({"kind": "header", "version": 1, "floor_epoch": 0}).encode() + b"\n"
        + line + b"\n"
    )
    with pytest.raises(ValueError, match=rf"junk\.jsonl:2: {message}"):
        MutationLog.load(str(path))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_jsonl_log_load_is_total(tmp_path_factory, data):
    """Whatever one line of a JSONL log holds, ``MutationLog.load`` returns
    a log of string-typed mutations or raises ``ValueError`` naming the file
    and line: never ``KeyError``, ``AttributeError``, ``TypeError``,
    ``IndexError`` or ``RecursionError``."""
    document = {"doc_id": "d", "url": "u", "title": "t", "text": "x", "source": "s"}
    records = [
        {"kind": "header", "version": 1, "floor_epoch": 0},
        dict(_RECORD, epoch=1),
        dict(_RECORD, subject="c", epoch=1),
        dict(_RECORD, op="remove_triple", epoch=2),
        {"op": "add_document", "document": document, "epoch": 3},
    ]
    lines = [json.dumps(record).encode() for record in records]
    index = data.draw(st.integers(0, len(lines) - 1))
    lines[index] = hostile_line(data, records[index])
    path = tmp_path_factory.mktemp("hostile") / "log.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        log = MutationLog.load(str(path))
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), exc
    else:
        assert string_fields([mutation for _, mutation in log])


@pytest.mark.parametrize("version", _BAD_VERSIONS + [0, None], ids=repr)
def test_a_jsonl_header_of_another_version_is_refused(tmp_path, version):
    """``version`` used to go unread: a version-2 export imported as 1."""
    path = tmp_path / "version.jsonl"
    header = {"kind": "header", "floor_epoch": 0}
    if version is not None:
        header["version"] = version
    _write_jsonl(path, [header, dict(_RECORD, epoch=1)])
    message = f"version.jsonl:1: header version {version!r} is not 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        MutationLog.load(str(path))
    assert message in _convert_exit(tmp_path, str(path))


def test_a_record_field_that_is_not_utf8_is_corrupt(tmp_path, monkeypatch):
    """A CRC-valid record block holding a non-UTF-8 field used to raise
    ``UnicodeDecodeError`` out of every read that decoded it, and
    ``convert`` ended in a traceback."""
    store = VersionedKnowledgeStore(name="forged")
    for epoch in range(3):
        store.apply([Mutation.add_triple(f"subject{epoch}", "p", f"o{epoch}")])
    encode_record = segment_module.encode_record
    monkeypatch.setattr(
        segment_module,
        "encode_record",
        lambda record: encode_record(record).replace(
            b"subject1", b"\xffubject1"
        ),
    )
    path = str(tmp_path / "forged.seg")
    store.save(path)
    monkeypatch.undo()
    message = "record field is not UTF-8"
    with pytest.raises(CorruptSegmentError, match=rf"forged\.seg@\d+: {message}"):
        VersionedKnowledgeStore.load(path).snapshot(1)
    reader = SegmentReader.open(path)
    with pytest.raises(CorruptSegmentError, match=message):
        list(reader.records())
    reader.close()
    assert message in _convert_exit(tmp_path, path)


def test_a_jsonl_header_may_follow_blank_lines(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text(
        "\n" + json.dumps({"kind": "header", "version": 1, "floor_epoch": 4}) + "\n"
        + json.dumps(dict(_RECORD, epoch=5)) + "\n",
        encoding="utf-8",
    )
    log = MutationLog.load(str(path))
    assert (log.floor_epoch, log.max_epoch) == (4, 5)


# ---------------------------------------------------------------------------
# satellite: crash-atomic save


def test_jsonl_save_is_crash_atomic(tmp_path, monkeypatch):
    path = str(tmp_path / "log.jsonl")
    first = _grow_store(5)
    first.save(path, format="jsonl")
    before = Path(path).read_text(encoding="utf-8")

    class Boom(RuntimeError):
        pass

    # Simulate the process dying mid-write: fsync is the last step before
    # the atomic rename, so failing there means the rename never happens.
    monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(Boom()))
    second = _grow_store(9, rng_seed=99)
    with pytest.raises(Boom):
        second.save(path, format="jsonl")
    monkeypatch.undo()
    assert Path(path).read_text(encoding="utf-8") == before
    assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]


def test_segment_save_is_crash_atomic(tmp_path, monkeypatch):
    path = str(tmp_path / "log.seg")
    first = _grow_store(5)
    first.save(path, format="segment")
    before = Path(path).read_bytes()

    class Boom(RuntimeError):
        pass

    monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(Boom()))
    second = _grow_store(9, rng_seed=99)
    with pytest.raises(Boom):
        second.save(path, format="segment")
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]


def test_atomic_write_cleans_up_on_error(tmp_path):
    target = str(tmp_path / "out.txt")
    with open(target, "w", encoding="utf-8") as handle:
        handle.write("original")
    with pytest.raises(ValueError):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise ValueError("boom")
    assert Path(target).read_text(encoding="utf-8") == "original"
    assert os.listdir(tmp_path) == ["out.txt"]


# ---------------------------------------------------------------------------
# satellite: load-time epoch validation


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def test_load_rejects_non_monotonic_epochs(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    _write_jsonl(
        path,
        [
            {"kind": "header", "version": 1, "floor_epoch": 1},
            {"op": "add_triple", "subject": "a", "predicate": "p", "object": "b", "epoch": 2},
            {"op": "add_triple", "subject": "c", "predicate": "p", "object": "d", "epoch": 1},
        ],
    )
    with pytest.raises(ValueError, match=r"bad\.jsonl:3.*not grouped-monotonic"):
        MutationLog.load(path)


@pytest.mark.parametrize("epochs, line", [([2], 2), ([1, 1, 3], 4)], ids=["above-floor", "mid-log"])
def test_load_rejects_an_epoch_gap(tmp_path, epochs, line):
    """No store's log skips an epoch, and a segment refuses one: the JSONL
    import names the record that leaves the gap."""
    path = str(tmp_path / "gap.jsonl")
    _write_jsonl(
        path,
        [{"kind": "header", "version": 1, "floor_epoch": 0}]
        + [
            {"op": "add_triple", "subject": f"s{index}", "predicate": "p", "object": "o",
             "epoch": epoch}
            for index, epoch in enumerate(epochs)
        ],
    )
    with pytest.raises(ValueError, match=rf"gap\.jsonl:{line}: epoch {epochs[-1]} leaves a gap"):
        MutationLog.load(path)


def test_load_rejects_epoch_below_floor(tmp_path):
    path = str(tmp_path / "floor.jsonl")
    _write_jsonl(
        path,
        [
            {"kind": "header", "version": 1, "floor_epoch": 10},
            {"op": "add_triple", "subject": "a", "predicate": "p", "object": "b", "epoch": 3},
        ],
    )
    with pytest.raises(ValueError, match=r"floor\.jsonl:2.*below the log floor 10"):
        MutationLog.load(path)


def test_load_rejects_missing_epoch(tmp_path):
    path = str(tmp_path / "noepoch.jsonl")
    _write_jsonl(
        path,
        [{"op": "add_triple", "subject": "a", "predicate": "p", "object": "b"}],
    )
    with pytest.raises(ValueError, match=r"noepoch\.jsonl:1.*integer 'epoch'"):
        MutationLog.load(path)


def test_load_accepts_grouped_equal_epochs(tmp_path):
    path = str(tmp_path / "ok.jsonl")
    _write_jsonl(
        path,
        [
            {"kind": "header", "version": 1, "floor_epoch": 0},
            {"op": "add_triple", "subject": "a", "predicate": "p", "object": "b", "epoch": 1},
            {"op": "add_triple", "subject": "c", "predicate": "p", "object": "d", "epoch": 1},
            {"op": "add_triple", "subject": "e", "predicate": "p", "object": "f", "epoch": 2},
        ],
    )
    log = MutationLog.load(path)
    assert [epoch for epoch, _ in log.batches()] == [1, 2]


# ---------------------------------------------------------------------------
# satellite: strict add_document deserialisation


def test_from_json_requires_doc_id():
    with pytest.raises(ValueError, match="doc_id"):
        Mutation.from_json({"op": "add_document", "document": {"text": "body"}})


def test_from_json_requires_text_presence():
    with pytest.raises(ValueError, match="text"):
        Mutation.from_json({"op": "add_document", "document": {"doc_id": "d1"}})


def test_from_json_accepts_empty_text():
    # ~13% of real extractions are legitimately empty: presence is
    # required, emptiness is allowed.
    mutation = Mutation.from_json(
        {"op": "add_document", "document": {"doc_id": "d1", "text": ""}}
    )
    assert mutation.document.doc_id == "d1"
    assert mutation.document.text == ""


def test_from_json_round_trips_full_document():
    original = Mutation.add_document(_document(7, text="full text"))
    assert Mutation.from_json(original.to_json()) == original
