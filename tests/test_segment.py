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
  added load to the same state;
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
    # them in the header; nothing reads that key, so both load the same.
    # (Re-heading with the header the writer wrote changes no byte.)
    honest_header = _with_header(Path(segment_path), {"version": 1, "floor_epoch": 0})
    assert Path(honest_header).read_bytes() == Path(segment_path).read_bytes()
    old_segment = _with_header(Path(segment_path), dict(_OLD_HEADER, floor_epoch=0))
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

    def counting_encode(*args):
        calls["encode_record"] += 1
        return encode_record(*args)

    def counting_apply(self, *args, **kwargs):
        calls["_apply_batch"] += 1
        return apply_batch(self, *args, **kwargs)

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
        lambda *args: encoded.append(args) or encode_record(*args),
    )
    store.save(str(tmp_path / "s"))
    assert [epoch for epoch, _ in encoded] == [store.epoch - 1, store.epoch]
    monkeypatch.undo()
    assert store.log.tail_batches() == []  # the store reads the new file
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
    # The restored graph hydrates its derived indexes lazily.
    assert not loaded.graph.hydrated
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
        writer.append_batch(1, [Mutation.add_triple("a", "p", "b")])
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
        writer.append_batch(1, [Mutation.add_triple("a", "p", "b")])
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
    list(reader.iter_records(after=store.epoch - 2))
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
    for epoch in behind[:2]:
        loaded.snapshot(epoch)
    offset, resident = reader._resident
    assert offset == block.offset
    # At the checkpoint's own epoch the snapshot is the copy, unreplayed.
    snapshot = loaded.snapshot(block.first_epoch)
    graph = snapshot.graph
    victim = next(iter(graph))
    assert graph.remove(victim) and graph.add(Triple("alias", "p0", "alias-object"))
    assert graph.objects(victim.subject, victim.predicate) is not None and graph.hydrated
    snapshot.corpus.add(_document(10_000))
    # A store replayed behind the checkpoint applies batches on its copy.
    twin = VersionedKnowledgeStore.replay(loaded.log, upto=block.first_epoch)
    twin.apply(
        [Mutation.add_triple("alias", "p1", "other"), Mutation.remove_triple(*victim.as_tuple()),
         Mutation.add_document(_document(10_001))]
    )
    twin.graph.objects("alias", "p1")
    for epoch in behind:
        again = loaded.snapshot(epoch)
        assert _view(again.graph, again.corpus) == reference[epoch], epoch
    assert reader._resident[1] is resident
    assert not resident.graph.hydrated


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
    elsewhere = _behind(reader, other, reference)[0]
    assert [decoded(lambda: loaded.snapshot(e)) for e in behind[:5]] == [1, 1, 0, 0, 0]
    # Forked logs share the reader, and so its resident.
    fork = loaded.log.fork()
    assert decoded(lambda: VersionedKnowledgeStore.replay(fork, upto=behind[1])) == 0
    # A seek behind another checkpoint breaks a run without evicting
    # ``block``; two consecutive seeks behind ``other`` replace it.
    order = [elsewhere, behind[0], elsewhere, elsewhere, elsewhere]
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
    from repro.store.segment import _END_MAGIC, _FOOTER_TAIL

    data = path.read_bytes()
    footer_len, _, _ = _FOOTER_TAIL.unpack(data[-_FOOTER_TAIL.size:])
    footer_start = len(data) - _FOOTER_TAIL.size - footer_len
    rows = json.loads(zlib.decompress(data[footer_start:-_FOOTER_TAIL.size]))["blocks"]
    footer = zlib.compress(json.dumps({"blocks": forge(rows)}).encode("utf-8"))
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


def test_the_honest_footer_tiles_the_file(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path)
    reader = SegmentReader.open(_with_footer(path, lambda rows: rows))
    assert not reader.recovered
    reader.close()


def test_a_record_row_whose_epochs_the_block_does_not_span_raises(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path)
    forged = _with_footer(
        path, lambda rows: [row[:7] + [row[7] + 1, row[8]] if row[0] == 0 else row for row in rows]
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


# ---------------------------------------------------------------------------
# hostile input: headers

#: ``floor_epoch`` values a CRC-valid header may carry that no writer
#: produces: each used to load (``true`` as floor 1, ``2.7`` as 2) or to
#: raise an untyped ``ValueError``.
_BAD_FLOORS = ["abc", -3, True, 2.7]


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
    hostile = _with_header(path, {"version": 1, "floor_epoch": floor})
    message = f"header floor_epoch {floor!r} is not a non-negative integer"
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        SegmentReader.open(hostile)
    with pytest.raises(CorruptSegmentError, match=re.escape(message)):
        VersionedKnowledgeStore.load(hostile)
    assert message in _convert_exit(tmp_path, hostile)


def test_a_segment_header_that_is_not_an_object_is_corrupt(tmp_path):
    _, path = _one_triple_per_epoch(tmp_path, epochs=3)
    with pytest.raises(CorruptSegmentError, match="header is not a JSON object"):
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
    [("{not json", "not valid JSON"), ("[1, 2]", "record is not a JSON object")],
    ids=["not-json", "not-an-object"],
)
def test_a_jsonl_line_that_is_not_an_object_names_its_line(tmp_path, line, message):
    path = tmp_path / "junk.jsonl"
    path.write_text(
        json.dumps({"kind": "header", "version": 1, "floor_epoch": 0}) + "\n" + line + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"junk\.jsonl:2: {message}"):
        MutationLog.load(str(path))


@pytest.mark.parametrize("version", [2, 0, "1", True, None], ids=repr)
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
        lambda epoch, mutation: encode_record(epoch, mutation).replace(
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
        list(reader.iter_records())
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
            {"kind": "header", "version": 1, "floor_epoch": 0},
            {"op": "add_triple", "subject": "a", "predicate": "p", "object": "b", "epoch": 2},
            {"op": "add_triple", "subject": "c", "predicate": "p", "object": "d", "epoch": 1},
        ],
    )
    with pytest.raises(ValueError, match=r"bad\.jsonl:3.*not grouped-monotonic"):
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
