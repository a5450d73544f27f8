"""Storage-engine benchmark: segment seek-and-replay vs JSONL full replay.

The segment file is the store's one durable format; the JSONL export
replayed from zero is the reference the floors are measured against.  The
reference is the seed's replay, kept inline (:func:`_seed_replay`): its
graph maintains the string indexes from the first record on, as
``KnowledgeGraph()`` did when the floors were set.  Today's
``VersionedKnowledgeStore.replay`` builds only the interned core, so
timing it would move the reference with the code it measures; its ratio is
printed beside the floor, unasserted.

Floors (the PR 9 acceptance criteria, now the ROADMAP storage floor):

1. **Cold start >= 10x** — loading a ~100k-mutation store from the paged
   binary segment format (checkpoint restore + suffix replay + first
   graph verdict) must be at least 10x faster than replaying the same
   history from JSONL.
2. **Historical snapshot >= 10x** — ``snapshot(epoch)`` at a historical
   epoch on the segment-loaded store (footer-index seek to the nearest
   checkpoint, page-cached suffix decode) must be at least 10x faster
   than the JSONL store's from-zero replay of the same epoch.  The epoch
   sits half a checkpoint interval past a checkpoint, so the seek really
   replays a record suffix through the page cache.
3. **Digest parity** — the segment- and JSONL-loaded stores (and the
   historical snapshots) must be byte-identical: same ``state_digest``,
   same graph digests, same corpus order.
4. **Crash safety sample** — truncating the segment at sampled byte
   offsets recovers a valid batch prefix or raises the typed
   ``CorruptSegmentError`` (the per-byte sweep lives in
   ``tests/test_segment.py``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_segment.py -q -s \
        --benchmark-json=benchmarks/out/segment.json
"""

from __future__ import annotations

import os
import random
import time
from typing import Optional

import pytest

from repro.retrieval.corpus import Document
from repro.store import (
    CorruptSegmentError,
    Mutation,
    MutationLog,
    SegmentBackedLog,
    SegmentReader,
    VersionedKnowledgeStore,
)

TOTAL_MUTATIONS = 100_000
BATCH_SIZE = 20
COLD_START_FLOOR = 10.0
SNAPSHOT_FLOOR = 10.0
TRUNCATION_SAMPLES = 24


def _build_store() -> VersionedKnowledgeStore:
    """~100k mutations in ~5k epochs: triple adds/removes + documents."""
    rng = random.Random(20260807)
    store = VersionedKnowledgeStore(name="bench-seg")
    live = []
    doc_index = 0
    batches = TOTAL_MUTATIONS // BATCH_SIZE
    for _ in range(batches):
        batch = []
        for _ in range(BATCH_SIZE):
            roll = rng.random()
            if roll < 0.70 or not live:
                triple = (
                    f"entity{rng.randrange(4000)}",
                    f"pred{rng.randrange(12)}",
                    f"entity{rng.randrange(4000)}",
                )
                batch.append(Mutation.add_triple(*triple))
                live.append(triple)
            elif roll < 0.90:
                doc_index += 1
                batch.append(
                    Mutation.add_document(
                        Document(
                            doc_id=f"doc{doc_index}",
                            url=f"https://example.org/{doc_index}",
                            title=f"Evidence {doc_index}",
                            text=f"evidence text about entity{rng.randrange(4000)} "
                            f"and entity{rng.randrange(4000)}",
                            source="bench",
                            fact_id=f"fact{doc_index % 997}",
                        )
                    )
                )
            else:
                victim = live.pop(rng.randrange(len(live)))
                if store.graph.contains(*victim):
                    batch.append(Mutation.remove_triple(*victim))
                else:
                    batch.append(Mutation.add_triple(*victim))
                    live.append(victim)
        store.apply(batch)
    return store


def _first_verdict(store: VersionedKnowledgeStore) -> bool:
    """The serving hot path's first graph lookup after a cold start.

    Internal-KG validation answers from interned-core traversal, so this
    is deliberately a core-only query — the lazy string indexes stay cold,
    exactly as they do in production until a string-level query arrives.
    """
    return store.graph.contains("entity1", "pred0", "entity2") or len(store.graph) > 0


def _seed_replay(log: MutationLog, upto: Optional[int] = None) -> VersionedKnowledgeStore:
    """The fixed reference: a from-zero replay whose graph is hydrated
    before its first record (and after every re-intern), so each ``add``
    maintains the string indexes the way it did at the seed."""
    store = VersionedKnowledgeStore(name="bench-seg")
    store._epoch = log.floor_epoch
    for epoch, mutations in log.batches(upto=upto):
        if not store.graph.hydrated:
            store.graph._hydrate()
        store._apply_batch(epoch, mutations, record=True)
    return store


def _replay_jsonl(path: str, replay=_seed_replay) -> VersionedKnowledgeStore:
    """Parse the JSONL export and replay it from zero (``replay``: the
    fixed reference by default, ``VersionedKnowledgeStore.replay`` for
    today's path)."""
    return replay(MutationLog.load(path))


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("segbench")
    store = _build_store()
    jsonl_path = str(base / "store.jsonl")
    segment_path = str(base / "store.seg")
    store.save(jsonl_path, format="jsonl")
    store.save(segment_path)
    return store, jsonl_path, segment_path


def test_cold_start_floor(corpus_paths, benchmark):
    store, jsonl_path, segment_path = corpus_paths

    started = time.perf_counter()
    via_jsonl = _replay_jsonl(jsonl_path)
    assert _first_verdict(via_jsonl)
    jsonl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    via_jsonl_today = _replay_jsonl(jsonl_path, replay=VersionedKnowledgeStore.replay)
    assert _first_verdict(via_jsonl_today)
    jsonl_today_seconds = time.perf_counter() - started

    def segment_cold_start():
        loaded = VersionedKnowledgeStore.load(segment_path)
        assert _first_verdict(loaded)
        return loaded

    timings = []
    via_segment = None
    for _ in range(3):
        started = time.perf_counter()
        via_segment = segment_cold_start()
        timings.append(time.perf_counter() - started)
    segment_seconds = min(timings)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep JSON shape

    speedup = jsonl_seconds / segment_seconds
    print(
        f"\ncold start: jsonl {jsonl_seconds:.3f}s, segment {segment_seconds:.3f}s "
        f"({speedup:.1f}x; floor {COLD_START_FLOOR:.0f}x) "
        f"[{len(store.log)} records, epoch {store.epoch}]"
    )
    print(
        f"vs today's core-only JSONL replay {jsonl_today_seconds:.3f}s: "
        f"{jsonl_today_seconds / segment_seconds:.1f}x (unasserted)"
    )
    print(
        f"file sizes: jsonl {os.path.getsize(jsonl_path) / 1e6:.1f}MB, "
        f"segment {os.path.getsize(segment_path) / 1e6:.1f}MB"
    )
    assert speedup >= COLD_START_FLOOR, (
        f"segment cold start only {speedup:.1f}x faster than JSONL replay "
        f"(floor: {COLD_START_FLOOR:.0f}x)"
    )
    # Digest parity: seek-and-replay must be byte-identical to full replay.
    assert via_segment.epoch == via_jsonl.epoch == store.epoch
    assert (
        via_segment.state_digest(include_index=False)
        == via_jsonl.state_digest(include_index=False)
        == via_jsonl_today.state_digest(include_index=False)
        == store.state_digest(include_index=False)
    ), "segment and JSONL replays diverged"


def test_historical_snapshot_floor(corpus_paths, benchmark):
    store, jsonl_path, segment_path = corpus_paths
    log = MutationLog.load(jsonl_path)
    via_segment = VersionedKnowledgeStore.load(segment_path)
    # Half an interval past the last checkpoint at or below 90 % of the
    # history: the seek restores that checkpoint and replays a real suffix.
    checkpoints = [block.first_epoch for block in via_segment.log.reader.checkpoints]
    below, above = [
        pair for pair in zip(checkpoints, checkpoints[1:]) if pair[0] <= store.epoch * 0.9
    ][-1]
    historical = (below + above) // 2

    started = time.perf_counter()
    jsonl_snapshot = _seed_replay(log, upto=historical)
    jsonl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    jsonl_today_snapshot = VersionedKnowledgeStore.replay(log, upto=historical)
    jsonl_today_seconds = time.perf_counter() - started

    timings = []
    segment_snapshot = None
    for _ in range(3):
        started = time.perf_counter()
        segment_snapshot = via_segment.snapshot(historical)
        timings.append(time.perf_counter() - started)
    segment_seconds = min(timings)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep JSON shape

    speedup = jsonl_seconds / segment_seconds
    cache = via_segment.log.reader.page_cache.stats()
    print(
        f"\nsnapshot(epoch {historical} of {store.epoch}, checkpoint {below} + "
        f"{historical - below} epochs): jsonl {jsonl_seconds:.3f}s, "
        f"segment {segment_seconds:.3f}s ({speedup:.1f}x; floor {SNAPSHOT_FLOOR:.0f}x)"
    )
    print(
        f"vs today's core-only JSONL replay {jsonl_today_seconds:.3f}s: "
        f"{jsonl_today_seconds / segment_seconds:.1f}x (unasserted)"
    )
    print(f"page cache after snapshots: {cache}")
    assert cache["misses"] > 0, "the seek replayed no record suffix"
    assert speedup >= SNAPSHOT_FLOOR, (
        f"segment historical snapshot only {speedup:.1f}x faster than JSONL "
        f"replay (floor: {SNAPSHOT_FLOOR:.0f}x)"
    )
    for reference in (jsonl_snapshot, jsonl_today_snapshot):
        assert (
            segment_snapshot.graph.state_digest() == reference.graph.state_digest()
        ), "historical snapshots diverged"
        assert [d.doc_id for d in segment_snapshot.corpus] == [
            d.doc_id for d in reference.corpus
        ]


def test_truncation_recovery_sample(corpus_paths):
    """Sampled byte-offset truncations of the big segment recover cleanly."""
    store, _, segment_path = corpus_paths
    with open(segment_path, "rb") as handle:
        data = handle.read()
    rng = random.Random(99)
    offsets = sorted(rng.randrange(len(data)) for _ in range(TRUNCATION_SAMPLES))
    original_batches = None
    recovered_count = 0
    typed_failures = 0
    scratch = segment_path + ".trunc"
    try:
        for cut in offsets:
            with open(scratch, "wb") as handle:
                handle.write(data[:cut])
            try:
                reader = SegmentReader.open(scratch)
            except CorruptSegmentError:
                typed_failures += 1
                continue
            log = SegmentBackedLog(reader)
            try:
                recovered = log.batches()
            except CorruptSegmentError:
                typed_failures += 1
                reader.close()
                continue
            if original_batches is None:
                original_batches = store.log.batches()
            assert recovered == original_batches[: len(recovered)], (
                f"truncation at byte {cut} recovered a non-prefix"
            )
            recovered_count += 1
            reader.close()
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    print(
        f"\ntruncation sample: {recovered_count} valid prefixes, "
        f"{typed_failures} typed CorruptSegmentError, 0 silent corruptions "
        f"({TRUNCATION_SAMPLES} offsets)"
    )
    assert recovered_count + typed_failures == TRUNCATION_SAMPLES
