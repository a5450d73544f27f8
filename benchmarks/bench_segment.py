"""Storage-engine benchmark: segment seek-and-replay vs JSONL full replay.

The segment file is the store's one durable format; the JSONL export
replayed from zero is the reference the floors are measured against.  The
reference is the seed's replay, kept inline (:func:`_seed_replay`): the
seed's per-triple ``add``/``remove`` bodies and batch loop, on the seed's
tuple-keyed graph tables (:class:`_SeedGraph`) that maintain the string
indexes from the first record on, as ``KnowledgeGraph()`` did when the
floors were set.  It calls none of the store's or the graph's apply,
iteration or digest code, so speeding that code up leaves the
reference's seconds where they were.  Today's
``VersionedKnowledgeStore.replay`` builds only the interned core through
the batch kernel, so timing it would move the reference with the code it
measures; its ratio is printed beside the floor, unasserted.

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
   replays a record suffix through the page cache.  Each timed seek is the
   first on a freshly loaded store whose suffix pages were warmed untimed,
   so the figure is one checkpoint decode plus a page-cached suffix.  A
   repeated seek of the same epoch copies the state the last snapshot
   kept instead; it is printed beside the floor, unasserted.
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

import hashlib
import json
import os
import random
import time
from typing import Optional

import pytest

from repro.kg.triples import Triple
from repro.retrieval.corpus import Document
from repro.store import (
    ADD_TRIPLE,
    REMOVE_TRIPLE,
    CorruptSegmentError,
    Mutation,
    MutationLog,
    SegmentBackedLog,
    SegmentReader,
    VersionedKnowledgeStore,
)
from repro.store.log import mutation_at, read_header, read_records
from repro.store.store import GRAPH_REBUILD_FRACTION

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
    is a membership test on the restored core, which is the graph's only
    representation.
    """
    return store.graph.contains("entity1", "pred0", "entity2") or len(store.graph) > 0


# -- the fixed reference: the seed's apply path over the seed's tables -------


class _SeedGraph:
    """The seed's graph tables: per-node edge dicts keyed by ``(pred,
    other)`` tuples, string indexes once hydrated, and the seed's
    iteration and digest inline, so the reference runs no
    ``KnowledgeGraph`` code that a change to the graph could speed up."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._node_ids: dict = {}
        self._node_names: list = []
        self._pred_ids: dict = {}
        self._pred_names: list = []
        self._out: list = []
        self._in: list = []
        self._steps_cache: list = []
        self._edge_count = 0

    @property
    def hydrated(self) -> bool:
        return "_pos" in self.__dict__

    def _hydrate(self) -> None:
        spo: dict = {}
        pos: dict = {}
        names, preds = self._node_names, self._pred_names
        for s_id, edges in enumerate(self._out):
            if not edges:
                continue
            s = names[s_id]
            s_spo = spo.setdefault(s, {})
            for p_id, o_id in edges:
                p, o = preds[p_id], names[o_id]
                s_spo.setdefault(p, set()).add(o)
                pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._spo = spo
        self._pos = pos

    def __len__(self) -> int:
        return self._edge_count

    def __iter__(self):
        names, preds = self._node_names, self._pred_names
        spo = sorted((names[s], preds[p], names[o])
                     for s, edges in enumerate(self._out) for p, o in edges)
        return (Triple(*triple) for triple in spo)

    def contains(self, s: str, p: str, o: str) -> bool:
        return _seed_contains(self, s, p, o)

    def state_digest(self) -> str:
        payload = {
            "nodes": self._node_names,
            "predicates": self._pred_names,
            "out": [list(edges) for edges in self._out],
            "in": [list(edges) for edges in self._in],
        }
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _seed_contains(graph: _SeedGraph, s: str, p: str, o: str) -> bool:
    s_id = graph._node_ids.get(s)
    if s_id is None:
        return False
    p_id = graph._pred_ids.get(p)
    if p_id is None:
        return False
    o_id = graph._node_ids.get(o)
    if o_id is None:
        return False
    return (p_id, o_id) in graph._out[s_id]


def _seed_intern_node(graph: _SeedGraph, name: str) -> int:
    node_id = graph._node_ids.get(name)
    if node_id is None:
        node_id = len(graph._node_names)
        graph._node_ids[name] = node_id
        graph._node_names.append(name)
        graph._out.append({})
        graph._in.append({})
        graph._steps_cache.append(None)
    return node_id


def _seed_intern_predicate(graph: _SeedGraph, name: str) -> int:
    pred_id = graph._pred_ids.get(name)
    if pred_id is None:
        pred_id = len(graph._pred_names)
        graph._pred_ids[name] = pred_id
        graph._pred_names.append(name)
    return pred_id


def _seed_discard(index: dict, a: str, b: str, c: str) -> None:
    inner = index.get(a)
    if inner is None:
        return
    values = inner.get(b)
    if values is None:
        return
    values.discard(c)
    if not values:
        del inner[b]
        if not inner:
            del index[a]


def _seed_add(graph: _SeedGraph, triple: Triple) -> bool:
    """The seed's ``KnowledgeGraph.add``: one triple, three interning calls."""
    s, p, o = triple.as_tuple()
    if _seed_contains(graph, s, p, o):
        return False
    if "_pos" in graph.__dict__:
        graph._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        graph._pos.setdefault(p, {}).setdefault(o, set()).add(s)
    s_id = _seed_intern_node(graph, s)
    o_id = _seed_intern_node(graph, o)
    p_id = _seed_intern_predicate(graph, p)
    graph._out[s_id][(p_id, o_id)] = None
    graph._in[o_id][(p_id, s_id)] = None
    graph._steps_cache[s_id] = None
    graph._steps_cache[o_id] = None
    graph._edge_count += 1
    return True


def _seed_remove(graph: _SeedGraph, triple: Triple) -> bool:
    """The seed's ``KnowledgeGraph.remove``."""
    s, p, o = triple.as_tuple()
    if not _seed_contains(graph, s, p, o):
        return False
    if "_pos" in graph.__dict__:
        _seed_discard(graph._spo, s, p, o)
        _seed_discard(graph._pos, p, o, s)
    s_id = graph._node_ids[s]
    o_id = graph._node_ids[o]
    p_id = graph._pred_ids[p]
    del graph._out[s_id][(p_id, o_id)]
    del graph._in[o_id][(p_id, s_id)]
    graph._steps_cache[s_id] = None
    graph._steps_cache[o_id] = None
    graph._edge_count -= 1
    return True


def _seed_apply_batch(
    store: VersionedKnowledgeStore, epoch: int, mutations, recorded: list
) -> None:
    """The seed's ``_apply_batch`` loop (no search engine, no embedder):
    per-mutation graph calls, then the re-intern check, then the log (the
    seed's ``(epoch, Mutation)`` pairs, appended to ``recorded``)."""
    triples_removed = 0
    for mutation in mutations:
        if mutation.op == ADD_TRIPLE:
            _seed_add(store.graph, mutation.triple)
        elif mutation.op == REMOVE_TRIPLE:
            _seed_remove(store.graph, mutation.triple)
            triples_removed += 1
        else:
            store.corpus.add(mutation.document)
    store._removed_since_reintern += triples_removed
    if store._removed_since_reintern > GRAPH_REBUILD_FRACTION * max(1, len(store.graph)):
        rebuilt = _SeedGraph(name=store.graph.name)
        for triple in store.graph:
            _seed_add(rebuilt, triple)
        store.graph = rebuilt
        store._removed_since_reintern = 0
    store._epoch = epoch
    recorded.extend((epoch, mutation) for mutation in mutations)


def _seed_load(path: str) -> tuple:
    """The seed's ``MutationLog.load``: the same line decoder, header rule
    and epoch checks, each record parsed into the ``(epoch, Mutation)``
    pair its log held.  Returns ``(pairs, floor_epoch)``."""
    pairs: list = []
    floor_epoch = previous = 0
    for where, record in read_records(path):
        if record.get("kind") == "header":
            (floor_epoch,) = read_header(record, where, 1, "floor_epoch")
            previous = floor_epoch
            continue
        epoch = record.get("epoch")
        if type(epoch) is not int or not previous <= epoch <= previous + 1:
            raise ValueError(f"{where}: epoch {epoch!r} out of order")
        pairs.append((epoch, mutation_at(record, where)))
        previous = epoch
    return pairs, floor_epoch


def _seed_batches(pairs: list, upto: Optional[int]) -> list:
    """The seed's ``log.batches(upto=upto)``: its ``records_between``
    generator over the ``(epoch, Mutation)`` list the seed's log held,
    grouped by epoch."""

    def records_between():
        for epoch, mutation in pairs:
            if upto is not None and epoch > upto:
                break
            yield epoch, mutation

    grouped: list = []
    for epoch, mutation in records_between():
        if grouped and grouped[-1][0] == epoch:
            grouped[-1][1].append(mutation)
        else:
            grouped.append((epoch, [mutation]))
    return grouped


def _seed_replay(
    pairs: list, floor_epoch: int, upto: Optional[int] = None
) -> VersionedKnowledgeStore:
    """The fixed reference: a from-zero replay whose graph is hydrated
    before its first record (and after every re-intern), so each ``add``
    maintains the string indexes the way it did at the seed.

    ``pairs`` is the ``(epoch, Mutation)`` list the seed's log held
    (:func:`_seed_load`); the reference pays the seed's batching of it
    and nothing more."""
    store = VersionedKnowledgeStore(name="bench-seg")
    store.graph = _SeedGraph(name=store.graph.name)
    store._epoch = floor_epoch
    recorded: list = []
    for epoch, mutations in _seed_batches(pairs, upto):
        if not store.graph.hydrated:
            store.graph._hydrate()
        _seed_apply_batch(store, epoch, mutations, recorded)
    return store


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

    # The reference: the seed's parse of the JSONL export into the pairs
    # its log held, then the seed's replay of them.
    started = time.perf_counter()
    pairs, floor_epoch = _seed_load(jsonl_path)
    via_jsonl = _seed_replay(pairs, floor_epoch)
    assert _first_verdict(via_jsonl)
    jsonl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    via_jsonl_today = VersionedKnowledgeStore.replay(MutationLog.load(jsonl_path))
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

    pairs, floor_epoch = _seed_load(jsonl_path)  # untimed, as at the seed
    started = time.perf_counter()
    jsonl_snapshot = _seed_replay(pairs, floor_epoch, upto=historical)
    jsonl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    jsonl_today_snapshot = VersionedKnowledgeStore.replay(log, upto=historical)
    jsonl_today_seconds = time.perf_counter() - started

    # Each timed seek is the first on a freshly loaded store, behind pages
    # warmed untimed: warm pages plus one checkpoint decode.  A repeated
    # seek copies the state the last one kept instead.
    timings = []
    segment_snapshot = None
    for _ in range(3):
        fresh = VersionedKnowledgeStore.load(segment_path)
        for _ in fresh.log.records(after=below, upto=historical):
            pass
        started = time.perf_counter()
        segment_snapshot = fresh.snapshot(historical)
        timings.append(time.perf_counter() - started)
    segment_seconds = min(timings)
    cache = fresh.log.reader.page_cache.stats()
    started = time.perf_counter()
    repeated_snapshot = fresh.snapshot(historical)
    repeated_seconds = time.perf_counter() - started
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep JSON shape

    speedup = jsonl_seconds / segment_seconds
    print(
        f"\nsnapshot(epoch {historical} of {store.epoch}, checkpoint {below} + "
        f"{historical - below} epochs): jsonl {jsonl_seconds:.3f}s, "
        f"segment {segment_seconds:.3f}s ({speedup:.1f}x; floor {SNAPSHOT_FLOOR:.0f}x)"
    )
    print(
        f"vs today's core-only JSONL replay {jsonl_today_seconds:.3f}s: "
        f"{jsonl_today_seconds / segment_seconds:.1f}x (unasserted)"
    )
    print(
        f"repeated seek (the kept snapshot state) {repeated_seconds:.3f}s: "
        f"{jsonl_seconds / repeated_seconds:.1f}x (unasserted)"
    )
    print(f"page cache after the first seek: {cache}")
    assert cache["misses"] > 0, "the seek replayed no record suffix"
    assert cache["hits"] > 0, "the seek did not read the warmed suffix pages"
    assert speedup >= SNAPSHOT_FLOOR, (
        f"segment historical snapshot only {speedup:.1f}x faster than JSONL "
        f"replay (floor: {SNAPSHOT_FLOOR:.0f}x)"
    )
    for reference in (jsonl_snapshot, jsonl_today_snapshot):
        for got in (segment_snapshot, repeated_snapshot):
            assert (
                got.graph.state_digest() == reference.graph.state_digest()
            ), "historical snapshots diverged"
            assert [d.doc_id for d in got.corpus] == [d.doc_id for d in reference.corpus]


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
