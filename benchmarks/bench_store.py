"""Versioned-store kernel: incremental index maintenance vs a full rebuild.

One floor, the only part of the store's contract that is a ratio between
two implementations of the same work (no ``benchmarks/e2e`` cell covers it):

**Incremental >= 3x rebuild** — a 5% mutation batch (triple removes,
triple adds, document adds) applied to a >= 5k-triple / 3k-document store
must be at least 3x faster than rebuilding the graph, the BM25 index, and
the embedder warm cache from scratch over the final state — while
remaining *byte-identical*: the incrementally patched posting
arrays/IDF/length norms hash to the same digest as a from-scratch index,
search results (ids and scores) match exactly, and path enumeration
(content and order) matches the deterministic log replay.

The serving side of the store — epoch-fresh verdicts across an ingest, RAG
evidence reuse in counts — is checked without a clock in
``tests/test_service_store.py``; what a write costs end to end is the
``mixed_rw`` workload of ``benchmarks/e2e``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -q -s \
        --benchmark-json=benchmarks/out/store.json
"""

from __future__ import annotations

import gc
import random
import time

from conftest import run_once

from repro.kg import KnowledgeGraph, Triple
from repro.retrieval import SearchEngine
from repro.retrieval.corpus import Document
from repro.retrieval.embeddings import HashingEmbedder
from repro.store import Mutation, VersionedKnowledgeStore

NUM_TRIPLES = 6000
NUM_DOCUMENTS = 3000
MUTATION_FRACTION = 0.05  # 5% of the triple count, as mixed ops


def _synthetic_triples(count: int, seed: int = 0):
    rng = random.Random(seed)
    triples, seen = [], set()
    while len(triples) < count:
        triple = Triple(
            f"entity{rng.randrange(count // 4)}",
            f"pred{rng.randrange(24)}",
            f"entity{rng.randrange(count // 4)}",
        )
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    return triples


def _synthetic_documents(count: int, prefix: str = "doc", offset: int = 0):
    return [
        Document(
            doc_id=f"{prefix}{offset + i}",
            url=f"https://corpus.example/{prefix}{offset + i}",
            title=f"entity{(offset + i) % 800} profile and history",
            text=(
                f"entity{(offset + i) % 800} is linked through pred{(offset + i) % 24} "
                f"to entity{(offset + i + 13) % 800}; archival records item {offset + i} "
                f"mention entity{(offset + i + 57) % 800} as well."
            ),
            source="corpus.example",
        )
        for i in range(count)
    ]


def _mutation_batch(store: VersionedKnowledgeStore, seed: int = 1):
    """A 5% mixed batch: 40% removes, 35% adds, 25% document adds."""
    total_ops = int(NUM_TRIPLES * MUTATION_FRACTION)
    removes = int(total_ops * 0.40)
    adds = int(total_ops * 0.35)
    docs = total_ops - removes - adds
    rng = random.Random(seed)
    live = list(store.graph)
    batch = [
        Mutation(op="remove_triple", triple=triple)
        for triple in rng.sample(live, removes)
    ]
    batch.extend(
        Mutation.add_triple(f"fresh{i}", f"pred{i % 24}", f"entity{i % 1500}")
        for i in range(adds)
    )
    batch.extend(
        Mutation.add_document(document)
        for document in _synthetic_documents(docs, prefix="ingest")
    )
    return batch


def _timed(func):
    """Time one call with the GC quiesced.

    When every benchmark module runs in one session, millions of live
    fixture objects make a generation-2 collection cost >100 ms; whether
    it lands inside the measured window is luck of the allocation counter.
    Collecting first and disabling the GC during the call removes that
    noise from *both* sides of the comparison.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return result, elapsed


def test_benchmark_incremental_maintenance_vs_rebuild(benchmark):
    store = VersionedKnowledgeStore.bootstrap(
        triples=_synthetic_triples(NUM_TRIPLES),
        documents=_synthetic_documents(NUM_DOCUMENTS),
        embedder=HashingEmbedder(),
    )
    _ = store.search_engine  # materialise the warm substrates
    store.embedder.warm(document.text for document in store.corpus)
    batch = _mutation_batch(store)
    assert len(batch) == int(NUM_TRIPLES * MUTATION_FRACTION)

    report, incremental_time = run_once(benchmark, lambda: _timed(lambda: store.apply(batch)))
    assert report.index_strategy == "incremental"

    def full_rebuild():
        graph = KnowledgeGraph(name="rebuild")
        for triple in store.graph:
            graph.add(triple)
        engine = SearchEngine(store.corpus)
        embedder = HashingEmbedder()
        embedder.warm(document.text for document in store.corpus)
        return graph, engine, embedder

    (__, rebuilt_engine, __), rebuild_time = _timed(full_rebuild)
    speedup = rebuild_time / incremental_time

    print(
        f"\nstore: {len(store.graph)} triples, {len(store.corpus)} docs after a "
        f"{len(batch)}-op batch ({MUTATION_FRACTION:.0%} of {NUM_TRIPLES} triples)"
    )
    print(
        f"incremental apply {incremental_time * 1000:.1f} ms vs full rebuild "
        f"{rebuild_time * 1000:.1f} ms — {speedup:.1f}x"
    )

    # Floor: incremental maintenance >= 3x faster than rebuilding everything.
    assert speedup >= 3.0, (
        f"incremental maintenance only {speedup:.2f}x faster than a full "
        f"rebuild (floor: 3x)"
    )

    # Byte-identity 1: the patched BM25 index equals a from-scratch index.
    assert store.search_engine.state_digest() == rebuilt_engine.state_digest(), (
        "incrementally maintained index diverged from the from-scratch rebuild"
    )

    # Byte-identity 2: search results (ids AND scores) match exactly.
    queries = [f"entity{i * 37 % 800} profile history" for i in range(50)]
    for query in queries:
        fast = [(r.document.doc_id, r.score) for r in store.search_engine.search(query, 20)]
        scratch = [(r.document.doc_id, r.score) for r in rebuilt_engine.search(query, 20)]
        assert fast == scratch, f"search results diverged for {query!r}"

    # Byte-identity 3: the in-place graph equals the deterministic log
    # replay — interning, edge order, and hence path enumeration order.
    twin = VersionedKnowledgeStore.replay(store.log)
    assert twin.graph.state_digest() == store.graph.state_digest(), (
        "in-place graph maintenance diverged from log replay"
    )
    nodes = store.graph.nodes()
    rng = random.Random(5)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(40)]
    for source, target in pairs:
        assert store.graph.find_paths(source, target, max_length=3) == (
            twin.graph.find_paths(source, target, max_length=3)
        ), f"paths diverged for {source} -> {target}"
