"""Streaming ingestion walkthrough: a knowledge store that learns while serving.

Run with::

    PYTHONPATH=src python examples/streaming_ingest_demo.py

The script builds a small substrate, wraps it in a
:class:`~repro.store.VersionedKnowledgeStore`, and walks the versioned-store
features end to end:

1. epochs and the append-only mutation log;
2. incremental index maintenance (BM25 postings patched in place,
   verified byte-identical to a from-scratch rebuild);
3. point-in-time snapshots for reproducible offline runs;
4. the online service ingesting evidence mid-traffic — epoch-keyed verdict
   caching re-judges facts against the new knowledge automatically;
5. persistence: save a segment, load it back, compact.

The equivalent CLI commands::

    python -m repro.benchmark.cli ingest --store store.seg --mutations ops.jsonl
    python -m repro.benchmark.cli compact --store store.seg
"""

from __future__ import annotations

import asyncio
import os
import tempfile

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.retrieval import SearchEngine
from repro.retrieval.corpus import Document
from repro.service import ServiceConfig, ServiceRequest, ShardedValidationService
from repro.store import Mutation, ShardedStore, VersionedKnowledgeStore


def build_runner() -> BenchmarkRunner:
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=10,
            world_scale=0.15,
            methods=("dka", "rag"),
            datasets=("factbench",),
            models=("gemma2:9b",),
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def news_document(index: int, fact) -> Document:
    return Document(
        doc_id=f"breaking-{index}",
        url=f"https://newswire.example/{index}",
        title=f"{fact.subject_name} update",
        text=(
            f"Breaking: {fact.subject_name} {fact.predicate_name} "
            f"{fact.object_name}. Multiple sources confirm the connection "
            f"between {fact.subject_name} and {fact.object_name}."
        ),
        source="newswire.example",
        fact_id=fact.fact_id,
        kind="news",
    )


def epochs_and_the_log(store: VersionedKnowledgeStore) -> None:
    print("=== 1. Epochs and the mutation log ===")
    print(
        f"adopted substrates at epoch {store.epoch}: {len(store.graph)} triples, "
        f"{len(store.corpus)} documents, {len(store.log)} log records"
    )
    report = store.apply([
        Mutation.add_triple("Grace Hopper", "worksFor", "Eckert-Mauchly"),
        Mutation.add_triple("Eckert-Mauchly", "locatedIn", "Philadelphia"),
    ])
    print(
        f"applied a 2-op batch -> epoch {report.epoch} "
        f"(+{report.triples_added} triples, {report.seconds * 1000:.1f} ms)\n"
    )


def incremental_maintenance(store: VersionedKnowledgeStore, dataset) -> None:
    print("=== 2. Incremental index maintenance ===")
    before = len(store.search_engine)
    report = store.apply(
        [Mutation.add_document(news_document(i, fact))
         for i, fact in enumerate(dataset.facts()[:4])]
    )
    print(
        f"ingested {report.documents_added} documents via the "
        f"'{report.index_strategy}' path: index grew {before} -> "
        f"{len(store.search_engine)} docs in {report.seconds * 1000:.1f} ms"
    )
    scratch = SearchEngine(store.corpus)
    identical = scratch.state_digest() == store.search_engine.state_digest()
    print(f"patched index byte-identical to a from-scratch rebuild: {identical}\n")


def point_in_time_snapshots(store: VersionedKnowledgeStore) -> None:
    print("=== 3. Point-in-time snapshots ===")
    current = store.snapshot()
    past = store.snapshot(1)
    print(
        f"snapshot(now)  -> epoch {current.epoch}: {len(current.corpus)} docs, "
        f"{len(current.graph)} triples"
    )
    print(
        f"snapshot(1)    -> epoch {past.epoch}: {len(past.corpus)} docs, "
        f"{len(past.graph)} triples (the pre-ingest world, reproducibly)\n"
    )


async def serve_across_an_ingest(runner: BenchmarkRunner, store) -> None:
    print("=== 4. Online service across a mid-traffic ingest ===")
    dataset = runner.dataset("factbench")
    fact = dataset.facts()[4]
    # The single node is the 1x1 fleet: the ingest crosses the router and
    # the shard's replica group of one, as it would on any fleet.
    service = ShardedValidationService.from_runner(
        runner, 1, ServiceConfig(), store=ShardedStore([store])
    )
    async with service:
        first = await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
        repeat = await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
        print(
            f"epoch {first.epoch}: verdict={first.result.verdict.value} "
            f"({first.result.num_evidence_chunks} evidence chunks), "
            f"repeat cached={repeat.cached}"
        )
        report = await service.apply_mutations([
            Mutation.add_document(news_document(99, fact)),
            Mutation.add_triple(fact.subject_name, fact.base_predicate(), fact.object_name),
        ])
        print(f"ingested {report.total_ops} ops mid-traffic -> epoch {report.epoch}")
        after = await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
        print(
            f"epoch {after.epoch}: cached={after.cached} (epoch-keyed cache "
            f"invalidated), verdict={after.result.verdict.value} "
            f"({after.result.num_evidence_chunks} evidence chunks)"
        )
        snapshot = service.metrics.snapshot()
        print(
            f"metrics: {snapshot.completed} completed, {snapshot.ingests} "
            f"ingests ({snapshot.ingested_ops} ops)\n"
        )


def persistence_and_compaction(store: VersionedKnowledgeStore) -> None:
    print("=== 5. Persistence: save, replay, compact ===")
    path = os.path.join(tempfile.gettempdir(), "streaming_ingest_demo_store.seg")
    store.save(path)
    loaded = VersionedKnowledgeStore.load(path)
    print(
        f"saved {len(store.log)} records; replayed store matches byte-for-byte: "
        f"{loaded.state_digest() == store.state_digest()}"
    )
    dropped = store.compact()
    store.save(path)
    print(
        f"compacted: dropped {dropped} records, epoch {store.epoch} preserved, "
        f"snapshot floor now {store.log.floor_epoch}"
    )
    loaded = VersionedKnowledgeStore.load(path)
    print(
        f"compacted log still replays identically: "
        f"{loaded.state_digest() == store.state_digest()}"
    )
    os.unlink(path)


def main() -> None:
    runner = build_runner()
    dataset = runner.dataset("factbench")
    store = runner.versioned_store("factbench")
    epochs_and_the_log(store)
    incremental_maintenance(store, dataset)
    point_in_time_snapshots(store)
    asyncio.run(serve_across_an_ingest(runner, store))
    persistence_and_compaction(store)


if __name__ == "__main__":
    main()
