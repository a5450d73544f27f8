"""Versioned-store benchmark: incremental maintenance speedup, epoch-fresh serving.

Three floors; the first two mirror the PR 3 acceptance criteria:

1. **Incremental >= 3x rebuild** — a 5% mutation batch (triple removes,
   triple adds, document adds) applied to a >= 5k-triple / 3k-document
   store must be at least 3x faster than rebuilding the graph, the BM25
   index, and the embedder warm cache from scratch over the final state —
   while remaining *byte-identical*: the incrementally patched posting
   arrays/IDF/length norms hash to the same digest as a from-scratch
   index, search results (ids and scores) match exactly, and path
   enumeration (content and order) matches the deterministic log replay.

2. **Epoch-fresh verdicts across a mid-load ingest** — a mixed read/write
   closed-loop run (one ingest batch spliced into the arrival schedule)
   must serve every read with a verdict byte-identical to an offline
   pipeline run over the *snapshot of the epoch it was answered at*, with
   the ingest visibly changing RAG verdicts and invalidating the verdict
   cache via the epoch-keyed lookup.

3. **Evidence reuse, in counts** — on the same 6k/3k store, 50 ``rag``
   reads after a triple-only batch perform 0 searches, and after a 5%
   document batch they search again for every fact but make 0 upstream
   (transformation / question-generation) LLM calls.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -q -s \
        --benchmark-json=benchmarks/out/store.json
"""

from __future__ import annotations

import gc
import json
import random
import time

import pytest
from conftest import run_once

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.datasets import LabeledFact
from repro.kg import KnowledgeGraph, Triple
from repro.llm import TelemetryCollector
from repro.retrieval import SearchEngine
from repro.retrieval.cache import LRUCache
from repro.retrieval.corpus import Corpus, Document
from repro.retrieval.embeddings import HashingEmbedder
from repro.retrieval.mock_api import MockSearchAPI
from repro.service import (
    LoadGenerator,
    ServiceConfig,
    ValidationService,
    build_mixed_workload,
)
from repro.store import Mutation, VersionedKnowledgeStore
from repro.validation import ValidationPipeline
from repro.validation.rag import RAGValidator

# ---------------------------------------------------------------------------
# Part 1: incremental index maintenance vs from-scratch rebuild
# ---------------------------------------------------------------------------

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
    twin = VersionedKnowledgeStore.replay(store.log, config=store.config)
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


# ---------------------------------------------------------------------------
# Part 2: epoch-fresh verdicts across an ingest performed mid-load
# ---------------------------------------------------------------------------

TOTAL_REQUESTS = 120
METHODS = ("dka", "rag")
MODELS = ("gemma2:9b",)


@pytest.fixture(scope="module")
def store_bench_runner():
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=12,
            world_scale=0.15,
            methods=METHODS,
            datasets=("factbench",),
            models=MODELS,
            include_commercial_in_grid=False,
            seed=11,
        )
    )


def _news_batch(dataset):
    """Fresh evidence documents confirming the first facts, plus triples."""
    batch = []
    for index, fact in enumerate(dataset.facts()[:6]):
        batch.append(Mutation.add_document(Document(
            doc_id=f"live-{index}",
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
        )))
        batch.append(Mutation.add_triple(
            fact.subject_name, fact.base_predicate(), fact.object_name
        ))
    return batch


def _offline_verdicts(runner, store, dataset, epoch):
    """(method, model, dataset, fact_id) -> verdict over the epoch's snapshot.

    RAG runs over a *fresh* validator built on the snapshot corpus (fresh
    search index, fresh caches) — the strictest form of "from scratch";
    DKA never touches the corpus, so the offline grid run suffices.
    """
    snapshot = store.snapshot(epoch)
    pipeline = ValidationPipeline()
    table = {}
    for model_name in MODELS:
        model = runner.registry.get(model_name)
        dka_run = pipeline.run(
            runner.build_strategy("dka", "factbench", model), dataset
        )
        for fact_id, verdict in dka_run.verdicts().items():
            table[("dka", model_name, "factbench", fact_id)] = verdict.value
        rag = RAGValidator(
            model=model,
            search_api=MockSearchAPI(
                snapshot.corpus,
                default_num_results=runner.config.serp_results_per_query,
            ),
            kg_encoding=runner.encoding("factbench"),
            config=runner.config.rag_config(),
            verbalizer=runner.verbalizer,
        )
        rag_run = pipeline.run(rag, dataset)
        for fact_id, verdict in rag_run.verdicts().items():
            table[("rag", model_name, "factbench", fact_id)] = verdict.value
    return table


def _canonical(verdicts: dict) -> bytes:
    return json.dumps(
        {"|".join(key): value for key, value in verdicts.items()}, sort_keys=True
    ).encode("utf-8")


def test_benchmark_epoch_fresh_verdicts_across_mid_load_ingest(
    benchmark, store_bench_runner
):
    runner = store_bench_runner
    store = runner.versioned_store("factbench")
    dataset = runner.dataset("factbench")
    service = ValidationService.from_runner(
        runner,
        ServiceConfig(max_batch_size=16, queue_depth=4096, time_scale=0.002),
        store=store,
    )
    workload = build_mixed_workload(
        [dataset], METHODS, MODELS, TOTAL_REQUESTS, [_news_batch(dataset)], seed=3
    )

    report = run_once(
        benchmark, lambda: LoadGenerator(service, workload, concurrency=8).run_sync()
    )

    pre_epoch, post_epoch = report.epochs_served()[0], report.epochs_served()[-1]
    pre_served = report.verdicts(epoch=pre_epoch)
    post_served = report.verdicts(epoch=post_epoch)

    print()
    print(report.format_table("mixed read/write closed loop"))
    print(
        f"\nepochs served: {report.epochs_served()} "
        f"({len(pre_served)} pre-ingest coordinates, {len(post_served)} post)"
    )

    # Floors: every read answered, the write applied mid-run, both epochs hit.
    assert report.completed == TOTAL_REQUESTS
    assert report.rejected == 0
    assert report.ingests == 1
    assert post_epoch == pre_epoch + 1
    assert pre_served and post_served
    assert report.snapshot.ingests == 1

    # Floor: verdicts served at each epoch are byte-identical to an offline
    # from-scratch pipeline over that epoch's snapshot.
    offline_pre = _offline_verdicts(runner, store, dataset, pre_epoch)
    offline_post = _offline_verdicts(runner, store, dataset, post_epoch)
    assert _canonical(pre_served) == _canonical(
        {key: offline_pre[key] for key in pre_served}
    ), "pre-ingest verdicts diverged from the epoch snapshot's offline run"
    assert _canonical(post_served) == _canonical(
        {key: offline_post[key] for key in post_served}
    ), "post-ingest verdicts diverged from the epoch snapshot's offline run"

    # The ingest mattered: fresh evidence flips at least one RAG verdict...
    changed = [
        key for key in offline_pre
        if key[0] == "rag" and offline_pre[key] != offline_post[key]
    ]
    print(f"rag verdicts changed by the ingest: {len(changed)}")
    assert changed, "the ingested evidence changed no RAG verdict"
    # ...while DKA (corpus-independent) verdicts are unchanged across epochs.
    assert all(
        offline_pre[key] == offline_post[key]
        for key in offline_pre
        if key[0] == "dka"
    )


# ---------------------------------------------------------------------------
# Part 3: what an ingest costs the RAG evidence cache, in counts
# ---------------------------------------------------------------------------

RAG_READS = 50


def test_benchmark_evidence_reuse_across_ingests(benchmark, store_bench_runner):
    runner = store_bench_runner
    triples = _synthetic_triples(NUM_TRIPLES)
    corpus = Corpus(_synthetic_documents(NUM_DOCUMENTS))
    api = MockSearchAPI(corpus)
    store = VersionedKnowledgeStore.adopt(
        corpus=corpus, search_engine=api.engine, triples=triples
    )
    telemetry = TelemetryCollector()
    rag = RAGValidator(
        model=runner.registry.get(MODELS[0]),
        search_api=api,
        kg_encoding=runner.encoding("factbench"),
        config=runner.config.rag_config(),
        verbalizer=runner.verbalizer,
        telemetry=telemetry,
        evidence_cache=LRUCache(4096),
    )
    facts = [
        LabeledFact(
            fact_id=f"synthetic-{index}",
            triple=triple,
            label=True,
            dataset="synthetic",
            subject_name=triple.subject,
            object_name=triple.object,
            predicate_name=triple.predicate,
        )
        for index, triple in enumerate(triples[:RAG_READS])
    ]

    def upstream_calls():
        return sum(
            len(telemetry.records(task=task))
            for task in ("transform", "question-generation")
        )

    def read_all():
        """(searches, upstream LLM calls) that one rag read of every fact costs."""
        api.reset_log()
        before = upstream_calls()
        for fact in facts:
            rag.validate(fact)
        return len(api.query_log()), upstream_calls() - before

    cold = read_all()
    assert cold[0] >= RAG_READS and cold[1] == 2 * RAG_READS

    store.apply(
        [mutation for mutation in _mutation_batch(store) if mutation.document is None]
    )
    after_triples = run_once(benchmark, read_all)

    documents = _synthetic_documents(int(NUM_DOCUMENTS * MUTATION_FRACTION), prefix="ingest")
    store.apply([Mutation.add_document(document) for document in documents])
    after_documents = read_all()
    repeated = read_all()

    print(
        f"\n{RAG_READS} rag reads (searches, upstream LLM calls): cold {cold}, "
        f"after a triple-only batch {after_triples}, after a "
        f"{len(documents)}-document batch {after_documents}, repeated {repeated}"
    )
    assert after_triples == (0, 0), "a triple-only ingest cost RAG retrieval work"
    assert after_documents == (cold[0], 0), (
        "a document ingest must re-search every fact from its cached questions"
    )
    assert repeated == (0, 0)
