"""Epoch wiring through the online service: ingest, cache invalidation, mixes.

Covers the PR 3 service-side contract:

* ``verdict_cache_key`` / ``VerdictCache`` carry the store epoch, so a
  verdict cached before an ingest never answers a post-ingest request;
* ``ValidationService.apply_mutations`` quiesces in-flight work, applies
  the batch, and advances the epoch visible on every subsequent response;
* the mixed read/write load-generator schedule applies ingest batches
  mid-run through the 1x1 fleet and the report splits verdicts by the
  epoch they were served at.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.datasets import LabeledFact
from repro.kg import Triple
from repro.retrieval.corpus import Document
from repro.service import (
    IngestRequest,
    LoadGenerator,
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
    ValidationService,
    VerdictCache,
    verdict_cache_key,
)
from repro.store import Mutation, ShardedStore
from repro.validation import ValidationResult, Verdict
from support import build_mixed_workload, epochs_served


@pytest.fixture(scope="module")
def store_experiment_config():
    return ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=12,
        world_scale=0.15,
        methods=("dka", "rag"),
        datasets=("factbench",),
        models=("gemma2:9b",),
        include_commercial_in_grid=False,
        seed=11,
    )


@pytest.fixture()
def runner(store_experiment_config):
    # Function-scoped: each test gets a fresh store epoch counter.
    return BenchmarkRunner(store_experiment_config)


def _fact(fact_id: str = "fb-1") -> LabeledFact:
    return LabeledFact(
        fact_id=fact_id,
        triple=Triple("Alice", "worksFor", "Acme"),
        label=True,
        dataset="factbench",
        subject_name="Alice",
        object_name="Acme",
        predicate_name="worksFor",
    )


def _result(fact: LabeledFact, verdict: Verdict) -> ValidationResult:
    return ValidationResult(
        fact_id=fact.fact_id,
        verdict=verdict,
        gold_label=fact.label,
        model="m",
        method="dka",
        latency_seconds=0.1,
        prompt_tokens=1,
        completion_tokens=1,
        raw_response="",
    )


def _news_doc(index: int, fact: LabeledFact) -> Document:
    return Document(
        doc_id=f"ingest-{index}",
        url=f"https://newswire.example/{index}",
        title=f"{fact.subject_name} update",
        text=(
            f"Breaking: {fact.subject_name} {fact.predicate_name} "
            f"{fact.object_name}. Sources confirm the link between "
            f"{fact.subject_name} and {fact.object_name}."
        ),
        source="newswire.example",
        fact_id=fact.fact_id,
        kind="news",
    )


class TestEpochKeyedCache:
    def test_same_fact_different_epochs_never_collide(self):
        fact = _fact()
        keys = {verdict_cache_key(fact, "dka", "m", epoch) for epoch in (0, 1, 2)}
        assert len(keys) == 3

    def test_cache_entries_are_epoch_scoped(self):
        cache = VerdictCache(capacity=64)
        fact = _fact()
        old = _result(fact, Verdict.TRUE)
        cache.put(fact, "dka", "m", old, epoch=1)
        assert cache.get(fact, "dka", "m", epoch=1) == old
        assert cache.get(fact, "dka", "m", epoch=2) is None
        new = _result(fact, Verdict.FALSE)
        cache.put(fact, "dka", "m", new, epoch=2)
        # Both epochs stay addressable until LRU pressure evicts them.
        assert cache.get(fact, "dka", "m", epoch=1) == old
        assert cache.get(fact, "dka", "m", epoch=2) == new


class TestApplyMutations:
    def test_apply_requires_a_store(self, runner):
        service = ValidationService.from_runner(runner, ServiceConfig())

        async def go():
            async with service:
                with pytest.raises(RuntimeError, match="no VersionedKnowledgeStore"):
                    await service.apply_mutations([Mutation.add_triple("a", "p", "b")])

        asyncio.run(go())

    def test_ingest_bumps_epoch_and_invalidates_cached_verdicts(self, runner):
        store = runner.versioned_store("factbench")
        service = ValidationService.from_runner(runner, ServiceConfig(), store=store)
        fact = runner.dataset("factbench")[0]

        async def go():
            async with service:
                first = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                repeat = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                report = await service.apply_mutations(
                    [Mutation.add_triple("Ingested", "worksFor", "Org")]
                )
                after = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                again = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                return first, repeat, report, after, again

        first, repeat, report, after, again = asyncio.run(go())
        assert not first.cached and repeat.cached
        assert report.epoch == first.epoch + 1
        # The epoch bump makes the pre-ingest entry stale: a fresh judgement
        # runs, then repeat traffic at the new epoch hits again.
        assert not after.cached and after.epoch == report.epoch
        assert again.cached and again.epoch == report.epoch
        snapshot = service.metrics.snapshot()
        assert snapshot.ingests == 1 and snapshot.ingested_ops == 1

    def test_paused_reads_wait_for_the_apply_and_a_stop_releases_them(self, runner):
        """``pause_reads`` holds even a would-be cache hit until the next
        apply lands; a stop in place of the apply fails the held read
        instead of leaving it parked on the gate."""
        store = runner.versioned_store("factbench")
        service = ValidationService.from_runner(runner, ServiceConfig(), store=store)
        request = ServiceRequest(runner.dataset("factbench")[0], "dka", "gemma2:9b")

        async def go():
            await service.start()
            first = await service.submit(request)
            service.pause_reads()
            held = asyncio.ensure_future(service.submit(request))
            await asyncio.sleep(0)
            assert not held.done()
            report = await service.apply_mutations(
                [Mutation.add_triple("Paused", "worksFor", "Org")]
            )
            after = await held
            service.pause_reads()
            stranded = asyncio.ensure_future(service.submit(request))
            await asyncio.sleep(0)
            assert not stranded.done()
            await service.stop(drain=False)
            with pytest.raises(RuntimeError, match="service is stopped"):
                await stranded
            return first, report, after

        first, report, after = asyncio.run(asyncio.wait_for(go(), 60.0))
        assert report.epoch == first.epoch + 1
        assert after.epoch == report.epoch and not after.cached

    def test_ingest_waits_for_inflight_requests_to_drain(self, runner, backend):
        store = runner.versioned_store("factbench")
        service = ValidationService.from_runner(
            runner,
            ServiceConfig(enable_cache=False, max_batch_size=8, time_scale=0.2),
            store=store,
        )
        facts = list(runner.dataset("factbench"))[:12]
        seen_at_apply = []
        apply = store.apply

        def applying(mutations):
            seen_at_apply.append(
                (service.pending, backend.in_flight(service), [r.done() for r in reads])
            )
            return apply(mutations)

        store.apply = applying
        reads = []

        async def go():
            async with service:
                # Two batches in the backend and a partial one waiting behind.
                reads.extend(await backend.three_groups(service, facts))
                report = await service.apply_mutations(
                    [Mutation.add_triple("Mid", "worksFor", "Load")]
                )
                return report, await asyncio.gather(*reads)

        report, responses = asyncio.run(go())
        # The write applied only once every batch had returned from the
        # backend — the waiting partial one included — and every read
        # admitted before it carries its admission epoch.
        assert seen_at_apply == [(0, 0, [True] * 12)]
        assert all(response.epoch == report.epoch - 1 for response in responses)
        assert all(response.outcome is RequestOutcome.COMPLETED for response in responses)
        assert [response.batch_size for response in responses] == [1] + [8] * 8 + [3] * 3

    def test_quiesce_and_drain_wait_on_each_loops_own_idle_event(self, runner, backend):
        """One service object over two event loops: on each, an ingest and a
        draining ``stop()`` park behind reads held in the backend and return
        only once the last of them has — woken by that read, on an event
        made for the running loop (a first loop's would raise here)."""
        store = runner.versioned_store("factbench")
        service = ValidationService.from_runner(
            runner,
            ServiceConfig(enable_cache=False, max_batch_size=8, time_scale=0.05),
            store=store,
        )
        facts = list(runner.dataset("factbench"))[:4]

        async def go(tag):
            await service.start()
            reads = backend.submit(service, facts)
            await backend.turns()
            assert service.pending == len(facts)
            report = await service.apply_mutations(
                [Mutation.add_triple(f"Loop{tag}", "worksFor", "Idle")]
            )
            assert service.pending == 0 and all(read.done() for read in reads)
            late = backend.submit(service, facts)
            await backend.turns()
            assert service.pending == len(facts)
            await service.stop(drain=True)
            assert service.pending == 0 and all(read.done() for read in late)
            return report.epoch

        first = asyncio.run(asyncio.wait_for(go(1), 60.0))
        assert asyncio.run(asyncio.wait_for(go(2), 60.0)) == first + 1

    def test_rag_verdicts_refresh_against_ingested_evidence(self, runner):
        store = runner.versioned_store("factbench")
        service = ValidationService.from_runner(
            runner, ServiceConfig(), store=store
        )
        dataset = runner.dataset("factbench")
        facts = dataset.facts()[:4]

        async def go():
            async with service:
                before = [
                    await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
                    for fact in facts
                ]
                await service.apply_mutations(
                    [Mutation.add_document(_news_doc(i, fact)) for i, fact in enumerate(facts)]
                )
                after = [
                    await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
                    for fact in facts
                ]
                return before, after

        before, after = asyncio.run(go())
        # Post-ingest responses were all re-judged (epoch miss), with more
        # evidence available than before.
        assert all(not response.cached for response in after)
        assert all(b.epoch + 1 == a.epoch for b, a in zip(before, after))
        assert all(
            a.result.num_evidence_chunks >= b.result.num_evidence_chunks
            for b, a in zip(before, after)
        )


class TestRunnerStore:
    def test_versioned_store_is_cached_per_dataset(self, runner):
        assert runner.versioned_store("factbench") is runner.versioned_store("factbench")

    def test_engine_generation_moves_with_the_index_only(self, runner):
        from repro.retrieval.search import SearchEngine

        corpus = runner.corpus("factbench")
        engine = runner.search_api("factbench").engine
        built = engine.generation
        assert SearchEngine(corpus).generation != built
        engine.search("profile and background")
        assert engine.generation == built
        fact = runner.dataset("factbench")[0]
        document = _news_doc(0, fact)
        corpus.add(document)
        engine.add_documents([document])
        added = engine.generation
        assert added != built
        engine.add_documents([])  # an empty batch changes nothing
        assert engine.generation == added
        engine.rebuild()
        assert engine.generation not in (built, added)


class TestEvidenceReuse:
    """Cached RAG evidence is valid by construction, not by invalidation."""

    @staticmethod
    def _rag_reads_around_ingest(runner, mutations):
        """Serve four facts, ingest, serve them again; count what each
        round cost in searches and whether the second made any upstream
        (phase 1–2) LLM call."""
        store = runner.versioned_store("factbench")
        service = ValidationService.from_runner(runner, ServiceConfig(), store=store)
        facts = runner.dataset("factbench").facts()[:4]
        api = runner.search_api("factbench")
        queries = []

        def counted_search(query, **params):
            queries.append(query)
            return type(api).search(api, query, **params)

        def upstream_calls():
            return [
                len(runner.telemetry.records(task=task))
                for task in ("transform", "question-generation")
            ]

        async def go():
            async with service:
                for fact in facts:
                    await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
                cold = len(queries)
                queries.clear()
                before = upstream_calls()
                await service.apply_mutations(mutations(facts))
                after = [
                    await service.submit(ServiceRequest(fact, "rag", "gemma2:9b"))
                    for fact in facts
                ]
                return cold, before, after

        api.search = counted_search
        try:
            cold, before, after = asyncio.run(go())
        finally:
            del api.search
        assert cold >= len(facts) and before == [len(facts), len(facts)]
        assert all(not response.cached for response in after)  # re-judged at the new epoch
        return cold, len(queries), upstream_calls() == before

    def test_triple_only_ingest_issues_zero_searches(self, runner):
        _, searches, upstream_unchanged = self._rag_reads_around_ingest(
            runner, lambda facts: [Mutation.add_triple("Mid", "worksFor", "Load")]
        )
        assert searches == 0 and upstream_unchanged

    def test_document_ingest_searches_again_without_upstream_llm_calls(self, runner):
        cold, searches, upstream_unchanged = self._rag_reads_around_ingest(
            runner,
            lambda facts: [
                Mutation.add_document(_news_doc(i, fact)) for i, fact in enumerate(facts)
            ],
        )
        # Every cached question is searched again — as many as the cold pass.
        assert searches == cold and upstream_unchanged

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("triples"), st.integers(1, 3)),
                st.tuples(st.just("documents"), st.integers(1, 3)),
                st.tuples(st.just("retrieve"), st.integers(0, 11)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_cached_evidence_equals_uncached_under_any_interleaving(
        self, store_experiment_config, steps
    ):
        runner = BenchmarkRunner(store_experiment_config)
        store = runner.versioned_store("factbench")
        facts = runner.dataset("factbench").facts()
        model = runner.registry.get("gemma2:9b")
        cached = runner.build_strategy("rag", "factbench", model)
        uncached = runner.build_strategy("rag", "factbench", model)
        uncached.evidence_cache = None
        added = 0
        for kind, value in steps:
            if kind == "retrieve":
                fact = facts[value % len(facts)]
                assert cached.retrieve(fact) == uncached.retrieve(fact)
                continue
            batch = []
            for _ in range(value):
                if kind == "triples":
                    batch.append(Mutation.add_triple(f"Subject{added}", "worksFor", "Load"))
                else:
                    batch.append(
                        Mutation.add_document(_news_doc(added, facts[added % len(facts)]))
                    )
                added += 1
            store.apply(batch)
        for fact in facts:
            assert cached.retrieve(fact) == uncached.retrieve(fact)


class TestMixedWorkload:
    def test_mixed_schedule_is_deterministic_with_spliced_writes(self, runner):
        dataset = runner.dataset("factbench")
        batches = [[Mutation.add_triple("a", "p", "b")], [Mutation.add_triple("c", "p", "d")]]
        first = build_mixed_workload([dataset], ["dka"], ["gemma2:9b"], 30, batches, seed=5)
        second = build_mixed_workload([dataset], ["dka"], ["gemma2:9b"], 30, batches, seed=5)
        assert len(first) == 32
        positions = [i for i, item in enumerate(first) if isinstance(item, IngestRequest)]
        assert positions == [10, 21]  # evenly spaced, shifted by prior splices
        assert [type(item) for item in first] == [type(item) for item in second]

    def test_ingest_request_requires_mutations(self):
        with pytest.raises(ValueError):
            IngestRequest(())

    def test_loadgen_applies_writes_and_reports_epochs(self, runner):
        store = runner.versioned_store("factbench")
        router = ShardedValidationService.from_runner(
            runner, 1, ServiceConfig(time_scale=0.001), store=ShardedStore([store])
        )
        dataset = runner.dataset("factbench")
        base_epoch = store.epoch
        batches = [
            [Mutation.add_document(_news_doc(i, dataset[0]))] for i in range(2)
        ]
        workload = build_mixed_workload(
            [dataset], ["dka"], ["gemma2:9b"], 40, batches, seed=2
        )
        report = LoadGenerator(router, workload, concurrency=6).run_sync()
        assert report.total == 42
        assert report.ingests == 2
        assert report.completed == 40
        assert store.epoch == base_epoch + 2
        served = epochs_served(report)
        assert served[0] == base_epoch and served[-1] == base_epoch + 2
        # Per-epoch verdict tables partition the completed reads.
        assert sum(len(report.verdicts(epoch=epoch)) for epoch in served) >= len(
            report.verdicts()
        )
        assert report.snapshot.ingests == 2

    def test_every_read_matches_the_offline_pipeline_over_its_epochs_snapshot(
        self, runner
    ):
        """One ingest (fresh evidence + triples) spliced into a concurrent
        ``dka``/``rag`` closed loop: the verdicts served at each epoch are
        those of an offline pipeline over ``store.snapshot(epoch)`` — RAG
        over a from-scratch validator on the snapshot corpus — the ingest
        flips at least one ``rag`` verdict, and no ``dka`` verdict moves."""
        from repro.retrieval.mock_api import MockSearchAPI
        from repro.validation import ValidationPipeline
        from repro.validation.rag import RAGValidator

        store = runner.versioned_store("factbench")
        dataset = runner.dataset("factbench")
        model = runner.registry.get("gemma2:9b")
        batch = []
        for index, fact in enumerate(dataset.facts()[:6]):
            batch.append(Mutation.add_document(_news_doc(index, fact)))
            batch.append(
                Mutation.add_triple(
                    fact.subject_name, fact.base_predicate(), fact.object_name
                )
            )
        workload = build_mixed_workload(
            [dataset], ["dka", "rag"], ["gemma2:9b"], 120, [batch], seed=3
        )
        router = ShardedValidationService.from_runner(
            runner, 1, ServiceConfig(queue_depth=4096), store=ShardedStore([store])
        )
        report = LoadGenerator(router, workload, concurrency=8).run_sync()
        assert report.completed == 120 and report.ingests == 1
        pre_epoch, post_epoch = epochs_served(report)
        assert post_epoch == pre_epoch + 1

        def offline(epoch):
            pipeline = ValidationPipeline()
            rag = RAGValidator(
                model=model,
                search_api=MockSearchAPI(
                    store.snapshot(epoch).corpus,
                    default_num_results=runner.config.serp_results_per_query,
                ),
                kg_encoding=runner.encoding("factbench"),
                config=runner.config.rag_config(),
                verbalizer=runner.verbalizer,
            )
            strategies = {
                "dka": runner.build_strategy("dka", "factbench", model),
                "rag": rag,
            }
            return {
                (method, "gemma2:9b", "factbench", fact_id): verdict.value
                for method, strategy in strategies.items()
                for fact_id, verdict in pipeline.run(strategy, dataset).verdicts().items()
            }

        before, after = offline(pre_epoch), offline(post_epoch)
        for epoch, reference in ((pre_epoch, before), (post_epoch, after)):
            served = report.verdicts(epoch=epoch)
            assert served and served == {key: reference[key] for key in served}
        moved = {key[0] for key in before if before[key] != after[key]}
        assert moved == {"rag"}
