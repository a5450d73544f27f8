"""Tests for the DKA, GIV, and RAG validation strategies."""

import pytest

from repro.kg import DBPEDIA_ENCODING
from repro.llm import TelemetryCollector
from repro.retrieval.cache import LRUCache
from repro.validation import (
    DirectKnowledgeAssessment,
    GuidedIterativeVerification,
    RAGConfig,
    RAGValidator,
    ValidationPipeline,
    Verdict,
)


@pytest.fixture(scope="module")
def small_subset(factbench_small):
    return factbench_small.sample(16, seed=0)


class TestDKA:
    def test_validate_returns_result(self, gemma, verbalizer, small_subset):
        strategy = DirectKnowledgeAssessment(gemma, verbalizer)
        result = strategy.validate(small_subset[0])
        assert result.method == "dka"
        assert result.model == "gemma2:9b"
        assert result.verdict in (Verdict.TRUE, Verdict.FALSE, Verdict.INVALID)
        assert result.latency_seconds > 0

    def test_validate_dataset_covers_all_facts(self, gemma, verbalizer, small_subset):
        run = DirectKnowledgeAssessment(gemma, verbalizer).validate_dataset(small_subset)
        assert len(run) == len(small_subset)
        assert set(run.gold()) == {fact.fact_id for fact in small_subset}

    def test_telemetry_recorded(self, gemma, verbalizer, small_subset):
        telemetry = TelemetryCollector()
        strategy = DirectKnowledgeAssessment(gemma, verbalizer, telemetry)
        strategy.validate(small_subset[0])
        assert telemetry.summary(task="dka").calls == 1

    def test_deterministic(self, gemma, verbalizer, small_subset):
        strategy = DirectKnowledgeAssessment(gemma, verbalizer)
        first = [strategy.validate(fact).verdict for fact in small_subset]
        second = [strategy.validate(fact).verdict for fact in small_subset]
        assert first == second


class TestGIV:
    def test_method_names(self, gemma, verbalizer):
        assert GuidedIterativeVerification(gemma, few_shot=False).method_name == "giv-z"
        assert GuidedIterativeVerification(gemma, few_shot=True).method_name == "giv-f"

    def test_invalid_max_retries(self, gemma):
        with pytest.raises(ValueError):
            GuidedIterativeVerification(gemma, max_retries=-1)

    def test_run_produces_mostly_valid_verdicts(self, gemma, verbalizer, small_subset):
        run = GuidedIterativeVerification(
            gemma, few_shot=True, verbalizer=verbalizer
        ).validate_dataset(small_subset)
        assert run.invalid_count() <= len(small_subset) // 4

    def test_giv_latency_exceeds_dka(self, gemma, verbalizer, small_subset):
        dka_run = DirectKnowledgeAssessment(gemma, verbalizer).validate_dataset(small_subset)
        giv_run = GuidedIterativeVerification(
            gemma, few_shot=True, verbalizer=verbalizer
        ).validate_dataset(small_subset)
        assert sum(giv_run.latencies()) > sum(dka_run.latencies())

    def test_retries_recorded(self, registry, verbalizer, small_subset):
        # llama has the lowest format compliance, so retries are most likely.
        llama = registry.get("llama3.1:8b")
        run = GuidedIterativeVerification(
            llama, few_shot=False, verbalizer=verbalizer
        ).validate_dataset(small_subset)
        assert all(result.num_retries >= 0 for result in run.results)


class TestRAG:
    @pytest.fixture(scope="class")
    def rag_validator(self, gemma, verbalizer, search_api):
        config = RAGConfig(serp_results_per_query=15, selected_documents=5, max_evidence_chunks=6)
        return RAGValidator(
            model=gemma,
            search_api=search_api,
            kg_encoding=DBPEDIA_ENCODING,
            config=config,
            verbalizer=verbalizer,
        )

    @pytest.fixture(scope="class")
    def covered_facts(self, factbench_small, corpus_small):
        covered_ids = {doc.fact_id for doc in corpus_small}
        return [fact for fact in factbench_small if fact.fact_id in covered_ids][:10]

    def test_retrieve_produces_evidence(self, rag_validator, covered_facts):
        evidence, latency = rag_validator.retrieve(covered_facts[0])
        assert latency > 0
        assert evidence.statement
        assert evidence.questions
        assert evidence.chunks, "expected evidence chunks for a corpus-covered fact"

    def test_kg_origin_sources_filtered(self, rag_validator, covered_facts):
        for fact in covered_facts[:5]:
            evidence, __ = rag_validator.retrieve(fact)
            for document in evidence.documents:
                assert not document.source.endswith("wikipedia.org")
                assert not document.source.endswith("dbpedia.org")

    def test_selected_documents_bounded(self, rag_validator, covered_facts):
        evidence, __ = rag_validator.retrieve(covered_facts[1])
        assert len(evidence.documents) <= rag_validator.config.selected_documents
        assert len(evidence.chunks) <= rag_validator.config.max_evidence_chunks

    def test_validate_result_fields(self, rag_validator, covered_facts):
        result = rag_validator.validate(covered_facts[0])
        assert result.method == "rag"
        assert result.num_evidence_chunks > 0
        assert result.latency_seconds > 0

    def test_evidence_cache_shared_across_models(self, registry, verbalizer, search_api, covered_facts):
        cache = LRUCache(8)
        config = RAGConfig(serp_results_per_query=15, selected_documents=5)
        validators = [
            RAGValidator(
                model=registry.get(name),
                search_api=search_api,
                kg_encoding=DBPEDIA_ENCODING,
                config=config,
                verbalizer=verbalizer,
                evidence_cache=cache,
            )
            for name in ("gemma2:9b", "mistral:7b")
        ]
        validators[0].validate(covered_facts[0])
        (statement, questions, upstream_latency), generation, cached_evidence = cache.get(
            covered_facts[0].fact_id
        )
        assert generation == search_api.engine.generation
        assert (statement, questions) == (cached_evidence.statement, cached_evidence.questions)
        evidence, latency = validators[1].retrieve(covered_facts[0])
        assert evidence is cached_evidence and latency == upstream_latency

    def test_rag_slower_than_dka(self, rag_validator, gemma, verbalizer, covered_facts):
        dka = DirectKnowledgeAssessment(gemma, verbalizer)
        rag_latency = rag_validator.validate(covered_facts[2]).latency_seconds
        dka_latency = dka.validate(covered_facts[2]).latency_seconds
        assert rag_latency > dka_latency * 2


class TestPipeline:
    def test_run_matrix_shape(self, registry, verbalizer, small_subset):
        from repro.validation import run_matrix

        models = {name: registry.get(name) for name in ("gemma2:9b", "mistral:7b")}
        factories = {
            "dka": lambda model: DirectKnowledgeAssessment(model, verbalizer),
        }
        results = run_matrix(factories, models, [small_subset])
        assert set(results) == {"dka"}
        assert set(results["dka"][small_subset.name]) == {"gemma2:9b", "mistral:7b"}

    def test_progress_callback_invoked(self, gemma, verbalizer, small_subset):
        calls = []
        pipeline = ValidationPipeline(progress=lambda method, done, total: calls.append((done, total)))
        pipeline.run(DirectKnowledgeAssessment(gemma, verbalizer), small_subset)
        assert calls[-1] == (len(small_subset), len(small_subset))
