"""Tests for the DKA, GIV, and RAG validation strategies."""

import pytest

from repro.kg import DBPEDIA_ENCODING
from repro.llm import ModelRegistry, TelemetryCollector
from repro.llm.base import LLMClient, LLMResponse
from repro.retrieval.cache import LRUCache
from repro.validation import (
    DirectKnowledgeAssessment,
    GuidedIterativeVerification,
    RAGConfig,
    RAGValidator,
    ValidationPipeline,
    ValidationResult,
    ValidationRun,
    Verdict,
    dka_prompt,
    giv_prompt,
    parse_verdict,
    reprompt_suffix,
)
from repro.validation import giv as giv_module
from repro.validation import rag as rag_module
from repro.validation.rag import RAGDatasetBuilder, TripleTransformer
from support import usage_of


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

    def test_a_run_covers_all_facts(self, gemma, verbalizer, small_subset):
        run = ValidationPipeline().run(DirectKnowledgeAssessment(gemma, verbalizer), small_subset)
        assert len(run) == len(small_subset)
        assert set(run.gold()) == {fact.fact_id for fact in small_subset}

    def test_telemetry_recorded(self, world, verbalizer, small_subset):
        telemetry = TelemetryCollector()
        gemma = ModelRegistry(world, seed=3, telemetry=telemetry).get("gemma2:9b")
        DirectKnowledgeAssessment(gemma, verbalizer).validate(small_subset[0])
        assert usage_of(telemetry, task="dka").calls == 1
        assert len(telemetry) == 1

    def test_deterministic(self, gemma, verbalizer, small_subset):
        strategy = DirectKnowledgeAssessment(gemma, verbalizer)
        first = [strategy.validate(fact).verdict for fact in small_subset]
        second = [strategy.validate(fact).verdict for fact in small_subset]
        assert first == second


class TestGIV:
    def test_method_names(self, gemma, verbalizer):
        assert GuidedIterativeVerification(gemma, few_shot=False).method_name == "giv-z"
        assert GuidedIterativeVerification(gemma, few_shot=True).method_name == "giv-f"

    def test_retry_budget_bounds_the_reprompts(self, registry, verbalizer, small_subset, monkeypatch):
        llama = registry.get("llama3.1:8b")
        monkeypatch.setattr(giv_module, "MAX_RETRIES", 0)
        run = ValidationPipeline().run(
            GuidedIterativeVerification(llama, verbalizer=verbalizer), small_subset
        )
        assert all(result.num_retries == 0 for result in run.results)

    def test_run_produces_mostly_valid_verdicts(self, gemma, verbalizer, small_subset):
        run = ValidationPipeline().run(
            GuidedIterativeVerification(gemma, few_shot=True, verbalizer=verbalizer), small_subset
        )
        invalid = [result for result in run.results if result.verdict is Verdict.INVALID]
        assert len(invalid) <= len(small_subset) // 4

    def test_giv_latency_exceeds_dka(self, gemma, verbalizer, small_subset):
        pipeline = ValidationPipeline()
        dka_run = pipeline.run(DirectKnowledgeAssessment(gemma, verbalizer), small_subset)
        giv_run = pipeline.run(
            GuidedIterativeVerification(gemma, few_shot=True, verbalizer=verbalizer), small_subset
        )
        assert sum(giv_run.latencies()) > sum(dka_run.latencies())

    def test_retries_recorded(self, registry, verbalizer, small_subset):
        # llama has the lowest format compliance, so retries are most likely.
        llama = registry.get("llama3.1:8b")
        run = ValidationPipeline().run(
            GuidedIterativeVerification(llama, few_shot=False, verbalizer=verbalizer), small_subset
        )
        assert all(result.num_retries >= 0 for result in run.results)


class TestRAG:
    @pytest.fixture(scope="class")
    def rag_validator(self, gemma, verbalizer, search_api):
        config = RAGConfig(serp_results_per_query=15, selected_documents=5)
        return RAGValidator(
            model=gemma,
            upstream=gemma,
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

    def test_selected_documents_bounded(self, rag_validator, covered_facts, monkeypatch):
        monkeypatch.setattr(rag_module, "MAX_EVIDENCE_CHUNKS", 6)
        evidence, __ = rag_validator.retrieve(covered_facts[1])
        assert len(evidence.documents) <= rag_validator.config.selected_documents
        assert len(evidence.chunks) == 6

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
                upstream=registry.get(rag_module.UPSTREAM_MODEL),
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

    def test_a_shared_cache_runs_phases_1_2_on_the_upstream_model_whoever_misses_first(
        self, registry, verbalizer, search_api, covered_facts
    ):
        """Mistral misses first and gemma judges second: the cached upstream
        phases are the upstream model's, and neither judge ran them."""
        cache = LRUCache(8)
        config = RAGConfig(serp_results_per_query=15, selected_documents=5)
        upstream = _Spy(registry.get(rag_module.UPSTREAM_MODEL))
        judges = {name: _Spy(registry.get(name)) for name in ("mistral:7b", "gemma2:9b")}
        validators = {
            name: RAGValidator(
                model=judge,
                upstream=upstream,
                search_api=search_api,
                kg_encoding=DBPEDIA_ENCODING,
                config=config,
                verbalizer=verbalizer,
                evidence_cache=cache,
            )
            for name, judge in judges.items()
        }
        fact = covered_facts[3]
        for name in ("mistral:7b", "gemma2:9b"):
            validators[name].validate(fact)
        assert [call["task"] for call in upstream.calls] == ["transform", "generate_questions"]
        assert all(
            [call["task"] for call in judge.calls] == ["verify"] for judge in judges.values()
        )
        alone = RAGValidator(
            model=registry.get("mistral:7b"),
            upstream=registry.get(rag_module.UPSTREAM_MODEL),
            search_api=search_api,
            kg_encoding=DBPEDIA_ENCODING,
            config=config,
            verbalizer=verbalizer,
        )
        assert cache.get(fact.fact_id)[0] == alone.generate_questions(fact)

    def test_rag_slower_than_dka(self, rag_validator, gemma, verbalizer, covered_facts):
        dka = DirectKnowledgeAssessment(gemma, verbalizer)
        rag_latency = rag_validator.validate(covered_facts[2]).latency_seconds
        dka_latency = dka.validate(covered_facts[2]).latency_seconds
        assert rag_latency > dka_latency * 2


class _FixedReply(LLMClient):
    """A client whose every completion is ``text``; it keeps each call's
    prompt and metadata."""

    def __init__(self, text):
        super().__init__("fixed")
        self.text = text
        self.calls = []

    def generate(self, prompt, *, metadata=None):
        self.calls.append((prompt, dict(metadata or {})))
        return LLMResponse(self.text, self.name, prompt_tokens=3, completion_tokens=1, latency_seconds=0.25)


class _Spy(LLMClient):
    """Passes calls through to a model and keeps each call's metadata."""

    def __init__(self, inner):
        super().__init__(inner.name)
        self.inner = inner
        self.calls = []

    def generate(self, prompt, *, metadata=None):
        self.calls.append(dict(metadata or {}))
        return self.inner.generate(prompt, metadata=metadata)


#: No verdict can be parsed out of it.
_NON_COMPLIANT = "Several readings are possible, so the assessment is left open here."


class TestVerdictRequest:
    """Each strategy asks for a verdict as often as its budget allows."""

    def _assert_one_request(self, client, result, fact, method):
        assert parse_verdict(_NON_COMPLIANT) is None
        assert [metadata["task"] for __, metadata in client.calls] == ["verify"]
        metadata = client.calls[0][1]
        assert (metadata["method"], metadata["fact"], metadata["attempt"]) == (method, fact, 0)
        assert (result.verdict, result.num_retries) == (Verdict.INVALID, 0)
        assert (result.prompt_tokens, result.completion_tokens) == (3, 1)
        assert result.raw_response == _NON_COMPLIANT

    def test_dka_asks_once(self, verbalizer, small_subset):
        client = _FixedReply(_NON_COMPLIANT)
        fact = small_subset[0]
        result = DirectKnowledgeAssessment(client, verbalizer).validate(fact)
        self._assert_one_request(client, result, fact, "dka")
        assert client.calls[0][0] == dka_prompt(fact, verbalizer.statement(fact.triple))
        assert result.latency_seconds == 0.25

    def test_rag_asks_once_after_its_upstream_phases(self, gemma, verbalizer, search_api, small_subset):
        client = _FixedReply(_NON_COMPLIANT)
        fact = small_subset[0]
        validator = RAGValidator(
            model=client,
            upstream=gemma,
            search_api=search_api,
            kg_encoding=DBPEDIA_ENCODING,
            config=RAGConfig(serp_results_per_query=15, selected_documents=5),
            verbalizer=verbalizer,
        )
        result = validator.validate(fact)
        self._assert_one_request(client, result, fact, "rag")
        evidence, upstream_latency = validator.retrieve(fact)
        assert client.calls[0][1]["evidence"] == evidence.chunks
        assert result.latency_seconds == upstream_latency + 0.25
        assert result.num_evidence_chunks == len(evidence.chunks)

    @pytest.mark.parametrize("few_shot", [False, True])
    def test_giv_reprompts_up_to_its_budget(self, verbalizer, small_subset, few_shot):
        client = _FixedReply(_NON_COMPLIANT)
        fact = small_subset[0]
        result = GuidedIterativeVerification(client, few_shot, verbalizer).validate(fact)
        attempts = giv_module.MAX_RETRIES + 1
        base = giv_prompt(fact, verbalizer.statement(fact.triple), few_shot=few_shot)
        assert [prompt for prompt, __ in client.calls] == (
            [base] + [base + reprompt_suffix(_NON_COMPLIANT)] * (attempts - 1)
        )
        assert [metadata["attempt"] for __, metadata in client.calls] == list(range(attempts))
        assert {metadata["method"] for __, metadata in client.calls} == {result.method}
        assert (result.verdict, result.num_retries) == (Verdict.INVALID, attempts - 1)
        assert (result.prompt_tokens, result.completion_tokens) == (3 * attempts, attempts)
        assert result.latency_seconds == pytest.approx(0.25 * attempts)


class TestRAGPhases:
    def test_transformer_keeps_a_usable_sentence(self, small_subset):
        sentence, latency = TripleTransformer(_FixedReply("  A full sentence.  ")).transform(
            small_subset[0]
        )
        assert (sentence, latency) == ("A full sentence.", 0.25)

    def test_transformer_falls_back_to_the_verbalizer_on_degenerate_output(
        self, verbalizer, small_subset
    ):
        fact = small_subset[0]
        transformer = TripleTransformer(_FixedReply("ok"), verbalizer)
        sentence, _ = transformer.transform(fact)
        assert sentence == verbalizer.statement(fact.triple)

    def test_config_table_mirrors_table_4(self):
        config = RAGConfig(relevance_threshold=0.6, chunk_window=4)
        rows = dict(config.as_table())
        assert len(rows) == len(config.as_table()) == 9
        assert rows["Human Understandable Text"] == rag_module.UPSTREAM_MODEL
        assert rows["Relevance Threshold"] == "0.6"
        assert rows["Selected Documents (k_d)"] == str(config.selected_documents)
        assert rows["Chunking Strategy"] == "Sliding Window (size = 4)"

    def test_collection_costs_are_linear_in_requests(
        self, monkeypatch, gemma, verbalizer, search_api, small_subset
    ):
        monkeypatch.setattr(rag_module, "SERP_REQUEST_SECONDS", 1.5)
        monkeypatch.setattr(rag_module, "DOCUMENT_FETCH_SECONDS", 2.0)
        builder = RAGDatasetBuilder(
            RAGValidator(
                model=gemma,
                upstream=gemma,
                search_api=search_api,
                kg_encoding=DBPEDIA_ENCODING,
                verbalizer=verbalizer,
            )
        )
        records, stats = builder.build(small_subset.sample(3, seed=1))
        queries = [
            1 + min(len(record["questions"]), rag_module.SELECTED_QUESTIONS)
            for record in records.values()
        ]
        urls = [len(record["urls"]) for record in records.values()]
        assert stats.avg_serp_seconds == pytest.approx(1.5 * sum(queries) / 3)
        assert stats.avg_fetch_seconds == pytest.approx(2.0 * sum(urls) / 3)
        assert sum(urls) > 0


class TestRunAccounting:
    def _result(self, fact_id, verdict, gold):
        return ValidationResult(fact_id, verdict, gold, "m", "dka", 0.1, 1, 1)

    def test_verdict_bool_view_has_no_opinion_on_invalid_or_tie(self):
        assert [verdict.as_bool() for verdict in Verdict] == [True, False, None, None]
        assert Verdict.from_bool(True) is Verdict.TRUE
        assert Verdict.from_bool(False) is Verdict.FALSE

    def test_correct_fact_ids_skip_wrong_and_unanswered_facts(self):
        run = ValidationRun("dka", "m", "d")
        for fact_id, verdict, gold in (
            ("right-true", Verdict.TRUE, True),
            ("wrong", Verdict.TRUE, False),
            ("invalid", Verdict.INVALID, False),
            ("tie", Verdict.TIE, True),
            ("right-false", Verdict.FALSE, False),
        ):
            run.add(self._result(fact_id, verdict, gold))
        assert run.correct_fact_ids() == ["right-true", "right-false"]
        assert [result.is_correct for result in run.results] == [True, False, None, None, True]

