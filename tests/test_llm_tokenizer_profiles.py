"""Tests for the tokenizer, model profiles, registry, and telemetry."""

import pytest

from repro.llm import (
    ALL_PROFILES,
    OPEN_SOURCE_MODELS,
    TelemetryCollector,
    UPGRADE_VARIANTS,
    count_tokens,
    create_model,
    get_profile,
    upgrade_of,
)
from repro.llm.base import LLMResponse
from support import calls_of, usage_of


class TestTokenizer:
    def test_empty_text(self):
        assert count_tokens("") == 0

    def test_word_and_punctuation(self):
        assert count_tokens("Hello, world!") == 4

    def test_long_words_split_into_subwords(self):
        assert count_tokens("internationalization") > 1

    def test_count_monotone_in_text_length(self):
        short = count_tokens("The capital of Valdoria is Brimworth.")
        long = count_tokens("The capital of Valdoria is Brimworth. " * 10)
        assert long > short

    def test_roughly_more_tokens_than_words(self):
        text = "Verification of knowledge graph statements requires careful contextual analysis."
        assert count_tokens(text) >= len(text.split())

    def test_every_entry_point_shares_one_memo(self):
        text = "one memo behind count_tokens"
        first = count_tokens(text)
        hits = count_tokens.cache_info().hits
        assert count_tokens(text) == first
        assert count_tokens.cache_info().hits == hits + 1

    def test_memo_size_stays_at_its_cap(self):
        cap = count_tokens.cache_info().maxsize
        assert cap is not None
        for index in range(cap + 64):
            assert count_tokens(f"text {index}") == 2
        assert count_tokens.cache_info().currsize == cap


class TestProfiles:
    def test_four_open_source_models(self):
        assert set(OPEN_SOURCE_MODELS) == {
            "gemma2:9b",
            "qwen2.5:7b",
            "llama3.1:8b",
            "mistral:7b",
        }

    def test_upgrade_variants_exist_for_each_family(self):
        families = {profile.family for profile in OPEN_SOURCE_MODELS.values()}
        upgrade_families = {profile.family for profile in UPGRADE_VARIANTS.values()}
        assert families == upgrade_families

    def test_upgrades_are_larger_and_slower(self):
        for base_name in OPEN_SOURCE_MODELS:
            base = get_profile(base_name)
            upgraded = upgrade_of(base_name)
            assert upgraded.parameters_b > base.parameters_b
            assert upgraded.knowledge_coverage >= base.knowledge_coverage
            assert upgraded.base_latency_s > base.base_latency_s

    def test_commercial_profile_is_sceptical(self):
        gpt = get_profile("gpt-4o-mini")
        assert gpt.commercial
        assert gpt.positive_bias < 0.5
        assert gpt.unsupported_true_penalty > 0.2

    def test_probability_fields_in_range(self):
        for profile in ALL_PROFILES.values():
            for value in (
                profile.knowledge_coverage,
                profile.knowledge_reliability,
                profile.positive_bias,
                profile.evidence_utilization,
                profile.evidence_positive_trust,
                profile.format_compliance,
                profile.unsupported_true_penalty,
            ):
                assert 0.0 <= value <= 1.0

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("gpt-17")

    def test_mistral_fastest_llama_slowest(self):
        assert (
            OPEN_SOURCE_MODELS["mistral:7b"].prompt_token_rate_s
            < OPEN_SOURCE_MODELS["llama3.1:8b"].prompt_token_rate_s
        )


class TestRegistry:
    def test_create_model_and_models(self, world):
        model = create_model("gemma2:9b", world)
        assert model.name == "gemma2:9b"

    def test_registry_caches_instances(self, registry):
        assert registry.get("gemma2:9b") is registry.get("gemma2:9b")

    def test_registry_upgrade_for(self, registry):
        upgraded = registry.upgrade_for("qwen2.5:7b")
        assert upgraded.name == "qwen2.5:14b"


class TestTelemetry:
    def _response(self, model="m", prompt=10, completion=5, latency=0.5):
        return LLMResponse(
            text="x", model=model, prompt_tokens=prompt,
            completion_tokens=completion, latency_seconds=latency,
        )

    def test_record_and_summary(self):
        telemetry = TelemetryCollector()
        telemetry.record(self._response(prompt=10, completion=2, latency=1.0), task="dka")
        telemetry.record(self._response(prompt=20, completion=6, latency=3.0), task="dka")
        summary = usage_of(telemetry, task="dka")
        assert summary.calls == 2
        assert (summary.avg_prompt_tokens, summary.avg_completion_tokens) == (15.0, 4.0)
        assert summary.avg_total_tokens == 19.0
        assert summary.avg_latency_seconds == pytest.approx(2.0)
        assert summary.total_latency_seconds == pytest.approx(4.0)

    def test_filtering_by_model_and_task(self):
        telemetry = TelemetryCollector()
        telemetry.record(self._response(model="a"), task="dka")
        telemetry.record(self._response(model="b"), task="rag")
        assert len(calls_of(telemetry, model="a")) == 1
        assert len(calls_of(telemetry, task="rag")) == 1
        assert len(calls_of(telemetry, model="a", task="rag")) == 0

    def test_by_task_and_by_model_groupings(self):
        telemetry = TelemetryCollector()
        telemetry.record(self._response(model="a"), task="dka")
        telemetry.record(self._response(model="a"), task="rag")
        telemetry.record(self._response(model="b"), task="rag")
        assert usage_of(telemetry, model="a").calls == 2
        assert usage_of(telemetry, task="rag").calls == 2
        assert usage_of(telemetry, model="c").calls == 0

    def test_clear(self):
        telemetry = TelemetryCollector()
        telemetry.record(self._response())
        telemetry.clear()
        assert len(telemetry) == 0

    def test_total_tokens(self):
        record = TelemetryCollector().record(self._response(prompt=7, completion=3))
        assert record.total_tokens == 10

    def test_record_call_and_extend_feed_the_same_log(self):
        worker = TelemetryCollector()
        worker.record_call("a", "serve/dka", prompt_tokens=4, completion_tokens=2, latency_seconds=0.1)
        worker.record_call("a", "serve/rag")
        telemetry = TelemetryCollector()
        telemetry.record(self._response(model="a"), task="dka")
        telemetry.extend(worker.records())
        assert [record.task for record in calls_of(telemetry, model="a")] == [
            "dka", "serve/dka", "serve/rag",
        ]
        assert calls_of(telemetry, task="serve/rag")[0].total_tokens == 0
