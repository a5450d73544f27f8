"""Tests for the benchmark configuration and runner."""

import dataclasses

import pytest

from repro.benchmark import BenchmarkRunner, ExperimentConfig, PAPER_SCALE_CONFIG, QUICK_CONFIG
from repro.llm.profiles import OPEN_SOURCE_MODELS
from repro.validation import RAGConfig
from support import usage_of


class TestConfig:
    def test_default_grid_models_include_commercial(self):
        config = ExperimentConfig()
        assert config.grid_models()[-1] == "gpt-4o-mini"
        assert len(config.grid_models()) == 5

    def test_commercial_can_be_excluded(self):
        config = ExperimentConfig(include_commercial_in_grid=False)
        assert "gpt-4o-mini" not in config.grid_models()

    def test_paper_scale_config_is_full_size(self):
        assert PAPER_SCALE_CONFIG.scale == 1.0
        assert PAPER_SCALE_CONFIG.max_facts_per_dataset is None
        assert PAPER_SCALE_CONFIG.documents_per_fact == 154

    def test_quick_config_is_small(self):
        assert QUICK_CONFIG.scale < 0.5

    def test_rag_config_propagates_serp_depth(self):
        config = ExperimentConfig(serp_results_per_query=33)
        assert config.rag_config().serp_results_per_query == 33

    def test_every_rag_setting_a_config_carries_reaches_the_strategy(self, quick_config):
        """A RAG setting an ``ExperimentConfig`` carries — a field named like
        one of ``RAGConfig``'s, or a whole nested ``RAGConfig`` — reaches
        the RAG strategy's config instead of being dropped on the way."""

        def other(value):
            if isinstance(value, str):
                return next(model for model in OPEN_SOURCE_MODELS if model != value)
            return value * 2 + 1

        rag_fields = dataclasses.fields(RAGConfig)
        variants = []
        for field in dataclasses.fields(ExperimentConfig):
            if field.name in {rag_field.name for rag_field in rag_fields}:
                value = other(getattr(quick_config, field.name))
                variants.append(({field.name: value}, field.name, value))
            elif field.type in ("RAGConfig", RAGConfig):
                for rag_field in rag_fields:
                    value = other(rag_field.default)
                    nested = RAGConfig(**{rag_field.name: value})
                    variants.append(({field.name: nested}, rag_field.name, value))
        assert variants, "an ExperimentConfig carries no RAG setting"
        for overrides, name, value in variants:
            runner = BenchmarkRunner(dataclasses.replace(quick_config, **overrides))
            model = runner.registry.get("gemma2:9b")
            strategy = runner.build_strategy("rag", "factbench", model)
            assert getattr(strategy.config, name) == value, overrides


class TestRunner:
    def test_datasets_match_config(self, runner):
        datasets = runner.datasets()
        assert set(datasets) == set(runner.config.datasets)
        for dataset in datasets.values():
            assert len(dataset) <= runner.config.max_facts_per_dataset

    def test_dataset_unknown_name_raises(self, runner):
        with pytest.raises(KeyError):
            runner.dataset("wikidata")

    def test_dataset_cached(self, runner):
        assert runner.dataset("factbench") is runner.dataset("factbench")

    def test_corpus_and_search_api_cached(self, runner):
        assert runner.corpus("factbench") is runner.corpus("factbench")
        assert runner.search_api("factbench") is runner.search_api("factbench")

    def test_encoding_selection(self, runner):
        assert runner.encoding("yago").name == "yago"
        assert runner.encoding("factbench").name == "dbpedia"

    def test_build_strategy_unknown_method(self, runner):
        with pytest.raises(KeyError):
            runner.build_strategy("chain-of-thought", "factbench", runner.registry.get("gemma2:9b"))

    def test_run_is_cached(self, runner):
        first = runner.run("dka", "factbench", "gemma2:9b")
        second = runner.run("dka", "factbench", "gemma2:9b")
        assert first is second
        assert len(first) == len(runner.dataset("factbench"))

    def test_runs_for_returns_all_ensemble_models(self, runner):
        runs = runner.runs_for("dka", "factbench")
        assert set(runs) == set(runner.config.models)

    def test_consensus_and_alignment(self, runner):
        consensus = runner.consensus("dka", "factbench", judge="none")
        assert 0.0 <= consensus.tie_rate() <= 1.0
        alignment = runner.alignment("dka", "factbench")
        assert set(alignment) == set(runner.config.models)
        assert all(0.0 <= value <= 1.0 for value in alignment.values())

    def test_consensus_with_commercial_judge_resolves_ties(self, runner):
        plain = runner.consensus("dka", "factbench", judge="none")
        judged = runner.consensus("dka", "factbench", judge="commercial")
        unresolved = sum(1 for o in judged.outcomes if o.verdict.value == "tie")
        assert unresolved <= sum(1 for o in plain.outcomes if o.verdict.value == "tie")
        assert judged.judge.startswith("commercial:")

    def test_judge_selection_uses_upgrades(self, runner):
        name = runner._select_judge_model("dka", "cons-up")
        assert name in {"gemma2:27b", "qwen2.5:14b", "llama3.1:70b", "mistral-nemo:12b"}

    def test_build_rag_dataset_stats(self, runner):
        records, stats = runner.build_rag_dataset("factbench", max_facts=5)
        assert stats.num_facts == 5
        assert stats.avg_questions_per_fact >= 2
        assert set(records) <= {fact.fact_id for fact in runner.dataset("factbench")}


# Per-(model, task) usage of one seeded grid, recorded at the commit before
# token counting became a single memoised regex pass: (calls, prompt tokens,
# completion tokens, total latency).  Latency is a function of the counts, so
# this pins every simulated latency and the cost tables built from them.
_PINNED_USAGE = {
    ("gemma2:9b", "dka"): (24, 2181, 812, 4.775599999999999),
    ("gemma2:9b", "giv-f"): (25, 6602, 1458, 9.525900000000002),
    ("gemma2:9b", "giv-z"): (26, 3920, 1493, 7.7394),
    ("gemma2:9b", "question-generation"): (24, 1330, 3154, 9.128),
    ("gemma2:9b", "rag"): (24, 15211, 1405, 16.1221),
    ("gemma2:9b", "transform"): (24, 2299, 274, 3.652099999999999),
    ("gpt-4o-mini", "dka"): (24, 2181, 799, 7.5597),
    ("gpt-4o-mini", "giv-f"): (24, 6261, 1400, 11.1129),
    ("gpt-4o-mini", "giv-z"): (24, 3477, 1405, 9.478200000000001),
    ("gpt-4o-mini", "rag"): (24, 15211, 1442, 15.6725),
    ("mistral:7b", "dka"): (24, 2181, 739, 3.5077999999999996),
    ("mistral:7b", "giv-f"): (24, 6261, 1340, 6.781900000000001),
    ("mistral:7b", "giv-z"): (24, 3477, 1348, 5.167700000000001),
    ("mistral:7b", "rag"): (24, 15211, 1407, 12.2331),
}


def test_grid_usage_matches_the_pinned_token_and_latency_totals():
    runner = BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=12,
            world_scale=0.15,
            datasets=("factbench", "dbpedia"),
            models=("gemma2:9b", "mistral:7b"),
            serp_results_per_query=25,
            seed=11,
        )
    )
    runner.run_grid()
    usage = {}
    for record in runner.telemetry.records():
        calls, prompt, completion, latency = usage.get((record.model, record.task), (0, 0, 0, 0.0))
        usage[record.model, record.task] = (
            calls + 1,
            prompt + record.prompt_tokens,
            completion + record.completion_tokens,
            latency + record.latency_seconds,
        )
    assert usage == _PINNED_USAGE
    for (model, task), (calls, _, _, latency) in _PINNED_USAGE.items():
        summary = usage_of(runner.telemetry, model, task)
        assert (summary.calls, summary.total_latency_seconds) == (calls, latency)


def test_every_completion_a_registry_model_returns_is_recorded_once(monkeypatch):
    """A spy on ``SimulatedLLM.generate`` sees each completion of one grid
    cell per method, a consensus judge and Table 9's explain calls; the
    runner's telemetry holds exactly those, in order, under the strategies'
    labels."""
    from repro.benchmark.experiments import table9_error_clustering
    from repro.llm import CallRecord, SimulatedLLM

    labels = {"generate_questions": "question-generation"}
    expected = []
    generate = SimulatedLLM.generate

    def spy(self, prompt, *, metadata=None):
        response = generate(self, prompt, metadata=metadata)
        task = metadata["task"]
        expected.append(
            CallRecord(
                response.model,
                metadata["method"] if task == "verify" else labels.get(task, task),
                response.prompt_tokens,
                response.completion_tokens,
                response.latency_seconds,
            )
        )
        return response

    monkeypatch.setattr(SimulatedLLM, "generate", spy)
    runner = BenchmarkRunner(
        ExperimentConfig(
            scale=0.01,
            max_facts_per_dataset=8,
            world_scale=0.12,
            documents_per_fact=5,
            serp_results_per_query=10,
            datasets=("factbench",),
            models=("gemma2:9b", "mistral:7b"),
            seed=5,
        )
    )
    for method in runner.config.methods:
        runner.run(method, "factbench", "mistral:7b")
    runner.consensus("dka", "factbench", judge="commercial")
    table9_error_clustering(runner)

    assert runner.telemetry.records() == expected
    assert {record.task for record in expected} == {
        "dka", "giv-z", "giv-f", "rag", "transform", "question-generation", "explain_error",
    }
    assert any(record.model == "gpt-4o-mini" for record in expected)
