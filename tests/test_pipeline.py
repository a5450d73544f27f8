"""The ``run_facts`` micro-batch entry point and ``map_cells``'s ordering."""

from __future__ import annotations

import pytest

from repro.validation import (
    DirectKnowledgeAssessment,
    ParallelValidationPipeline,
    ValidationPipeline,
)


def _square(value):
    return value * value


@pytest.fixture()
def strategy(gemma, verbalizer):
    return DirectKnowledgeAssessment(gemma, verbalizer)


@pytest.fixture()
def small_dataset(factbench_small):
    return factbench_small.sample(6, seed=3)


class TestRunFacts:
    def test_run_is_composed_of_run_facts(self, strategy, small_dataset):
        pipeline = ValidationPipeline()
        run = pipeline.run(strategy, small_dataset)
        results = pipeline.run_facts(strategy, small_dataset.facts(), dataset=small_dataset.name)
        assert run.results == results
        assert (run.method, run.dataset) == ("dka", small_dataset.name)

    def test_run_facts_preserves_order_and_handles_empty(self, strategy, small_dataset):
        pipeline = ValidationPipeline()
        facts = small_dataset.facts()
        results = pipeline.run_facts(strategy, facts, dataset=small_dataset.name)
        assert [result.fact_id for result in results] == [fact.fact_id for fact in facts]
        assert pipeline.run_facts(strategy, [], dataset="empty") == []


class TestMapCells:
    def test_in_process_path_keeps_cell_order(self):
        cells = [("dka", "factbench", "gemma2:9b"), ("dka", "yago", "qwen2.5:7b")]
        assert ParallelValidationPipeline(workers=1).map_cells(lambda cell: cell[1], cells) == [
            "factbench", "yago",
        ]

    def test_forked_pool_returns_results_in_submission_order(self):
        if not ParallelValidationPipeline.supports_fork():
            pytest.skip("fork start method unavailable")
        pipeline = ParallelValidationPipeline(workers=2)
        assert pipeline.map_cells(_square, [5, 3, 1, 8]) == [25, 9, 1, 64]
