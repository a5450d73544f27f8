"""Progress-callback contract and the ``run_facts`` micro-batch entry point.

Both pipeline flavours must report work through the same
``progress(label, done, total)`` payload, with the label carrying the
strategy/dataset identifiers (``method/dataset`` per fact on the serial
path, ``method/dataset/model`` per cell on the parallel path).
"""

from __future__ import annotations

import pytest

from repro.validation import (
    DirectKnowledgeAssessment,
    ParallelValidationPipeline,
    ValidationPipeline,
    progress_label,
)


def _square(value):
    return value * value


@pytest.fixture()
def strategy(gemma, verbalizer):
    return DirectKnowledgeAssessment(gemma, verbalizer)


@pytest.fixture()
def small_dataset(factbench_small):
    return factbench_small.sample(6, seed=3)


class TestProgressLabel:
    def test_label_shapes(self):
        assert progress_label("dka", "factbench") == "dka/factbench"
        assert progress_label("rag", "yago") == "rag/yago"


class TestSerialProgress:
    def test_run_reports_method_and_dataset_per_fact(self, strategy, small_dataset):
        calls = []
        pipeline = ValidationPipeline(progress=lambda *call: calls.append(call))
        pipeline.run(strategy, small_dataset)
        total = len(small_dataset)
        assert calls == [("dka/factbench", done, total) for done in range(1, total + 1)]

    def test_run_facts_uses_explicit_dataset_label(self, strategy, small_dataset):
        calls = []
        pipeline = ValidationPipeline(progress=lambda *call: calls.append(call))
        pipeline.run_facts(strategy, small_dataset.facts()[:3], dataset="factbench")
        assert [call[0] for call in calls] == ["dka/factbench"] * 3
        calls.clear()
        pipeline.run_facts(strategy, small_dataset.facts()[:2])
        assert [call[0] for call in calls] == ["dka/adhoc"] * 2


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


class TestParallelProgress:
    def test_in_process_path_reports_cells(self):
        calls = []
        pipeline = ParallelValidationPipeline(
            workers=1, progress=lambda *call: calls.append(call)
        )
        cells = [("dka", "factbench", "gemma2:9b"), ("dka", "yago", "qwen2.5:7b")]
        pipeline.map_cells(lambda cell: cell[0], cells)
        assert calls == [
            ("dka/factbench/gemma2:9b", 1, 2),
            ("dka/yago/qwen2.5:7b", 2, 2),
        ]

    def test_forked_pool_reports_cells_in_submission_order(self):
        if not ParallelValidationPipeline.supports_fork():
            pytest.skip("fork start method unavailable")
        calls = []
        pipeline = ParallelValidationPipeline(
            workers=2, progress=lambda *call: calls.append(call)
        )
        values = [5, 3, 1, 8]
        assert pipeline.map_cells(_square, values) == [25, 9, 1, 64]
        assert calls == [("5", 1, 4), ("3", 2, 4), ("1", 3, 4), ("8", 4, 4)]

    def test_payload_shape_matches_serial_contract(self, strategy, small_dataset):
        # One callback implementation can consume both pipelines: every call
        # is (str label containing the identifiers, int done, int total).
        collected = []

        def callback(label, done, total):
            collected.append((label, done, total))

        ValidationPipeline(progress=callback).run(strategy, small_dataset)
        ParallelValidationPipeline(workers=1, progress=callback).map_cells(
            lambda cell: cell, [("dka", "factbench", "gemma2:9b")]
        )
        for label, done, total in collected:
            assert isinstance(label, str) and "dka" in label and "factbench" in label
            assert isinstance(done, int) and isinstance(total, int)
            assert 1 <= done <= total
