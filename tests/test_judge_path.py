"""Judge-path parity: the per-fact memos change nothing a verdict carries.

``Verbalizer.statement``, ``SimulatedLLM._ground_truth`` and
``SimulatedLLM._knows_fact`` memoise pure per-fact derivations.  Every
method x model over the quick datasets must give field-by-field equal
``ValidationResult``s and equal telemetry records on a cold stack, on the
same stack warmed, and on a cold stack whose memos hold one entry each (so
almost every lookup recomputes) — and no memo ever outgrows its constant.
A memo keyed on fewer fields than its derivation reads (a ground truth
keyed without the object, a knowledge slot without the popularity) hands
one fact's answer to another and fails here.
"""

import pytest

from repro.benchmark import BenchmarkRunner
from repro.kg import verbalization
from repro.llm import simulated
from repro.retrieval import LRUCache
from repro.validation.rag import UPSTREAM_MODEL

METHODS = ("dka", "giv-z", "giv-f", "rag")
# The serving benchmark's models (``benchmarks/e2e`` ``spec.MODELS``).
MODELS = ("gemma2:9b", "qwen2.5:7b")


def memos(runner):
    """Every memo the judge path fills, with the constant that bounds it:
    the strategies' verbalizer, the upstream model's (``rag``'s transform)
    and each judging model's two."""
    statements = verbalization.STATEMENT_MEMO_CAPACITY
    found = [
        (runner.verbalizer._statements, statements),
        (runner.registry.get(UPSTREAM_MODEL).verbalizer._statements, statements),
    ]
    for name in MODELS:
        model = runner.registry.get(name)
        found.append((model._truths, simulated.FACT_MEMO_CAPACITY))
        found.append((model._knows, simulated.FACT_MEMO_CAPACITY))
    return found


def judge_everything(runner):
    """One pass: every fact of every quick dataset through every method x
    model; the results and the telemetry records the pass left.  Each
    ``rag`` strategy gets an empty evidence cache, so phases 1–2 (the
    upstream model's transform through its verbalizer) run on every pass."""
    bounded = memos(runner)
    before = len(runner.telemetry)
    results = []
    for dataset in runner.config.datasets:
        facts = runner.dataset(dataset).facts()
        for method in METHODS:
            for name in MODELS:
                strategy = runner.build_strategy(method, dataset, runner.registry.get(name))
                if method == "rag":
                    strategy.evidence_cache = LRUCache(len(facts))
                for fact in facts:
                    results.append(strategy.validate(fact))
                    assert all(len(memo) <= capacity for memo, capacity in bounded)
    return results, runner.telemetry.records()[before:]


@pytest.fixture(scope="module")
def cold_and_warm(quick_config):
    runner = BenchmarkRunner(quick_config)
    cold = judge_everything(runner)
    warm = judge_everything(runner)
    return runner, cold, warm


class TestJudgePathParity:
    def test_a_warmed_stack_judges_exactly_as_a_cold_one(self, cold_and_warm):
        runner, (cold_results, cold_records), (warm_results, warm_records) = cold_and_warm
        assert cold_results and warm_results == cold_results
        assert warm_records == cold_records
        # The warm pass was served from the memos, not from empty ones.
        assert all(memo for memo, _ in memos(runner))

    def test_one_entry_memos_judge_exactly_as_full_ones(self, cold_and_warm, quick_config, monkeypatch):
        _, (cold_results, cold_records), _ = cold_and_warm
        monkeypatch.setattr(verbalization, "STATEMENT_MEMO_CAPACITY", 1)
        monkeypatch.setattr(simulated, "FACT_MEMO_CAPACITY", 1)
        runner = BenchmarkRunner(quick_config)
        results, records = judge_everything(runner)
        assert results == cold_results
        assert records == cold_records
        assert all(len(memo) == 1 for memo, _ in memos(runner))
