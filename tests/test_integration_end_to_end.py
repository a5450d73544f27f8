"""End-to-end integration tests: from world generation to consensus verdicts."""

import os
import subprocess
import sys

import pytest

import repro
from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.evaluation import classwise_f1_from_run
from repro.validation import Verdict


@pytest.fixture(scope="module")
def tiny_runner():
    """A fully independent, very small runner (exercises the whole stack fresh)."""
    config = ExperimentConfig(
        scale=0.01,
        max_facts_per_dataset=14,
        world_scale=0.12,
        documents_per_fact=7,
        serp_results_per_query=10,
        datasets=("factbench", "yago"),
        seed=23,
    )
    return BenchmarkRunner(config)


class TestEndToEnd:
    def test_every_method_produces_full_runs(self, tiny_runner):
        for method in tiny_runner.config.methods:
            run = tiny_runner.run(method, "factbench", "gemma2:9b")
            assert len(run) == len(tiny_runner.dataset("factbench"))
            answered = [r for r in run.results if r.verdict in (Verdict.TRUE, Verdict.FALSE)]
            assert len(answered) >= len(run.results) * 0.7

    def test_rag_uses_evidence_for_most_facts(self, tiny_runner):
        run = tiny_runner.run("rag", "factbench", "gemma2:9b")
        with_evidence = [r for r in run.results if r.num_evidence_chunks > 0]
        assert len(with_evidence) >= len(run.results) * 0.6

    def test_consensus_pipeline_end_to_end(self, tiny_runner):
        consensus = tiny_runner.consensus("dka", "factbench", judge="commercial")
        assert len(consensus) == len(tiny_runner.dataset("factbench"))
        predictions = consensus.predictions()
        assert any(value is not None for value in predictions.values())

    def test_results_are_reproducible_across_runners(self):
        config = ExperimentConfig(
            scale=0.01,
            max_facts_per_dataset=10,
            world_scale=0.12,
            documents_per_fact=6,
            serp_results_per_query=8,
            datasets=("factbench",),
            seed=31,
        )
        run_a = BenchmarkRunner(config).run("dka", "factbench", "mistral:7b")
        run_b = BenchmarkRunner(config).run("dka", "factbench", "mistral:7b")
        assert run_a.verdicts() == run_b.verdicts()
        assert run_a.latencies() == run_b.latencies()

    def test_f1_better_than_random_on_factbench(self, tiny_runner):
        run = tiny_runner.run("rag", "factbench", "gemma2:9b")
        scores = classwise_f1_from_run(run)
        assert scores.f1_true > 0.5

    def test_telemetry_accumulates_across_methods(self, tiny_runner):
        tiny_runner.run("dka", "factbench", "gemma2:9b")
        tiny_runner.run("rag", "factbench", "gemma2:9b")
        tasks = {record.task for record in tiny_runner.telemetry.records()}
        assert "dka" in tasks
        assert "rag" in tasks
        assert "transform" in tasks or "question-generation" in tasks


_LAZY_IMPORT_PROBE = """
import sys
import repro
heavy = ("scipy.stats", "networkx")
assert not [name for name in heavy if name in sys.modules], sorted(sys.modules)

from repro.baselines import KnowledgeStream
from repro.evaluation import mcnemar_test
from repro.kg import KnowledgeGraph, Triple
from repro.validation import ValidationResult, ValidationRun, Verdict

def run(model, flags):
    out = ValidationRun(method="dka", model=model, dataset="synthetic")
    for index, flag in enumerate(flags):
        out.add(ValidationResult(fact_id=f"f{index}", verdict=Verdict.from_bool(flag),
                                 gold_label=True, model=model, method="dka",
                                 latency_seconds=0.1, prompt_tokens=5, completion_tokens=5))
    return out

small = mcnemar_test(run("a", [True] * 10), run("b", [False] * 8 + [True] * 2))
assert (small.b, small.c) == (8, 0) and small.p_value == 0.0078125, small
large = mcnemar_test(run("a", [True] * 40), run("b", [False] * 30 + [True] * 10))
assert large.b == 30 and large.significant, large

graph = KnowledgeGraph()
for subject, obj in (("a", "b"), ("b", "c"), ("a", "c")):
    graph.add(Triple(subject, "knows", obj))
assert KnowledgeStream(graph).score("a", "knows", "c") > 0.0  # flow routes through b
assert all(name in sys.modules for name in heavy)
"""


def test_import_repro_defers_scipy_stats_and_networkx():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
