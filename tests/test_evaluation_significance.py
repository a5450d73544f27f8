"""Tests for bootstrap confidence intervals and McNemar's paired test."""

import pytest

from repro.evaluation import bootstrap_f1_interval, mcnemar_test
from repro.validation import ValidationResult, ValidationRun, Verdict


def _run(model, verdict_flags, gold_flags, method="dka"):
    run = ValidationRun(method=method, model=model, dataset="synthetic")
    for index, (verdict, gold) in enumerate(zip(verdict_flags, gold_flags)):
        run.add(
            ValidationResult(
                fact_id=f"f{index}",
                verdict=Verdict.from_bool(verdict) if verdict is not None else Verdict.INVALID,
                gold_label=gold,
                model=model,
                method=method,
                latency_seconds=0.1,
                prompt_tokens=5,
                completion_tokens=5,
            )
        )
    return run


class TestBootstrap:
    def test_interval_contains_point_estimate(self):
        gold = [True, True, False, True, False, True, False, True] * 4
        predictions = [True, False, False, True, True, True, False, True] * 4
        run = _run("m", predictions, gold)
        interval = bootstrap_f1_interval(run, metric="f1_true", num_samples=200, seed=1)
        assert interval.lower <= interval.point <= interval.upper
        assert 0.0 <= interval.lower <= interval.upper <= 1.0

    def test_perfect_run_has_degenerate_interval(self):
        gold = [True, False] * 10
        run = _run("m", gold, gold)
        interval = bootstrap_f1_interval(run, metric="f1_true", num_samples=100)
        assert interval.point == 1.0
        assert interval.lower == pytest.approx(1.0)

    def test_interval_deterministic_given_seed(self):
        gold = [True, False, True, True, False] * 4
        predictions = [True, True, True, False, False] * 4
        run = _run("m", predictions, gold)
        first = bootstrap_f1_interval(run, num_samples=100, seed=5)
        second = bootstrap_f1_interval(run, num_samples=100, seed=5)
        assert first == second

    def test_empty_run(self):
        interval = bootstrap_f1_interval(_run("m", [], []))
        assert interval.point == 0.0
        assert interval.upper - interval.lower == 0.0

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            bootstrap_f1_interval(_run("m", [True], [True]), metric="accuracy")


class TestMcNemar:
    def test_identical_runs_not_significant(self):
        gold = [True, False] * 20
        predictions = [True, True] * 20
        run_a = _run("a", predictions, gold)
        run_b = _run("b", predictions, gold)
        result = mcnemar_test(run_a, run_b)
        assert result.b == 0 and result.c == 0
        assert result.p_value == 1.0
        assert not result.significant

    def test_one_sided_improvement_detected(self):
        gold = [True] * 40
        run_a = _run("a", [True] * 40, gold)           # always right
        run_b = _run("b", [False] * 30 + [True] * 10, gold)  # mostly wrong
        result = mcnemar_test(run_a, run_b)
        assert result.b == 30 and result.c == 0
        assert result.significant

    def test_symmetric_disagreement_not_significant(self):
        gold = [True] * 20
        run_a = _run("a", [True] * 10 + [False] * 10, gold)
        run_b = _run("b", [False] * 10 + [True] * 10, gold)
        result = mcnemar_test(run_a, run_b)
        assert result.b == result.c == 10
        assert not result.significant

    def test_p_value_in_unit_interval(self):
        gold = [True, False, True, False, True]
        run_a = _run("a", [True, False, False, False, True], gold)
        run_b = _run("b", [False, False, True, True, True], gold)
        result = mcnemar_test(run_a, run_b)
        assert 0.0 <= result.p_value <= 1.0
