"""The paper's numbers, pinned.

``BENCH_paper.json`` is :func:`repro.benchmark.paper_document` at the tier-1
``runner`` fixture's scale: every table's and figure's data plus one digest
per grid cell.  It is compared exactly, so a change that moves a third
decimal of Table 5 — or one verdict of one cell — fails here with the JSON
paths that moved.  Re-pinning is deliberate: copy the candidate this test
leaves in ``benchmarks/out/`` over the pin and list the moved cells, and
why, in the PR body (``docs/benchmarks.md``, "Re-pinning").
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.benchmark import BenchmarkRunner, ExperimentConfig, paper_document
from repro.validation.base import ValidationStrategy, Verdict

REPO_ROOT = Path(__file__).resolve().parent.parent
PIN = REPO_ROOT / "BENCH_paper.json"
CANDIDATE = REPO_ROOT / "benchmarks" / "out" / "BENCH_paper.json"


def _diff(old, new, path=""):
    """Every leaf that differs, as ``(json path, old, new)``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _diff(old.get(key), new.get(key), f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (left, right) in enumerate(zip(old, new)):
            yield from _diff(left, right, f"{path}/{index}")
    elif old != new:
        yield path, old, new


def test_paper_document_equals_the_pin(runner):
    text = json.dumps(paper_document(runner), indent=1, sort_keys=True) + "\n"
    pinned = PIN.read_text(encoding="utf-8")
    # Nothing read from a clock may be pinned (the graph baselines' time is).
    assert "measured_" not in pinned
    if text != pinned:
        CANDIDATE.parent.mkdir(parents=True, exist_ok=True)
        CANDIDATE.write_text(text, encoding="utf-8")
        moved = [
            f"  {path}: {old!r} -> {new!r}"
            for path, old, new in _diff(json.loads(pinned), json.loads(text))
        ]
        raise AssertionError(
            f"the paper's numbers moved ({len(moved)} cells; candidate written to "
            f"{CANDIDATE.relative_to(REPO_ROOT)}):\n" + "\n".join(moved or ["  (formatting only)"])
        )


CELL = ("giv-z", "factbench", "mistral:7b")


class _OneVerdictFlipped(ValidationStrategy):
    """``inner`` with the opposite verdict on one fact, everything else kept."""

    def __init__(self, inner: ValidationStrategy, fact_id: str) -> None:
        self.inner, self.fact_id = inner, fact_id
        self.method_name, self.model = inner.method_name, inner.model

    def validate(self, fact):
        result = self.inner.validate(fact)
        if fact.fact_id != self.fact_id:
            return result
        return replace(result, verdict=Verdict.from_bool(result.verdict is not Verdict.TRUE))


class _FlippedRunner(BenchmarkRunner):
    def build_strategy(self, method, dataset_name, model):
        strategy = super().build_strategy(method, dataset_name, model)
        if (method, dataset_name, model.name) != CELL:
            return strategy
        return _OneVerdictFlipped(strategy, self.dataset(dataset_name).facts()[0].fact_id)


def test_one_flipped_verdict_moves_exactly_its_cell():
    # The pin bites: one verdict of one cell, flipped by a wrapped strategy,
    # is reported as that cell's digest, that cell's Table 5 entry, and the
    # consensus tables and figures computed from it — and nothing else.
    # (Two documents at a scale smaller than the pin's, to keep this cheap.)
    method, dataset, model = CELL
    config = ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=12,
        world_scale=0.15,
        documents_per_fact=8,
        serp_results_per_query=15,
        datasets=(dataset,),
        seed=11,
    )
    original = paper_document(BenchmarkRunner(config))
    flipped = paper_document(_FlippedRunner(config))
    moved = [path for path, __, __ in _diff(original, flipped)]
    assert [path for path in moved if path.startswith("/grid/")] == [
        f"/grid/{dataset}/{method}/{model}"
    ]
    table5 = f"/experiments/table5/{dataset}/{method}/{model}/"
    assert {path for path in moved if "/table5/" in path} == {table5 + "f1_true", table5 + "f1_false"}
    by_experiment = {path.split("/")[2] for path in moved if path.startswith("/experiments/")}
    assert {"table5", "figure2", "figure3"} <= by_experiment
    assert by_experiment <= {"table5", "table6", "table7", "figure2", "figure3", "figure4"}
