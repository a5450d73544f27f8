"""Shared interface for the internal KG-based fact-checking baselines.

The paper's related-work section contrasts external-evidence approaches
(like FactCheck itself) with internal KG-based checkers — KStream, KLinker,
PredPath, and unsupervised positive/negative evidential-path rules.  These
baselines score a candidate triple purely from the topology of a reference
KG, so the benchmark can compare LLM-based strategies against the classic
graph-based paradigm on the same datasets.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from ..datasets.base import FactDataset, LabeledFact
from ..kg.graph import KnowledgeGraph
from ..kg.triples import Triple
from ..validation.base import ValidationResult, ValidationRun, Verdict
from ..worldmodel.generator import World

__all__ = ["GraphFactChecker", "build_reference_graph"]


def build_reference_graph(world: World, exclude_fraction: float = 0.0, seed: int = 0) -> KnowledgeGraph:
    """Build the reference KG the baselines traverse.

    Nodes are entity *names* (matching the surface forms carried by the
    datasets) and predicates are the canonical world-schema names.  An
    optional fraction of facts can be withheld to emulate KG incompleteness,
    which is the key weakness of internal KG-based checking that the paper
    highlights.
    """
    import random

    rng = random.Random(seed)
    graph = KnowledgeGraph(name="reference")
    graph.add_all(
        Triple(world.name(fact.subject), fact.predicate, world.name(fact.object))
        for fact in world.facts.all_facts()
        if not (exclude_fraction > 0.0 and rng.random() < exclude_fraction)
    )
    return graph


#: Truth score at or above which a graph baseline says ``TRUE``.
THRESHOLD = 0.5


class GraphFactChecker(ABC):
    """A fact checker that scores triples from KG topology alone."""

    method_name: str = "graph-baseline"

    def __init__(self, graph: KnowledgeGraph) -> None:
        self.graph = graph

    @abstractmethod
    def score(self, subject: str, predicate: str, obj: str) -> float:
        """Truth score in ``[0, 1]`` for the candidate triple."""

    def validate(self, fact: LabeledFact) -> ValidationResult:
        """Adapter so graph baselines produce the same result records as LLM strategies."""
        start = time.perf_counter()
        truth_score = self.score(fact.subject_name, fact.base_predicate(), fact.object_name)
        elapsed = time.perf_counter() - start
        verdict = Verdict.from_bool(truth_score >= THRESHOLD)
        return ValidationResult(
            fact_id=fact.fact_id,
            verdict=verdict,
            gold_label=fact.label,
            model=self.method_name,
            method=self.method_name,
            latency_seconds=elapsed,
            prompt_tokens=0,
            completion_tokens=0,
            raw_response=f"score={truth_score:.4f}",
        )

    def validate_dataset(self, dataset: FactDataset) -> ValidationRun:
        run = ValidationRun(method=self.method_name, model=self.method_name, dataset=dataset.name)
        for fact in dataset:
            run.add(self.validate(fact))
        return run

    def model_name(self) -> str:
        return self.method_name
