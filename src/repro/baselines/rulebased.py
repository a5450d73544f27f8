"""Unsupervised counter-weighted evidential-path checker (Kim & Choi, 2020).

The unsupervised rule-based approach the paper cites scores a statement by
combining *positive* evidential paths (paths that co-occur with true
instances of the predicate) and *negative* evidential paths (paths that
co-occur with corrupted instances), without requiring labelled data: the
training examples are generated automatically from the KG itself — existing
triples of the target predicate serve as positives, and corrupting their
objects within the predicate's observed range yields negatives.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence

from ..datasets.base import LabeledFact
from ..kg.graph import KnowledgeGraph
from ..kg.triples import Triple
from .base import GraphFactChecker
from .predpath import PredPath

__all__ = ["EvidentialPathChecker"]

#: KG triples of a predicate sampled as positive training examples.
EXAMPLES_PER_PREDICATE = 40
#: Mixed into each predicate's sampling seed.
SEED = 0


class EvidentialPathChecker(GraphFactChecker):
    """Unsupervised positive/negative evidential-path scorer.

    Internally reuses the PredPath mining machinery, but builds its own
    training examples from the reference KG instead of requiring labels.
    """

    method_name = "evidential-paths"

    def __init__(self, graph: KnowledgeGraph) -> None:
        super().__init__(graph)
        self._scorer = PredPath(graph)
        self._prepared: set = set()

    # -- unsupervised example generation ------------------------------------------

    def prepare_predicate(self, predicate: str) -> None:
        """Self-train the path weights for one predicate (idempotent)."""
        if predicate in self._prepared:
            return
        examples = self._generate_examples(predicate)
        if examples:
            self._scorer.fit(examples)
        self._prepared.add(predicate)

    def _generate_examples(self, predicate: str) -> List[LabeledFact]:
        triples = self.graph.triples_with_predicate(predicate)
        if len(triples) < 2:
            return []
        seed_payload = f"{SEED}|{predicate}".encode("utf-8")
        rng = random.Random(
            int.from_bytes(hashlib.blake2b(seed_payload, digest_size=8).digest(), "big")
        )
        rng.shuffle(triples)
        selected = triples[: EXAMPLES_PER_PREDICATE]
        objects = sorted({triple.object for triple in triples})
        examples: List[LabeledFact] = []
        for index, triple in enumerate(selected):
            examples.append(self._example(predicate, index * 2, triple, label=True))
            corrupted_object = self._corrupt_object(triple, objects, rng)
            if corrupted_object is not None:
                corrupted = triple.replace(object=corrupted_object)
                examples.append(self._example(predicate, index * 2 + 1, corrupted, label=False))
        return examples

    def _corrupt_object(
        self, triple: Triple, objects: Sequence[str], rng: random.Random
    ) -> str | None:
        """Replace the object with another observed object of the same predicate."""
        candidates = [obj for obj in objects if obj != triple.object]
        for __ in range(10):
            if not candidates:
                return None
            candidate = rng.choice(candidates)
            if not self.graph.contains(triple.subject, triple.predicate, candidate):
                return candidate
        return None

    @staticmethod
    def _example(predicate: str, index: int, triple: Triple, label: bool) -> LabeledFact:
        return LabeledFact(
            fact_id=f"auto-{predicate}-{index:05d}",
            triple=triple,
            label=label,
            dataset="auto-generated",
            subject_name=triple.subject,
            object_name=triple.object,
            predicate_name=predicate,
            canonical_predicate=predicate,
        )

    # -- scoring ------------------------------------------------------------------------

    def score(self, subject: str, predicate: str, obj: str) -> float:
        self.prepare_predicate(predicate)
        return self._scorer.score(subject, predicate, obj)
