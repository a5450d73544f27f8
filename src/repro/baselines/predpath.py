"""PredPath: discriminative predicate-path mining for fact checking.

PredPath (Shi & Weninger, 2016) learns, for a target predicate, which
*predicate paths* (sequences of edge labels with directions) between a
subject and an object are discriminative of the relation holding.  Training
uses labelled positive and negative examples; each mined path signature gets
a weight reflecting how much more often it appears for positives than for
negatives, and a candidate triple is scored by the weighted sum of the
signatures present between its endpoints.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

from ..datasets.base import LabeledFact
from ..kg.graph import KnowledgeGraph
from ..kg.triples import Triple
from .base import GraphFactChecker

__all__ = ["PredPath"]

PathSignature = Tuple[Tuple[str, int], ...]

#: Longest predicate path, in hops, mined between two endpoints.
MAX_PATH_LENGTH = 3
#: Paths mined per endpoint pair.
MAX_PATHS_PER_PAIR = 120
#: Additive (Laplace) smoothing of the per-signature rates.
SMOOTHING = 1.0


class PredPath(GraphFactChecker):
    """Supervised predicate-path classifier."""

    method_name = "predpath"

    def __init__(self, graph: KnowledgeGraph) -> None:
        super().__init__(graph)
        # Per-predicate signature weights plus a per-predicate bias.
        self._weights: Dict[str, Dict[PathSignature, float]] = defaultdict(dict)
        self._bias: Dict[str, float] = {}

    # -- training ---------------------------------------------------------------

    def fit(self, examples: Sequence[LabeledFact]) -> "PredPath":
        """Mine and weight predicate paths from labelled examples.

        Examples are grouped by predicate; predicates with no positive or no
        negative examples fall back to a prior-only bias.
        """
        grouped: Dict[str, List[LabeledFact]] = defaultdict(list)
        for example in examples:
            grouped[example.base_predicate()].append(example)
        for predicate, items in grouped.items():
            self._fit_predicate(predicate, items)
        return self

    def _fit_predicate(self, predicate: str, examples: Sequence[LabeledFact]) -> None:
        positive_counts: Counter = Counter()
        negative_counts: Counter = Counter()
        num_positive = 0
        num_negative = 0
        for example in examples:
            signatures = self._signatures(
                example.subject_name, predicate, example.object_name
            )
            if example.label:
                num_positive += 1
                positive_counts.update(set(signatures))
            else:
                num_negative += 1
                negative_counts.update(set(signatures))
        weights: Dict[PathSignature, float] = {}
        all_signatures = set(positive_counts) | set(negative_counts)
        for signature in all_signatures:
            positive_rate = (positive_counts[signature] + SMOOTHING) / (
                num_positive + 2 * SMOOTHING
            )
            negative_rate = (negative_counts[signature] + SMOOTHING) / (
                num_negative + 2 * SMOOTHING
            )
            weights[signature] = math.log(positive_rate / negative_rate)
        self._weights[predicate] = weights
        total = num_positive + num_negative
        prior = (num_positive + SMOOTHING) / (total + 2 * SMOOTHING) if total else 0.5
        self._bias[predicate] = math.log(prior / (1.0 - prior))

    # -- scoring ---------------------------------------------------------------------

    def score(self, subject: str, predicate: str, obj: str) -> float:
        weights = self._weights.get(predicate, {})
        bias = self._bias.get(predicate, 0.0)
        signatures = set(self._signatures(subject, predicate, obj))
        logit = bias + sum(weights.get(signature, 0.0) for signature in signatures)
        return 1.0 / (1.0 + math.exp(-logit))

    def _signatures(self, subject: str, predicate: str, obj: str) -> List[PathSignature]:
        """Predicate-path signatures between the two endpoints (direct edge excluded)."""
        paths = self.graph.find_paths(
            subject,
            obj,
            max_length=MAX_PATH_LENGTH,
            exclude=Triple(subject, predicate, obj),
            max_paths=MAX_PATHS_PER_PAIR,
        )
        return [KnowledgeGraph.path_signature(path) for path in paths]
