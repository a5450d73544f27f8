"""Labeled fact datasets: the unit of evaluation in FactCheck."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..kg.triples import Triple

__all__ = ["LabeledFact", "FactDataset"]


@dataclass(frozen=True)
class LabeledFact:
    """A single benchmark item: an encoded triple plus its gold label.

    Attributes
    ----------
    fact_id:
        Stable identifier within its dataset, e.g. ``"factbench-000123"``.
    triple:
        The statement in its source KG encoding.
    label:
        Gold label: ``True`` when the statement is supported by the KG
        snapshot (and, in this reproduction, by the world-model ground
        truth), ``False`` otherwise.
    dataset:
        Name of the owning dataset (``factbench`` / ``yago`` / ``dbpedia``).
    subject_name / object_name:
        Decoded surface forms, carried along so that downstream components
        (verbalization, retrieval, error analysis) do not need to re-resolve
        the encodings.
    predicate_name:
        Bare camelCase predicate.
    category:
        Coarse semantic category of the predicate (used by error analysis).
    popularity:
        Popularity of the fact's entities in ``(0, 1]``.
    topic:
        Topic/domain partition (used by the DBpedia stratified analysis).
    negative_strategy:
        For synthesized negatives, the corruption strategy that produced the
        item; ``None`` for true facts.
    """

    fact_id: str
    triple: Triple
    label: bool
    dataset: str
    subject_name: str
    object_name: str
    predicate_name: str
    category: str = "role"
    popularity: float = 0.5
    topic: str = "general"
    negative_strategy: Optional[str] = None
    canonical_predicate: str = ""

    def base_predicate(self) -> str:
        """The world-schema predicate this fact's (possibly aliased) predicate maps to."""
        return self.canonical_predicate or self.predicate_name


class FactDataset:
    """An ordered collection of :class:`LabeledFact` with summary statistics."""

    def __init__(self, name: str, facts: Sequence[LabeledFact]) -> None:
        self.name = name
        self._facts: List[LabeledFact] = list(facts)
        self._by_id: Dict[str, LabeledFact] = {fact.fact_id: fact for fact in self._facts}
        if len(self._by_id) != len(self._facts):
            raise ValueError(f"Dataset {name!r} contains duplicate fact ids")

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[LabeledFact]:
        return iter(self._facts)

    def __getitem__(self, index: int) -> LabeledFact:
        return self._facts[index]

    def get(self, fact_id: str) -> Optional[LabeledFact]:
        return self._by_id.get(fact_id)

    def facts(self) -> List[LabeledFact]:
        return list(self._facts)

    # -- statistics (Table 2) --------------------------------------------------

    def num_facts(self) -> int:
        return len(self._facts)

    def num_predicates(self) -> int:
        return len({fact.predicate_name for fact in self._facts})

    def gold_accuracy(self) -> float:
        """Proportion of facts whose gold label is True (the paper's mu)."""
        if not self._facts:
            return 0.0
        return sum(1 for fact in self._facts if fact.label) / len(self._facts)

    def avg_facts_per_entity(self) -> float:
        """Average number of dataset facts each subject entity appears in."""
        counts = Counter(fact.subject_name for fact in self._facts)
        if not counts:
            return 0.0
        return len(self._facts) / len(counts)

    def label_counts(self) -> Dict[bool, int]:
        counts = Counter(fact.label for fact in self._facts)
        return {True: counts.get(True, 0), False: counts.get(False, 0)}

    # -- selection --------------------------------------------------------------

    def sample(self, count: int, seed: int = 0) -> "FactDataset":
        """Deterministic stratified subsample preserving the label balance.

        Benchmarks use this to scale the paper-sized datasets down to a
        CI-friendly size without distorting the gold accuracy, which is the
        property the findings depend on.
        """
        import random

        if count >= len(self._facts):
            return FactDataset(self.name, self._facts)
        rng = random.Random(seed)
        positives = [fact for fact in self._facts if fact.label]
        negatives = [fact for fact in self._facts if not fact.label]
        pos_share = len(positives) / len(self._facts)
        pos_count = min(len(positives), max(0, round(count * pos_share)))
        neg_count = min(len(negatives), count - pos_count)
        pos_count = min(len(positives), count - neg_count)
        chosen = rng.sample(positives, pos_count) + rng.sample(negatives, neg_count)
        rng.shuffle(chosen)
        return FactDataset(self.name, chosen)

    def split(self, train_fraction: float = 0.7, seed: int = 0) -> Tuple["FactDataset", "FactDataset"]:
        """Deterministic train/test split (used by the supervised baselines)."""
        import random

        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = random.Random(seed)
        shuffled = list(self._facts)
        rng.shuffle(shuffled)
        cut = int(round(len(shuffled) * train_fraction))
        return (
            FactDataset(f"{self.name}-train", shuffled[:cut]),
            FactDataset(f"{self.name}-test", shuffled[cut:]),
        )

    def summary(self) -> Dict[str, float]:
        """The Table 2 row for this dataset."""
        return {
            "num_facts": self.num_facts(),
            "num_predicates": self.num_predicates(),
            "avg_facts_per_entity": round(self.avg_facts_per_entity(), 2),
            "gold_accuracy": round(self.gold_accuracy(), 2),
        }
