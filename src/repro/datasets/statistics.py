"""Dataset statistics: the numbers behind Table 2 and §4.1.

The paper characterises each evaluation dataset by the number of facts,
number of distinct predicates, average facts per entity, and gold accuracy
(mu), and characterises the RAG question set by similarity-score quantiles
and tiers.  These helpers compute the same descriptive statistics from the
generated datasets so the Table 2 benchmark can print the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from .base import FactDataset

__all__ = [
    "DatasetStatistics",
    "compute_statistics",
    "statistics_table",
    "SimilarityDistribution",
    "summarize_similarities",
]


@dataclass(frozen=True)
class DatasetStatistics:
    """One Table 2 row."""

    name: str
    num_facts: int
    num_predicates: int
    avg_facts_per_entity: float
    gold_accuracy: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "dataset": self.name,
            "num_facts": self.num_facts,
            "num_predicates": self.num_predicates,
            "avg_facts_per_entity": self.avg_facts_per_entity,
            "gold_accuracy": self.gold_accuracy,
        }


def compute_statistics(dataset: FactDataset) -> DatasetStatistics:
    """Compute the Table 2 row for one dataset."""
    summary = dataset.summary()
    return DatasetStatistics(
        name=dataset.name,
        num_facts=int(summary["num_facts"]),
        num_predicates=int(summary["num_predicates"]),
        avg_facts_per_entity=float(summary["avg_facts_per_entity"]),
        gold_accuracy=float(summary["gold_accuracy"]),
    )


def statistics_table(datasets: Sequence[FactDataset]) -> List[Dict[str, float]]:
    """Table 2 as a list of row dictionaries (one per dataset)."""
    return [compute_statistics(dataset).as_dict() for dataset in datasets]


@dataclass(frozen=True)
class SimilarityDistribution:
    """Question-to-statement similarity statistics (§4.1 of the paper).

    The paper reports mean, median, standard deviation, quartiles, IQR, and
    the share of questions in high (>= 0.70), medium ([0.40, 0.70)), and low
    (< 0.40) similarity tiers.
    """

    mean: float
    median: float
    std: float
    q1: float
    q3: float
    iqr: float
    high_share: float
    medium_share: float
    low_share: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "median": self.median,
            "std": self.std,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
            "high_share": self.high_share,
            "medium_share": self.medium_share,
            "low_share": self.low_share,
        }


#: Lower bounds (inclusive) of the paper's high and medium similarity tiers.
HIGH_SIMILARITY = 0.70
MEDIUM_SIMILARITY = 0.40


def summarize_similarities(scores: Sequence[float]) -> SimilarityDistribution:
    """Summarize question similarity scores with the paper's tiering."""
    if not scores:
        return SimilarityDistribution(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    array = np.asarray(list(scores), dtype=float)
    q1 = float(np.percentile(array, 25))
    q3 = float(np.percentile(array, 75))
    high = float(np.mean(array >= HIGH_SIMILARITY))
    low = float(np.mean(array < MEDIUM_SIMILARITY))
    medium = max(0.0, 1.0 - high - low)
    return SimilarityDistribution(
        mean=float(array.mean()),
        median=float(np.median(array)),
        std=float(array.std()),
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        high_share=high,
        medium_share=medium,
        low_share=low,
    )
