"""Performance metrics: class-wise F1, confusion counts, random baseline.

The paper's primary metric is the class-wise F1 score, computed
independently for the "True" and "False" labels so that class imbalance
(e.g. YAGO's 99% positive rate) is visible rather than averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

__all__ = [
    "ConfusionCounts",
    "ClasswiseF1",
    "confusion_counts",
    "precision_recall_f1",
    "classwise_f1",
    "classwise_f1_from_run",
    "random_guess_f1",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix counts plus the number of unanswered items."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int
    unanswered: int = 0

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
            + self.unanswered
        )


@dataclass(frozen=True)
class ClasswiseF1:
    """Per-class precision/recall/F1 (the paper's F1(T) and F1(F))."""

    f1_true: float
    f1_false: float
    precision_true: float
    recall_true: float
    precision_false: float
    recall_false: float


def confusion_counts(
    predictions: Mapping[str, Optional[bool]], gold: Mapping[str, bool]
) -> ConfusionCounts:
    """Count TP/FP/TN/FN over the facts present in ``gold``.

    Predictions of ``None`` (invalid/tie outcomes) are counted as
    ``unanswered`` and excluded from the confusion matrix, matching how the
    paper marks repeatedly non-conformant responses invalid.
    """
    tp = fp = tn = fn = unanswered = 0
    for fact_id, label in gold.items():
        prediction = predictions.get(fact_id)
        if prediction is None:
            unanswered += 1
        elif prediction and label:
            tp += 1
        elif prediction and not label:
            fp += 1
        elif not prediction and not label:
            tn += 1
        else:
            fn += 1
    return ConfusionCounts(tp, fp, tn, fn, unanswered)


def precision_recall_f1(tp: int, fp: int, fn: int) -> Tuple[float, float, float]:
    """Standard precision/recall/F1 with zero-safe denominators."""
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return precision, recall, f1


def classwise_f1(
    predictions: Mapping[str, Optional[bool]], gold: Mapping[str, bool]
) -> ClasswiseF1:
    """F1 for the True class and, independently, for the False class."""
    counts = confusion_counts(predictions, gold)
    precision_t, recall_t, f1_t = precision_recall_f1(
        counts.true_positive, counts.false_positive, counts.false_negative
    )
    # For the False class the roles invert: a true negative is a "hit".
    precision_f, recall_f, f1_f = precision_recall_f1(
        counts.true_negative, counts.false_negative, counts.false_positive
    )
    return ClasswiseF1(
        f1_true=f1_t,
        f1_false=f1_f,
        precision_true=precision_t,
        recall_true=recall_t,
        precision_false=precision_f,
        recall_false=recall_f,
    )


def classwise_f1_from_run(run) -> ClasswiseF1:
    """Convenience wrapper for :class:`~repro.validation.base.ValidationRun`."""
    return classwise_f1(run.predictions(), run.gold())


def random_guess_f1(positive_rate: float) -> Tuple[float, float]:
    """Expected F1(T)/F1(F) of a guesser on a dataset with the given class balance.

    Used for the "Random Guessing" reference line in Figure 2.  For a
    fair-coin guesser on a dataset whose true-positive rate is
    ``positive_rate``:

    * precision(T) = positive_rate, recall(T) = 0.5
    * precision(F) = 1 - positive_rate, recall(F) = 0.5
    """
    p_t, p_f = positive_rate, 1.0 - positive_rate
    return 2 * p_t * 0.5 / (p_t + 0.5), 2 * p_f * 0.5 / (p_f + 0.5)
