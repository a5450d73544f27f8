"""Statistical comparison of validation runs: bootstrap CIs and McNemar's test.

The paper reports point estimates; a production benchmark should also say
how stable those estimates are and whether two configurations differ beyond
sampling noise.  This module adds:

* bootstrap confidence intervals for the class-wise F1 scores of a run, and
* McNemar's test on the paired correct/incorrect outcomes of two runs over
  the same facts (the appropriate paired test for comparing classifiers on a
  shared evaluation set).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..validation.base import ValidationRun
from .metrics import classwise_f1

__all__ = ["BootstrapInterval", "bootstrap_f1_interval", "McNemarResult", "mcnemar_test"]


@dataclass(frozen=True)
class BootstrapInterval:
    """A metric estimate with its bootstrap confidence interval."""

    point: float
    lower: float
    upper: float
    confidence: float


def bootstrap_f1_interval(
    run: ValidationRun,
    metric: str = "f1_true",
    num_samples: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Bootstrap CI for one class-wise F1 metric of a validation run.

    Facts are resampled with replacement; the metric is recomputed on each
    resample and the interval is taken from the empirical quantiles.
    """
    if metric not in ("f1_true", "f1_false"):
        raise ValueError("metric must be 'f1_true' or 'f1_false'")
    predictions = run.predictions()
    gold = run.gold()
    fact_ids = list(gold)
    if not fact_ids:
        return BootstrapInterval(0.0, 0.0, 0.0, confidence)
    point = getattr(classwise_f1(predictions, gold), metric)
    rng = random.Random(seed)
    samples = []
    for __ in range(num_samples):
        resampled = [fact_ids[rng.randrange(len(fact_ids))] for __ in fact_ids]
        resampled_gold = {f"{fact_id}#{i}": gold[fact_id] for i, fact_id in enumerate(resampled)}
        resampled_predictions = {
            f"{fact_id}#{i}": predictions.get(fact_id) for i, fact_id in enumerate(resampled)
        }
        samples.append(getattr(classwise_f1(resampled_predictions, resampled_gold), metric))
    alpha = (1.0 - confidence) / 2.0
    lower = float(np.quantile(samples, alpha))
    upper = float(np.quantile(samples, 1.0 - alpha))
    return BootstrapInterval(point=point, lower=lower, upper=upper, confidence=confidence)


@dataclass(frozen=True)
class McNemarResult:
    """Result of McNemar's paired test between two runs.

    ``b`` counts facts the first run got right and the second wrong;
    ``c`` the converse.  Small p-values indicate the two configurations
    disagree more asymmetrically than chance would explain.
    """

    b: int
    c: int
    statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def _correctness(run: ValidationRun) -> Dict[str, Optional[bool]]:
    return {result.fact_id: result.is_correct for result in run.results}


def mcnemar_test(run_a: ValidationRun, run_b: ValidationRun) -> McNemarResult:
    """McNemar's test on the shared facts of two runs.

    Uses the exact binomial form when the number of discordant pairs is
    small (< 25) and the chi-square approximation with continuity correction
    otherwise.  Facts where either run produced no verdict are excluded.
    """
    correctness_a = _correctness(run_a)
    correctness_b = _correctness(run_b)
    shared = set(correctness_a) & set(correctness_b)
    b = sum(
        1
        for fact_id in shared
        if correctness_a[fact_id] is True and correctness_b[fact_id] is False
    )
    c = sum(
        1
        for fact_id in shared
        if correctness_a[fact_id] is False and correctness_b[fact_id] is True
    )
    n = b + c
    if n == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, p_value=1.0)
    # Imported here: scipy.stats takes about a second to load and nothing else
    # in the package needs it.
    from scipy import stats

    if n < 25:
        p_value = float(stats.binomtest(min(b, c), n=n, p=0.5).pvalue)
        statistic = float(min(b, c))
    else:
        statistic = (abs(b - c) - 1) ** 2 / n
        p_value = float(stats.chi2.sf(statistic, df=1))
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=min(1.0, p_value))
