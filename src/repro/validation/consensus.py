"""Multi-model consensus (RQ3): majority voting with tie-break arbitration.

For each fact, every model in the ensemble produces a binary verdict; a
majority (>= 3 of 4) decides the final label, and a 2-2 split is a *tie*
resolved by a dedicated judge model.  The paper explores three judges: the
larger variant of the most consistent model (``agg-cons-up``), the larger
variant of the least consistent model (``agg-cons-down``), and a commercial
model (``agg-gpt-4o-mini``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..datasets.base import LabeledFact
from .base import ValidationResult, ValidationRun, Verdict

__all__ = [
    "ConsensusOutcome",
    "ConsensusRun",
    "consensus_alignment",
    "majority_vote",
    "MajorityVoteConsensus",
]

#: Votes one side needs out of the four models to decide outright.
MAJORITY = 3

#: A tie-breaking callable: given a fact id, return the judge's boolean verdict
#: (or ``None`` when the judge itself fails to produce one).
JudgeFn = Callable[[str], Optional[bool]]


@dataclass(frozen=True)
class ConsensusOutcome:
    """Consensus decision for one fact."""

    fact_id: str
    verdict: Verdict
    gold_label: bool
    votes: Dict[str, Optional[bool]]
    was_tie: bool
    arbitrated: bool

    @property
    def is_correct(self) -> Optional[bool]:
        predicted = self.verdict.as_bool()
        if predicted is None:
            return None
        return predicted == self.gold_label


@dataclass
class ConsensusRun:
    """All consensus outcomes for one (method, dataset, judge) combination."""

    method: str
    dataset: str
    judge: str
    outcomes: List[ConsensusOutcome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    def tie_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.was_tie) / len(self.outcomes)

    def predictions(self) -> Dict[str, Optional[bool]]:
        return {outcome.fact_id: outcome.verdict.as_bool() for outcome in self.outcomes}

    def gold(self) -> Dict[str, bool]:
        return {outcome.fact_id: outcome.gold_label for outcome in self.outcomes}

    def majority_labels(self) -> Dict[str, Optional[bool]]:
        """The pre-arbitration majority label per fact (None for ties)."""
        labels: Dict[str, Optional[bool]] = {}
        for outcome in self.outcomes:
            votes = [vote for vote in outcome.votes.values() if vote is not None]
            positives = sum(1 for vote in votes if vote)
            negatives = len(votes) - positives
            if positives > negatives:
                labels[outcome.fact_id] = True
            elif negatives > positives:
                labels[outcome.fact_id] = False
            else:
                labels[outcome.fact_id] = None
        return labels


def majority_vote(votes: Sequence[Optional[bool]]) -> Verdict:
    """The paper's voting rule for four models.

    >= ``MAJORITY`` true votes -> TRUE; an even split -> TIE; otherwise FALSE.
    Invalid votes (``None``) simply do not count toward either side, which
    makes the rule degrade gracefully when a model fails to answer.
    """
    valid = [vote for vote in votes if vote is not None]
    positives = sum(1 for vote in valid if vote)
    negatives = len(valid) - positives
    if positives >= MAJORITY:
        return Verdict.TRUE
    if negatives >= MAJORITY:
        return Verdict.FALSE
    if positives == negatives:
        return Verdict.TIE
    return Verdict.TRUE if positives > negatives else Verdict.FALSE


def consensus_alignment(
    run: ValidationRun, majority_labels: Mapping[str, Optional[bool]]
) -> float:
    """CA_M: share of facts where a model agrees with the majority vote."""
    if not run.results:
        return 0.0
    agreements = 0
    counted = 0
    predictions = run.predictions()
    for fact_id, majority_label in majority_labels.items():
        if majority_label is None:
            continue
        prediction = predictions.get(fact_id)
        counted += 1
        if prediction is not None and prediction == majority_label:
            agreements += 1
    return agreements / counted if counted else 0.0


class MajorityVoteConsensus:
    """Aggregates per-model validation runs into consensus decisions."""

    def aggregate(
        self,
        runs: Mapping[str, ValidationRun],
        judge_fn: Optional[JudgeFn] = None,
        judge_name: str = "none",
    ) -> ConsensusRun:
        """Combine the runs of the ensemble models.

        Parameters
        ----------
        runs:
            Mapping of model name to its :class:`ValidationRun` over the same
            dataset (facts present in some runs but not others are skipped).
        judge_fn:
            Tie-breaker; when omitted, ties stay as :data:`Verdict.TIE`.
        judge_name:
            Label of the judge, recorded in the consensus run.
        """
        if not runs:
            raise ValueError("At least one model run is required for consensus")
        model_names = sorted(runs)
        reference = runs[model_names[0]]
        method = reference.method
        dataset = reference.dataset
        predictions_by_model = {name: runs[name].predictions() for name in model_names}
        gold_by_fact = {}
        for name in model_names:
            gold_by_fact.update(runs[name].gold())
        common_fact_ids = set(predictions_by_model[model_names[0]])
        for name in model_names[1:]:
            common_fact_ids &= set(predictions_by_model[name])
        ordered_fact_ids = [
            result.fact_id for result in reference.results if result.fact_id in common_fact_ids
        ]

        consensus = ConsensusRun(method=method, dataset=dataset, judge=judge_name)
        for fact_id in ordered_fact_ids:
            votes = {name: predictions_by_model[name].get(fact_id) for name in model_names}
            verdict = majority_vote(list(votes.values()))
            was_tie = verdict is Verdict.TIE
            arbitrated = False
            if was_tie and judge_fn is not None:
                judged = judge_fn(fact_id)
                if judged is not None:
                    verdict = Verdict.from_bool(judged)
                    arbitrated = True
            consensus.outcomes.append(
                ConsensusOutcome(
                    fact_id=fact_id,
                    verdict=verdict,
                    gold_label=gold_by_fact[fact_id],
                    votes=votes,
                    was_tie=was_tie,
                    arbitrated=arbitrated,
                )
            )
        return consensus

    def alignment_scores(
        self, runs: Mapping[str, ValidationRun], consensus: ConsensusRun
    ) -> Dict[str, float]:
        """Per-model CA_M against the consensus majority labels (Table 6)."""
        majority_labels = consensus.majority_labels()
        return {
            name: consensus_alignment(run, majority_labels)
            for name, run in sorted(runs.items())
        }
