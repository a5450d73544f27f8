"""Core types for the fact-validation strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..datasets.base import LabeledFact

__all__ = ["Verdict", "ValidationResult", "ValidationRun", "ValidationStrategy"]


class Verdict(str, Enum):
    """Outcome of validating a single fact."""

    TRUE = "true"
    FALSE = "false"
    INVALID = "invalid"  # repeated non-conformant model output
    TIE = "tie"          # consensus could not reach a majority

    @staticmethod
    def from_bool(value: bool) -> "Verdict":
        return Verdict.TRUE if value else Verdict.FALSE

    def as_bool(self) -> Optional[bool]:
        """Boolean view; ``None`` for INVALID/TIE."""
        if self is Verdict.TRUE:
            return True
        if self is Verdict.FALSE:
            return False
        return None


@dataclass(frozen=True)
class ValidationResult:
    """The outcome of one strategy on one fact, with resource accounting."""

    fact_id: str
    verdict: Verdict
    gold_label: bool
    model: str
    method: str
    latency_seconds: float
    prompt_tokens: int
    completion_tokens: int
    raw_response: str = ""
    num_evidence_chunks: int = 0
    num_retries: int = 0
    evidence_mentions_subject: bool = False

    @property
    def is_correct(self) -> Optional[bool]:
        """True/False when a verdict was produced, ``None`` for invalid/tie."""
        predicted = self.verdict.as_bool()
        if predicted is None:
            return None
        return predicted == self.gold_label

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class ValidationRun:
    """All results of one (method, model, dataset) combination."""

    method: str
    model: str
    dataset: str
    results: List[ValidationResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def add(self, result: ValidationResult) -> None:
        self.results.append(result)

    def verdicts(self) -> Dict[str, Verdict]:
        return {result.fact_id: result.verdict for result in self.results}

    def predictions(self) -> Dict[str, Optional[bool]]:
        return {result.fact_id: result.verdict.as_bool() for result in self.results}

    def gold(self) -> Dict[str, bool]:
        return {result.fact_id: result.gold_label for result in self.results}

    def latencies(self) -> List[float]:
        return [result.latency_seconds for result in self.results]

    def correct_fact_ids(self) -> List[str]:
        """Facts this run judged correctly (used for the UpSet analysis)."""
        return [result.fact_id for result in self.results if result.is_correct]


class ValidationStrategy(ABC):
    """A method for judging whether a KG fact is true.

    Concrete strategies: :class:`~repro.validation.dka.DirectKnowledgeAssessment`,
    :class:`~repro.validation.giv.GuidedIterativeVerification` (zero/few shot),
    and :class:`~repro.validation.rag.RAGValidator`.
    """

    #: Short method identifier used in result tables, e.g. ``"dka"``.
    method_name: str = "abstract"

    @abstractmethod
    def validate(self, fact: LabeledFact) -> ValidationResult:
        """Judge one fact."""

    def model_name(self) -> str:
        """Name of the underlying model (used in reports)."""
        model = getattr(self, "model", None)
        return getattr(model, "name", "unknown")
