"""Core types for the fact-validation strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, FrozenSet, List, Mapping, Optional

from ..datasets.base import LabeledFact
from .prompts import parse_verdict, reprompt_suffix

__all__ = ["STORE_FREE_METHODS", "Verdict", "ValidationResult", "ValidationRun", "ValidationStrategy"]


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

    def request_verdict(
        self,
        fact: LabeledFact,
        prompt: str,
        metadata: Mapping[str, Any],
        retries: int = 0,
        spent_seconds: float = 0.0,
        **result_fields: Any,
    ) -> ValidationResult:
        """Ask ``self.model`` for a verdict on ``fact``: the one request step
        of DKA, GIV and RAG.

        Each attempt generates with ``metadata`` plus the ``verify`` task,
        this method, the fact and the attempt number, and parses the answer.
        A non-compliant answer is re-prompted, flagged with
        :func:`reprompt_suffix`, at most ``retries`` times; one that is still
        non-compliant is INVALID.  Tokens and latency sum over the attempts,
        on top of ``spent_seconds`` the strategy spent before asking (RAG's
        upstream phases); ``result_fields`` fill the rest of the result.
        """
        latency = spent_seconds
        prompt_tokens = completion_tokens = 0
        attempt_prompt = prompt
        for attempt in range(retries + 1):
            response = self.model.generate(
                attempt_prompt,
                metadata={
                    "task": "verify",
                    "method": self.method_name,
                    "fact": fact,
                    **metadata,
                    "attempt": attempt,
                },
            )
            latency += response.latency_seconds
            prompt_tokens += response.prompt_tokens
            completion_tokens += response.completion_tokens
            parsed = parse_verdict(response.text)
            if parsed is not None:
                break
            attempt_prompt = prompt + reprompt_suffix(response.text)
        return ValidationResult(
            fact_id=fact.fact_id,
            verdict=Verdict.from_bool(parsed) if parsed is not None else Verdict.INVALID,
            gold_label=fact.label,
            model=self.model.name,
            method=self.method_name,
            latency_seconds=latency,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            raw_response=response.text,
            num_retries=attempt,
            **result_fields,
        )

    def model_name(self) -> str:
        """Name of the underlying model (used in reports)."""
        model = getattr(self, "model", None)
        return getattr(model, "name", "unknown")


#: The methods whose verdict reads no knowledge store or corpus: the paper's
#: internal-knowledge dimension (DKA, GIV zero- and few-shot) judges a fact
#: from the model alone, so no ingest can move it.  ``rag`` reads retrieved
#: evidence and is never on the list, and a method it does not name (a
#: hybrid, a rule guard, a new strategy) counts as reading the store.  The
#: list is keyed on the name, not on a strategy attribute, so a wrapper that
#: keeps ``method_name`` keeps the property.
STORE_FREE_METHODS: FrozenSet[str] = frozenset({"dka", "giv-z", "giv-f"})
