"""Hybrid validation: KG-path evidence combined with web-evidence RAG.

The paper's future-work section suggests "hybrid retrieval strategies that
combine structured KG traversal with unstructured web data".  This module
implements that extension: :class:`HybridValidator` scores each triple with
an internal KG-based checker (any :class:`~repro.baselines.base.GraphFactChecker`,
e.g. Knowledge Linker) *and* with the RAG pipeline, then fuses the two
signals.  The fusion is deliberately simple and interpretable:

* whenever the LLM answers, its verdict stands — on a disagreement too, so
  the hybrid never does worse than RAG when the KG is unreliable;
* when the LLM fails to answer, the graph's opinion decides: ``TRUE`` or
  ``FALSE`` when its score is confidently high or low (outside the
  uncertainty band ``(LOW_BAND, HIGH_BAND)``), ``INVALID`` when it abstains
  (score inside the band, e.g. because the reference KG is incomplete
  around the entities).
"""

from __future__ import annotations

from typing import Optional

from ..baselines.base import GraphFactChecker
from ..datasets.base import LabeledFact
from .base import ValidationResult, ValidationStrategy, Verdict

__all__ = ["HybridValidator"]

#: The graph checker's abstention zone: scores inside ``(LOW_BAND,
#: HIGH_BAND)`` are treated as "the KG does not know".
LOW_BAND = 0.25
HIGH_BAND = 0.75


class HybridValidator(ValidationStrategy):
    """Fuse an internal KG-based checker with an LLM validation strategy."""

    def __init__(
        self,
        graph_checker: GraphFactChecker,
        llm_strategy: ValidationStrategy,
    ) -> None:
        self.graph_checker = graph_checker
        self.llm_strategy = llm_strategy
        self.method_name = f"hybrid({graph_checker.method_name}+{llm_strategy.method_name})"
        self.model = getattr(llm_strategy, "model", None)

    def graph_opinion(self, fact: LabeledFact) -> Optional[bool]:
        """The graph checker's opinion, or ``None`` when it abstains."""
        score = self.graph_checker.score(
            fact.subject_name, fact.base_predicate(), fact.object_name
        )
        if score >= HIGH_BAND:
            return True
        if score <= LOW_BAND:
            return False
        return None

    def validate(self, fact: LabeledFact) -> ValidationResult:
        llm_result = self.llm_strategy.validate(fact)
        fused = llm_result.verdict.as_bool()
        if fused is None:
            # The LLM failed to answer: fall back entirely to the graph.
            fused = self.graph_opinion(fact)

        verdict = Verdict.from_bool(fused) if fused is not None else Verdict.INVALID
        return ValidationResult(
            fact_id=fact.fact_id,
            verdict=verdict,
            gold_label=fact.label,
            model=llm_result.model,
            method=self.method_name,
            latency_seconds=llm_result.latency_seconds,
            prompt_tokens=llm_result.prompt_tokens,
            completion_tokens=llm_result.completion_tokens,
            raw_response=llm_result.raw_response,
            num_evidence_chunks=llm_result.num_evidence_chunks,
            num_retries=llm_result.num_retries,
            evidence_mentions_subject=llm_result.evidence_mentions_subject,
        )
