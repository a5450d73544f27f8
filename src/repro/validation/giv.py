"""Guided Iterative Verification (GIV): structured, retry-based prompting.

GIV uses a structured prompt template that fixes the output format.  When
the model's output does not conform, the system re-prompts, explicitly
flagging the non-compliance; responses that repeatedly fail are marked
invalid.  The strategy is evaluated in both zero-shot (GIV-Z) and few-shot
(GIV-F) settings.
"""

from __future__ import annotations

from typing import Optional

from ..datasets.base import LabeledFact
from ..kg.verbalization import Verbalizer
from ..llm.base import LLMClient
from .base import ValidationResult, ValidationStrategy
from .prompts import giv_prompt

__all__ = ["GuidedIterativeVerification"]

#: Re-prompts after a non-compliant answer before the verdict is INVALID.
MAX_RETRIES = 2


class GuidedIterativeVerification(ValidationStrategy):
    """Structured prompting with bounded re-prompting on format violations."""

    def __init__(
        self,
        model: LLMClient,
        few_shot: bool = False,
        verbalizer: Optional[Verbalizer] = None,
    ) -> None:
        self.model = model
        self.few_shot = few_shot
        self.verbalizer = verbalizer or Verbalizer()
        self.method_name = "giv-f" if few_shot else "giv-z"

    def validate(self, fact: LabeledFact) -> ValidationResult:
        statement = self.verbalizer.statement(fact.triple)
        return self.request_verdict(
            fact,
            giv_prompt(fact, statement, few_shot=self.few_shot),
            {"few_shot": self.few_shot, "structured": True},
            retries=MAX_RETRIES,
        )
