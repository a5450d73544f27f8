"""Direct Knowledge Assessment (DKA): the paper's internal-knowledge baseline.

DKA sends a single, unguided prompt asking the model whether the statement is
true, relying entirely on the model's internal knowledge.  It is the cheapest
strategy and the baseline every other method is compared against.
"""

from __future__ import annotations

from typing import Optional

from ..datasets.base import LabeledFact
from ..kg.verbalization import Verbalizer
from ..llm.base import LLMClient
from .base import ValidationResult, ValidationStrategy
from .prompts import dka_prompt

__all__ = ["DirectKnowledgeAssessment"]


class DirectKnowledgeAssessment(ValidationStrategy):
    """One direct prompt, one answer, lenient parsing."""

    method_name = "dka"

    def __init__(self, model: LLMClient, verbalizer: Optional[Verbalizer] = None) -> None:
        self.model = model
        self.verbalizer = verbalizer or Verbalizer()

    def validate(self, fact: LabeledFact) -> ValidationResult:
        statement = self.verbalizer.statement(fact.triple)
        return self.request_verdict(
            fact, dka_prompt(fact, statement), {"few_shot": False, "structured": False}
        )
