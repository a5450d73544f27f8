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
from ..llm.telemetry import TelemetryCollector
from .base import ValidationResult, ValidationStrategy, Verdict
from .prompts import giv_prompt, parse_verdict, reprompt_suffix

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
        telemetry: Optional[TelemetryCollector] = None,
    ) -> None:
        self.model = model
        self.few_shot = few_shot
        self.verbalizer = verbalizer or Verbalizer()
        self.telemetry = telemetry
        self.method_name = "giv-f" if few_shot else "giv-z"

    def validate(self, fact: LabeledFact) -> ValidationResult:
        statement = self.verbalizer.statement(fact.triple)
        base_prompt = giv_prompt(fact, statement, few_shot=self.few_shot)
        prompt = base_prompt
        total_latency = 0.0
        total_prompt_tokens = 0
        total_completion_tokens = 0
        last_text = ""
        parsed: Optional[bool] = None
        attempts = 0
        for attempt in range(MAX_RETRIES + 1):
            attempts = attempt
            response = self.model.generate(
                prompt,
                metadata={
                    "task": "verify",
                    "method": self.method_name,
                    "fact": fact,
                    "few_shot": self.few_shot,
                    "structured": True,
                    "attempt": attempt,
                },
            )
            if self.telemetry is not None:
                self.telemetry.record(response, task=self.method_name)
            total_latency += response.latency_seconds
            total_prompt_tokens += response.prompt_tokens
            total_completion_tokens += response.completion_tokens
            last_text = response.text
            parsed = parse_verdict(response.text)
            if parsed is not None:
                break
            # Re-prompt with an explicit non-compliance flag.
            prompt = base_prompt + reprompt_suffix(response.text)
        verdict = Verdict.from_bool(parsed) if parsed is not None else Verdict.INVALID
        return ValidationResult(
            fact_id=fact.fact_id,
            verdict=verdict,
            gold_label=fact.label,
            model=self.model.name,
            method=self.method_name,
            latency_seconds=total_latency,
            prompt_tokens=total_prompt_tokens,
            completion_tokens=total_completion_tokens,
            raw_response=last_text,
            num_retries=attempts,
        )
