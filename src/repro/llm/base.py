"""LLM client interface and response types.

The validation strategies are written against this interface, so a user with
network access can drop in an Ollama- or OpenAI-backed client without
touching the benchmark; offline, :class:`repro.llm.simulated.SimulatedLLM`
implements the same contract.

The ``metadata`` argument carries the structured task context (the fact under
verification, the evidence chunks, the prompting mode).  A real client
ignores it; the simulated client uses it to ground its behaviour in the
world model instead of fragile prompt re-parsing.  This is the documented
substitution point between "real LLM" and "simulated LLM".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, NamedTuple, Optional

__all__ = ["LLMResponse", "LLMClient"]


class LLMResponse(NamedTuple):
    """A single model completion plus its resource accounting.

    ``latency_seconds`` is the (simulated or measured) wall-clock inference
    time; the efficiency analysis (Table 8, Figure 3) aggregates it.
    """

    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int
    latency_seconds: float

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class LLMClient(ABC):
    """Minimal text-in / text-out client interface.

    Call accounting belongs to the client, not to its callers: a
    registry-built client (:class:`~repro.llm.registry.ModelRegistry`)
    records each completion it returns in the runner's
    :class:`~repro.llm.telemetry.TelemetryCollector`.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def generate(
        self,
        prompt: str,
        *,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> LLMResponse:
        """Produce a completion for ``prompt``.

        Parameters
        ----------
        prompt:
            The full natural-language prompt.
        metadata:
            Optional structured task context (see module docstring).  Clients
            backed by real models should ignore it.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
