"""Telemetry: token-usage and latency accounting for LLM calls.

The paper instruments its models with OpenTelemetry (via OpenLIT) to track
token usage and inference time.  This module is the in-process equivalent: a
collector records every call with its model, task, token counts and latency,
and the benchmark runner merges the records its grid workers collect.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, NamedTuple

from .base import LLMResponse

__all__ = ["CallRecord", "TelemetryCollector"]


class CallRecord(NamedTuple):
    """One recorded LLM invocation."""

    model: str
    task: str
    prompt_tokens: int
    completion_tokens: int
    latency_seconds: float

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class TelemetryCollector:
    """Records LLM calls: model, task, token counts and latency.

    The collector is shared widely — strategies record into it during
    offline runs and from the online service's asyncio workers (and, in
    threaded frontends, from multiple threads) — so every mutation holds
    an internal lock.
    """

    def __init__(self) -> None:
        self._records: List[CallRecord] = []
        self._lock = threading.Lock()

    def record(self, response: LLMResponse, task: str = "generic") -> CallRecord:
        """Record one response under a task label; returns the stored record."""
        return self.record_call(
            model=response.model,
            task=task,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            latency_seconds=response.latency_seconds,
        )

    def record_call(
        self,
        model: str,
        task: str,
        prompt_tokens: int = 0,
        completion_tokens: int = 0,
        latency_seconds: float = 0.0,
    ) -> CallRecord:
        """Record a call from its fields rather than an :class:`LLMResponse`."""
        record = CallRecord(
            model=model,
            task=task,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_seconds=latency_seconds,
        )
        with self._lock:
            self._records.append(record)
        return record

    def extend(self, records: Iterable[CallRecord]) -> None:
        """Append already-built records (e.g. collected in worker processes)."""
        items = list(records)
        with self._lock:
            self._records.extend(items)

    def records(self) -> List[CallRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
