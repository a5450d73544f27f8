"""Telemetry: token-usage and latency accounting for LLM calls.

The paper instruments its models with OpenTelemetry (via OpenLIT) to track
token usage and inference time.  This module is the in-process equivalent:
the instrumented party is the model client itself.  A registry-built client
records each completion it returns (model, task label, token counts,
latency) in the collector the registry hands it, so no strategy or caller
records anything; the benchmark runner merges the records its grid workers
collect.
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

    The collector is shared widely — every model a registry builds records
    into it, during offline runs and from the online service's asyncio
    workers (and, in threaded frontends, from multiple threads) — so every
    mutation holds an internal lock.
    """

    def __init__(self) -> None:
        self._records: List[CallRecord] = []
        self._lock = threading.Lock()

    def record(self, response: LLMResponse, task: str) -> CallRecord:
        """Record one response under a task label; returns the stored record."""
        record = CallRecord(
            model=response.model,
            task=task,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            latency_seconds=response.latency_seconds,
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
