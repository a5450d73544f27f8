"""Telemetry: token-usage and latency accounting for LLM calls.

The paper instruments its models with OpenTelemetry (via OpenLIT) to track
token usage and inference time.  This module is the in-process equivalent: a
collector records every call, and aggregation helpers produce the per-task
averages reported in Table 3 and the per-method response times behind
Table 8.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional

from .base import LLMResponse

__all__ = ["CallRecord", "TelemetryCollector", "UsageSummary"]


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


@dataclass(frozen=True)
class UsageSummary:
    """Aggregate usage for one (model, task) group."""

    calls: int
    avg_prompt_tokens: float
    avg_completion_tokens: float
    avg_total_tokens: float
    avg_latency_seconds: float
    total_latency_seconds: float

    @staticmethod
    def from_records(records: Iterable[CallRecord]) -> "UsageSummary":
        items = list(records)
        if not items:
            return UsageSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        count = len(items)
        total_latency = sum(record.latency_seconds for record in items)
        return UsageSummary(
            calls=count,
            avg_prompt_tokens=sum(r.prompt_tokens for r in items) / count,
            avg_completion_tokens=sum(r.completion_tokens for r in items) / count,
            avg_total_tokens=sum(r.total_tokens for r in items) / count,
            avg_latency_seconds=total_latency / count,
            total_latency_seconds=total_latency,
        )


class TelemetryCollector:
    """Records LLM calls and aggregates usage by model and task.

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

    def records(
        self, model: Optional[str] = None, task: Optional[str] = None
    ) -> List[CallRecord]:
        with self._lock:
            snapshot = list(self._records)
        return [
            record
            for record in snapshot
            if (model is None or record.model == model)
            and (task is None or record.task == task)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def summary(
        self, model: Optional[str] = None, task: Optional[str] = None
    ) -> UsageSummary:
        return UsageSummary.from_records(self.records(model, task))
