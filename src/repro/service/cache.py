"""Verdict cache for the online validation service.

A verdict is fully determined by the fact and the ``(method, model)``
strategy that judges it (the simulated models are deterministic, and real
deployments routinely cache idempotent verdicts for a TTL), so repeat
requests can be answered without touching a strategy worker.

The cache is one thread-safe :class:`~repro.retrieval.cache.LRUCache`
(eviction is global least-recently-used) plus locked hit/miss counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from ..datasets.base import LabeledFact
from ..retrieval.cache import LRUCache
from ..validation.base import ValidationResult

__all__ = ["CacheStats", "VerdictCache", "verdict_cache_key"]


def verdict_cache_key(
    fact: LabeledFact, method: str, model: str, epoch: int = 0
) -> Tuple:
    """Collision-free cache key for one (fact, method, model, epoch) verdict.

    The key carries the owning dataset and the fact id *and* the encoded
    triple itself: two datasets can contain facts with identical surface
    text (or even identical ids in adversarial inputs), and the same fact
    judged by a different method or model must never share an entry —
    verdicts legitimately differ across all of those axes.

    ``epoch`` is the version of the knowledge store the verdict was
    computed against.  When the store ingests a mutation batch the epoch
    advances, every old key stops matching, and stale verdicts invalidate
    automatically — no explicit flush, and verdicts for the old epoch
    remain addressable until LRU pressure evicts them.
    """
    triple = fact.triple
    return (
        epoch,
        method,
        model,
        fact.dataset,
        fact.fact_id,
        triple.subject,
        triple.predicate,
        triple.object,
        fact.label,
    )


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time verdict-cache telemetry."""

    hits: int
    misses: int
    size: int
    capacity: int


class VerdictCache:
    """An LRU mapping ``verdict_cache_key -> ValidationResult``."""

    def __init__(self, capacity: int = 4096) -> None:
        self._entries = LRUCache(capacity)  # raises ValueError when < 1
        self.capacity = capacity
        self._hits = 0
        self._misses = 0
        self._stats_lock = threading.Lock()

    def get(
        self,
        fact: LabeledFact,
        method: str,
        model: str,
        record: bool = True,
        epoch: int = 0,
    ) -> Optional[ValidationResult]:
        """Look up a verdict; ``record=False`` defers the hit/miss counting.

        The service defers miss accounting until admission control has
        admitted the request — a shed request's lookup must not deflate the
        served-traffic hit rate.  ``epoch`` scopes the lookup to one store
        version; entries written at earlier epochs never match.
        """
        value = self._entries.get(verdict_cache_key(fact, method, model, epoch))
        if record:
            if value is None:
                self.record_miss()
            else:
                self.record_hit()
        return value

    def record_hit(self) -> None:
        """Count one hit deferred by a ``get(record=False)`` lookup."""
        with self._stats_lock:
            self._hits += 1

    def record_miss(self) -> None:
        """Count one miss deferred by a ``get(record=False)`` lookup."""
        with self._stats_lock:
            self._misses += 1

    def put(
        self,
        fact: LabeledFact,
        method: str,
        model: str,
        result: ValidationResult,
        epoch: int = 0,
    ) -> None:
        """Store ``result`` under the (fact, method, model, epoch) key,
        evicting the least recently used entry when the cache is full."""
        self._entries.put(verdict_cache_key(fact, method, model, epoch), result)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        with self._stats_lock:
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        """A consistent point-in-time :class:`CacheStats` view."""
        with self._stats_lock:
            hits, misses = self._hits, self._misses
        return CacheStats(
            hits=hits, misses=misses, size=len(self), capacity=self.capacity
        )
