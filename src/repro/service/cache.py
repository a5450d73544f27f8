"""Verdict cache for the online validation service.

A verdict is fully determined by the fact, the ``(method, model)`` strategy
that judges it and, for a method that reads the knowledge store, the store
version it read (the simulated models are deterministic, and real
deployments routinely cache idempotent verdicts for a TTL), so repeat
requests can be answered without touching a strategy worker.

:func:`verdict_cache_key` leads with the verdict's *scope*
(:func:`verdict_scope`): the store epoch for a method that reads the
store, ``None`` for one of :data:`~repro.validation.STORE_FREE_METHODS`.
An ingest therefore strands only the cached verdicts it can move; a
store-free one keeps answering.  :func:`coordinate_key` is the key at
scope ``None``, a verdict's identity at no epoch; the router's
last-known-good store keys on it.

The cache is one thread-safe :class:`~repro.retrieval.cache.LRUCache`
(eviction is global least-recently-used) plus locked hit/miss counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from ..datasets.base import LabeledFact
from ..retrieval.cache import LRUCache
from ..validation.base import STORE_FREE_METHODS, ValidationResult

__all__ = ["CacheStats", "VerdictCache", "coordinate_key", "verdict_cache_key", "verdict_scope"]


def verdict_scope(method: str, epoch: int) -> Optional[int]:
    """The scope a ``method`` verdict judged at store ``epoch`` is cached
    under: ``epoch`` itself, or ``None`` (every epoch) when the method is
    in :data:`~repro.validation.STORE_FREE_METHODS`."""
    return None if method in STORE_FREE_METHODS else epoch


def verdict_cache_key(
    fact: LabeledFact, method: str, model: str, epoch: Optional[int] = 0
) -> Tuple:
    """Collision-free cache key for one (fact, method, model) verdict at
    scope ``epoch``.

    The key carries the owning dataset and the fact id *and* the encoded
    triple itself: two datasets can contain facts with identical surface
    text (or even identical ids in adversarial inputs), and the same fact
    judged by a different method or model must never share an entry —
    verdicts legitimately differ across all of those axes.

    An integer ``epoch`` is the version of the knowledge store the verdict
    was computed against.  When the store ingests a mutation batch the
    epoch advances, every old key stops matching, and stale verdicts
    invalidate automatically — no explicit flush, and verdicts for the old
    epoch remain addressable until LRU pressure evicts them.  ``None``
    scopes the verdict to no epoch: it matches at every one.
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


def coordinate_key(fact: LabeledFact, method: str, model: str) -> Tuple:
    """A verdict's identity at no epoch: its :func:`verdict_cache_key` at
    scope ``None``.  (One tuple built in one place keeps the cache's hit
    path to a single call.)"""
    return verdict_cache_key(fact, method, model, None)


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
        epoch: Optional[int] = 0,
    ) -> Optional[ValidationResult]:
        """Look up a verdict; ``record=False`` defers the hit/miss counting.

        The service defers miss accounting until admission control has
        admitted the request — a shed request's lookup must not deflate the
        served-traffic hit rate.  ``epoch`` is the scope of
        :func:`verdict_cache_key`: an integer matches only entries written at
        that store version, ``None`` only entries written unscoped.
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
        epoch: Optional[int] = 0,
    ) -> None:
        """Store ``result`` under the (fact, method, model) key at scope
        ``epoch``, evicting the least recently used entry when full."""
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
