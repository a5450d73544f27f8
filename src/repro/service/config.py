"""Configuration for the online validation service."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of :class:`~repro.service.server.ValidationService`.

    Attributes
    ----------
    max_batch_size:
        Upper bound on how many waiting requests one ``(method, model)``
        worker coalesces into a single micro-batch.  At ``1`` every request
        is its own full batch and leaves at once, bounded by ``queue_depth``.
    queue_depth:
        Admission-control bound on the number of in-flight (admitted, not
        yet answered) requests across all workers, waiting or in the backend.
        A request arriving at a full service is shed with an explicit
        ``REJECTED`` outcome, not buffered — the MSMQ-style backpressure shape.
    enable_cache:
        Whether completed verdicts are cached and served on repeat requests.
    cache_capacity:
        Verdict-cache capacity in entries (one global LRU).
    batch_overhead_s:
        Fixed *simulated* dispatch cost per backend batch (connection /
        scheduling / prompt-prefix overhead), amortized across the batch.
    time_scale:
        Real seconds slept per simulated second of backend execution.  The
        simulated models return latencies without sleeping, so the service
        converts them into real event-loop time at this scale to exercise
        genuine concurrency; ``0.0`` disables sleeping (pure accounting).
    """

    max_batch_size: int = 16
    queue_depth: int = 256
    enable_cache: bool = True
    cache_capacity: int = 4096
    batch_overhead_s: float = 0.25
    time_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.batch_overhead_s < 0 or self.time_scale < 0:
            raise ValueError("durations must be non-negative")
