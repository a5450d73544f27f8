"""Serving metrics: tail latency, throughput, queue depth, shed counts.

The muBench-style load experiments this subsystem replicates are judged on
per-run latency/throughput collection; this module is the service-side
collector.  Since the observability PR, every instrument lives in a
:class:`~repro.obs.registry.MetricsRegistry` — named, typed, labelled,
renderable as Prometheus-style text — and :class:`MetricsSnapshot` is
*derived* from that one registry instead of ad-hoc counter attributes.
Latency percentiles come from the registry histogram's bounded raw-sample
window (exact, interpolated — see :func:`repro.obs.registry.percentile`),
and the histogram's per-bucket exemplars link the snapshot back to trace
ids.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    percentile,
    render_exposition,
)

__all__ = [
    "SERVICE_METRIC_NAMES",
    "MetricsSnapshot",
    "ServiceMetrics",
    "percentile",
]

#: Every registry metric one :class:`ServiceMetrics` owns — the docs lint
#: checks the observability runbook documents each of these by name.
SERVICE_METRIC_NAMES = (
    "service_requests_total",
    "service_verdict_cache_lookups_total",
    "service_batches_total",
    "service_batched_requests_total",
    "service_queue_depth",
    "service_batches_in_flight",
    "service_ingests_total",
    "service_ingested_ops_total",
    "service_request_latency_seconds",
)

#: Raw samples the latency histogram keeps behind the percentiles.
LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time view of the service's health and performance."""

    completed: int
    rejected: int
    errors: int
    cache_hits: int
    cache_misses: int
    batches: int
    mean_batch_size: float
    queue_depth: int
    wall_seconds: float
    throughput_rps: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    ingests: int = 0
    ingested_ops: int = 0
    #: Requests rescued by a sibling replica after their first choice
    #: faulted (always 0 for an unreplicated service; filled in by
    #: :class:`~repro.service.router.RouterMetrics`).
    failovers: int = 0
    #: Replica workers currently evicted from the routing rotation
    #: (always 0 for an unreplicated service).
    unhealthy_replicas: int = 0
    #: Extra full passes over a shard's replicas made under a
    #: :class:`~repro.service.policy.RetryPolicy` (0 without one).
    retries: int = 0
    #: Requests answered from the stale last-known-good verdict cache after
    #: their retry budget was spent (``DEGRADED`` outcomes).
    degraded: int = 0
    #: Requests whose whole retry budget was spent without a live answer
    #: (each then either degraded or failed).
    budget_exhausted: int = 0
    #: ``(bucket le label, trace_id)`` pairs from the latency histogram:
    #: the most recent traced request observed in each bucket, so a tail
    #: bucket links straight to a concrete trace (empty without tracing).
    exemplars: Tuple[Tuple[str, str], ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        """Verdict-cache hits over served traffic (0.0 when nothing served)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def format_table(self, title: str = "Service metrics") -> str:
        """Render the snapshot as the aligned two-column text table the
        ``serve``/``loadgen`` CLI prints (see docs/operations.md for the
        field glossary)."""
        rows = [
            ("completed", f"{self.completed}"),
            ("rejected (shed)", f"{self.rejected}"),
            ("errors", f"{self.errors}"),
            ("throughput", f"{self.throughput_rps:.1f} req/s"),
            ("p50 latency", f"{self.p50_latency_s * 1000:.2f} ms"),
            ("p95 latency", f"{self.p95_latency_s * 1000:.2f} ms"),
            ("p99 latency", f"{self.p99_latency_s * 1000:.2f} ms"),
            ("mean batch size", f"{self.mean_batch_size:.2f}"),
            ("cache hit rate", f"{self.cache_hit_rate:.1%}"),
            ("queue depth", f"{self.queue_depth}"),
            ("ingests", f"{self.ingests} ({self.ingested_ops} ops)"),
            ("failovers", f"{self.failovers}"),
            ("retries", f"{self.retries}"),
            ("degraded", f"{self.degraded}"),
            ("budget exhausted", f"{self.budget_exhausted}"),
            ("unhealthy replicas", f"{self.unhealthy_replicas}"),
            ("exemplars", f"{len(self.exemplars)}"),
            ("wall time", f"{self.wall_seconds:.3f} s"),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [title, "-" * len(title)]
        lines.extend(f"{name:<{width}}  {value}" for name, value in rows)
        return "\n".join(lines)


class ServiceMetrics:
    """One worker's serving telemetry, backed by a metrics registry.

    Every counter/gauge/histogram is a named instrument in
    :attr:`registry` (by default a private
    :class:`~repro.obs.registry.MetricsRegistry` — replicas must not share
    one, their per-worker series would collide); :meth:`snapshot` and
    :meth:`exposition` are two views over the same instruments.  Model
    cost is not counted here: the strategies record every real model call
    in the runner's own telemetry.
    """

    def __init__(
        self,
        window: int = LATENCY_WINDOW,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        requests = self.registry.counter(
            "service_requests_total",
            "Requests by final outcome at this worker.",
            ("outcome",),
        )
        self._completed = requests.labels(outcome="completed")
        self._rejected = requests.labels(outcome="rejected")
        self._errors = requests.labels(outcome="error")
        lookups = self.registry.counter(
            "service_verdict_cache_lookups_total",
            "Verdict-cache lookups on served (non-shed) traffic.",
            ("result",),
        )
        self._cache_hits = lookups.labels(result="hit")
        self._cache_misses = lookups.labels(result="miss")
        self._batches = self.registry.counter(
            "service_batches_total", "Micro-batches dispatched."
        )
        self._batched_requests = self.registry.counter(
            "service_batched_requests_total", "Requests carried by those batches."
        )
        self._queue_depth = self.registry.gauge(
            "service_queue_depth", "Admitted-but-unanswered requests right now."
        )
        self._batches_in_flight = self.registry.gauge(
            "service_batches_in_flight", "Micro-batches in the backend right now."
        )
        self._ingests = self.registry.counter(
            "service_ingests_total", "Mutation batches applied."
        )
        self._ingested_ops = self.registry.counter(
            "service_ingested_ops_total", "Mutations inside those batches."
        )
        self._latency = self.registry.histogram(
            "service_request_latency_seconds",
            "In-service request latency (queue wait + batch execution).",
            buckets=DEFAULT_LATENCY_BUCKETS,
            window=window,
        )

    # ------------------------------------------------------------- recording

    def start(self) -> None:
        """(Re)start the measurement window; called when the service starts.

        The whole registry resets together with the throughput clock —
        a stopped-and-restarted service must not divide the old completion
        count by the new elapsed time.
        """
        with self._lock:
            self._started_at = time.perf_counter()
        self.registry.reset()

    def observe_completion(
        self, latency_seconds: float, *, trace_id: Optional[str] = None
    ) -> None:
        """One answered request: record its measured in-service latency
        (``trace_id`` becomes the latency bucket's exemplar when tracing is
        on)."""
        self._completed.inc()
        self._latency.observe(latency_seconds, exemplar=trace_id)

    def observe_shed(self) -> None:
        """One request refused by admission control (``REJECTED``)."""
        self._rejected.inc()

    def observe_error(self) -> None:
        """An admitted request whose batch failed (strategy exception).

        Keeps the ``completed + rejected + errors == submitted`` invariant
        the snapshot consumers rely on.
        """
        self._errors.inc()

    def observe_cache(self, hit: bool) -> None:
        """One verdict-cache lookup on served (non-shed) traffic."""
        (self._cache_hits if hit else self._cache_misses).inc()

    def observe_batch(self, size: int) -> None:
        """One dispatched micro-batch of ``size`` requests."""
        self._batches.inc()
        self._batched_requests.inc(size)

    def observe_backend(self, delta: int) -> None:
        """One micro-batch entered (``+1``) or left (``-1``) the backend."""
        self._batches_in_flight.inc(delta)

    def observe_ingest(self, ops: int) -> None:
        """One applied mutation batch of ``ops`` operations."""
        self._ingests.inc()
        self._ingested_ops.inc(ops)

    def set_queue_depth(self, depth: int) -> None:
        """Update the admitted-but-unanswered gauge shown in snapshots."""
        self._queue_depth.set(depth)

    # ------------------------------------------------------------- snapshot

    def _elapsed(self) -> float:
        with self._lock:
            if self._started_at is None:
                return 0.0
            return time.perf_counter() - self._started_at

    def snapshot(self) -> MetricsSnapshot:
        """An immutable :class:`MetricsSnapshot` derived from the registry
        instruments (see :meth:`roll_up`)."""
        return ServiceMetrics.roll_up([self])

    @staticmethod
    def roll_up(
        workers: Sequence["ServiceMetrics"], fell_back: Sequence["ServiceMetrics"] = ()
    ) -> MetricsSnapshot:
        """One :class:`MetricsSnapshot` read straight from many registries.

        Counters sum; latency percentiles are taken over the *concatenated*
        raw windows (per-worker percentiles cannot be averaged); wall time
        is the longest worker window and throughput is total completions
        over that wall.  ``fell_back`` are workers whose refusals never
        reach a caller — a router re-routes an edge copy's shed to the
        primary tier, which answers and counts the read — so everything of
        theirs counts except ``rejected``.
        """
        everyone = [*workers, *fell_back]

        def total(children) -> int:
            return int(sum(child.value for child in children))

        latencies: List[float] = []
        for worker in everyone:
            latencies.extend(worker._latency.window())
        completed = total(worker._completed for worker in everyone)
        batches = total(worker._batches for worker in everyone)
        batched_requests = total(worker._batched_requests for worker in everyone)
        wall = max((worker._elapsed() for worker in everyone), default=0.0)
        exemplars = sorted(
            {pair for worker in everyone for pair in worker._latency.exemplars()},
            key=lambda pair: (float(pair[0]), pair[1]),  # le label, trace id
        )
        return MetricsSnapshot(
            completed=completed,
            rejected=total(worker._rejected for worker in workers),
            errors=total(worker._errors for worker in everyone),
            cache_hits=total(worker._cache_hits for worker in everyone),
            cache_misses=total(worker._cache_misses for worker in everyone),
            batches=batches,
            mean_batch_size=batched_requests / batches if batches else 0.0,
            queue_depth=total(worker._queue_depth for worker in everyone),
            wall_seconds=wall,
            throughput_rps=completed / wall if wall > 0 else 0.0,
            p50_latency_s=percentile(latencies, 50),
            p95_latency_s=percentile(latencies, 95),
            p99_latency_s=percentile(latencies, 99),
            ingests=total(worker._ingests for worker in everyone),
            ingested_ops=total(worker._ingested_ops for worker in everyone),
            exemplars=tuple(exemplars),
        )

    def exposition(self, extra_labels=None) -> str:
        """This worker's instruments as Prometheus-style text."""
        return render_exposition(self.registry.collect(extra_labels))
