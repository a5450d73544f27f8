"""The geo tier: edge replica sets that catch up asynchronously.

After multi-branch sync over durable queues (arXiv:0912.2134): the primary
fleet enqueues every applied batch per shard
(:class:`~repro.store.GeoReplicator`), and each **edge** — one
:class:`~repro.service.server.ValidationService` per shard over the edge's
own store copies — applies them at its own pace from a background drain
loop on the fleet clock.  Writes never wait on a drain, and an edge read
that is ineligible or faults falls back to the primary tier: the edge tier
adds locality, never a new failure mode.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from typing import Awaitable, Callable, Dict, List, Mapping, Optional, Sequence

from ..chaos.clock import Clock
from ..obs.registry import MetricsRegistry
from ..store import GeoReplicator
from ..store.geosync import sync_and_close
from ..store.sharding import ReplicaDivergedError
from .attempts import AttemptExecutor, ReplicaFault
from .server import RequestOutcome, ServiceRequest, ServiceResponse, ValidationService

__all__ = ["DRAIN_BATCH_LIMIT", "GeoTier"]

#: Most queued batches one background drain tick applies; the rest wait for
#: the next tick, so a backlogged edge never monopolises the event loop and
#: back-pressures primary writes through scheduling delay.
DRAIN_BATCH_LIMIT = 8


class GeoTier:
    """Edge services, drain loops, sessions, edge reads and the
    ``router_geo_*`` metric families over one
    :class:`~repro.store.GeoReplicator` (both ``None``: no geo tier).

    ``edge_services`` maps each edge name to its ``num_shards`` services.
    Edge reads use ``attempts``' call step; ``shard_epoch(i)`` is the
    primary tier's epoch of shard *i*; the families register into
    ``registry``.  :attr:`tracer`, :attr:`events` and :attr:`injector` are
    the armed observability and fault injection, ``None`` when unarmed.

    Raises :class:`ValueError` when only one of ``geo`` and
    ``edge_services`` is given, an edge has no replicator edge or the wrong
    number of services, the bound is negative or the interval not positive.
    """

    def __init__(
        self,
        geo: Optional[GeoReplicator],
        edge_services: Optional[Mapping[str, Sequence[ValidationService]]],
        *,
        num_shards: int,
        registry: MetricsRegistry,
        attempts: AttemptExecutor,
        shard_epoch: Callable[[int], int],
        clock: Clock,
        staleness_bound_epochs: Optional[int],
        drain_interval_s: float,
        edge_lag_s: Optional[Mapping[str, float]],
        drain_seed: int,
    ) -> None:
        if (geo is None) != (edge_services is None):
            raise ValueError("geo and edge_services come together (or not at all)")
        if staleness_bound_epochs is not None and staleness_bound_epochs < 0:
            raise ValueError("staleness_bound_epochs must be >= 0 when set")
        if drain_interval_s <= 0:
            raise ValueError("drain_interval_s must be positive")
        self.geo = geo
        self.services: Dict[str, List[ValidationService]] = {
            name: list(services) for name, services in (edge_services or {}).items()
        }
        for name, services in self.services.items():
            if name not in geo.edges:
                raise ValueError(f"edge {name!r} has services but no replicator edge")
            if len(services) != num_shards:
                raise ValueError(
                    f"edge {name!r} has {len(services)} services for {num_shards} shards"
                )
        #: Configured edge names, sorted (killed ones included); an edge's
        #: index here is its ``edge:{i}`` point.
        self.names = sorted(self.services)
        self._index = {name: index for index, name in enumerate(self.names)}
        self.attempts = attempts
        self.shard_epoch = shard_epoch
        self.clock = clock
        self.staleness_bound_epochs = staleness_bound_epochs
        self.drain_interval_s = drain_interval_s
        self.edge_lag_s: Dict[str, float] = dict(edge_lag_s or {})
        self._drain_rng = random.Random(drain_seed)
        self._drain_tasks: List[asyncio.Task] = []
        # One drain of an edge at a time: a second drain entering while the
        # first waits in an apply would read the same pending suffix off the
        # same edge epoch and apply it twice.  (Re)created in start().
        self._drain_locks = {name: asyncio.Lock() for name in self.names}
        self._closed = False
        #: Drain-loop failures (a diverged edge, a crashed apply): the loop
        #: kills the edge and records the reason here for post-mortems.
        self.drain_errors: List[str] = []
        #: Read-your-writes sessions: token -> {shard: last-write epoch}.
        #: Only an edge read consults them, so only a geo tier records them.
        self.sessions: Dict[str, Dict[int, int]] = {}
        #: Edges hard-stopped by :meth:`kill_edge` (never rejoin without a
        #: bootstrap).
        self.dead: set = set()
        # Edges whose bootstrap event was already emitted (start() is
        # re-entrant across stop()/start() cycles).
        self._bootstrapped: set = set()
        self.tracer = None
        self.events = None
        self.injector = None
        self.session_fallbacks_total = registry.counter(
            "router_geo_session_fallbacks_total",
            "Reads a session's last-write vector forced off an edge to the primary tier.",
        )
        if not self.names:
            return  # no edges: the per-edge families do not exist
        per_edge = [
            registry.gauge(
                "router_geo_watermark_epoch",
                "Composite reported watermark (sum of per-shard acked epochs).",
                ("edge",),
            ),
            registry.gauge(
                "router_geo_watermark_lag_epochs",
                "Worst per-shard epochs this edge's reported watermark trails the primary.",
                ("edge",),
            ),
            registry.gauge(
                "router_geo_queue_depth",
                "Outbound batches queued for this edge across every shard.",
                ("edge",),
            ),
            registry.counter(
                "router_geo_edge_reads_total",
                "Reads this edge answered (stamped with visible staleness).",
                ("edge",),
            ),
            registry.counter(
                "router_geo_batches_shipped_total",
                "Queued batches this edge has applied and acknowledged.",
                ("edge",),
            ),
        ]
        for family in per_edge:
            for edge in self.names:
                family.labels(edge=edge)  # zero-valued series still render
        (self._watermark_epoch, self._watermark_lag_epochs, self._queue_depth,
         self.edge_reads_total, self._batches_shipped_total) = per_edge

    @property
    def live_names(self) -> List[str]:
        """Edges still serving (not removed by :meth:`kill_edge`)."""
        return [name for name in self.names if name not in self.dead]

    def point(self, name: str) -> str:
        """One edge's fault-injection and event point label."""
        return f"edge:{self._index[name]}"

    def refresh(self) -> None:
        """Set each live edge's watermark, worst-shard lag and queue-depth
        gauges, which move between requests."""
        for edge in self.live_names:
            self._watermark_epoch.labels(edge=edge).set(sum(self.geo.watermark_vector(edge)))
            self._watermark_lag_epochs.labels(edge=edge).set(max(self.geo.lag_vector(edge)))
            self._queue_depth.labels(edge=edge).set(self.geo.depth(edge))

    def set_observability(self, tracer, events) -> None:
        """Arm (``None``: disarm) tracing and events here and on every edge
        service, whose spans carry the point ``edge:{i}/shard:{j}``."""
        self.tracer, self.events = tracer, events
        for name in self.names:
            for shard_index, service in enumerate(self.services[name]):
                service.set_observability(tracer, events, f"{self.point(name)}/shard:{shard_index}")

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start every live edge's services and drain loop; until
        :meth:`commit_queues`, the queues commit only when told to."""
        self._closed = False
        self._drain_locks = {name: asyncio.Lock() for name in self.names}
        for name in self.names:
            if name in self.dead:
                continue
            for service in self.services[name]:
                await service.start()
            if name not in self._bootstrapped:
                self._bootstrapped.add(name)
                if self.events is not None:
                    self.events.emit(
                        "edge_bootstrap",
                        self.point(name),
                        watermark=sum(self.geo.watermark_vector(name)),
                    )
        self._drain_tasks = [
            asyncio.ensure_future(self._drain_loop(name)) for name in self.live_names
        ]
        for queue in self.geo.queues if self.geo is not None else ():
            queue.autocommit = False

    async def halt(self, drain: bool) -> List[Awaitable[None]]:
        """Stop the drain loops, and hand back the live edges' service stops
        for the owner to await beside its own (``drain=True`` answers
        admitted reads first)."""
        self._closed = True
        for task in self._drain_tasks:
            task.cancel()
        if self._drain_tasks:
            await asyncio.gather(*self._drain_tasks, return_exceptions=True)
        self._drain_tasks = []
        return [
            service.stop(drain=drain)
            for name in self.live_names
            for service in self.services[name]
            if not service._closed
        ]

    def commit_queues(self) -> None:
        """Back to inline commits once stopped; unsynced acks become durable."""
        for queue in self.geo.queues if self.geo is not None else ():
            queue.autocommit = True
            queue.commit()

    async def commit(
        self, session: Optional[str], indexes: Sequence[int], reports: Sequence
    ) -> None:
        """Make one ingest durable before it is acknowledged: each touched
        shard's queue (``indexes``) commits once, the fsyncs side by side on
        worker threads (a pathless queue has none and takes no hop), so
        reads go on.  Then ``session`` records the landed epochs
        (``reports``) as its last-write vector."""
        if self.geo is None:
            return
        with contextlib.ExitStack() as commits:
            queues = (self.geo.queues[index] for index in indexes)
            fds = [commits.enter_context(queue.committing()) for queue in queues]
            run = asyncio.get_running_loop().run_in_executor
            await asyncio.gather(*(run(None, sync_and_close, fd) for fd in fds if fd is not None))
        if session is not None:
            vector = self.sessions.setdefault(session, {})
            for index, report in zip(indexes, reports):
                vector[index] = max(vector.get(index, 0), report.epoch)

    async def kill_edge(self, name: str) -> None:
        """Hard-stop one edge replica (fault injection / ops eviction).

        The edge leaves read routing immediately and its drain loop stops;
        its durable queue entries and reported watermarks stay put, so a
        recovered edge process can re-attach via
        :meth:`~repro.store.GeoReplicator.adopt_edge` and resume from
        exactly the batches it never acked.  Raises :class:`KeyError` for
        an unknown edge name.
        """
        if name not in self.services:
            raise KeyError(f"unknown edge {name!r}")
        if name in self.dead:
            return
        self.dead.add(name)
        if self.events is not None:
            self.events.emit("edge_killed", self.point(name))
        await asyncio.gather(*(service.stop(drain=False) for service in self.services[name]))

    # ---------------------------------------------------------------- draining

    async def drain_edges(self) -> int:
        """Drain queued batches into every live edge now.

        The background loops already drain at their own pace; this is the
        synchronous path for tests and scenario epilogues that must reach a
        converged state before checking digests.  Returns the number of
        batches applied.  Raises :class:`RuntimeError` without a geo tier.
        """
        if self.geo is None:
            raise RuntimeError("no geo tier configured")
        applied = 0
        for name in self.live_names:
            if name not in self.dead:  # a drain loop may have killed it meanwhile
                applied += await self._drain_edge(name)
        return applied

    async def _drain_edge(self, name: str, max_batches: Optional[int] = None) -> int:
        """Apply pending queue batches to one edge through its services.

        Batches land via each edge shard's :class:`ValidationService` (so
        the quiesce/cache-invalidation contract holds on the edge exactly
        as on the primary tier), in seeded-shuffled shard order — the drain
        scheduler whose interleavings the property suite sweeps.  Each
        landed batch is acked immediately: the edge store's own epoch is
        the durable watermark, so a crash between apply and ack costs only
        a redundant re-report, never a double-apply.  Drains of one edge
        take turns (a background tick and a foreground :meth:`drain_edges`
        can overlap): the pending suffix is read under the edge's lock.
        """
        services = self.services[name]
        shard_order = list(range(len(services)))
        self._drain_rng.shuffle(shard_order)
        shipped = self._batches_shipped_total.labels(edge=name)
        applied = 0
        async with self._drain_locks[name]:
            for shard_index in shard_order:
                queue = self.geo.queues[shard_index]
                service = services[shard_index]
                budget = None if max_batches is None else max_batches - applied
                if budget is not None and budget <= 0:
                    break
                for epoch, batch in queue.pending_after(service.store.epoch, limit=budget):
                    report = await service.apply_mutations(batch)
                    if report.epoch != epoch:
                        raise ReplicaDivergedError(
                            f"edge {name} shard {shard_index} landed epoch "
                            f"{report.epoch}, queue shipped {epoch}"
                        )
                    queue.ack(name, epoch)
                    shipped.inc()
                    applied += 1
                    if budget is not None:
                        budget -= 1
                        if budget <= 0:
                            break
        if applied and self.events is not None:
            self.events.emit("edge_drain", self.point(name), batches=applied)
        return applied

    async def _drain_loop(self, name: str) -> None:
        """One edge's background catch-up pump, on the fleet clock.

        Each tick sleeps ``drain_interval_s`` plus the edge's configured
        lag, consults the fault injector at the edge's point ``edge:{i}``
        (kill → :meth:`kill_edge`; stall/error → skip the tick, the
        partition case — the edge keeps serving stale reads; slow → extra
        sleep), then drains at most :data:`DRAIN_BATCH_LIMIT` queued
        batches so a deep backlog never monopolises the event loop.
        Unexpected drain errors (divergence, a validation refusal) kill the
        edge and are recorded in :attr:`drain_errors` rather than dying
        silently in a task.
        """
        point = self.point(name)
        try:
            while not self._closed:
                await self.clock.sleep(self.drain_interval_s + self.edge_lag_s.get(name, 0.0))
                if self._closed or name in self.dead:
                    return
                if self.injector is not None:
                    events = self.injector.active_for(point)
                    if any(event.fault.kind == "kill" for event in events):
                        await self.kill_edge(name)
                        return
                    extra = sum(
                        event.fault.latency_s for event in events if event.fault.kind == "slow"
                    )
                    if extra:
                        await self.clock.sleep(extra)
                    if any(event.fault.kind in ("stall", "error") for event in events):
                        # The partition case: the queue stalls (no drain
                        # this tick) but the edge keeps serving stale reads.
                        continue
                try:
                    await self._drain_edge(name, DRAIN_BATCH_LIMIT)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    self.drain_errors.append(f"{name}: {exc!r}")
                    await self.kill_edge(name)
                    return
        except asyncio.CancelledError:
            return

    # ---------------------------------------------------------------- reads

    def for_read(
        self, shard_index: int, session: Optional[str], region: Optional[str]
    ) -> Optional[str]:
        """The edge eligible to serve this read, or ``None`` for primary.

        Eligibility is the read-your-writes contract made routable: the
        edge must be the caller's region, alive, its *reported* watermark
        vector must cover the session's whole last-write vector (the
        served response carries the edge's full epoch vector, so a floor
        miss on *any* written shard — not just the owning one — would let
        the session observe state below its own write), and — when a
        staleness bound is configured — the owning shard must trail the
        primary by at most that many epochs.  A region-matched edge
        rejected on the session/staleness check counts a
        ``session fallback``.
        """
        if region is None or self.geo is None:
            return None
        if region not in self.services or region in self.dead:
            return None
        if self.services[region][shard_index]._closed:
            return None
        try:
            watermark = self.geo.queues[shard_index].watermark(region)
        except KeyError:
            return None
        if session is not None:
            floor = self.sessions.get(session, {})
            if floor:
                watermarks = self.geo.watermark_vector(region)
                if any(watermarks[shard] < epoch for shard, epoch in floor.items()):
                    self.session_fallbacks_total.inc()
                    return None
        if self.staleness_bound_epochs is not None:
            if self.shard_epoch(shard_index) - watermark > self.staleness_bound_epochs:
                self.session_fallbacks_total.inc()
                return None
        return region

    async def read(
        self, request: ServiceRequest, shard_index: int, name: str
    ) -> Optional[ServiceResponse]:
        """One read from edge ``name``'s copy of the shard (untraced: its
        cache step first), or ``None`` when the edge faulted, shed it, or
        was stopped under us — the caller then serves from the primary tier."""
        service = self.services[name][shard_index]  # running: for_read
        hit = None if self.tracer is not None else service.cached(request, time.perf_counter())
        if hit is not None:
            response = ServiceResponse(RequestOutcome.COMPLETED, hit[0], True, hit[2])
        else:
            try:
                response = await self.attempts.call(
                    service, request, self.attempts.request_timeout_s
                )
            except ReplicaFault:
                return None
        if response.outcome is not RequestOutcome.COMPLETED:
            return None
        self.edge_reads_total.labels(edge=name).inc()
        return response
