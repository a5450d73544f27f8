"""Sharded, replicated serving tier: routing, ingest and the fleet's metrics.

:class:`ShardedValidationService` fronts N logical shards, each backed by a
**replica group** of R independent
:class:`~repro.service.server.ValidationService` workers.  It is the one
front door (``submit`` / ``apply_mutations`` / ``metrics`` / async context
manager) the TCP front-end, the load generator and the CLI drive; a single
node is the 1x1 fleet.  Reads and writes route by consistent hash of the
subject entity — the same :class:`~repro.store.sharding.HashRing` the store
partition uses — and three collaborators each own one policy and its state:

* :class:`~repro.service.balancer.ReplicaBalancer` — which replica of the
  owning shard serves a read, the health table, and readmission probes;
* :class:`~repro.service.attempts.AttemptExecutor` — failover across the
  group, retries inside a deadline, and ``DEGRADED`` answers, so only a
  whole-shard outage surfaces as an explicit ``FAILED`` response;
* :class:`~repro.service.geo.GeoTier` — edge replica sets fed by durable
  queues, their drain loops, and read-your-writes sessions.

Writes ship to **every replica** of the owning shards, which apply the
identical batch in lockstep (:meth:`~repro.store.ReplicaGroup.settle`);
other shards keep serving, and because the cache key of a store-reading
verdict carries the per-shard epoch, an ingest invalidates only its shards'
cached store-reading verdicts (a store-free one stays valid everywhere).
Every response is stamped with the composite epoch vector
(``ServiceResponse.epoch_vector``) and its scalar sum, so clients can
reason about which shard versions an answer reflects.
"""

from __future__ import annotations

import asyncio
import operator
import time
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..chaos.clock import Clock, MonotonicClock
from ..obs import Observability
from ..obs.registry import MetricFamily, MetricsRegistry, render_exposition
from ..obs.trace import OUTCOME_STATUS, Tracer
from ..store import GeoReplicator, Mutation, ReplicaGroup, ShardApplyReport, ShardedStore
from ..store.sharding import HashRing
from ..validation.base import ValidationResult
from .attempts import AttemptExecutor
from .balancer import ReplicaBalancer, ReplicaHealth
from .config import ServiceConfig
from .geo import GeoTier
from .metrics import MetricsSnapshot, ServiceMetrics
from .policy import RetryPolicy
from .server import RequestOutcome, ServiceRequest, ServiceResponse, ValidationService

__all__ = [
    "ROUTER_METRIC_NAMES",
    "RouterMetrics",
    "ShardedValidationService",
]

#: Every registry metric :class:`RouterMetrics` owns on top of the
#: per-replica ``SERVICE_METRIC_NAMES`` — the docs lint checks the
#: observability runbook documents each of these by name.
ROUTER_METRIC_NAMES = (
    "router_failures_total",
    "router_timeout_failures_total",
    "router_failovers_total",
    "router_retries_total",
    "router_degraded_total",
    "router_budget_exhausted_total",
    "router_unhealthy_replicas",
    "router_staleness_epochs",
    "router_lockstep_audits_total",
    # Geo tier (per-edge families are ``edge``-labelled; the
    # session-fallback counter is fleet-level):
    "router_geo_watermark_epoch",
    "router_geo_watermark_lag_epochs",
    "router_geo_queue_depth",
    "router_geo_edge_reads_total",
    "router_geo_batches_shipped_total",
    "router_geo_session_fallbacks_total",
)

_EPOCH = operator.attrgetter("epoch")


class RouterMetrics:
    """The router's one registry plus read-only views over the fleet.

    :attr:`registry` holds what only the router can count (``FAILED``
    responses, failovers, retries, degradation, the geo tier); every other
    number is read from the :class:`ServiceMetrics` registry of a
    :class:`ValidationService` the router fronts — replicas under
    ``shard``/``replica`` labels, edge copies under ``edge``/``shard``.
    The geo tier registers its ``router_geo_*`` families here too.  One
    object serves the router's whole life: ``start()`` resets the registry
    and the health table in place.

    The fleet snapshot's ``errors`` is ``router_failures_total``: a faulted
    attempt that a sibling rescued is a failover, whatever the owning
    worker counted, so ``completed + rejected + errors + degraded``
    accounts for every routed read exactly once.
    """

    def __init__(self, router: "ShardedValidationService") -> None:
        self._router = router
        self.registry = MetricsRegistry()
        self._failures_total = self.registry.counter(
            "router_failures_total", "FAILED responses after every replica was tried."
        )
        self._timeout_failures_total = self.registry.counter(
            "router_timeout_failures_total",
            "The subset of failures involving a stalled replica.",
        )
        self.failovers_total = self.registry.counter(
            "router_failovers_total",
            "Requests rescued by a sibling replica after >= 1 faulted attempts.",
        )
        self.retries_total = self.registry.counter(
            "router_retries_total",
            "Extra full passes over a shard's replicas under the retry policy.",
        )
        self._degraded_total = self.registry.counter(
            "router_degraded_total",
            "DEGRADED responses served from the stale verdict cache.",
        )
        self.budget_exhausted_total = self.registry.counter(
            "router_budget_exhausted_total",
            "Requests whose whole retry budget was spent without a live answer.",
        )
        self._unhealthy_gauge = self.registry.gauge(
            "router_unhealthy_replicas",
            "Replicas currently out of the regular routing rotation.",
        )
        self._staleness_gauge = self.registry.gauge(
            "router_staleness_epochs",
            "Epoch lag of the most recent DEGRADED response (0 = serving fresh).",
        )
        self.lockstep_audits_total = self.registry.counter(
            "router_lockstep_audits_total",
            "Full state-digest audits a ship escalated to and passed (O(store), "
            "under the ingest lock).",
        )

    # ------------------------------------------------------------- recording

    def observe_failure(self, timeout: bool = False) -> None:
        """One ``FAILED`` response after every replica was tried
        (``timeout=True`` when a stall past the request timeout contributed)."""
        self._failures_total.inc()
        if timeout:
            self._timeout_failures_total.inc()

    def observe_degraded(self, staleness_epochs: int) -> None:
        """One ``DEGRADED`` response served from the stale verdict cache,
        ``staleness_epochs`` applied epochs behind the shard's watermark
        (the gauge the staleness SLO watches)."""
        self._degraded_total.inc()
        self._staleness_gauge.set(staleness_epochs)

    def _refresh(self) -> None:
        """Set the gauges that are read off live state rather than counted:
        the replicas out of the rotation and each live edge's watermark,
        worst-shard lag and queue depth (they move between requests)."""
        router = self._router
        self._unhealthy_gauge.set(
            sum(not health.healthy for shard in router.health for health in shard)
        )
        router.geo_tier.refresh()

    # ------------------------------------------------------------- properties

    @property
    def failures(self) -> int:
        """``FAILED`` responses produced by the router."""
        return int(self._failures_total.value)

    @property
    def failovers(self) -> int:
        """Requests answered by a sibling after their first choice faulted."""
        return int(self.failovers_total.value)

    @property
    def session_fallbacks(self) -> int:
        """Reads forced off the edge tier by read-your-writes coverage."""
        return int(self._router.geo_tier.session_fallbacks_total.value)

    # ------------------------------------------------------------- snapshots

    def snapshot(self) -> MetricsSnapshot:
        """One fleet-wide roll-up across every replica and every edge copy."""
        self._refresh()
        return replace(
            ServiceMetrics.roll_up(
                [service.metrics for group in self._router.groups for service in group],
                fell_back=[
                    service.metrics
                    for services in self._router.edge_services.values()
                    for service in services
                ],
            ),
            errors=self.failures,
            failovers=self.failovers,
            unhealthy_replicas=int(self._unhealthy_gauge.value),
            retries=int(self.retries_total.value),
            degraded=int(self._degraded_total.value),
            budget_exhausted=int(self.budget_exhausted_total.value),
        )

    def collect_families(self) -> List[MetricFamily]:
        """Every fleet instrument as collected metric families.

        Each service registry is collected with its fleet coordinates
        injected as labels — replicas under ``shard``/``replica``, edge
        copies under ``edge``/``shard`` (the registries own identical
        unlabeled series; merging without them would collide) — then the
        router's own.  This is the
        :class:`~repro.obs.timeseries.MetricsScraper` source for SLO
        evaluation and the ``obs top`` dashboard.
        """
        self._refresh()
        families = []
        for shard_index, group in enumerate(self._router.groups):
            for replica_index, service in enumerate(group):
                families.extend(
                    service.metrics.registry.collect(
                        {"shard": str(shard_index), "replica": str(replica_index)}
                    )
                )
        for edge in self._router.edge_names:
            for shard_index, service in enumerate(self._router.edge_services[edge]):
                families.extend(
                    service.metrics.registry.collect(
                        {"edge": edge, "shard": str(shard_index)}
                    )
                )
        families.extend(self.registry.collect())
        return families

    def exposition(self) -> str:
        """The whole fleet's instruments as one Prometheus-style text page."""
        return render_exposition(self.collect_families())

    def per_shard(self) -> List[MetricsSnapshot]:
        """One snapshot per logical shard (its primary-tier replicas summed;
        ``errors`` here are the workers' own counts)."""
        return [
            ServiceMetrics.roll_up([service.metrics for service in group])
            for group in self._router.groups
        ]

    def per_replica(self) -> List[Tuple[int, int, MetricsSnapshot, ReplicaHealth]]:
        """``(shard, replica, snapshot, health)`` for every replica worker."""
        health = self._router.health
        return [
            (shard, replica, service.metrics.snapshot(), health[shard][replica])
            for shard, group in enumerate(self._router.groups)
            for replica, service in enumerate(group)
        ]

    # ------------------------------------------------------------- rendering

    def format_shard_table(self) -> str:
        """One row per logical shard: the tail-latency/queue/shed roll-ups."""
        title = "Per-shard metrics"
        lines = [title, "-" * len(title)]
        header = (
            f"{'shard':>5}  {'completed':>9}  {'shed':>5}  {'errors':>6}  "
            f"{'p50 ms':>8}  {'p95 ms':>8}  {'p99 ms':>8}  {'queue':>5}  {'hit rate':>8}"
        )
        lines.append(header)
        for index, snapshot in enumerate(self.per_shard()):
            lines.append(
                f"{index:>5}  {snapshot.completed:>9}  {snapshot.rejected:>5}  "
                f"{snapshot.errors:>6}  {snapshot.p50_latency_s * 1000:>8.2f}  "
                f"{snapshot.p95_latency_s * 1000:>8.2f}  "
                f"{snapshot.p99_latency_s * 1000:>8.2f}  {snapshot.queue_depth:>5}  "
                f"{snapshot.cache_hit_rate:>8.1%}"
            )
        return "\n".join(lines)

    def format_replica_table(self) -> str:
        """One row per replica: health state, traffic, faults, probes."""
        title = "Per-replica health"
        lines = [title, "-" * len(title)]
        header = (
            f"{'shard':>5}  {'replica':>7}  {'state':>9}  {'served':>7}  "
            f"{'completed':>9}  {'faults':>6}  {'timeouts':>8}  {'probes':>6}  "
            f"{'p50 ms':>8}  {'queue':>5}"
        )
        lines.append(header)
        for shard_index, replica_index, snapshot, health in self.per_replica():
            state = "healthy" if health.healthy else "unhealthy"
            lines.append(
                f"{shard_index:>5}  {replica_index:>7}  {state:>9}  "
                f"{health.served:>7}  {snapshot.completed:>9}  "
                f"{health.failures:>6}  {health.timeouts:>8}  {health.probes:>6}  "
                f"{snapshot.p50_latency_s * 1000:>8.2f}  {snapshot.queue_depth:>5}"
            )
        return "\n".join(lines)


class ShardedValidationService:
    """Routes single-fact requests and mutations to their owning shard,
    load-balancing reads across each shard's replica group.

    Parameters
    ----------
    shards:
        One replica group per logical shard: an inner sequence of
        :class:`ValidationService` workers, the shard's primary first
        (``[[service]]`` is the single node).
    store:
        The :class:`~repro.store.ShardedStore` of shard *primaries*; wires
        the :meth:`apply_mutations` write path, and its ring routes reads
        and writes alike (without a store: ``HashRing(num_shards)``).
    request_timeout_s:
        Per-attempt budget before a stalled replica is abandoned and the
        request fails over to a sibling.  ``None`` disables timeouts (a
        stalled replica then blocks its request, as any asyncio await
        would) — stall detection and health probing need it set.
    replica_groups:
        The per-shard :class:`~repro.store.ReplicaGroup` objects backing
        the replica services' stores (one store copy per service, in
        order); every ingest settles through the owning groups.  Defaults
        to a group of one per attached shard (``store.replicate(1)``).
    probe_interval_s:
        Seconds an unhealthy replica rests before the balancer routes one
        canary request at it.
    retry_policy:
        Optional :class:`~repro.service.policy.RetryPolicy`: retries of a
        fully faulted pass, then ``DEGRADED`` answers
        (:mod:`~repro.service.attempts`).  ``None``: one pass, then ``FAILED``.
    clock:
        Injectable :class:`~repro.chaos.clock.Clock` for probe timers,
        retry backoff, deadlines and drain ticks; defaults to the real
        :class:`~repro.chaos.clock.MonotonicClock`.  Tests pass a
        :class:`~repro.chaos.clock.VirtualClock` for deterministic timing.
    geo / edge_services / staleness_bound_epochs / drain_interval_s / edge_lag_s / drain_seed:
        The asynchronous geo tier (:class:`~repro.service.geo.GeoTier`): a
        :class:`~repro.store.GeoReplicator` over the attached store's
        shards plus, per edge name, one :class:`ValidationService` per
        shard over that edge's store copies (both or neither).  Edge reads
        trailing the primary by more than ``staleness_bound_epochs`` (unset:
        no bound) go to the primary tier.  Each edge drains every
        ``drain_interval_s`` plus its ``edge_lag_s`` (the lag chaos
        scenarios inject), in a shard order shuffled by ``drain_seed``:
        run-table columns must be byte-identical across drain seeds.

    Raises
    ------
    ValueError
        On empty shard lists, non-positive timeouts, or a
        store/replica-group/edge shape that disagrees with ``shards``.
    """

    def __init__(
        self,
        shards: Sequence[Sequence[ValidationService]],
        store: Optional[ShardedStore] = None,
        request_timeout_s: Optional[float] = None,
        replica_groups: Optional[Sequence[ReplicaGroup]] = None,
        probe_interval_s: float = 0.25,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        geo: Optional[GeoReplicator] = None,
        edge_services: Optional[Mapping[str, Sequence[ValidationService]]] = None,
        staleness_bound_epochs: Optional[int] = None,
        drain_interval_s: float = 0.02,
        edge_lag_s: Optional[Mapping[str, float]] = None,
        drain_seed: int = 0,
    ) -> None:
        if not shards:
            raise ValueError("a ShardedValidationService needs at least one shard")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive when set")
        if probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        self.groups: List[List[ValidationService]] = [list(group) for group in shards]
        if any(not group for group in self.groups):
            raise ValueError("every shard needs at least one replica service")
        if len({len(group) for group in self.groups}) != 1:
            raise ValueError(
                "every shard needs the same number of replica services; got "
                f"{[len(group) for group in self.groups]}"
            )
        self.store = store
        if store is not None and store.num_shards != len(self.groups):
            raise ValueError(
                f"store partitions {store.num_shards} ways but "
                f"{len(self.groups)} shard groups were given"
            )
        if not replica_groups and store is not None:
            replica_groups = store.replicate(1)
        self.replica_groups: List[ReplicaGroup] = list(replica_groups or ())
        copies = [replica_group.num_replicas for replica_group in self.replica_groups]
        if copies and copies != [len(group) for group in self.groups]:
            raise ValueError(
                f"replica groups of {copies} store copies for shards of "
                f"{[len(group) for group in self.groups]} replica services"
            )
        if geo is not None and store is None:
            raise ValueError("the geo tier needs the ShardedStore attached")
        # One ring routes both reads and writes; a divergent ring would
        # judge facts on one shard and invalidate another.
        self.ring = store.ring if store is not None else HashRing(len(self.groups))
        self.clock: Clock = clock or MonotonicClock()
        # Chaos: armed via set_fault_injection; fires the "store" point on
        # the ingest path (replica-level points live on the services).
        self._injector = None
        # Observability: armed via set_observability; spans/events fan out
        # to every replica service and attached store.
        self._tracer: Optional[Tracer] = None
        self._closed = False
        self.balancer = ReplicaBalancer(self.groups, self.clock, probe_interval_s)
        self.health: List[List[ReplicaHealth]] = self.balancer.health
        self.metrics = RouterMetrics(self)
        self.attempts = AttemptExecutor(
            self.balancer,
            self.metrics,
            request_timeout_s,
            retry_policy,
            respond=self._respond,
            is_closed=lambda: self._closed,
        )
        self.geo_tier = GeoTier(
            geo,
            edge_services,
            num_shards=len(self.groups),
            registry=self.metrics.registry,
            attempts=self.attempts,
            shard_epoch=self._shard_epoch,
            clock=self.clock,
            staleness_bound_epochs=staleness_bound_epochs,
            drain_interval_s=drain_interval_s,
            edge_lag_s=edge_lag_s,
            drain_seed=drain_seed,
        )
        self.geo = geo
        self.edge_services: Dict[str, List[ValidationService]] = self.geo_tier.services
        # Serialises cross-shard ingests so the pre-validation below stays
        # true until the fan-out applies; (re)created in start() so a
        # router reused across event loops never holds a dead-loop lock.
        self._ingest_lock = asyncio.Lock()

    @classmethod
    def from_runner(
        cls,
        runner,
        num_shards: int,
        config: Optional[ServiceConfig] = None,
        store: Optional[ShardedStore] = None,
        replicas: int = 1,
        edges: int = 0,
        queue_dir: Optional[str] = None,
        **fleet,
    ) -> "ShardedValidationService":
        """``num_shards`` x ``replicas`` shard services over one runner.

        Each replica gets its own :class:`ValidationService` (own queues,
        workers, verdict cache, admission budget) built from the runner's
        strategy provider.  With a :class:`~repro.store.ShardedStore`
        attached, the store is grown into per-shard
        :class:`~repro.store.ReplicaGroup` copies (log-shipped from each
        shard's log) so every replica worker serves its own byte-identical
        store copy — the fleet shards remain the group primaries.

        ``edges > 0`` adds the asynchronous geo tier: a
        :class:`~repro.store.GeoReplicator` over the store (durable queues
        when ``queue_dir`` is set), with edges named ``edge-0`` …
        ``edge-{edges-1}``, each serving its own per-shard store copies
        bootstrapped by snapshot replay.  ``fleet`` holds the constructor's
        other keywords (timeouts, retry policy, clock, drain tuning).

        Raises :class:`ValueError` for what the constructor refuses, when
        the store partitions other than ``num_shards`` ways, and for
        ``edges < 0`` or ``edges > 0`` without a store.
        """
        if edges < 0:
            raise ValueError("edges must be >= 0")
        if edges and store is None:
            raise ValueError("the geo tier needs a ShardedStore attached")
        if store is not None and store.num_shards != num_shards:
            raise ValueError(
                f"store partitions {store.num_shards} ways; asked for {num_shards}"
            )
        replica_groups = store.replicate(replicas) if store is not None else []
        copies = [group.stores for group in replica_groups] or [[None] * replicas] * num_shards
        groups = [
            [ValidationService.from_runner(runner, config, store=copy) for copy in stores]
            for stores in copies
        ]
        geo: Optional[GeoReplicator] = None
        edge_services: Optional[Dict[str, List[ValidationService]]] = None
        if edges:
            geo = GeoReplicator(store, queue_dir=queue_dir)
            geo.wire_replicas(replica_groups)
            edge_services = {}
            for edge_index in range(edges):
                name = f"edge-{edge_index}"
                edge = geo.add_edge(name)
                edge_services[name] = [
                    ValidationService.from_runner(runner, config, store=edge_store)
                    for edge_store in edge.stores
                ]
        return cls(
            groups,
            store=store,
            replica_groups=replica_groups,
            geo=geo,
            edge_services=edge_services,
            **fleet,
        )

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start every replica worker and reset routing/health state.

        Replicas removed by :meth:`kill_replica` stay stopped and
        unhealthy: their store copies missed every ingest since the kill,
        so restarting them would serve stale epochs and diverge the next
        log ship.
        """
        self._closed = False
        self._ingest_lock = asyncio.Lock()
        # Both reset in place: ``self.metrics`` and ``self.health`` (and
        # anything bound to them, a scraper say) are the same objects
        # across stop()/start() cycles.
        self.balancer.reset()
        self.metrics.registry.reset()
        for shard_index, group in enumerate(self.groups):
            for replica_index, service in enumerate(group):
                if (shard_index, replica_index) not in self.balancer.dead:
                    await service.start()
        await self.geo_tier.start()

    async def stop(self, drain: bool = True) -> None:
        """Stop every replica; ``drain=True`` answers admitted requests first.

        Replicas stop concurrently, so the drain wall time is the slowest
        *healthy* replica's, not the sum — and crucially not an unhealthy
        replica's: a replica that is out of the rotation (stalled, killed,
        or marked unhealthy by a failed probe) is hard-stopped instead of
        drained, so a dead replica's stuck queue can never wedge shutdown;
        its in-flight futures are cancelled, never dropped.  The exception
        is a group with no healthy sibling left (a single-replica shard
        after one fault, say): its unhealthy-but-running replicas are still
        the only path to an answer for their admitted requests, so they
        drain normally.
        """
        self._closed = True
        stops = await self.geo_tier.halt(drain)
        for shard_index, group in enumerate(self.groups):
            healths = self.health[shard_index]
            has_healthy_sibling = any(
                healths[index].healthy and not replica._closed
                for index, replica in enumerate(group)
            )
            for replica_index, service in enumerate(group):
                replica_drain = drain and not service._closed and (
                    healths[replica_index].healthy or not has_healthy_sibling
                )
                stops.append(service.stop(drain=replica_drain))
        await asyncio.gather(*stops)
        self.geo_tier.commit_queues()

    async def __aenter__(self) -> "ShardedValidationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def kill_replica(self, shard_index: int, replica_index: int) -> None:
        """Hard-stop one replica in place (fault injection / ops eviction).

        Its in-flight requests fail over to its siblings, and it stays out
        of the rotation for the rest of the router's life, stop()/start()
        cycles included: its store copy misses every ingest from now on.
        Raises :class:`IndexError` for out-of-range coordinates.
        """
        self.balancer.kill(shard_index, replica_index)
        await self.groups[shard_index][replica_index].stop(drain=False)

    @property
    def edge_names(self) -> List[str]:
        """Configured edge replica names, sorted (dead edges included)."""
        return self.geo_tier.names

    async def drain_edges(self) -> int:
        """Drain queued batches into every live edge now (see
        :meth:`GeoTier.drain_edges <repro.service.geo.GeoTier.drain_edges>`)."""
        return await self.geo_tier.drain_edges()

    # ---------------------------------------------------------------- properties

    @property
    def num_shards(self) -> int:
        """Logical shard count (not the replica worker count)."""
        return len(self.groups)

    @property
    def num_replicas(self) -> int:
        """Replica workers per shard (uniform — the constructor rejects
        ragged groups)."""
        return len(self.groups[0])

    @property
    def pending(self) -> int:
        """Admitted-not-answered requests across every replica of the fleet."""
        return sum(service.pending for group in self.groups for service in group)

    @property
    def epoch_vector(self) -> Tuple[int, ...]:
        """Per-shard epochs: the max over each group's replicas, stopped
        ones included — a killed replica's copy misses every later ingest,
        so its lower epoch never wins the max."""
        return tuple([max(map(_EPOCH, group)) for group in self.groups])

    def _shard_epoch(self, shard_index: int) -> int:
        """One component of :attr:`epoch_vector`."""
        return max(map(_EPOCH, self.groups[shard_index]))

    @property
    def epoch(self) -> int:
        """Composite scalar epoch (sum of the per-shard epochs)."""
        return sum(self.epoch_vector)

    def shard_for(self, request: ServiceRequest) -> int:
        """The index of the shard owning one request's subject entity."""
        return self.ring.shard_for(request.fact.triple.subject)

    # ---------------------------------------------------------------- serving

    async def submit(
        self,
        request: ServiceRequest,
        session: Optional[str] = None,
        region: Optional[str] = None,
    ) -> ServiceResponse:
        """Route one request to its owning shard, failing over across replicas.

        A ``region`` naming an eligible edge
        (:meth:`GeoTier.for_read <repro.service.geo.GeoTier.for_read>`:
        read-your-writes for ``session``, inside the staleness bound) serves
        the read from that edge's store copy, stamped with the edge's epoch
        vector, ``served_by`` and ``staleness_epochs``; an ineligible,
        faulted, or unknown region falls back to the primary tier.  There,
        an untraced read asks the balancer's first pick's cache step
        (:meth:`ValidationService.cached`) and answers a hit here; any other
        read is an attempt run from that same order (:class:`AttemptExecutor
        <repro.service.attempts.AttemptExecutor>`).  Load shedding surfaces
        as ``REJECTED``.  Raises :class:`RuntimeError` when the router is
        stopped, and propagates :class:`asyncio.CancelledError` when the
        *caller* (or a router shutdown) cancels the request.

        With tracing armed (:meth:`set_observability`), the whole journey
        is one ``router.route`` span with a ``router.attempt`` child per
        pass and a ``replica.call`` child per replica tried; ``DEGRADED``
        responses tag the span with the stale verdict's epoch and its
        staleness, and the response carries the ``trace_id``.
        """
        if self._closed:
            raise RuntimeError("service is stopped")
        shard_index = self.shard_for(request)
        edge = self.geo_tier.for_read(shard_index, session, region)
        if edge is not None:
            response = await self.geo_tier.read(request, shard_index, edge)
            if response is not None:
                return self._respond(
                    response.outcome,
                    shard_index,
                    response.latency_seconds,
                    result=response.result,
                    cached=response.cached,
                    batch_size=response.batch_size,
                    edge=edge,
                    trace_id=response.trace_id,
                )
        if self._tracer is None:
            order = self.balancer.order(shard_index, request)
            hit = order and self.groups[shard_index][order[0]].cached(request, time.perf_counter())
            if not hit:
                return await self.attempts.run(request, shard_index, None, order)
            result, shard_epoch, latency = hit
            self.balancer.record_success(shard_index, order[0])
            if self.attempts.retry_policy is not None:
                self.attempts.remember(request, result, shard_epoch)
            return self._respond(
                RequestOutcome.COMPLETED, shard_index, latency,
                result=result, cached=True, shard_epoch=shard_epoch,
            )
        with self._tracer.span("router.route", f"shard:{shard_index}") as span:
            span.attributes["method"] = request.method
            span.attributes["shard"] = shard_index
            response = await self.attempts.run(request, shard_index, span)
            span.attributes["outcome"] = response.outcome.name
            span.status = OUTCOME_STATUS.get(response.outcome.value, span.status)
            if response.outcome is RequestOutcome.DEGRADED:
                stale_epoch = response.stale_epoch or 0
                span.attributes["stale_epoch"] = stale_epoch
                span.attributes["staleness_epochs"] = (
                    response.epoch_vector[shard_index] - stale_epoch
                )
            return response

    async def submit_many(
        self, requests: Sequence[ServiceRequest]
    ) -> List[ServiceResponse]:
        """Scatter a multi-fact batch across shards, gather in submission order.

        The fan-out is concurrent per shard; the merge is deterministic —
        ``responses[i]`` answers ``requests[i]`` regardless of shard
        completion order, so gathered verdicts are byte-identical to a
        single worker's for the same coordinates.  A failing request
        occupies its slot with a ``FAILED`` response; it never silently
        drops or fails its neighbours.
        """
        responses: List[Optional[ServiceResponse]] = [None] * len(requests)

        async def issue(position: int, request: ServiceRequest) -> None:
            responses[position] = await self.submit(request)

        await asyncio.gather(
            *(issue(position, request) for position, request in enumerate(requests))
        )
        return [response for response in responses if response is not None]

    # ---------------------------------------------------------------- ingestion

    async def apply_mutations(
        self, mutations: Sequence[Mutation], session: Optional[str] = None
    ) -> ShardApplyReport:
        """Route a mutation batch to its owning shards; ship to every replica.

        Writes always land on the primary tier; with a geo tier the call
        returns only once every touched shard's queue has committed the
        batch, and a ``session`` token then records the landed epochs for
        read-your-writes (:meth:`GeoTier.commit
        <repro.service.geo.GeoTier.commit>`).  An :class:`OSError` from a
        sync fails the ingest; the record rides the next commit.

        Each owning shard's replicas quiesce *themselves* (drain their
        in-flight reads, apply the identical batch to their own store copy,
        bump their epoch) while the rest of the fleet keeps serving — the
        per-shard invalidation contract: only the mutated shard's cached
        store-reading verdicts go stale, and a store-free one (see
        :func:`~repro.service.cache.verdict_scope`) goes stale on no shard.
        Their outcomes settle through the shard's
        group (:meth:`~repro.store.ReplicaGroup.settle`:
        :class:`ReplicaDivergedError` when a replica refuses a batch a
        sibling applied, or on any drift).  Replicas whose workers stopped
        before they applied — killed before the ingest or during its
        fan-out — are skipped and stay out of the rotation (their store
        copies stop at the pre-ingest epoch).

        The all-or-nothing contract of :meth:`ShardedStore.apply` extends
        to this path: every sub-batch is validated against its shard
        *before* any shard applies (cross-shard ingests serialise on a
        router lock so the validation stays true through the fan-out), so
        a rejected batch raises :class:`ValueError` without mutating or
        epoch-bumping any replica.  Raises :class:`RuntimeError` when the
        router is stopped or no store is attached.
        """
        if self._closed:
            raise RuntimeError("service is stopped")
        if self.store is None:
            raise RuntimeError("no ShardedStore attached to this service")
        if self._injector is not None:
            # Chaos write-path fault point: an active error/kill fault fails
            # the ingest explicitly before any shard is touched.
            await self._injector.fire("store")
        batch = list(mutations)
        if not batch:
            raise ValueError("mutation batch must not be empty")
        groups_map = self.store.route(batch)
        indexes = sorted(groups_map)
        live_replicas = self.balancer.live_replicas
        async with self._ingest_lock:
            # Liveness and validation both run for EVERY owning shard before
            # ANY shard applies, so a doomed batch leaves the fleet
            # untouched.  Validation uses each shard's first *live* copy: a
            # killed primary's copy stops at its death epoch and no longer
            # reflects the state the live replicas would apply against.
            live_by_shard = {index: live_replicas(index) for index in indexes}
            for index, live in live_by_shard.items():
                if not live:
                    raise RuntimeError(
                        f"shard {index} has no live replicas to apply the batch"
                    )
                self.replica_groups[index].stores[live[0]].validate(groups_map[index])
            # The fan-out below reaches the replicas only after its task
            # hops; pause their reads now, or cache hits (which never yield)
            # would take the schedule past the write before it lands.
            paused = [
                self.groups[index][j] for index, live in live_by_shard.items() for j in live
            ]
            for service in paused:
                service.pause_reads()

            async def ship(index: int):
                live = live_by_shard[index]
                outcomes = await asyncio.gather(
                    *(self.groups[index][j].apply_mutations(groups_map[index]) for j in live),
                    return_exceptions=True,
                )
                # A replica stopped between the liveness check and its apply
                # applied nothing: skipped like one killed before the ingest.
                alive = live_replicas(index)
                settled = [
                    (j, outcome)
                    for j, outcome in zip(live, outcomes)
                    if j in alive or not isinstance(outcome, BaseException)
                ]
                if not settled:
                    raise outcomes[0]
                group = self.replica_groups[index]
                report, audited = group.settle(
                    [group.stores[j] for j, _ in settled],
                    [outcome for _, outcome in settled],
                )
                if audited:
                    self.metrics.lockstep_audits_total.inc()
                return report

            try:
                reports = await asyncio.gather(*(ship(index) for index in indexes))
            except asyncio.CancelledError:
                # A cancelled gather returns once every task it started is
                # done, each apply having reopened its own gate; a replica
                # whose apply never started must not stay paused.
                for service in paused:
                    service.resume_reads()
                raise
            await self.geo_tier.commit(session, indexes, reports)
        return ShardApplyReport(tuple(zip(indexes, reports)), self.epoch_vector)

    # ---------------------------------------------------------------- chaos

    def set_fault_injection(self, injector) -> None:
        """Arm (or with ``injector=None`` disarm) chaos fault injection.

        Compiles the injector's fault points into every layer this router
        fronts: each replica service fires ``shard:{i}/replica:{j}`` before
        executing a micro-batch and the router fires ``store`` on the
        ingest path.  ``kill`` events are *not* fired here — the scenario
        driver calls :meth:`kill_replica` at each kill's ``at_s`` so kills
        share the ops-eviction semantics.

        The geo tier's drain loops consult their ``edge:{i}`` points
        themselves; edge *reads* are deliberately not armed: a partitioned
        edge that still answers is the semantics under test.
        """
        self._injector = self.geo_tier.injector = injector
        for shard_index, group in enumerate(self.groups):
            for replica_index, service in enumerate(group):
                service.set_fault_injection(
                    injector, self.balancer.point(shard_index, replica_index)
                )

    # ---------------------------------------------------------------- observability

    def set_observability(self, obs: Optional[Observability]) -> None:
        """Arm (or with ``obs=None`` disarm) tracing and event logging.

        Fans the bundle's tracer and event log out to every layer this
        router fronts: each replica service traces ``service.submit`` /
        ``worker.execute`` / ``store.read`` under the point label
        ``shard:{i}/replica:{j}`` and emits quiesce events; every store
        copy traces ``store.apply`` (its service arms it); the router traces
        ``router.route`` / ``router.attempt`` / ``replica.call`` and emits
        health, failover, and budget events.
        """
        tracer = obs.tracer if obs is not None else None
        events = obs.events if obs is not None else None
        self._tracer = self.attempts.tracer = tracer
        self.balancer.events = self.attempts.events = events
        for shard_index, group in enumerate(self.groups):
            for replica_index, service in enumerate(group):
                service.set_observability(
                    tracer, events, self.balancer.point(shard_index, replica_index)
                )
        self.geo_tier.set_observability(tracer, events)

    # ---------------------------------------------------------------- internals

    def _respond(
        self,
        outcome: RequestOutcome,
        shard_index: int,
        latency_seconds: float,
        *,
        result: Optional[ValidationResult] = None,
        cached: bool = False,
        batch_size: int = 0,
        shard_epoch: Optional[int] = None,
        edge: Optional[str] = None,
        error: Optional[str] = None,
        retries: int = 0,
        stale_epoch: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> ServiceResponse:
        """Build the response to one read — the only place the router does.

        The fleet epoch vector is read in one pass.  A replica's answer
        passes the ``shard_epoch`` it was admitted at, which stands in for
        the owning shard's component (its group is not read);
        ``DEGRADED``/``FAILED`` answers carry the current fleet vector.  With
        a geo tier configured a primary-served response is marked
        ``served_by="primary"`` at zero staleness (the primary is never
        stale to itself); an ``edge`` answer carries that edge's applied
        vector and the epochs its owning shard copy trailed the primary.
        Without a geo tier both fields stay ``None``.
        """
        served_by: Optional[str] = None
        staleness: Optional[int] = None
        if edge is not None:
            vector = self.geo.edges[edge].applied_vector
            served_by = edge
            staleness = max(self._shard_epoch(shard_index) - vector[shard_index], 0)
        else:
            vector = tuple([
                shard_epoch
                if index == shard_index and shard_epoch is not None
                else max(map(_EPOCH, group))
                for index, group in enumerate(self.groups)
            ])
            if self.geo is not None:
                served_by, staleness = "primary", 0
        return ServiceResponse(
            outcome=outcome,
            result=result,
            cached=cached,
            latency_seconds=latency_seconds,
            batch_size=batch_size,
            epoch=sum(vector),
            epoch_vector=vector,
            error=error,
            retries=retries,
            stale_epoch=stale_epoch,
            trace_id=trace_id,
            served_by=served_by,
            staleness_epochs=staleness,
        )
