"""Sharded, replicated serving tier: read fan-out, failover, scatter-gather.

:class:`ShardedValidationService` fronts N logical shards, each backed by a
**replica group** of R independent
:class:`~repro.service.server.ValidationService` workers.  It is the one
front door (``submit`` / ``apply_mutations`` / ``metrics`` / async context
manager) the TCP front-end, the load generator and the CLI drive; a single
node is the 1x1 fleet.

Routing and consistency:

* **Reads** route by consistent hash of the fact's subject entity — the
  same :class:`~repro.store.sharding.HashRing` the store partition uses —
  to the owning *shard*, then a load balancer picks one of the shard's
  replicas.  In a group that caches verdicts, each verdict coordinate has
  a **home** replica (a process-stable hash of its dataset, fact id,
  method and model), and its reads go there unless the home is out of the
  rotation or at least one full batch deeper than the shallowest healthy
  sibling — so the group's caches divide the shard's coordinates instead
  of each holding the same ones.  A cacheless group orders healthy
  replicas by queue depth (least pending first) with a round-robin
  tie-break, so single-fact reads fan out across the whole group.
* **Batches** scatter-gather: :meth:`submit_many` fans a multi-fact batch
  out to the owning shards concurrently and merges the responses back in
  submission order — a deterministic merge, so the gathered verdicts are
  byte-identical to a single worker's (and to the offline pipeline's)
  for the same coordinates, whichever replica happens to answer.
* **Writes** route by the same key (:func:`mutation_shard_key`) and ship
  to **every replica** of the owning shard: each replica service quiesces
  itself, applies the identical batch to its own store copy, and bumps its
  epoch — the group stays in lockstep, checked after every ship through
  :meth:`~repro.store.ReplicaGroup.lockstep` (chained digests, O(1), with
  the full state-digest audit behind them) when a replicated store is
  attached.  Other shards keep serving
  throughout, and because verdict-cache keys carry the per-shard epoch, an
  ingest invalidates only the owning shard's cached verdicts.
* **Faults fail over, then surface**: a replica that raises, stalls past
  ``request_timeout_s``, or is killed mid-request is marked unhealthy and
  its traffic reroutes to sibling replicas — the client sees a normal
  ``COMPLETED`` verdict, not a ``FAILED``.  Only when *every* replica of
  the owning shard fails does the request surface an explicit ``FAILED``
  response (never an exception, never a hang).  Unhealthy replicas are
  re-admitted by health probes: after ``probe_interval_s`` the balancer
  routes one canary request at the suspect; success restores it to the
  rotation, failure resets the probe timer.

Every response is stamped with the composite epoch vector
(``ServiceResponse.epoch_vector``) and its scalar sum, so clients can
reason about which shard versions an answer reflects.
"""

from __future__ import annotations

import asyncio
import contextlib
import operator
import random
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..chaos.clock import Clock, MonotonicClock
from ..obs import Observability
from ..obs.registry import MetricFamily, MetricsRegistry, render_exposition
from ..obs.trace import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_SHED,
    Span,
    Tracer,
)
from ..store import GeoReplicator, Mutation, ReplicaGroup, ShardApplyReport, ShardedStore
from ..store.geosync import sync_and_close
from ..store.sharding import HashRing, ReplicaDivergedError
from ..validation.base import ValidationResult
from .cache import verdict_cache_key
from .config import ServiceConfig
from .metrics import MetricsSnapshot, ServiceMetrics
from .policy import RetryPolicy
from .server import (
    RequestOutcome,
    ServiceRequest,
    ServiceResponse,
    UnknownStrategyError,
    ValidationService,
)

__all__ = [
    "ROUTER_METRIC_NAMES",
    "ReplicaHealth",
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

#: Bound on the last-known-good verdict cache backing graceful degradation
#: (LRU-evicted beyond it).
STALE_CACHE_CAPACITY = 4096

#: Bound on the router's per-coordinate home-replica memo, emptied whole
#: when full (a miss costs only the crc32 it would cost without one).
HOME_MEMO_CAPACITY = 4096

#: Most queued batches one background drain tick applies; the rest wait for
#: the next tick, so a backlogged edge never monopolises the event loop and
#: back-pressures primary writes through scheduling delay.
DRAIN_BATCH_LIMIT = 8

_EPOCH = operator.attrgetter("epoch")


@dataclass
class ReplicaHealth:
    """Live health and traffic state of one replica worker.

    Attributes
    ----------
    shard / replica:
        The replica's coordinates in the fleet.
    healthy:
        Whether the balancer currently routes regular traffic here.  A
        replica turns unhealthy on its first fault and healthy again the
        moment any request (including a probe) succeeds on it.
    served:
        Requests this replica answered (completions and shed responses).
    failures / timeouts:
        Faulted attempts observed by the router on this replica;
        ``timeouts`` is the subset abandoned past ``request_timeout_s``.
    consecutive_failures:
        Current fault streak; reset to zero by any success.
    probes:
        Canary requests routed here while unhealthy.
    readmissions:
        Times a probe (or last-resort attempt) restored the replica.
    marked_unhealthy_at:
        Router-clock time of the latest fault — the probe timer's
        anchor — or ``None`` while healthy.  Read through the router's
        injectable :class:`~repro.chaos.clock.Clock`, so probe timing is
        deterministic under a virtual clock.
    probing:
        True while one canary is in flight (bounds probes to one at a
        time per replica).
    """

    shard: int
    replica: int
    healthy: bool = True
    served: int = 0
    failures: int = 0
    timeouts: int = 0
    consecutive_failures: int = 0
    probes: int = 0
    readmissions: int = 0
    marked_unhealthy_at: Optional[float] = None
    probing: bool = False


class RouterMetrics:
    """The router's one registry plus read-only views over the fleet.

    :attr:`registry` holds what only the router can count (``FAILED``
    responses, failovers, retries, degradation, the geo tier); every other
    number is read from the :class:`ServiceMetrics` registry of a
    :class:`ValidationService` the router fronts — replicas under
    ``shard``/``replica`` labels, edge copies under ``edge``/``shard``.
    One object serves the router's whole life: ``start()`` resets the
    registry and the health table in place.

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
        self.geo_session_fallbacks_total = self.registry.counter(
            "router_geo_session_fallbacks_total",
            "Reads a session's last-write vector forced off an edge to the primary tier.",
        )
        if not router.edge_names:
            return  # no geo tier: the per-edge families do not exist
        self._geo_watermark_epoch = self.registry.gauge(
            "router_geo_watermark_epoch",
            "Composite reported watermark (sum of per-shard acked epochs).",
            ("edge",),
        )
        self._geo_watermark_lag_epochs = self.registry.gauge(
            "router_geo_watermark_lag_epochs",
            "Worst per-shard epochs this edge's reported watermark trails the primary.",
            ("edge",),
        )
        self._geo_queue_depth = self.registry.gauge(
            "router_geo_queue_depth",
            "Outbound batches queued for this edge across every shard.",
            ("edge",),
        )
        self.geo_edge_reads_total = self.registry.counter(
            "router_geo_edge_reads_total",
            "Reads this edge answered (stamped with visible staleness).",
            ("edge",),
        )
        self.geo_batches_shipped_total = self.registry.counter(
            "router_geo_batches_shipped_total",
            "Queued batches this edge has applied and acknowledged.",
            ("edge",),
        )
        for family in (
            self._geo_watermark_epoch,
            self._geo_watermark_lag_epochs,
            self._geo_queue_depth,
            self.geo_edge_reads_total,
            self.geo_batches_shipped_total,
        ):
            for edge in router.edge_names:
                family.labels(edge=edge)  # zero-valued series still render

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
        for edge in router.live_edge_names:
            self._geo_watermark_epoch.labels(edge=edge).set(
                sum(router.geo.watermark_vector(edge))
            )
            self._geo_watermark_lag_epochs.labels(edge=edge).set(
                max(router.geo.lag_vector(edge))
            )
            self._geo_queue_depth.labels(edge=edge).set(router.geo.depth(edge))

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
        return int(self.geo_session_fallbacks_total.value)

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
        rows = []
        for shard_index, group in enumerate(self._router.groups):
            for replica_index, service in enumerate(group):
                rows.append(
                    (
                        shard_index,
                        replica_index,
                        service.metrics.snapshot(),
                        self._router.health[shard_index][replica_index],
                    )
                )
        return rows

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
        Optional :class:`~repro.service.policy.RetryPolicy`.  When set, a
        request whose whole replica pass faults is retried (with backoff,
        inside the policy's deadline) up to the budget; after the budget is
        spent the router serves the last known good verdict for the
        coordinates as an epoch-tagged ``DEGRADED`` response when one
        exists, and only fails otherwise.  ``None``: one pass, then ``FAILED``.
    clock:
        Injectable :class:`~repro.chaos.clock.Clock` for probe timers,
        retry backoff, and deadlines; defaults to the real
        :class:`~repro.chaos.clock.MonotonicClock`.  Tests pass a
        :class:`~repro.chaos.clock.VirtualClock` for deterministic timing.
    geo / edge_services:
        The asynchronous geo tier: a
        :class:`~repro.store.GeoReplicator` over the attached store's
        shards plus, per edge name, one :class:`ValidationService` per
        shard serving that edge's store copies.  Both or neither.  Edge
        replicas apply queued batches at their own pace (background drain
        loops on the router clock); reads carry a ``region`` hint to
        prefer an edge and are stamped with the edge's epoch vector and
        visible ``staleness_epochs``.
    staleness_bound_epochs:
        Edge reads whose owning-shard watermark trails the primary by
        more than this many epochs route to the primary tier instead —
        the visible-staleness bound.  ``None`` disables the bound.
    drain_interval_s / edge_lag_s:
        Seconds between drain ticks per edge (plus the per-edge extra lag
        from ``edge_lag_s`` — the injected-lag knob chaos scenarios
        turn).  Writes never wait on a drain: the primary acknowledges
        as soon as its own tier applied.  A background tick applies at
        most :data:`DRAIN_BATCH_LIMIT` queued batches;
        :meth:`drain_edges` is never capped.
    drain_seed:
        Seed for the drain scheduler's shard-order shuffle.  Deterministic
        run-table columns must be byte-identical across drain seeds (the
        CI geo determinism re-run); only timing may move.

    Raises
    ------
    ValueError
        On empty shard lists, non-positive timeouts, or a
        store/replica-group shape that disagrees with ``shards``.
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
        if self.replica_groups:
            if len(self.replica_groups) != len(self.groups):
                raise ValueError(
                    f"{len(self.replica_groups)} replica groups for "
                    f"{len(self.groups)} shards"
                )
            for index, (group, replica_group) in enumerate(
                zip(self.groups, self.replica_groups)
            ):
                if replica_group.num_replicas != len(group):
                    raise ValueError(
                        f"shard {index}: {len(group)} replica services but "
                        f"{replica_group.num_replicas} store copies"
                    )
        # One ring routes both reads and writes; a divergent ring would
        # judge facts on one shard and invalidate another.
        self.ring = store.ring if store is not None else HashRing(len(self.groups))
        self.request_timeout_s = request_timeout_s
        self.probe_interval_s = probe_interval_s
        self.retry_policy = retry_policy
        self.clock: Clock = clock or MonotonicClock()
        # Jitter source for retry backoff.  Seeded: backoff *timing* need
        # not be reproducible, but a fixed seed keeps runs comparable.
        self._retry_rng = random.Random(0x5EED)
        # Last known good verdict per request coordinates, with the owning
        # shard's epoch it was computed at — the graceful-degradation store.
        self._stale: "OrderedDict[tuple, Tuple[ValidationResult, int]]" = OrderedDict()
        # Chaos: armed via set_fault_injection; fires the "store" point on
        # the ingest path (replica-level points live on the services).
        self._injector = None
        # Observability: armed via set_observability; spans/events fan out
        # to every replica service and attached store.
        self._tracer: Optional[Tracer] = None
        self._events = None
        # Geo tier: replicator + per-edge per-shard services, or neither.
        if (geo is None) != (edge_services is None):
            raise ValueError("geo and edge_services come together (or not at all)")
        if geo is not None and store is None:
            raise ValueError("the geo tier needs the ShardedStore attached")
        if staleness_bound_epochs is not None and staleness_bound_epochs < 0:
            raise ValueError("staleness_bound_epochs must be >= 0 when set")
        if drain_interval_s <= 0:
            raise ValueError("drain_interval_s must be positive")
        self.geo = geo
        self.edge_services: Dict[str, List[ValidationService]] = (
            {name: list(services) for name, services in edge_services.items()}
            if edge_services is not None
            else {}
        )
        if self.geo is not None:
            for name, services in self.edge_services.items():
                if name not in self.geo.edges:
                    raise ValueError(f"edge {name!r} has services but no replicator edge")
                if len(services) != len(self.groups):
                    raise ValueError(
                        f"edge {name!r} has {len(services)} services for "
                        f"{len(self.groups)} shards"
                    )
        self.staleness_bound_epochs = staleness_bound_epochs
        self.drain_interval_s = drain_interval_s
        self.edge_lag_s: Dict[str, float] = dict(edge_lag_s or {})
        self.drain_seed = drain_seed
        self._drain_rng = random.Random(drain_seed)
        self._drain_tasks: List[asyncio.Task] = []
        #: Drain-loop failures (a diverged edge, a crashed apply): the loop
        #: kills the edge and records the reason here for post-mortems.
        self.drain_errors: List[str] = []
        # Read-your-writes sessions: token -> {shard: last-write epoch}.
        # Only an edge read consults them, so only a geo tier records them.
        self._sessions: Dict[str, Dict[int, int]] = {}
        # Edges hard-stopped by kill_edge (never rejoin without a bootstrap).
        self._edge_dead: set = set()
        # Edges whose bootstrap event was already emitted (start() is
        # re-entrant across stop()/start() cycles).
        self._edge_bootstrapped: set = set()
        self.health: List[List[ReplicaHealth]] = [
            [ReplicaHealth(shard_index, replica_index) for replica_index in range(len(group))]
            for shard_index, group in enumerate(self.groups)
        ]
        self.metrics = RouterMetrics(self)
        self._rr = [0] * len(self.groups)
        # Replica indexes by rotation distance from each offset.
        size = len(self.groups[0])
        self._rotations = [[(rr + step) % size for step in range(size)] for rr in range(size)]
        # Per shard, the queue-depth lead at which a caching group's home
        # replica yields its reads to a shallower sibling: one full batch.
        # None: a cacheless group, which round-robins.
        self._home_lead: List[Optional[int]] = [
            group[0].config.max_batch_size if group[0].cache is not None else None
            for group in self.groups
        ]
        # (dataset, fact_id, method, model) -> home replica index.
        self._homes: Dict[Tuple[str, str, str, str], int] = {}
        self._closed = False
        # Replicas hard-stopped by kill_replica: their store copies missed
        # every ingest since the kill, so they must never rejoin — not even
        # across a stop()/start() cycle — without a fresh log ship.
        self._dead: set = set()
        # Serialises cross-shard ingests so the pre-validation below stays
        # true until the fan-out applies; (re)created in start() so a
        # router reused across event loops never holds a dead-loop lock.
        self._ingest_lock = asyncio.Lock()
        # One drain of an edge at a time: a second drain entering while the
        # first waits in an apply would read the same pending suffix off the
        # same edge epoch and apply it twice.  (Re)created in start().
        self._drain_locks = {name: asyncio.Lock() for name in self.edge_services}

    @classmethod
    def from_runner(
        cls,
        runner,
        num_shards: int,
        config: Optional[ServiceConfig] = None,
        store: Optional[ShardedStore] = None,
        request_timeout_s: Optional[float] = None,
        replicas: int = 1,
        probe_interval_s: float = 0.25,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        edges: int = 0,
        staleness_bound_epochs: Optional[int] = None,
        drain_interval_s: float = 0.02,
        edge_lag_s: Optional[Mapping[str, float]] = None,
        drain_seed: int = 0,
        queue_dir: Optional[str] = None,
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
        bootstrapped by snapshot replay and caught up by background drain
        loops (``drain_interval_s`` plus any per-edge ``edge_lag_s``).

        Raises :class:`ValueError` when ``num_shards``/``replicas`` is not
        positive, the store partitions a different number of ways, or
        ``edges > 0`` without a store.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
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
                    ValidationService.from_runner(
                        runner, config, store=edge.stores[shard_index]
                    )
                    for shard_index in range(num_shards)
                ]
        return cls(
            groups,
            store=store,
            request_timeout_s=request_timeout_s,
            replica_groups=replica_groups,
            probe_interval_s=probe_interval_s,
            retry_policy=retry_policy,
            clock=clock,
            geo=geo,
            edge_services=edge_services,
            staleness_bound_epochs=staleness_bound_epochs,
            drain_interval_s=drain_interval_s,
            edge_lag_s=edge_lag_s,
            drain_seed=drain_seed,
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
        self._drain_locks = {name: asyncio.Lock() for name in self.edge_services}
        self._rr = [0] * len(self.groups)
        # Both reset in place: ``self.metrics`` and ``self.health`` (and
        # anything bound to them, a scraper say) are the same objects
        # across stop()/start() cycles.
        for shard_index, healths in enumerate(self.health):
            healths[:] = [
                ReplicaHealth(shard_index, replica_index)
                for replica_index in range(len(healths))
            ]
        self.metrics.registry.reset()
        for shard_index, group in enumerate(self.groups):
            for replica_index, service in enumerate(group):
                if (shard_index, replica_index) in self._dead:
                    self.health[shard_index][replica_index].healthy = False
                    continue
                await service.start()
        for index, name in enumerate(sorted(self.edge_services)):
            if name in self._edge_dead:
                continue
            for service in self.edge_services[name]:
                await service.start()
            if name not in self._edge_bootstrapped:
                self._edge_bootstrapped.add(name)
                if self._events is not None:
                    self._events.emit(
                        "edge_bootstrap",
                        f"edge:{index}",
                        watermark=sum(self.geo.watermark_vector(name)),
                    )
        self._drain_tasks = [
            asyncio.ensure_future(self._drain_loop(name, index))
            for index, name in enumerate(sorted(self.edge_services))
            if name not in self._edge_dead
        ]
        # Until stop(), apply_mutations commits the queues, off the loop.
        for queue in self.geo.queues if self.geo is not None else ():
            queue.autocommit = False

    async def stop(self, drain: bool = True) -> None:
        """Stop every replica; ``drain=True`` answers admitted requests first.

        Replicas stop concurrently, so the drain wall time is the slowest
        *healthy* replica's, not the sum — and crucially not an unhealthy
        replica's: a replica that is out of the rotation (stalled, killed,
        or marked unhealthy by a failed probe) is hard-stopped instead of
        drained, so a dead replica's stuck queue can never wedge shutdown.
        Its in-flight futures are cancelled explicitly (the PR 4 hard-stop
        contract), never silently dropped.  The exception is a group with
        no healthy sibling left (a single-replica shard after one fault,
        say): its unhealthy-but-running replicas are still the only path to
        an answer for their admitted requests, so they drain normally.
        """
        self._closed = True
        for task in self._drain_tasks:
            task.cancel()
        if self._drain_tasks:
            await asyncio.gather(*self._drain_tasks, return_exceptions=True)
        self._drain_tasks = []
        stops = []
        for name in sorted(self.edge_services):
            if name in self._edge_dead:
                continue
            for service in self.edge_services[name]:
                if not service._closed:
                    stops.append(service.stop(drain=drain))
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
        # Enqueues commit inline again; unsynced acks become durable here.
        for queue in self.geo.queues if self.geo is not None else ():
            queue.autocommit = True
            queue.commit()

    async def __aenter__(self) -> "ShardedValidationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def kill_replica(self, shard_index: int, replica_index: int) -> None:
        """Hard-stop one replica in place (fault injection / ops eviction).

        The replica leaves the routing rotation immediately, its in-flight
        requests fail over to sibling replicas, and — because a stopped
        service cannot apply mutations — it stays out of the rotation for
        the rest of the router's life, *including across*
        ``stop()``/``start()`` cycles (rejoining would need a fresh log
        ship; its store copy misses every ingest from now on).  Raises
        :class:`IndexError` for out-of-range coordinates.
        """
        health = self.health[shard_index][replica_index]
        health.healthy = False
        health.marked_unhealthy_at = self.clock.now()
        self._dead.add((shard_index, replica_index))
        if self._events is not None:
            self._events.emit(
                "replica_killed", f"shard:{shard_index}/replica:{replica_index}"
            )
        await self.groups[shard_index][replica_index].stop(drain=False)

    # ---------------------------------------------------------------- geo tier

    @property
    def edge_names(self) -> List[str]:
        """Configured edge replica names, sorted (dead edges included)."""
        return sorted(self.edge_services)

    @property
    def live_edge_names(self) -> List[str]:
        """Edges still serving (not removed by :meth:`kill_edge`)."""
        return [name for name in sorted(self.edge_services) if name not in self._edge_dead]

    def watermark_vector(self, name: str) -> Tuple[int, ...]:
        """One edge's *reported* per-shard applied-epoch watermarks."""
        if self.geo is None:
            raise RuntimeError("no geo tier configured")
        return self.geo.watermark_vector(name)

    async def kill_edge(self, name: str) -> None:
        """Hard-stop one edge replica (fault injection / ops eviction).

        The edge leaves read routing immediately and its drain loop stops;
        its durable queue entries and reported watermarks stay put, so a
        recovered edge process can re-attach via
        :meth:`~repro.store.GeoReplicator.adopt_edge` and resume from
        exactly the batches it never acked.  Raises :class:`KeyError` for
        an unknown edge name.
        """
        if name not in self.edge_services:
            raise KeyError(f"unknown edge {name!r}")
        if name in self._edge_dead:
            return
        self._edge_dead.add(name)
        if self._events is not None:
            index = sorted(self.edge_services).index(name)
            self._events.emit("edge_killed", f"edge:{index}")
        await asyncio.gather(
            *(service.stop(drain=False) for service in self.edge_services[name])
        )

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
        for edge_name in self.live_edge_names:
            if edge_name in self._edge_dead:
                continue
            applied += await self._drain_edge(edge_name)
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
        services = self.edge_services[name]
        shard_order = list(range(len(services)))
        self._drain_rng.shuffle(shard_order)
        shipped = self.metrics.geo_batches_shipped_total.labels(edge=name)
        applied = 0
        async with self._drain_locks[name]:
            for shard_index in shard_order:
                queue = self.geo.queues[shard_index]
                service = services[shard_index]
                edge_store = service.store
                budget = None if max_batches is None else max_batches - applied
                if budget is not None and budget <= 0:
                    break
                for epoch, batch in queue.pending_after(edge_store.epoch, limit=budget):
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
        if applied and self._events is not None:
            index = sorted(self.edge_services).index(name)
            self._events.emit("edge_drain", f"edge:{index}", batches=applied)
        return applied

    async def _drain_loop(self, name: str, index: int) -> None:
        """One edge's background catch-up pump, on the router clock.

        Each tick sleeps ``drain_interval_s`` plus the edge's configured
        lag, consults the fault injector at point ``edge:{index}`` (kill →
        :meth:`kill_edge`; stall/error → skip the tick, the partition
        case — the edge keeps serving stale reads; slow → extra sleep),
        then drains at most :data:`DRAIN_BATCH_LIMIT` queued batches so
        a deep backlog never monopolises the event loop.  Unexpected
        drain errors (divergence, a validation refusal) kill the edge and
        are recorded in :attr:`drain_errors` rather than dying silently
        in a task.
        """
        point = f"edge:{index}"
        try:
            while not self._closed:
                await self.clock.sleep(
                    self.drain_interval_s + self.edge_lag_s.get(name, 0.0)
                )
                if self._closed or name in self._edge_dead:
                    return
                if self._injector is not None:
                    events = self._injector.active_for(point)
                    if any(event.fault.kind == "kill" for event in events):
                        await self.kill_edge(name)
                        return
                    extra = sum(
                        event.fault.latency_s
                        for event in events
                        if event.fault.kind == "slow"
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

    def _edge_for_read(
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
        if region not in self.edge_services or region in self._edge_dead:
            return None
        if self.edge_services[region][shard_index]._closed:
            return None
        try:
            watermark = self.geo.queues[shard_index].watermark(region)
        except KeyError:
            return None
        if session is not None:
            floor = self._sessions.get(session, {})
            if floor:
                watermarks = self.geo.watermark_vector(region)
                if any(
                    watermarks[shard] < epoch for shard, epoch in floor.items()
                ):
                    self.metrics.geo_session_fallbacks_total.inc()
                    return None
        if self.staleness_bound_epochs is not None:
            primary_epoch = self._shard_epoch(shard_index)
            if primary_epoch - watermark > self.staleness_bound_epochs:
                self.metrics.geo_session_fallbacks_total.inc()
                return None
        return region

    async def _submit_edge(
        self, request: ServiceRequest, shard_index: int, edge_name: str
    ) -> Optional[ServiceResponse]:
        """Serve one read from an edge shard copy (untraced: its cache step first).

        Any edge fault — a stall past the request timeout, a raise, a
        service stopped under us, or an admission rejection — returns
        ``None`` and the caller serves from the primary tier instead: the
        edge tier adds locality, never a new failure mode.  A served
        response is stamped with the *edge's* applied epoch vector (its
        true staleness, visible to the caller) and the epochs its owning
        shard copy trailed the primary at serve time.
        """
        service = self.edge_services[edge_name][shard_index]  # running: _edge_for_read
        hit = None if self._tracer is not None else service.cached(request, time.perf_counter())
        if hit is not None:
            response = ServiceResponse(RequestOutcome.COMPLETED, hit[0], True, hit[2])
        else:
            try:
                if self.request_timeout_s is not None:
                    response = await asyncio.wait_for(
                        service.submit(request), timeout=self.request_timeout_s
                    )
                else:
                    response = await service.submit(request)
            except asyncio.CancelledError:
                if service._closed and not self._closed:
                    return None
                raise
            except UnknownStrategyError:
                raise
            except (asyncio.TimeoutError, Exception):
                return None
        if response.outcome is not RequestOutcome.COMPLETED:
            return None
        self.metrics.geo_edge_reads_total.labels(edge=edge_name).inc()
        return self._respond(
            response.outcome,
            shard_index,
            response.latency_seconds,
            result=response.result,
            cached=response.cached,
            batch_size=response.batch_size,
            edge=edge_name,
            trace_id=response.trace_id,
        )

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

        With a geo tier configured, a ``region`` naming a live edge serves
        the read from that edge's local store copy when the edge is
        *eligible*: its reported watermark for the owning shard covers the
        ``session`` token's last write there (read-your-writes) and trails
        the primary by at most ``staleness_bound_epochs``.  Edge-served
        responses carry the edge's applied epoch vector, ``served_by`` and
        ``staleness_epochs`` — staleness is visible, never silent.  An
        ineligible, faulted, or unknown region falls back to the primary
        tier, so the edge tier never adds a failure mode.

        The balancer (:meth:`_replica_order`) picks the request's home
        replica first in a caching group (unless it is out or a full batch
        deeper than a sibling), else the least-loaded healthy replica
        (round-robin tie-break); an untraced read asks that replica's cache
        step (:meth:`ValidationService.cached`) and answers a hit here, else
        takes the attempt loop from that same order.  A faulted attempt —
        raise, stall past ``request_timeout_s``, or a replica killed
        mid-request — marks the replica and retries on the next sibling, so
        single-replica faults are invisible to the caller.  Load shedding
        still surfaces as ``REJECTED`` (that is the owning replica's
        admission control speaking, not a fault).

        When every replica of one pass faults and a ``retry_policy`` is
        set, the router backs off (jittered exponential, on the router
        clock) and makes another full pass, up to the budget and inside the
        policy's deadline.  After the budget is spent it serves the last
        known good verdict as a stale, epoch-tagged ``DEGRADED`` response
        when one exists; only then does the caller see a ``FAILED``
        response carrying the per-attempt error details.  Raises
        :class:`RuntimeError` when the router is stopped, and propagates
        :class:`asyncio.CancelledError` when the *caller* (or a router
        shutdown) cancels the request.

        With tracing armed (:meth:`set_observability`), the whole journey
        is one ``router.route`` span with a ``router.attempt`` child per
        pass and a ``replica.call`` child per replica tried; ``DEGRADED``
        responses tag the span with the stale verdict's epoch and its
        staleness, and the response carries the ``trace_id``.
        """
        if self._closed:
            raise RuntimeError("service is stopped")
        shard_index = self.shard_for(request)
        edge_name = self._edge_for_read(shard_index, session, region)
        if edge_name is not None:
            response = await self._submit_edge(request, shard_index, edge_name)
            if response is not None:
                return response
        if self._tracer is None:
            order = self._replica_order(shard_index, request)
            hit = order and self.groups[shard_index][order[0]].cached(request, time.perf_counter())
            if not hit:
                return await self._submit_inner(request, shard_index, None, order)
            result, shard_epoch, latency = hit
            self._record_success(shard_index, order[0])
            if self.retry_policy is not None:
                self._remember_verdict(request, result, shard_epoch)
            return self._respond(
                RequestOutcome.COMPLETED, shard_index, latency,
                result=result, cached=True, shard_epoch=shard_epoch,
            )
        with self._tracer.span("router.route", f"shard:{shard_index}") as span:
            span.attributes["method"] = request.method
            span.attributes["shard"] = shard_index
            response = await self._submit_inner(request, shard_index, span)
            span.attributes["outcome"] = response.outcome.name
            if response.outcome is RequestOutcome.FAILED:
                span.status = STATUS_FAILED
            elif response.outcome is RequestOutcome.REJECTED:
                span.status = STATUS_SHED
            elif response.outcome is RequestOutcome.DEGRADED:
                span.status = STATUS_DEGRADED
                stale_epoch = response.stale_epoch or 0
                span.attributes["stale_epoch"] = stale_epoch
                span.attributes["staleness_epochs"] = (
                    response.epoch_vector[shard_index] - stale_epoch
                )
            return response

    async def _submit_inner(
        self,
        request: ServiceRequest,
        shard_index: int,
        span: Optional[Span],
        order: Optional[List[int]] = None,
    ) -> ServiceResponse:
        started = time.perf_counter()
        trace_id = span.trace_id if span is not None else None
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        deadline = (
            self.clock.now() + policy.deadline_s
            if policy is not None and policy.deadline_s is not None
            else None
        )
        errors: List[str] = []
        timed_out = False
        retries = 0
        for attempt in range(max_attempts):
            if attempt:
                retries += 1
                self.metrics.retries_total.inc()
                backoff = policy.backoff_s(attempt, self._retry_rng)
                if deadline is not None:
                    # Deadline propagation: never sleep past the budget.
                    backoff = min(backoff, max(0.0, deadline - self.clock.now()))
                if backoff > 0:
                    await self.clock.sleep(backoff)
            if deadline is not None and deadline - self.clock.now() <= 0:
                errors.append(
                    f"deadline of {policy.deadline_s:.3f}s exhausted "
                    f"after {attempt} of {max_attempts} attempts"
                )
                break
            if self._tracer is None:
                response, pass_timed_out = await self._attempt(
                    request, shard_index, errors, deadline, None if attempt else order
                )
            else:
                with self._tracer.span(
                    "router.attempt", f"shard:{shard_index}", parent=span
                ) as attempt_span:
                    attempt_span.attributes["attempt"] = attempt + 1
                    response, pass_timed_out = await self._attempt(
                        request, shard_index, errors, deadline
                    )
                    if response is None:
                        attempt_span.status = STATUS_FAILED
                        attempt_span.attributes["error"] = "all replicas faulted"
            timed_out = timed_out or pass_timed_out
            if response is not None:
                if errors:
                    self.metrics.failovers_total.inc()
                    if self._events is not None:
                        self._events.emit(
                            "failover",
                            f"shard:{shard_index}",
                            faulted_attempts=len(errors),
                        )
                if policy is not None and response.outcome is RequestOutcome.COMPLETED:
                    # Only a retry policy can ever degrade to this verdict.
                    self._remember_verdict(request, response.result, response.epoch)
                return self._respond(
                    response.outcome,
                    shard_index,
                    response.latency_seconds,
                    result=response.result,
                    cached=response.cached,
                    batch_size=response.batch_size,
                    shard_epoch=response.epoch,
                    retries=retries,
                    # Untraced, a replica's own trace id (if any) passes through.
                    trace_id=trace_id or response.trace_id,
                )
        if not errors:  # pragma: no cover - defensive: empty order
            errors.append(f"shard {shard_index} has no serving replicas")
        if policy is not None:
            self.metrics.budget_exhausted_total.inc()
            if self._events is not None:
                self._events.emit(
                    "budget_exhausted",
                    f"shard:{shard_index}",
                    attempts=max_attempts,
                    retries=retries,
                )
            key = self._stale_key(request)
            entry = self._stale.get(key)
            if entry is not None:
                self._stale.move_to_end(key)
                result, stale_epoch = entry
                degraded = self._respond(
                    RequestOutcome.DEGRADED,
                    shard_index,
                    time.perf_counter() - started,
                    result=result,
                    cached=True,
                    error="; ".join(errors),
                    retries=retries,
                    stale_epoch=stale_epoch,
                    trace_id=trace_id,
                )
                self.metrics.observe_degraded(
                    max(degraded.epoch_vector[shard_index] - stale_epoch, 0)
                )
                return degraded
        self.metrics.observe_failure(timeout=timed_out)
        return self._respond(
            RequestOutcome.FAILED,
            shard_index,
            time.perf_counter() - started,
            error="; ".join(errors),
            retries=retries,
            trace_id=trace_id,
        )

    async def _attempt(
        self,
        request: ServiceRequest,
        shard_index: int,
        errors: List[str],
        deadline: Optional[float],
        order: Optional[List[int]] = None,
    ) -> Tuple[Optional[ServiceResponse], bool]:
        """One full pass over the owning shard's replicas (in ``order`` if drawn).

        Returns ``(response, timed_out)``: the first replica's answer
        (``None`` when every replica faulted) and whether a stall past the
        per-attempt timeout (or the deadline's remainder, whichever is
        tighter) contributed.
        """
        group = self.groups[shard_index]
        timed_out = False
        order = self._replica_order(shard_index, request) if order is None else order
        for replica_index in order:
            service = group[replica_index]
            timeout_s = self.request_timeout_s
            if deadline is not None:  # only a retry policy sets one
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    errors.append(
                        "request deadline exhausted before trying "
                        + self._replica_label(shard_index, replica_index)
                    )
                    if replica_index == order[0]:
                        # Untried, so release the canary this pass picked
                        # (a due replica heads the order) for the next one.
                        self.health[shard_index][replica_index].probing = False
                    break
                timeout_s = self.retry_policy.attempt_timeout_s(timeout_s, remaining)
            if service._closed:
                self._record_failure(errors, shard_index, replica_index, "is stopped")
                continue
            call = service.submit(request)
            if timeout_s is not None:
                call = asyncio.wait_for(call, timeout=timeout_s)
            try:
                if self._tracer is None:
                    response = await call
                else:
                    with self._tracer.span(
                        "replica.call", f"shard:{shard_index}/replica:{replica_index}"
                    ) as call_span:
                        response = await call
                        if response.outcome is RequestOutcome.REJECTED:
                            call_span.status = STATUS_SHED
            except asyncio.TimeoutError:
                timed_out = True
                self._record_failure(
                    errors, shard_index, replica_index,
                    f"stalled past {timeout_s:.3f}s", timeout=True,
                )
                continue
            except asyncio.CancelledError:
                if service._closed and not self._closed:
                    # The replica was hard-stopped under us (kill_replica):
                    # its future cancellation is a replica fault to fail
                    # over from, not our caller cancelling.
                    self._record_failure(
                        errors, shard_index, replica_index, "was stopped mid-request"
                    )
                    continue
                # Caller cancellation: release an in-flight canary so the
                # replica stays probe-eligible for the next request.
                self.health[shard_index][replica_index].probing = False
                raise
            except UnknownStrategyError:
                # The request is at fault, not the replica: no health mark,
                # no failover (every replica would refuse it alike).
                self.health[shard_index][replica_index].probing = False
                raise
            except Exception as exc:
                self._record_failure(
                    errors, shard_index, replica_index, f"failed: {exc!r}"
                )
                continue
            self._record_success(shard_index, replica_index)
            return response, timed_out
        return None, timed_out

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

        With a geo tier, a ``session`` token records the landed per-shard
        epochs as the session's last-write vector: subsequent :meth:`submit`
        calls with the same token only route to edges whose watermarks
        cover it — the read-your-writes contract.  Without one every read
        is a primary read, which already covers every write, so the token
        is not recorded.  Writes always land on the primary
        tier; edges catch up asynchronously through their queues.  The
        call returns (and records the session vector) only once every
        touched shard's queue has committed the batch — off the loop, so
        reads go on — and nothing ships before that.  An :class:`OSError`
        from a sync fails the ingest; the record rides the next commit.

        Each owning shard's replicas quiesce *themselves* (drain their
        in-flight reads, apply the identical batch to their own store copy,
        bump their epoch) while the rest of the fleet keeps serving — the
        per-shard invalidation contract: only the mutated shard's cached
        verdicts go stale.  Their outcomes settle through the shard's
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
        async with self._ingest_lock:
            # Liveness and validation both run for EVERY owning shard before
            # ANY shard applies, so a doomed batch leaves the fleet
            # untouched.  Validation uses each shard's first *live* copy: a
            # killed primary's copy stops at its death epoch and no longer
            # reflects the state the live replicas would apply against.
            live_by_shard = {index: self._live_replicas(index) for index in indexes}
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
                alive = self._live_replicas(index)
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
            if self.geo is not None:
                # Each touched queue's one commit, the fsyncs side by side on
                # worker threads (a pathless queue has none and takes no
                # hop): reads go on; the write is not acknowledged before.
                with contextlib.ExitStack() as commits:
                    queues = (self.geo.queues[index] for index in indexes)
                    fds = [commits.enter_context(queue.committing()) for queue in queues]
                    run = asyncio.get_running_loop().run_in_executor
                    await asyncio.gather(
                        *(run(None, sync_and_close, fd) for fd in fds if fd is not None)
                    )
                if session is not None:
                    vector = self._sessions.setdefault(session, {})
                    for index, report in zip(indexes, reports):
                        vector[index] = max(vector.get(index, 0), report.epoch)
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

        The geo tier's ``edge:{i}`` points are consulted by each edge's
        background drain loop directly (kill → :meth:`kill_edge`;
        stall/error → the queue stalls while the edge keeps serving
        epoch-stamped stale reads; slow → added drain lag).  Edge *read*
        paths are deliberately not armed: a partitioned edge that still
        answers is the semantics under test.
        """
        self._injector = injector
        for shard_index, group in enumerate(self.groups):
            for replica_index, service in enumerate(group):
                service.set_fault_injection(
                    injector, f"shard:{shard_index}/replica:{replica_index}"
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
        self._tracer = tracer
        self._events = events
        for shard_index, group in enumerate(self.groups):
            for replica_index, service in enumerate(group):
                service.set_observability(
                    tracer, events, f"shard:{shard_index}/replica:{replica_index}"
                )
        for edge_index, name in enumerate(sorted(self.edge_services)):
            for shard_index, service in enumerate(self.edge_services[name]):
                service.set_observability(
                    tracer, events, f"edge:{edge_index}/shard:{shard_index}"
                )

    # ---------------------------------------------------------------- internals

    def _stale_key(self, request: ServiceRequest) -> tuple:
        # The verdict-cache key minus its epoch component: the whole point
        # of the stale store is answering across epochs.
        return verdict_cache_key(request.fact, request.method, request.model, epoch=0)[1:]

    def _remember_verdict(
        self, request: ServiceRequest, result: ValidationResult, shard_epoch: int
    ) -> None:
        """Retain the last known good verdict and the owning shard's epoch it
        was computed at (not a stamped fleet sum) for graceful degradation."""
        key = self._stale_key(request)
        self._stale[key] = (result, shard_epoch)
        self._stale.move_to_end(key)
        while len(self._stale) > STALE_CACHE_CAPACITY:
            self._stale.popitem(last=False)

    def _replica_label(self, shard_index: int, replica_index: int) -> str:
        if len(self.groups[shard_index]) == 1:
            return f"shard {shard_index}"
        return f"shard {shard_index} replica {replica_index}"

    def _replica_order(self, shard_index: int, request: ServiceRequest) -> List[int]:
        """Balancer pick order: probe-due canary, then the healthy rotation,
        then unhealthy last resorts.

        In a group that caches verdicts, the rotation starts at the
        request's **home** replica, so each replica caches its own share of
        the shard's coordinates instead of all of them; it is re-sorted by
        queue depth only when its head is at least one full batch deeper
        than the shallowest healthy sibling.  A cacheless group's rotation
        starts at a round-robin offset and is sorted by queue depth whenever
        depths differ.  A stopped or unhealthy home's reads go to the next
        healthy replica in its rotation, and come back once it is
        readmitted.

        Unhealthy-but-running replicas stay at the tail so a shard whose
        every replica is marked down still *tries* (a request is the
        cheapest probe there is) instead of failing instantly; stopped
        replicas are skipped by :meth:`submit` outright.  Only a shard with
        a replica out of the rotation reads the clock and classifies.
        """
        group = self.groups[shard_index]
        healths = self.health[shard_index]
        if len(group) == 1:
            return [0]
        lead = self._home_lead[shard_index]
        if lead is None:
            offset = self._rr[shard_index]
            self._rr[shard_index] = (offset + 1) % len(group)
        else:
            fact = request.fact
            key = (fact.dataset, fact.fact_id, request.method, request.model)
            offset = self._homes.get(key)
            if offset is None:
                offset = self._home(key)
        # Rotation distance order, so a stable sort by queue depth alone
        # is the (depth, distance) order — and equal depths need none.
        healthy = [
            index
            for index in self._rotations[offset]
            if healths[index].healthy and not group[index]._closed
        ]
        depths = [group[index].pending for index in healthy]
        if depths and (
            min(depths) != max(depths) if lead is None else depths[0] - min(depths) >= lead
        ):
            healthy.sort(key=lambda index: group[index].pending)
        if len(healthy) == len(group):
            return healthy
        now = self.clock.now()
        due: List[int] = []
        resting: List[int] = []
        for replica_index, health in enumerate(healths):
            if health.healthy or group[replica_index]._closed:
                continue
            if (
                not health.probing
                and health.marked_unhealthy_at is not None
                and now - health.marked_unhealthy_at >= self.probe_interval_s
            ):
                due.append(replica_index)
            else:
                resting.append(replica_index)
        order: List[int] = []
        if due:
            probe = min(due, key=lambda index: healths[index].marked_unhealthy_at)
            probe_health = healths[probe]
            probe_health.probing = True
            probe_health.probes += 1
            order.append(probe)
            resting.extend(index for index in due if index != probe)
        order.extend(healthy)
        order.extend(sorted(resting))
        return order

    def _home(self, key: Tuple[str, str, str, str]) -> int:
        """The home replica of one verdict coordinate: its crc32 (stable
        across processes, unlike the builtin ``hash``) modulo the group
        size, memoised."""
        if len(self._homes) >= HOME_MEMO_CAPACITY:
            self._homes.clear()
        digest = zlib.crc32("\0".join(key).encode("utf-8"))
        home = self._homes[key] = digest % self.num_replicas
        return home

    def _record_success(self, shard_index: int, replica_index: int) -> None:
        health = self.health[shard_index][replica_index]
        health.served += 1
        health.consecutive_failures = 0
        health.probing = False
        if not health.healthy:
            health.healthy = True
            health.marked_unhealthy_at = None
            health.readmissions += 1
            if self._events is not None:
                self._events.emit(
                    "replica_recovered",
                    f"shard:{shard_index}/replica:{replica_index}",
                    readmissions=health.readmissions,
                )

    def _record_failure(
        self, errors: List[str], shard_index: int, replica_index: int, what: str,
        timeout: bool = False,
    ) -> None:
        """Count one faulted attempt; ``errors`` gets ``"<replica> <what>"``."""
        errors.append(f"{self._replica_label(shard_index, replica_index)} {what}")
        health = self.health[shard_index][replica_index]
        health.failures += 1
        if timeout:
            health.timeouts += 1
        health.consecutive_failures += 1
        health.probing = False
        if health.healthy and self._events is not None:
            self._events.emit(
                "replica_unhealthy",
                f"shard:{shard_index}/replica:{replica_index}",
                consecutive_failures=health.consecutive_failures,
                timeout=timeout,
            )
        health.healthy = False
        # Every fault re-anchors the probe timer, so a failed canary rests
        # the replica for another full interval before the next one.
        health.marked_unhealthy_at = self.clock.now()

    def _live_replicas(self, shard_index: int) -> List[int]:
        """Indexes of the shard's running replicas.  A stopped one cannot
        apply, so it leaves the rotation rather than rejoin with a stale copy."""
        live = []
        for replica_index, service in enumerate(self.groups[shard_index]):
            if service._closed:
                self.health[shard_index][replica_index].healthy = False
            else:
                live.append(replica_index)
        return live

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
