"""Declarative chaos scenarios: YAML in, an invariant-checked run table out.

A scenario file declares three axes and the harness runs their cross
product::

    name: smoke
    seed: 42
    dataset: factbench
    methods: [dka]
    models: ["gemma2:9b"]
    requests: 120
    concurrency: 8
    service:                    # router + worker knobs (all optional)
      request_timeout_s: 0.25
      probe_interval_s: 0.05
      time_scale: 0.0
    retry:                      # optional RetryPolicy fields
      max_attempts: 3
      base_backoff_s: 0.002
      jitter: 0.0
    store: false                # attach per-cell sharded stores (writes/epochs)
    matrix:
      topology:
        - {shards: 2, replicas: 2}
      traffic:
        - {shape: steady}
        - {shape: flash_crowd}
      faults:
        - name: kill-one-replica
          schedule:
            - {at_s: 0.0, target: "shard:0/replica:1", fault: kill}
    invariants:
      max_failed: 0
      verdict_parity: true
      staleness_bound_epochs: 4
      expect_alerts:               # fault-case name (or "none") -> alert ids
        kill-one-replica: ["fleet-availability:page"]
      forbid_alerts:
        none: ["*"]                # the fault-free reference must stay silent

For every ``(topology, traffic)`` pair the runner first executes a
**fault-free reference cell**, then each fault case as its own cell: the
same seeded workload through a fresh fleet with the fault timeline armed
(kills are consumed from :meth:`FaultInjector.due_kills` by a driver task
and applied via :meth:`ShardedValidationService.kill_replica`).  Each cell
is then checked against the scenario's invariants — no ``FAILED`` while a
quorum is alive, verdict parity against the reference, bounded staleness
on ``DEGRADED`` answers — and the results aggregate into a
:class:`RunTable` (CSV + markdown).

Determinism contract: the run table's **deterministic columns** (cell
coordinates, request counts, failed counts, invariant verdicts, verdict
digests) are byte-identical for the same scenario + seed; the **timing
columns** (latency percentiles, retry/failover tallies, wall time) vary
with the wall clock and are excluded from ``csv(include_timings=False)``
— the view the determinism floor asserts on.

Malformed scenarios raise :class:`ScenarioError` with a message naming the
offending key — unknown fault targets (grammar-level or out of the
matrix's topology bounds), overlapping fault windows, negative times, and
empty matrix axes are all load-time errors, never mid-run surprises.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs import Observability
from ..obs.alerts import SLOMonitor
from ..obs.slo import fleet_slos
from ..obs.timeseries import MetricsScraper
from ..obs.trace import slowest_path as _slowest_path
from ..retrieval.corpus import Document
from ..service.config import ServiceConfig
from ..service.loadgen import LoadGenerator, LoadReport
from ..service.metrics import MetricsSnapshot
from ..service.policy import RetryPolicy
from ..service.router import ShardedValidationService
from ..service.server import ServiceRequest
from ..store import Mutation
from ..store.sharding import ReplicaDivergedError
from .clock import Clock, MonotonicClock
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    parse_edge_target,
    parse_replica_target,
)
from .traffic import TrafficSpec, build_traffic

__all__ = [
    "CellResult",
    "FaultCase",
    "InvariantCheck",
    "Invariants",
    "RunTable",
    "Scenario",
    "ScenarioError",
    "ScenarioRunner",
    "Topology",
    "load_scenario",
]


class ScenarioError(ValueError):
    """A scenario file failed validation (with the offending key named)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


@dataclass(frozen=True)
class Topology:
    """One fleet shape: ``shards`` logical shards x ``replicas`` workers,
    plus ``edges`` asynchronous geo edge replicas (0 = no geo tier)."""

    shards: int
    replicas: int
    edges: int = 0

    def __post_init__(self) -> None:
        _require(self.shards >= 1, f"topology shards must be >= 1, got {self.shards}")
        _require(
            self.replicas >= 1, f"topology replicas must be >= 1, got {self.replicas}"
        )
        _require(self.edges >= 0, f"topology edges must be >= 0, got {self.edges}")

    @property
    def label(self) -> str:
        base = f"s{self.shards}xr{self.replicas}"
        return f"{base}xe{self.edges}" if self.edges else base


@dataclass(frozen=True)
class FaultCase:
    """One named fault schedule — a column of the scenario matrix."""

    name: str
    schedule: FaultSchedule


@dataclass(frozen=True)
class Invariants:
    """Per-cell pass/fail conditions.

    ``expect_alerts`` / ``forbid_alerts`` map a fault-case name (or
    ``"none"`` for the fault-free reference cell) to alert ids that must
    / must not reach *firing* during that cell — stored as sorted tuples
    of ``(case_name, (alert_id, ...))`` pairs so the dataclass stays
    frozen and hashable.  ``"*"`` in a forbid list forbids every alert.
    """

    max_failed: int = 0
    verdict_parity: bool = True
    staleness_bound_epochs: Optional[int] = None
    expect_alerts: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    forbid_alerts: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: Require every live edge to be byte-identical to the primary after
    #: the post-load drain (geo topologies only; killed edges are exempt).
    geo_converged: bool = False
    #: Bound (in epochs) on the visible staleness of every edge-served read.
    edge_staleness_bound_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.max_failed >= 0, "invariants.max_failed must be >= 0")
        _require(
            self.staleness_bound_epochs is None or self.staleness_bound_epochs >= 0,
            "invariants.staleness_bound_epochs must be >= 0 when set",
        )
        _require(
            self.edge_staleness_bound_epochs is None
            or self.edge_staleness_bound_epochs >= 0,
            "invariants.edge_staleness_bound_epochs must be >= 0 when set",
        )

    def expected_alerts_for(self, fault_name: str) -> Tuple[str, ...]:
        """Alert ids that must fire during ``fault_name``'s cell."""
        for name, ids in self.expect_alerts:
            if name == fault_name:
                return ids
        return ()

    def forbidden_alerts_for(self, fault_name: str) -> Optional[Tuple[str, ...]]:
        """Alert ids that must stay silent during ``fault_name``'s cell,
        or ``None`` when the cell is unconstrained."""
        for name, ids in self.forbid_alerts:
            if name == fault_name:
                return ids
        return None


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario (see the module docstring schema)."""

    name: str
    seed: int
    dataset: str
    methods: Tuple[str, ...]
    models: Tuple[str, ...]
    requests: int
    concurrency: int
    topologies: Tuple[Topology, ...]
    traffics: Tuple[TrafficSpec, ...]
    fault_cases: Tuple[FaultCase, ...]
    invariants: Invariants = Invariants()
    retry_policy: Optional[RetryPolicy] = None
    attach_store: bool = False
    request_timeout_s: Optional[float] = 0.25
    probe_interval_s: float = 0.05
    unhealthy_after: int = 1
    service_config: Dict[str, object] = field(default_factory=dict)
    #: Geo-tier knobs (apply to topologies with ``edges > 0``): routing
    #: staleness bound, background drain cadence, per-edge extra lag, the
    #: drain scheduler's seed, and the client-region affinity cycle the
    #: load generator assigns (``None`` entries pin clients to primary).
    geo_staleness_bound_epochs: Optional[int] = None
    geo_drain_interval_s: float = 0.02
    geo_edge_lag_s: Tuple[Tuple[str, float], ...] = ()
    geo_drain_seed: int = 0
    geo_regions: Tuple[Optional[str], ...] = ()

    @property
    def cell_count(self) -> int:
        """Matrix cells plus one fault-free reference per (topology, traffic)."""
        pairs = len(self.topologies) * len(self.traffics)
        return pairs * (len(self.fault_cases) + 1)


_SERVICE_KEYS = {
    "request_timeout_s",
    "probe_interval_s",
    "unhealthy_after",
    "max_batch_size",
    "batch_linger_s",
    "queue_depth",
    "enable_cache",
    "cache_capacity",
    "batch_overhead_s",
    "time_scale",
}

_TOP_KEYS = {
    "name",
    "seed",
    "dataset",
    "methods",
    "models",
    "requests",
    "concurrency",
    "service",
    "retry",
    "store",
    "geo",
    "matrix",
    "invariants",
}

_GEO_KEYS = {
    "staleness_bound_epochs",
    "drain_interval_s",
    "edge_lag_s",
    "drain_seed",
    "regions",
}


def _parse_fault_case(index: int, raw: object) -> FaultCase:
    _require(
        isinstance(raw, dict), f"matrix.faults[{index}] must be a mapping, got {raw!r}"
    )
    assert isinstance(raw, dict)
    unknown = set(raw) - {"name", "schedule"}
    _require(not unknown, f"matrix.faults[{index}] has unknown keys {sorted(unknown)}")
    name = raw.get("name")
    _require(
        isinstance(name, str) and bool(name),
        f"matrix.faults[{index}] needs a non-empty 'name'",
    )
    rows = raw.get("schedule")
    _require(
        isinstance(rows, list) and bool(rows),
        f"fault case {name!r} needs a non-empty 'schedule' list",
    )
    events: List[FaultEvent] = []
    assert isinstance(rows, list)
    for row_index, row in enumerate(rows):
        _require(
            isinstance(row, dict),
            f"fault case {name!r} schedule[{row_index}] must be a mapping",
        )
        assert isinstance(row, dict)
        unknown = set(row) - {"at_s", "target", "fault", "clear_at_s"}
        _require(
            not unknown,
            f"fault case {name!r} schedule[{row_index}] has unknown keys {sorted(unknown)}",
        )
        for key in ("at_s", "target", "fault"):
            _require(
                key in row, f"fault case {name!r} schedule[{row_index}] needs {key!r}"
            )
        try:
            events.append(
                FaultEvent(
                    at_s=float(row["at_s"]),
                    target=str(row["target"]),
                    fault=FaultSpec.parse(row["fault"]),
                    clear_at_s=(
                        float(row["clear_at_s"]) if row.get("clear_at_s") is not None else None
                    ),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"fault case {name!r} schedule[{row_index}]: {exc}"
            ) from exc
    try:
        schedule = FaultSchedule(events)
    except ValueError as exc:
        raise ScenarioError(f"fault case {name!r}: {exc}") from exc
    return FaultCase(str(name), schedule)


def _check_target_bounds(case: FaultCase, topologies: Sequence[Topology]) -> None:
    """Every targeted shard/replica index must exist in every topology —
    the matrix runs every fault case against every topology."""
    for event in case.schedule:
        target = event.target
        edge = parse_edge_target(target)
        if edge is not None:
            for topology in topologies:
                _require(
                    edge < topology.edges,
                    f"fault case {case.name!r} targets {target!r} but topology "
                    f"{topology.label} has only {topology.edges} edge(s)",
                )
            continue
        coordinates = parse_replica_target(target)
        shard: Optional[int]
        replica: Optional[int]
        if coordinates is not None:
            shard, replica = coordinates
        elif target.startswith("shard:"):
            shard, replica = int(target.split(":", 1)[1]), None
        else:
            continue
        for topology in topologies:
            _require(
                shard < topology.shards,
                f"fault case {case.name!r} targets {target!r} but topology "
                f"{topology.label} has only {topology.shards} shard(s)",
            )
            _require(
                replica is None or replica < topology.replicas,
                f"fault case {case.name!r} targets {target!r} but topology "
                f"{topology.label} has only {topology.replicas} replica(s)",
            )


def _parse_alert_map(
    key: str, raw: object, cell_names: set, allow_wildcard: bool
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Validate an ``invariants.expect_alerts`` / ``forbid_alerts`` block:
    a mapping of fault-case name (or ``"none"``) to a list of alert ids
    (``"slo:severity"``; ``"*"`` forbids everything, forbid only)."""
    _require(
        isinstance(raw, dict),
        f"invariants.{key} must map fault-case names to alert-id lists",
    )
    assert isinstance(raw, dict)
    entries = []
    for cell_name, ids in raw.items():
        _require(
            isinstance(cell_name, str) and cell_name in cell_names,
            f"invariants.{key} names unknown cell {cell_name!r} "
            f"(known: {sorted(cell_names)})",
        )
        _require(
            isinstance(ids, list) and bool(ids),
            f"invariants.{key}[{cell_name!r}] must be a non-empty list of alert ids",
        )
        assert isinstance(ids, list)
        for alert_id in ids:
            _require(
                isinstance(alert_id, str) and bool(alert_id),
                f"invariants.{key}[{cell_name!r}] has a non-string alert id {alert_id!r}",
            )
            if alert_id == "*":
                _require(
                    allow_wildcard,
                    f"invariants.{key}[{cell_name!r}] cannot use '*' "
                    "(only forbid_alerts may forbid everything)",
                )
            else:
                _require(
                    ":" in alert_id,
                    f"invariants.{key}[{cell_name!r}] alert id {alert_id!r} "
                    "must look like 'slo-name:severity'",
                )
        entries.append((cell_name, tuple(ids)))
    return tuple(sorted(entries))


def load_scenario(source: Union[str, Path, dict]) -> Scenario:
    """Parse and validate a scenario from a YAML file path or a mapping.

    Raises :class:`ScenarioError` for malformed input: unknown keys,
    unknown fault targets (including targets outside the matrix's
    topology bounds), overlapping fault windows on one target, negative
    times, and empty matrix axes all fail here, with the offending key in
    the message.
    """
    if isinstance(source, (str, Path)):
        import yaml

        path = Path(source)
        if not path.exists():
            raise ScenarioError(f"scenario file {path} does not exist")
        try:
            data = yaml.safe_load(path.read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ScenarioError(f"scenario file {path} is not valid YAML: {exc}") from exc
    else:
        data = source
    _require(isinstance(data, dict), f"a scenario must be a mapping, got {type(data).__name__}")
    assert isinstance(data, dict)
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"unknown scenario keys {sorted(unknown)}")

    name = data.get("name", "scenario")
    _require(isinstance(name, str) and bool(name), "scenario 'name' must be a non-empty string")
    seed = data.get("seed", 0)
    _require(isinstance(seed, int), "scenario 'seed' must be an integer")
    dataset = data.get("dataset", "factbench")
    _require(isinstance(dataset, str) and bool(dataset), "'dataset' must be a non-empty string")
    methods = tuple(data.get("methods", ("dka",)))
    models = tuple(data.get("models", ()))
    _require(bool(methods), "'methods' must list at least one method")
    _require(bool(models), "'models' must list at least one model")
    requests = data.get("requests", 200)
    _require(
        isinstance(requests, int) and requests >= 1, "'requests' must be an integer >= 1"
    )
    concurrency = data.get("concurrency", 8)
    _require(
        isinstance(concurrency, int) and concurrency >= 1,
        "'concurrency' must be an integer >= 1",
    )

    service = data.get("service", {}) or {}
    _require(isinstance(service, dict), "'service' must be a mapping")
    unknown = set(service) - _SERVICE_KEYS
    _require(not unknown, f"unknown service keys {sorted(unknown)}")
    request_timeout_s = service.get("request_timeout_s", 0.25)
    probe_interval_s = service.get("probe_interval_s", 0.05)
    unhealthy_after = service.get("unhealthy_after", 1)
    config_overrides = {
        key: value
        for key, value in service.items()
        if key not in ("request_timeout_s", "probe_interval_s", "unhealthy_after")
    }

    retry = data.get("retry")
    retry_policy: Optional[RetryPolicy] = None
    if retry is not None:
        _require(isinstance(retry, dict), "'retry' must be a mapping")
        try:
            retry_policy = RetryPolicy(**retry)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid retry policy: {exc}") from exc

    attach_store = bool(data.get("store", False))

    matrix = data.get("matrix")
    _require(isinstance(matrix, dict), "a scenario needs a 'matrix' mapping")
    assert isinstance(matrix, dict)
    unknown = set(matrix) - {"topology", "traffic", "faults"}
    _require(not unknown, f"unknown matrix keys {sorted(unknown)}")
    raw_topologies = matrix.get("topology") or []
    raw_traffics = matrix.get("traffic") or []
    raw_faults = matrix.get("faults") or []
    _require(
        bool(raw_topologies),
        "the scenario matrix is empty: matrix.topology must list at least one topology",
    )
    _require(
        bool(raw_traffics),
        "the scenario matrix is empty: matrix.traffic must list at least one traffic shape",
    )
    _require(
        bool(raw_faults),
        "the scenario matrix is empty: matrix.faults must list at least one fault case "
        "(the fault-free reference runs automatically)",
    )

    topologies: List[Topology] = []
    for index, raw in enumerate(raw_topologies):
        _require(isinstance(raw, dict), f"matrix.topology[{index}] must be a mapping")
        unknown = set(raw) - {"shards", "replicas", "edges"}
        _require(not unknown, f"matrix.topology[{index}] has unknown keys {sorted(unknown)}")
        try:
            topologies.append(
                Topology(
                    int(raw.get("shards", 1)),
                    int(raw.get("replicas", 1)),
                    int(raw.get("edges", 0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"matrix.topology[{index}]: {exc}") from exc

    traffics: List[TrafficSpec] = []
    for index, raw in enumerate(raw_traffics):
        _require(isinstance(raw, dict), f"matrix.traffic[{index}] must be a mapping")
        try:
            traffics.append(TrafficSpec(**raw))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"matrix.traffic[{index}]: {exc}") from exc
    shapes = [traffic.shape for traffic in traffics]
    _require(
        len(set(shapes)) == len(shapes),
        f"matrix.traffic repeats a shape ({shapes}); each cell needs a distinct label",
    )

    fault_cases = [_parse_fault_case(index, raw) for index, raw in enumerate(raw_faults)]
    names = [case.name for case in fault_cases]
    _require(len(set(names)) == len(names), f"matrix.faults repeats a name ({names})")
    for case in fault_cases:
        _check_target_bounds(case, topologies)

    max_edges = max((topology.edges for topology in topologies), default=0)

    geo_raw = data.get("geo", {}) or {}
    _require(isinstance(geo_raw, dict), "'geo' must be a mapping")
    assert isinstance(geo_raw, dict)
    unknown = set(geo_raw) - _GEO_KEYS
    _require(not unknown, f"unknown geo keys {sorted(unknown)}")
    if geo_raw:
        _require(
            max_edges > 0,
            "a 'geo' block needs at least one topology with edges > 0",
        )
    geo_bound = geo_raw.get("staleness_bound_epochs")
    _require(
        geo_bound is None or (isinstance(geo_bound, int) and geo_bound >= 0),
        "geo.staleness_bound_epochs must be an integer >= 0 when set",
    )
    geo_drain_interval = float(geo_raw.get("drain_interval_s", 0.02))
    _require(geo_drain_interval > 0, "geo.drain_interval_s must be positive")
    geo_drain_seed = geo_raw.get("drain_seed", 0)
    _require(isinstance(geo_drain_seed, int), "geo.drain_seed must be an integer")
    edge_names = {f"edge-{index}" for index in range(max_edges)}
    raw_lag = geo_raw.get("edge_lag_s", {}) or {}
    _require(
        isinstance(raw_lag, dict), "geo.edge_lag_s must map edge names to seconds"
    )
    geo_edge_lag: List[Tuple[str, float]] = []
    for edge_name, lag in sorted(raw_lag.items()):
        _require(
            edge_name in edge_names,
            f"geo.edge_lag_s names unknown edge {edge_name!r} "
            f"(topologies define {sorted(edge_names) or 'no edges'})",
        )
        _require(
            isinstance(lag, (int, float)) and lag >= 0,
            f"geo.edge_lag_s[{edge_name!r}] must be >= 0 seconds",
        )
        geo_edge_lag.append((str(edge_name), float(lag)))
    raw_regions = geo_raw.get("regions", []) or []
    _require(isinstance(raw_regions, list), "geo.regions must be a list")
    geo_regions: List[Optional[str]] = []
    for region in raw_regions:
        _require(
            region is None or region in edge_names,
            f"geo.regions names unknown edge {region!r} "
            f"(topologies define {sorted(edge_names) or 'no edges'})",
        )
        geo_regions.append(region)

    invariants_raw = data.get("invariants", {}) or {}
    _require(isinstance(invariants_raw, dict), "'invariants' must be a mapping")
    unknown = set(invariants_raw) - {
        "max_failed",
        "verdict_parity",
        "staleness_bound_epochs",
        "expect_alerts",
        "forbid_alerts",
        "geo_converged",
        "edge_staleness_bound_epochs",
    }
    _require(not unknown, f"unknown invariant keys {sorted(unknown)}")
    cell_names = {case.name for case in fault_cases} | {"none"}
    invariants_kwargs = dict(invariants_raw)
    for key in ("expect_alerts", "forbid_alerts"):
        if key in invariants_kwargs:
            invariants_kwargs[key] = _parse_alert_map(
                key, invariants_kwargs[key], cell_names, allow_wildcard=(key == "forbid_alerts")
            )
    try:
        invariants = Invariants(**invariants_kwargs)
    except TypeError as exc:
        raise ScenarioError(f"invalid invariants: {exc}") from exc

    if any(traffic.write_fraction > 0 for traffic in traffics):
        _require(
            attach_store,
            "a traffic shape mixes writes (write_fraction > 0) but 'store' is false; "
            "ingest needs per-cell sharded stores",
        )
    if max_edges > 0:
        _require(
            attach_store,
            "a topology has edges > 0 but 'store' is false; the geo tier "
            "replicates per-cell sharded stores",
        )

    return Scenario(
        name=name,
        seed=seed,
        dataset=dataset,
        methods=tuple(str(method) for method in methods),
        models=tuple(str(model) for model in models),
        requests=requests,
        concurrency=concurrency,
        topologies=tuple(topologies),
        traffics=tuple(traffics),
        fault_cases=tuple(fault_cases),
        invariants=invariants,
        retry_policy=retry_policy,
        attach_store=attach_store,
        request_timeout_s=request_timeout_s,
        probe_interval_s=probe_interval_s,
        unhealthy_after=unhealthy_after,
        service_config=config_overrides,
        geo_staleness_bound_epochs=geo_bound,
        geo_drain_interval_s=geo_drain_interval,
        geo_edge_lag_s=tuple(geo_edge_lag),
        geo_drain_seed=geo_drain_seed,
        geo_regions=tuple(geo_regions),
    )


@dataclass(frozen=True)
class InvariantCheck:
    """One invariant's verdict for one cell."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class CellResult:
    """One matrix cell's outcome: the load report plus invariant verdicts."""

    topology: Topology
    traffic: TrafficSpec
    fault_name: str  # "none" for the fault-free reference
    report: LoadReport
    snapshot: MetricsSnapshot
    checks: List[InvariantCheck]
    verdict_digest: str
    reference: bool = False
    #: Trace-derived: root-to-leaf span names along the slowest child at
    #: every level of the cell's worst trace ("" when tracing found none).
    slowest_path: str = ""
    #: Trace-derived: the trace id of the cell's slowest request — the
    #: exemplar to pull (``repro obs`` / JSONL) when its p99 looks wrong.
    worst_trace: str = ""
    #: Event-log tally for the cell (kills, health transitions, quiesces,
    #: alert lifecycle transitions).
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Alert ids that reached *firing* during the cell, sorted — what the
    #: ``expect_alerts`` / ``forbid_alerts`` invariants are checked against.
    fired_alerts: Tuple[str, ...] = ()
    #: Geo tier: whether every live edge digest-matched the primary after
    #: the post-load drain (``None`` on edge-less cells — deterministic by
    #: construction: a seeded drain scheduler over a converged queue).
    geo_converged: Optional[bool] = None
    #: Geo tier (timing): reads edges answered locally, and the worst
    #: visible ``staleness_epochs`` any edge-served read carried.
    edge_reads: int = 0
    max_edge_staleness: int = 0

    @property
    def cell_id(self) -> str:
        return f"{self.topology.label}/{self.traffic.shape}/{self.fault_name}"

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def _verdict_digest(verdicts: Dict[Tuple[str, str, str, str], str]) -> str:
    canonical = json.dumps(sorted(verdicts.items()), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class RunTable:
    """The aggregated scenario outcome, renderable as CSV and markdown.

    The deterministic columns (:attr:`DETERMINISTIC_COLUMNS`) are
    byte-identical for the same scenario + seed; the timing columns vary
    with the wall clock and are excluded by ``csv(include_timings=False)``.
    """

    DETERMINISTIC_COLUMNS = (
        "cell",
        "topology",
        "traffic",
        "fault",
        "requests",
        "failed",
        "invariants",
        "verdict_digest",
        # "yes"/"no" on geo cells ("-" elsewhere): post-drain digest parity
        # is scheduler-order-independent, so it stays byte-identical across
        # drain-scheduler seeds — the two-seed CI re-run diffs exactly this.
        "geo_converged",
    )
    TIMING_COLUMNS = (
        "completed",
        "rejected",
        "degraded",
        "retries",
        "failovers",
        # Geo tier: how many reads edges answered and the worst visible
        # staleness they carried — both depend on drain/load interleaving.
        "edge_reads",
        "edge_stale_max",
        "p50_ms",
        "p99_ms",
        "wall_s",
        # Trace-derived (which child was slowest depends on real timing, so
        # these stay out of the deterministic view even though the span
        # *trees* themselves are deterministic under a virtual clock).
        "slowest_path",
        "worst_trace",
        # Alert-derived: *when* scrape instants land depends on the wall
        # clock, so burn-rate windows — and therefore which alerts fire —
        # are only reproducible under a virtual clock.  The invariant
        # checks assert the deterministic subset (kill-from-start cells);
        # the column itself stays out of the deterministic CSV.
        "alerts",
    )

    def __init__(self, scenario: Scenario, cells: Sequence[CellResult]) -> None:
        self.scenario = scenario
        self.cells = list(cells)

    @property
    def ok(self) -> bool:
        """True when every cell passed every invariant."""
        return all(cell.ok for cell in self.cells)

    def failed_checks(self) -> List[Tuple[str, InvariantCheck]]:
        """``(cell_id, check)`` for every invariant that did not pass."""
        return [
            (cell.cell_id, check)
            for cell in self.cells
            for check in cell.checks
            if not check.passed
        ]

    def rows(self, include_timings: bool = True) -> List[Dict[str, str]]:
        rows = []
        for cell in self.cells:
            row = {
                "cell": cell.cell_id,
                "topology": cell.topology.label,
                "traffic": cell.traffic.shape,
                "fault": cell.fault_name,
                "requests": str(cell.report.total),
                "failed": str(cell.report.failures),
                "invariants": "pass" if cell.ok else "FAIL",
                "verdict_digest": cell.verdict_digest,
                "geo_converged": (
                    "-" if cell.geo_converged is None
                    else ("yes" if cell.geo_converged else "no")
                ),
            }
            if include_timings:
                row.update(
                    {
                        "completed": str(cell.report.completed),
                        "rejected": str(cell.report.rejected),
                        "degraded": str(cell.report.degraded),
                        "retries": str(cell.report.retries_total),
                        "failovers": str(cell.snapshot.failovers),
                        "edge_reads": str(cell.edge_reads),
                        "edge_stale_max": str(cell.max_edge_staleness),
                        "p50_ms": f"{cell.snapshot.p50_latency_s * 1000:.2f}",
                        "p99_ms": f"{cell.snapshot.p99_latency_s * 1000:.2f}",
                        "wall_s": f"{cell.report.wall_seconds:.3f}",
                        "slowest_path": cell.slowest_path,
                        "worst_trace": cell.worst_trace,
                        "alerts": ";".join(cell.fired_alerts),
                    }
                )
            rows.append(row)
        return rows

    def csv(self, include_timings: bool = True) -> str:
        """The run table as CSV text (deterministic view when
        ``include_timings=False`` — the determinism floor's format)."""
        columns = list(self.DETERMINISTIC_COLUMNS)
        if include_timings:
            columns += list(self.TIMING_COLUMNS)
        lines = [",".join(columns)]
        for row in self.rows(include_timings):
            lines.append(",".join(row[column] for column in columns))
        return "\n".join(lines) + "\n"

    def markdown(self) -> str:
        """The run table as a GitHub-flavoured markdown table."""
        columns = list(self.DETERMINISTIC_COLUMNS) + list(self.TIMING_COLUMNS)
        lines = [
            f"## Chaos run: {self.scenario.name} (seed {self.scenario.seed})",
            "",
            "| " + " | ".join(columns) + " |",
            "| " + " | ".join("---" for _ in columns) + " |",
        ]
        for row in self.rows(include_timings=True):
            lines.append("| " + " | ".join(row[column] for column in columns) + " |")
        lines.append("")
        status = "all invariants passed" if self.ok else "INVARIANT FAILURES:"
        lines.append(f"**{len(self.cells)} cells — {status}**")
        for cell_id, check in self.failed_checks():
            lines.append(f"- `{cell_id}` {check.name}: {check.detail}")
        return "\n".join(lines) + "\n"


class ScenarioRunner:
    """Expands a :class:`Scenario` matrix and runs every cell.

    Cells run sequentially (fresh fleet per cell, deterministic ordering):
    for each ``(topology, traffic)`` pair the fault-free reference first,
    then each fault case.  A driver task polls the cell's
    :class:`FaultInjector` for due replica kills and applies them through
    :meth:`ShardedValidationService.kill_replica`, so kills share the ops
    eviction semantics everything else in the serving tier assumes.
    """

    def __init__(
        self,
        runner,
        scenario: Scenario,
        clock: Optional[Clock] = None,
        poll_interval_s: float = 0.005,
        drain_seed: Optional[int] = None,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.runner = runner
        self.scenario = scenario
        self.clock = clock or MonotonicClock()
        self.poll_interval_s = poll_interval_s
        #: Drain-scheduler seed override (``chaos --drain-seed``): the CI
        #: determinism floor re-runs the geo scenario under two seeds and
        #: diffs the deterministic CSV view byte-for-byte.
        self.drain_seed = (
            drain_seed if drain_seed is not None else scenario.geo_drain_seed
        )

    # ------------------------------------------------------------- execution

    def run(self) -> RunTable:
        """Run the whole matrix in a fresh event loop."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> RunTable:
        scenario = self.scenario
        cells: List[CellResult] = []
        for topology in scenario.topologies:
            for traffic in scenario.traffics:
                reference = await self._run_cell(topology, traffic, None, None)
                cells.append(reference)
                for case in scenario.fault_cases:
                    cells.append(
                        await self._run_cell(
                            topology, traffic, case, reference.report.verdicts()
                        )
                    )
        return RunTable(scenario, cells)

    # ------------------------------------------------------------- internals

    def _service_config(self) -> ServiceConfig:
        defaults = {
            "max_batch_size": 8,
            "batch_linger_s": 0.0,
            "queue_depth": 4096,
            "time_scale": 0.0,
        }
        defaults.update(self.scenario.service_config)
        return ServiceConfig(**defaults)  # type: ignore[arg-type]

    def _ingest_factory(self, traffic: TrafficSpec):
        dataset = self.runner.dataset(self.scenario.dataset)
        facts = list(dataset)
        batch_size = traffic.write_batch_size

        def factory(index: int) -> List[Mutation]:
            batch = []
            for offset in range(batch_size):
                fact = facts[(index * batch_size + offset) % len(facts)]
                document = Document(
                    doc_id=f"chaos-ingest-{index}-{offset}",
                    url=f"https://chaos.example/{index}/{offset}",
                    title=f"Chaos ingest {index}.{offset}",
                    text=f"Update {index}.{offset}: fresh evidence about "
                    f"{fact.subject_name}.",
                    source="chaos.example",
                    fact_id=fact.fact_id,
                    kind="news",
                )
                batch.append(Mutation.add_document(document))
            return batch

        return factory

    def _quorum_lost(self, topology: Topology, case: Optional[FaultCase]) -> bool:
        """Whether the schedule kills EVERY replica of some shard (the
        zero-``FAILED`` invariant only binds while a quorum is alive)."""
        if case is None:
            return False
        killed: Dict[int, set] = {}
        for _, (shard, replica) in case.schedule.kill_targets():
            killed.setdefault(shard, set()).add(replica)
        return any(
            len(replicas) >= topology.replicas for replicas in killed.values()
        )

    async def _drive_faults(
        self, injector: FaultInjector, router: ShardedValidationService
    ) -> None:
        while True:
            for shard, replica in injector.due_kills():
                await router.kill_replica(shard, replica)
            await self.clock.sleep(self.poll_interval_s)

    async def _drive_monitor(self, monitor: SLOMonitor) -> None:
        while True:
            monitor.tick()
            await self.clock.sleep(self.poll_interval_s)

    async def _run_cell(
        self,
        topology: Topology,
        traffic: TrafficSpec,
        case: Optional[FaultCase],
        reference_verdicts: Optional[Dict[Tuple[str, str, str, str], str]],
    ) -> CellResult:
        scenario = self.scenario
        spec = replace(
            traffic, requests=scenario.requests, seed=scenario.seed + traffic.seed
        )
        dataset = self.runner.dataset(scenario.dataset)
        schedule = build_traffic(
            [dataset],
            scenario.methods,
            scenario.models,
            spec,
            ingest_factory=self._ingest_factory(spec) if spec.write_fraction > 0 else None,
        )
        store = None
        if scenario.attach_store:
            store = self.runner.sharded_store(
                scenario.dataset, topology.shards
            ).replay_twin()
        router = ShardedValidationService.from_runner(
            self.runner,
            topology.shards,
            self._service_config(),
            store=store,
            request_timeout_s=scenario.request_timeout_s,
            replicas=topology.replicas,
            unhealthy_after=scenario.unhealthy_after,
            probe_interval_s=scenario.probe_interval_s,
            retry_policy=scenario.retry_policy,
            clock=self.clock,
            edges=topology.edges,
            staleness_bound_epochs=scenario.geo_staleness_bound_epochs,
            drain_interval_s=scenario.geo_drain_interval_s,
            edge_lag_s=dict(scenario.geo_edge_lag_s),
            drain_seed=self.drain_seed,
        )
        # Per-cell observability: a fresh seeded tracer + event log on the
        # runner's clock, so each cell's span trees stand alone (and are
        # byte-identical under a virtual clock for the same scenario seed).
        obs = Observability.for_clock(
            self.clock, seed=scenario.seed, trace_capacity=4096
        )
        router.set_observability(obs)
        bound = scenario.geo_staleness_bound_epochs
        # Per-cell SLO monitor: scrapes the fleet's merged families on the
        # runner's clock and steps burn-rate alerts into the cell's event
        # log, so "did this fault page?" is checkable like any invariant.
        monitor = SLOMonitor(
            MetricsScraper(
                router.metrics.collect_families,
                clock=self.clock,
                interval_s=self.poll_interval_s,
            ),
            fleet_slos(
                topology.shards,
                topology.replicas,
                topology.edges,
                # The gauge is fleet-summed, so the budget is the staleness
                # bound (8 epochs when unset) once per edge.
                lag_budget=float(8 if bound is None else bound) * topology.edges,
            ),
            events=obs.events,
        )
        injector: Optional[FaultInjector] = None
        driver: Optional[asyncio.Task] = None
        watcher: Optional[asyncio.Task] = None
        async with router:
            if case is not None:
                injector = FaultInjector(case.schedule, clock=self.clock, seed=scenario.seed)
                router.set_fault_injection(injector)
                injector.start()
                # Kills due at t=0 land before the first request is issued.
                for shard, replica in injector.due_kills():
                    await router.kill_replica(shard, replica)
            watcher = asyncio.get_running_loop().create_task(
                self._drive_monitor(monitor)
            )
            if injector is not None:
                driver = asyncio.get_running_loop().create_task(
                    self._drive_faults(injector, router)
                )
            regions = (
                list(scenario.geo_regions)
                if topology.edges > 0 and scenario.geo_regions
                else None
            )
            generator = LoadGenerator(
                router, schedule, scenario.concurrency, regions=regions
            )
            try:
                report = await generator.run()
            finally:
                for task in (driver, watcher):
                    if task is not None:
                        task.cancel()
                        await asyncio.gather(task, return_exceptions=True)
            # Drain every surviving edge to quiescence while the router is
            # still open, then prove byte-identical convergence: after a
            # full drain the edge copies must reach the primary's digests
            # no matter how the fault schedule interleaved their catch-up.
            geo_converged: Optional[bool] = None
            geo_diverged: List[str] = []
            if router.geo is not None:
                await router.drain_edges()
                for name in router.live_edge_names:
                    try:
                        router.geo.verify_converged(name)
                    except ReplicaDivergedError as exc:
                        geo_diverged.append(f"{name}: {exc}")
                geo_converged = not geo_diverged
            # One final scrape + evaluation after the load drains, so a
            # fault landing after the last in-flight tick still alerts.
            monitor.tick()
            snapshot = router.metrics.snapshot()
            ring = router.ring
        fired_alerts = tuple(monitor.manager.fired_ids())
        edge_reads = 0
        max_edge_staleness = 0
        for response in report.responses:
            if response.served_by in (None, "primary"):
                continue
            edge_reads += 1
            max_edge_staleness = max(
                max_edge_staleness, response.staleness_epochs or 0
            )
        checks = self._check_invariants(
            topology,
            case,
            report,
            reference_verdicts,
            ring,
            fired_alerts,
            geo_converged=geo_converged,
            geo_diverged=geo_diverged,
            max_edge_staleness=max_edge_staleness,
        )
        worst_trace, worst_spans = obs.tracer.slowest_trace()
        return CellResult(
            topology=topology,
            traffic=traffic,
            fault_name=case.name if case is not None else "none",
            report=report,
            snapshot=snapshot,
            checks=checks,
            verdict_digest=_verdict_digest(report.verdicts()),
            reference=case is None,
            slowest_path=_slowest_path(worst_spans),
            worst_trace=worst_trace,
            event_counts=obs.events.counts(),
            fired_alerts=fired_alerts,
            geo_converged=geo_converged,
            edge_reads=edge_reads,
            max_edge_staleness=max_edge_staleness,
        )

    def _check_invariants(
        self,
        topology: Topology,
        case: Optional[FaultCase],
        report: LoadReport,
        reference_verdicts: Optional[Dict[Tuple[str, str, str, str], str]],
        ring,
        fired_alerts: Sequence[str] = (),
        geo_converged: Optional[bool] = None,
        geo_diverged: Sequence[str] = (),
        max_edge_staleness: int = 0,
    ) -> List[InvariantCheck]:
        invariants = self.scenario.invariants
        checks: List[InvariantCheck] = []

        failed = report.failures
        if self._quorum_lost(topology, case):
            checks.append(
                InvariantCheck(
                    "zero-failed",
                    True,
                    f"waived: the schedule kills a whole shard ({failed} FAILED)",
                )
            )
        else:
            checks.append(
                InvariantCheck(
                    "zero-failed",
                    failed <= invariants.max_failed,
                    f"{failed} FAILED responses (allowed {invariants.max_failed})",
                )
            )

        if invariants.verdict_parity and reference_verdicts is not None:
            verdicts = report.verdicts()
            mismatches = [
                key
                for key, verdict in verdicts.items()
                if key in reference_verdicts and reference_verdicts[key] != verdict
            ]
            checks.append(
                InvariantCheck(
                    "verdict-parity",
                    not mismatches,
                    f"{len(mismatches)} verdicts diverge from the fault-free "
                    f"reference (of {len(verdicts)} compared)",
                )
            )

        if invariants.staleness_bound_epochs is not None:
            worst = 0
            for request, response in zip(report.requests, report.responses):
                if not response.degraded or not isinstance(request, ServiceRequest):
                    continue
                if response.stale_epoch is None or not response.epoch_vector:
                    continue
                shard = ring.shard_for(request.fact.triple.subject)
                worst = max(worst, response.epoch_vector[shard] - response.stale_epoch)
            checks.append(
                InvariantCheck(
                    "staleness-bound",
                    worst <= invariants.staleness_bound_epochs,
                    f"worst DEGRADED staleness {worst} epochs "
                    f"(bound {invariants.staleness_bound_epochs})",
                )
            )

        fault_name = case.name if case is not None else "none"
        expected = invariants.expected_alerts_for(fault_name)
        if expected:
            missing = [alert_id for alert_id in expected if alert_id not in fired_alerts]
            checks.append(
                InvariantCheck(
                    "expect-alerts",
                    not missing,
                    f"expected {list(expected)} to fire; "
                    f"missing {missing or 'none'} (fired: {list(fired_alerts) or 'none'})",
                )
            )
        forbidden = invariants.forbidden_alerts_for(fault_name)
        if forbidden is not None:
            if "*" in forbidden:
                offending = list(fired_alerts)
            else:
                offending = [
                    alert_id for alert_id in fired_alerts if alert_id in forbidden
                ]
            checks.append(
                InvariantCheck(
                    "forbid-alerts",
                    not offending,
                    f"forbidden alerts fired: {offending or 'none'} "
                    f"(forbidden: {list(forbidden)})",
                )
            )

        if invariants.geo_converged and topology.edges > 0:
            checks.append(
                InvariantCheck(
                    "geo-converged",
                    bool(geo_converged),
                    "every surviving edge reached the primary's digests"
                    if geo_converged
                    else f"diverged after drain: {list(geo_diverged)}",
                )
            )

        if (
            invariants.edge_staleness_bound_epochs is not None
            and topology.edges > 0
        ):
            bound = invariants.edge_staleness_bound_epochs
            checks.append(
                InvariantCheck(
                    "edge-staleness-bound",
                    max_edge_staleness <= bound,
                    f"worst edge-served staleness {max_edge_staleness} epochs "
                    f"(bound {bound})",
                )
            )

        return checks
