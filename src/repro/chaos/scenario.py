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
    service:                    # ServiceConfig fields + the two router timers
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
(a driver task sleeps on the cell's clock until each replica kill's
``at_s`` and applies it via :meth:`ShardedValidationService.kill_replica`).
Each cell is then checked against the scenario's invariants — no
``FAILED`` while a quorum is alive, verdict parity against the reference,
bounded staleness on ``DEGRADED`` answers — and the results aggregate
into a :class:`RunTable` (CSV + markdown).

Determinism contract: the run table's **deterministic columns** (cell
coordinates, request counts, failed counts, invariant verdicts, verdict
digests) are byte-identical for the same scenario + seed; the **timing
columns** (latency percentiles, retry/failover tallies, wall time) vary
with the wall clock and are excluded from ``csv(include_timings=False)``
— the view the determinism floor asserts on.

Every mapping block has one declaration, a frozen dataclass: its field
names are the block's keys, its annotations their types, its defaults the
defaults and its ``__post_init__`` the value rules (see :func:`_build`).
Malformed scenarios raise :class:`ScenarioError` with a message naming the
offending key — unknown keys, mistyped or out-of-range values, unknown
fault targets (grammar-level or out of the matrix's topology bounds),
overlapping fault windows, negative times, and empty matrix axes are all
load-time errors, never mid-run surprises.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import re
import typing
from dataclasses import dataclass, field, fields, replace
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
from .clock import MonotonicClock
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
    "GeoOptions",
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


def _typed(value: object, hint: object, where: str) -> object:
    """``value`` as annotation ``hint`` admits it, else a :class:`ScenarioError`
    naming ``where``.  Nothing is coerced: an int passes for a float, a bool
    never passes for a number, and a YAML sequence comes back as the tuple
    its field declares."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        if value is None and type(None) in args:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return _typed(value, inner, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(hints) == len(value):
            return tuple(
                _typed(item, item_hint, f"{where}[{index}]")
                for index, (item, item_hint) in enumerate(zip(value, hints))
            )
    elif origin is dict and isinstance(value, dict):
        return {
            _typed(key, args[0], where): _typed(item, args[1], f"{where}[{key!r}]")
            for key, item in value.items()
        }
    elif origin is None:
        accepted = (int, float) if hint is float else hint
        if isinstance(value, accepted) and isinstance(value, bool) == (hint is bool):
            # NaN compares false with every bound, so a rule would pass it.
            _require(
                not isinstance(value, float) or math.isfinite(value),
                f"{where} must be finite, got {value!r}",
            )
            return value
    name = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
    raise ScenarioError(f"{where} must be {name}, got {value!r}")


def _build(cls, raw: object, where: str, **built):
    """One scenario block from its one declaration, the dataclass ``cls``.

    The field names are the keys ``raw`` may hold (less the ``built``
    ones, which the loader fills from other blocks), the annotations the
    types, the field defaults the defaults and ``__post_init__`` the value
    rules.  A block left out (``None``) is all defaults; anything wrong is
    a :class:`ScenarioError` naming ``where``.
    """
    raw = {} if raw is None else raw
    _require(isinstance(raw, dict), f"{where} must be a mapping, got {raw!r}")
    unknown = set(raw) - ({item.name for item in fields(cls)} - set(built))
    _require(not unknown, f"unknown {where} keys {sorted(unknown, key=str)}")
    hints = typing.get_type_hints(cls)
    values = {
        key: _typed(value, hints[key], f"{where}.{key}") for key, value in raw.items()
    }
    try:
        return cls(**values, **built)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Topology:
    """One fleet shape: ``shards`` logical shards x ``replicas`` workers,
    plus ``edges`` asynchronous geo edge replicas (0 = no geo tier)."""

    shards: int = 1
    replicas: int = 1
    edges: int = 0

    def __post_init__(self) -> None:
        _require(self.shards >= 1, f"shards must be >= 1, got {self.shards}")
        _require(self.replicas >= 1, f"replicas must be >= 1, got {self.replicas}")
        _require(self.edges >= 0, f"edges must be >= 0, got {self.edges}")

    @property
    def label(self) -> str:
        base = f"s{self.shards}xr{self.replicas}"
        return f"{base}xe{self.edges}" if self.edges else base


@dataclass(frozen=True)
class FaultCase:
    """One named fault schedule — a column of the scenario matrix."""

    name: str
    schedule: FaultSchedule

    def __post_init__(self) -> None:
        _require(bool(self.name), "a fault case needs a non-empty 'name'")


@dataclass(frozen=True)
class GeoOptions:
    """The ``geo:`` block: how topologies with ``edges > 0`` run their geo
    tier (the router arguments of the same names, plus the load
    generator's ``regions``)."""

    #: Edge reads trailing the primary by more epochs than this fall back
    #: to the primary (``None`` = no bound).
    staleness_bound_epochs: Optional[int] = None
    #: Seconds between background drain ticks per edge.
    drain_interval_s: float = 0.02
    #: Extra seconds per drain tick, by edge name (injected lag).
    edge_lag_s: Dict[str, float] = field(default_factory=dict)
    #: Seed of the drain scheduler's shard-order shuffle.
    drain_seed: int = 0
    #: The client-region affinity cycle the load generator assigns
    #: (``None`` entries pin clients to the primary).
    regions: Tuple[Optional[str], ...] = ()

    def __post_init__(self) -> None:
        bound = self.staleness_bound_epochs
        _require(bound is None or bound >= 0, "staleness_bound_epochs must be >= 0 when set")
        _require(self.drain_interval_s > 0, "drain_interval_s must be positive")
        _require(
            all(lag >= 0 for lag in self.edge_lag_s.values()),
            "edge_lag_s must be >= 0 seconds for every edge",
        )


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
        _require(self.max_failed >= 0, "max_failed must be >= 0")
        for name in ("staleness_bound_epochs", "edge_staleness_bound_epochs"):
            bound = getattr(self, name)
            _require(bound is None or bound >= 0, f"{name} must be >= 0 when set")

    def expected_alerts_for(self, fault_name: str) -> Tuple[str, ...]:
        """Alert ids that must fire during ``fault_name``'s cell."""
        return dict(self.expect_alerts).get(fault_name, ())

    def forbidden_alerts_for(self, fault_name: str) -> Optional[Tuple[str, ...]]:
        """Alert ids that must stay silent during ``fault_name``'s cell,
        or ``None`` when the cell is unconstrained."""
        return dict(self.forbid_alerts).get(fault_name)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A parsed, validated scenario (see the module docstring schema).

    The fields up to ``store`` are the top-level keys of the same names;
    the loader fills the rest from the nested blocks — ``request_timeout_s``
    and ``probe_interval_s`` are the two router timers of ``service:``,
    whose other keys are :class:`ServiceConfig`'s, and the three matrix
    axes come out of ``matrix:``.
    """

    name: str = "scenario"
    seed: int = 0
    dataset: str = "factbench"
    methods: Tuple[str, ...] = ("dka",)
    models: Tuple[str, ...] = ()
    requests: int = 200
    concurrency: int = 8
    #: Attach per-cell sharded stores (writes, epochs, the geo tier).
    store: bool = False
    service: ServiceConfig
    #: Seconds before a stalled replica attempt is abandoned (``None`` = never).
    request_timeout_s: Optional[float] = 0.25
    #: Seconds an unhealthy replica rests before one canary request.
    probe_interval_s: float = 0.05
    retry: Optional[RetryPolicy]
    geo: GeoOptions
    topologies: Tuple[Topology, ...]
    traffics: Tuple[TrafficSpec, ...]
    fault_cases: Tuple[FaultCase, ...]
    invariants: Invariants

    def __post_init__(self) -> None:
        _require(bool(self.name), "'name' must be a non-empty string")
        _require(bool(self.dataset), "'dataset' must be a non-empty string")
        _require(bool(self.methods), "'methods' must list at least one method")
        _require(bool(self.models), "'models' must list at least one model")
        _require(self.requests >= 1, "'requests' must be >= 1")
        _require(self.concurrency >= 1, "'concurrency' must be >= 1")
        _require(
            self.request_timeout_s is None or self.request_timeout_s > 0,
            "service.request_timeout_s must be positive when set",
        )
        _require(self.probe_interval_s > 0, "service.probe_interval_s must be positive")

    @property
    def cell_count(self) -> int:
        """Matrix cells plus one fault-free reference per (topology, traffic)."""
        pairs = len(self.topologies) * len(self.traffics)
        return pairs * (len(self.fault_cases) + 1)


#: The names the router gives a topology's edges: ``edge-0``, ``edge-1``, …
_EDGE_NAME = re.compile(r"edge-(0|[1-9][0-9]*)")


def _parse_fault_case(index: int, raw: object) -> FaultCase:
    where = f"matrix.faults[{index}]"
    _require(isinstance(raw, dict), f"{where} must be a mapping, got {raw!r}")
    rows = raw.get("schedule")
    _require(
        isinstance(rows, list) and bool(rows),
        f"{where} needs a non-empty 'schedule' list",
    )
    events: List[FaultEvent] = []
    for row_index, row in enumerate(rows):
        at = f"{where}.schedule[{row_index}]"
        if isinstance(row, dict) and "fault" in row:
            fault = row["fault"]
            if isinstance(fault, dict):
                fault = _build(FaultSpec, fault, f"{at}.fault")
            else:  # the one value with a spelling of its own ("stall:0.5")
                try:
                    fault = FaultSpec.parse(fault)
                except ValueError as exc:
                    raise ScenarioError(f"{at}.fault: {exc}") from exc
            row = {**row, "fault": fault}
        events.append(_build(FaultEvent, row, at))
    try:
        schedule = FaultSchedule(events)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    return _build(FaultCase, {**raw, "schedule": schedule}, where)


def _check_target_bounds(case: FaultCase, topologies: Sequence[Topology]) -> None:
    """Every targeted shard/replica/edge index must exist in every topology
    — the matrix runs every fault case against every topology."""
    for event in case.schedule:
        target = event.target
        edge, coordinates = parse_edge_target(target), parse_replica_target(target)
        if edge is not None:
            wanted = {"edge": edge}
        elif coordinates is not None:
            wanted = dict(zip(("shard", "replica"), coordinates))
        elif target.startswith("shard:"):
            wanted = {"shard": int(target.split(":", 1)[1])}
        else:
            continue
        for topology in topologies:
            for axis, index in wanted.items():
                count = getattr(topology, f"{axis}s")
                _require(
                    index < count,
                    f"fault case {case.name!r} targets {target!r} but topology "
                    f"{topology.label} has only {count} {axis}(s)",
                )


def _parse_alert_map(
    key: str, raw: object, cell_names: set
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Validate an ``invariants.expect_alerts`` / ``forbid_alerts`` block:
    a mapping of fault-case name (or ``"none"``) to a list of alert ids
    (``"slo:severity"``; ``"*"`` forbids everything, forbid only)."""
    _require(
        isinstance(raw, dict),
        f"invariants.{key} must map fault-case names to alert-id lists",
    )
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
        for alert_id in ids:
            _require(
                isinstance(alert_id, str) and bool(alert_id),
                f"invariants.{key}[{cell_name!r}] has a non-string alert id {alert_id!r}",
            )
            if alert_id == "*":
                _require(
                    key == "forbid_alerts",
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

    Every block is built from its declaring dataclass by :func:`_build`
    (unknown keys, mistyped values and out-of-range values fail there);
    what is left here is what no single block can see: fault targets
    inside every topology's bounds, edge names against the widest
    topology, a ``geo:`` block needing an edge, writes or edges needing
    ``store: true``, unique cell labels, non-empty matrix axes, and the
    alert-map grammar.  Raises :class:`ScenarioError` — and nothing else —
    for any malformed input, with the offending key in the message.
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
    top = dict(data)

    # ``service:`` holds ServiceConfig's keys (with the scenario defaults
    # for two of them) beside the two router timers Scenario declares.
    service = top.pop("service", None)
    _require(
        service is None or isinstance(service, dict),
        f"service must be a mapping, got {service!r}",
    )
    service = dict(service or {})
    hints = typing.get_type_hints(Scenario)
    timers = {
        key: _typed(service.pop(key, getattr(Scenario, key)), hints[key], f"service.{key}")
        for key in ("request_timeout_s", "probe_interval_s")
    }
    config = _build(
        ServiceConfig, {"max_batch_size": 8, "queue_depth": 4096, **service}, "service"
    )

    retry = top.pop("retry", None)
    if retry is not None:
        try:
            retry = _build(RetryPolicy, retry, "retry")
        except ScenarioError as exc:
            raise ScenarioError(f"invalid retry policy: {exc}") from exc

    geo = _build(GeoOptions, top.pop("geo", None), "geo")

    matrix = top.pop("matrix", None)
    _require(isinstance(matrix, dict), "a scenario needs a 'matrix' mapping")
    matrix = dict(matrix)
    axes = {axis: matrix.pop(axis, None) for axis in ("topology", "traffic", "faults")}
    _require(not matrix, f"unknown matrix keys {sorted(matrix, key=str)}")
    for axis, rows in axes.items():
        _require(
            isinstance(rows, list) and bool(rows),
            f"the scenario matrix is empty: matrix.{axis} must list at least one "
            "entry (the fault-free reference runs automatically)",
        )
    topologies = tuple(
        _build(Topology, raw, f"matrix.topology[{index}]")
        for index, raw in enumerate(axes["topology"])
    )
    traffics = tuple(
        _build(TrafficSpec, raw, f"matrix.traffic[{index}]")
        for index, raw in enumerate(axes["traffic"])
    )
    fault_cases = tuple(
        _parse_fault_case(index, raw) for index, raw in enumerate(axes["faults"])
    )

    invariants = top.pop("invariants", None)
    if isinstance(invariants, dict):  # anything else is _build's to refuse
        cell_names = {case.name for case in fault_cases} | {"none"}
        invariants = dict(invariants)
        for key in ("expect_alerts", "forbid_alerts"):
            if key in invariants:
                invariants[key] = _parse_alert_map(key, invariants[key], cell_names)

    scenario = _build(
        Scenario,
        top,
        "scenario",
        service=config,
        **timers,
        retry=retry,
        geo=geo,
        topologies=topologies,
        traffics=traffics,
        fault_cases=fault_cases,
        invariants=_build(Invariants, invariants, "invariants"),
    )

    shapes = [traffic.shape for traffic in traffics]
    _require(
        len(set(shapes)) == len(shapes),
        f"matrix.traffic repeats a shape ({shapes}); each cell needs a distinct label",
    )
    names = [case.name for case in fault_cases]
    _require(len(set(names)) == len(names), f"matrix.faults repeats a name ({names})")
    for case in fault_cases:
        _check_target_bounds(case, topologies)

    max_edges = max(topology.edges for topology in topologies)
    _require(
        geo == GeoOptions() or max_edges > 0,
        "a 'geo' block needs at least one topology with edges > 0",
    )
    for key, named in (("edge_lag_s", geo.edge_lag_s), ("regions", geo.regions)):
        for name in named:
            match = None if name is None else _EDGE_NAME.fullmatch(name)
            _require(
                name is None or (match is not None and int(match[1]) < max_edges),
                f"geo.{key} names unknown edge {name!r} (the widest topology "
                f"has {max_edges} edge(s), named edge-0 upward)",
            )
    if any(traffic.write_fraction > 0 for traffic in traffics):
        _require(
            scenario.store,
            "a traffic shape mixes writes (write_fraction > 0) but 'store' is false; "
            "ingest needs per-cell sharded stores",
        )
    if max_edges > 0:
        _require(
            scenario.store,
            "a topology has edges > 0 but 'store' is false; the geo tier "
            "replicates per-cell sharded stores",
        )
    return scenario


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


#: Seconds between a cell's SLO scrapes.
POLL_INTERVAL_S = 0.005


class ScenarioRunner:
    """Expands a :class:`Scenario` matrix and runs every cell.

    Cells run sequentially (fresh fleet per cell, deterministic ordering):
    for each ``(topology, traffic)`` pair the fault-free reference first,
    then each fault case.  A driver task applies each scheduled replica
    kill at its instant through :meth:`ShardedValidationService.kill_replica`,
    so kills share the ops eviction semantics everything else in the
    serving tier assumes.
    """

    def __init__(
        self,
        runner,
        scenario: Scenario,
        drain_seed: Optional[int] = None,
    ) -> None:
        self.runner = runner
        self.scenario = scenario
        self.clock = MonotonicClock()
        #: Drain-scheduler seed override (``chaos --drain-seed``): the CI
        #: determinism floor re-runs the geo scenario under two seeds and
        #: diffs the deterministic CSV view byte-for-byte.
        self.drain_seed = (
            drain_seed if drain_seed is not None else scenario.geo.drain_seed
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
        """Kill each scheduled replica when the injector's timeline reaches
        its ``at_s``: kills due at 0 before the cell's first request."""
        for at_s, (shard, replica) in injector.schedule.kill_targets():
            delay = at_s - injector.elapsed()
            if delay > 0:
                await self.clock.sleep(delay)
            await router.kill_replica(shard, replica)

    async def _drive_monitor(self, monitor: SLOMonitor) -> None:
        while True:
            monitor.tick()
            await self.clock.sleep(POLL_INTERVAL_S)

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
        geo = scenario.geo
        store = None
        if scenario.store:
            store = self.runner.sharded_store(
                scenario.dataset, topology.shards
            ).replay_twin()
        router = ShardedValidationService.from_runner(
            self.runner,
            topology.shards,
            scenario.service,
            store=store,
            request_timeout_s=scenario.request_timeout_s,
            replicas=topology.replicas,
            probe_interval_s=scenario.probe_interval_s,
            retry_policy=scenario.retry,
            clock=self.clock,
            edges=topology.edges,
            staleness_bound_epochs=geo.staleness_bound_epochs,
            drain_interval_s=geo.drain_interval_s,
            edge_lag_s=geo.edge_lag_s,
            drain_seed=self.drain_seed,
        )
        # Per-cell observability: a fresh seeded tracer + event log on the
        # runner's clock, so each cell's span trees stand alone (and are
        # byte-identical under a virtual clock for the same scenario seed).
        obs = Observability.for_clock(
            self.clock, seed=scenario.seed, trace_capacity=4096
        )
        router.set_observability(obs)
        bound = geo.staleness_bound_epochs
        # Per-cell SLO monitor: scrapes the fleet's merged families on the
        # runner's clock and steps burn-rate alerts into the cell's event
        # log, so "did this fault page?" is checkable like any invariant.
        monitor = SLOMonitor(
            MetricsScraper(
                router.metrics.collect_families,
                clock=self.clock,
                interval_s=POLL_INTERVAL_S,
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
        driver: Optional[asyncio.Task] = None
        async with router:
            loop = asyncio.get_running_loop()
            if case is not None:
                injector = FaultInjector(case.schedule, clock=self.clock, seed=scenario.seed)
                router.set_fault_injection(injector)
                injector.start()
                # Created first, so its first step (the kills due at 0) runs
                # before the monitor's first scrape and the first request.
                driver = loop.create_task(self._drive_faults(injector, router))
            watcher = loop.create_task(self._drive_monitor(monitor))
            # A fleet without edges ignores the region hints.
            generator = LoadGenerator(
                router, schedule, scenario.concurrency, regions=geo.regions
            )
            try:
                report = await generator.run()
            finally:
                for task in (driver, watcher):
                    if task is not None:
                        task.cancel()
                        await asyncio.gather(task, return_exceptions=True)
            if driver is not None and not driver.cancelled() and driver.exception():
                raise driver.exception()  # a kill the fleet refused (IndexError)
            # Drain every surviving edge to quiescence while the router is
            # still open, then prove byte-identical convergence: after a
            # full drain the edge copies must reach the primary's digests
            # no matter how the fault schedule interleaved their catch-up.
            geo_converged: Optional[bool] = None
            geo_diverged: List[str] = []
            if router.geo is not None:
                await router.drain_edges()
                for name in router.geo_tier.live_names:
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
