"""Shared measurement machinery: fleet builder, load loops, checks.

Everything here talks to the program through names in the ``__all__`` of
``repro.service``, ``repro.store``, ``repro.benchmark`` and
``repro.validation`` and through public attributes of those objects, so it
keeps running through the router and storage refactors it exists to judge.
All latencies are taken here, at the client, with ``perf_counter`` around
the awaited call; nothing is read from ``ServiceResponse.latency_seconds``.
"""

from __future__ import annotations

import asyncio
import contextvars
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.service import (
    IngestRequest,
    LoadReport,
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ShardedValidationService,
    ValidationService,
    percentile,
)
from repro.store import GeoReplicator
from repro.validation import ValidationPipeline

from . import spec
from .calibration import slowness

#: ``(span id, request id)`` of the client call in flight on this task; the
#: traced services read it to parent their spans (see ``layers.py``).
CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar("e2e-span", default=None)

ServiceFactory = Callable[[str, object], ValidationService]


def build_runner() -> BenchmarkRunner:
    """The common substrate every serving workload is built over."""
    return BenchmarkRunner(ExperimentConfig(**spec.SUBSTRATE))


def strategy_provider(runner: BenchmarkRunner):
    """The program's own strategy provider, as ``from_runner`` wires it."""

    def provider(method: str, dataset: str, model_name: str):
        return runner.build_strategy(method, dataset, runner.registry.get(model_name))

    return provider


def service_config(**overrides) -> ServiceConfig:
    return ServiceConfig(
        max_batch_size=spec.MAX_BATCH_SIZE, queue_depth=spec.QUEUE_DEPTH, **overrides
    )


def build_fleet(
    runner: BenchmarkRunner,
    config: ServiceConfig,
    *,
    edges: int = 0,
    queue_dir: Optional[str] = None,
    drain_interval_s: float = 0.02,
    make_service: Optional[ServiceFactory] = None,
) -> ShardedValidationService:
    """2 shards x 2 replicas over a fresh twin of the runner's sharded store.

    The same wiring ``ShardedValidationService.from_runner`` performs, done
    through the public constructors so the traced run can hand in its own
    ``ValidationService`` subclasses (``make_service(label, store)``) and
    differ from the untraced run in nothing else.
    """
    if make_service is None:
        provider = strategy_provider(runner)

        def make_service(label: str, store) -> ValidationService:
            return ValidationService(
                strategies=provider, config=config, telemetry=runner.telemetry, store=store
            )

    store = runner.sharded_store(spec.DATASET, spec.NUM_SHARDS).replay_twin()
    replica_groups = store.replicate(spec.NUM_REPLICAS)
    shards = [
        [
            make_service(f"shard{index}/replica{replica}", replica_store)
            for replica, replica_store in enumerate(group.stores)
        ]
        for index, group in enumerate(replica_groups)
    ]
    geo = None
    edge_services = None
    if edges:
        geo = GeoReplicator(store, queue_dir=queue_dir)
        geo.wire_replicas(replica_groups)
        edge_services = {}
        for edge_index in range(edges):
            name = f"edge-{edge_index}"
            edge = geo.add_edge(name)
            edge_services[name] = [
                make_service(f"{name}/shard{index}", edge_store)
                for index, edge_store in enumerate(edge.stores)
            ]
    return ShardedValidationService(
        shards=shards,
        store=store,
        replica_groups=replica_groups,
        geo=geo,
        edge_services=edge_services,
        drain_interval_s=drain_interval_s,
    )


async def warm_up(router: ShardedValidationService, coordinates: Sequence[ServiceRequest]) -> None:
    """Every coordinate through every replica (and edge) of its shard: lazy
    strategies, evidence and verdict caches fill before anything is timed,
    whichever replica the balancer later picks."""
    owned: Dict[int, List[ServiceRequest]] = {}
    for request in coordinates:
        owned.setdefault(router.shard_for(request), []).append(request)
    for shard, requests in owned.items():
        services = list(router.groups[shard])
        services += [edge[shard] for edge in router.edge_services.values()]
        for service in services:
            await asyncio.gather(*(service.submit(request) for request in requests))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- loops


@dataclass
class LoopResult:
    """What one timed phase measured, all of it at the client."""

    requests: List[object]
    responses: List[ServiceResponse]
    sessions: List[Optional[str]]
    #: Client latencies at reference speed (see ``calibration.py``), and as
    #: the clock read them.
    read_latencies: List[float] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    raw_read_latencies: List[float] = field(default_factory=list)
    raw_write_latencies: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    slowness: List[float] = field(default_factory=list)
    raised: int = 0

    @property
    def failed(self) -> int:
        """FAILED + REJECTED + DEGRADED + raised (raised calls are recorded
        as FAILED responses, so they are counted once)."""
        bad = (RequestOutcome.FAILED, RequestOutcome.REJECTED, RequestOutcome.DEGRADED)
        return sum(1 for response in self.responses if response.outcome in bad)

    def report(self, router: ShardedValidationService, clients: int) -> LoadReport:
        """The program's own ``LoadReport`` over these responses, for its
        outcome accounting and read-your-writes checker."""
        return LoadReport(
            responses=self.responses,
            wall_seconds=self.wall_s,
            concurrency=clients,
            snapshot=router.metrics.snapshot(),
            requests=self.requests,
            sessions=self.sessions,
        )


def _raised_response(exc: BaseException, latency: float) -> ServiceResponse:
    return ServiceResponse(
        outcome=RequestOutcome.FAILED,
        result=None,
        cached=False,
        latency_seconds=latency,
        error=f"raised: {exc!r}",
    )


def _ingest_response(report, latency: float) -> ServiceResponse:
    # The session's write floor: the landed epoch at each shard the batch
    # touched, zero elsewhere (what LoadReport.session_violations expects).
    landed = [0] * len(report.epoch_vector)
    for shard_index, shard_report in report.shard_reports:
        landed[shard_index] = shard_report.epoch
    return ServiceResponse(
        outcome=RequestOutcome.INGESTED,
        result=None,
        cached=False,
        latency_seconds=latency,
        batch_size=report.total_ops,
        epoch=report.epoch,
        epoch_vector=tuple(landed),
    )


async def issue(
    router,
    item,
    kwargs: Dict[str, object],
    result: LoopResult,
    index: int,
    started: float,
    recorder=None,
) -> None:
    """Issue one schedule item and record its client-side latency from
    ``started`` (the send time in a closed loop, the due time in an open
    one).  With a ``recorder`` the call is one ``router.*`` span."""
    is_write = isinstance(item, IngestRequest)
    span = None
    if recorder is not None:
        name = "router.apply_mutations" if is_write else "router.submit"
        span = recorder.begin(name, None, index, "client")
        CURRENT_SPAN.set((span, index))
    try:
        if is_write:
            write_kwargs = {k: v for k, v in kwargs.items() if k == "session"}
            report = await router.apply_mutations(list(item.mutations), **write_kwargs)
            latency = time.perf_counter() - started
            response = _ingest_response(report, latency)
        else:
            response = await router.submit(item, **kwargs)
            latency = time.perf_counter() - started
    except Exception as exc:  # counted and reported, never hidden
        latency = time.perf_counter() - started
        response = _raised_response(exc, latency)
        result.raised += 1
    if span is not None:
        recorder.end(span)
    result.responses[index] = response
    (result.raw_write_latencies if is_write else result.raw_read_latencies).append(latency)


async def closed_loop(
    router,
    items: Sequence[object],
    clients: int,
    *,
    slice_items: Optional[int] = None,
    sessions: bool = False,
    regions: Sequence[Optional[str]] = (),
    recorder=None,
) -> LoopResult:
    """``clients`` coroutines share one schedule, each keeping one item in
    flight.  Client ``i`` speaks as session ``client-i`` (when ``sessions``)
    and reads from ``regions[i % len(regions)]``.

    The schedule runs in slices of ``slice_items``; the box's slowness is
    taken before and after each, and the slice's wall, CPU and latencies
    are also kept divided by the mean of the two (reference speed).
    """
    result = LoopResult(list(items), [None] * len(items), [None] * len(items))
    slice_items = slice_items or len(items)
    cursor = 0
    stop = 0

    async def client(client_index: int) -> None:
        nonlocal cursor
        kwargs: Dict[str, object] = {}
        if sessions:
            kwargs["session"] = f"client-{client_index}"
        if regions and regions[client_index % len(regions)] is not None:
            kwargs["region"] = regions[client_index % len(regions)]
        while cursor < stop:
            index = cursor
            cursor += 1
            result.sessions[index] = kwargs.get("session")
            await issue(
                router, items[index], kwargs, result, index, time.perf_counter(), recorder
            )

    after = await slowness()
    while stop < len(items):
        before = after
        stop = min(stop + slice_items, len(items))
        reads, writes = len(result.raw_read_latencies), len(result.raw_write_latencies)
        cpu = time.process_time()
        started = time.perf_counter()
        await asyncio.gather(*(client(index) for index in range(clients)))
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        after = await slowness()
        slow = (before + after) / 2
        result.slowness.append(slow)
        result.raw_wall_s += wall
        result.raw_cpu_s += cpu
        result.wall_s += wall / slow
        result.cpu_s += cpu / slow
        result.read_latencies += [v / slow for v in result.raw_read_latencies[reads:]]
        result.write_latencies += [v / slow for v in result.raw_write_latencies[writes:]]
    return result


@dataclass
class StepResult:
    """One fixed-rate step of the open loop."""

    rate: int
    sent: int
    latencies: List[float]
    missed: int  # answered later than the SLO after its due time
    not_completed: int  # FAILED / REJECTED / DEGRADED / raised
    inflight_mid: int
    inflight_end: int
    wall_s: float  # the step itself
    cpu_s: float  # the step and the drain of what it left in flight
    slowness: float  # of the box, around the step

    @property
    def cpu_share(self) -> float:
        """Process CPU per second of step, at reference speed: how much of
        the step the program computed rather than slept."""
        return self.cpu_s / self.slowness / self.wall_s

    @property
    def backlog_grew(self) -> bool:
        """In flight at step end against mid-step, the rate being the same
        for both: a fleet keeping up holds it level."""
        return self.inflight_end > 1.25 * self.inflight_mid + 8


@dataclass
class OpenLoopResult:
    loop: LoopResult
    steps: List[StepResult]
    lateness: List[float]


async def open_loop(
    router,
    steps: Sequence[Tuple[int, Sequence[ServiceRequest]]],
    step_s: float,
    slo_s: float,
    recorder=None,
) -> OpenLoopResult:
    """Send each step's requests at its fixed rate, whatever the fleet does.

    Request ``k`` of a step is due at ``step start + k / rate``; its latency
    runs from that due time, so a stall is charged to every request it
    delays.  A step ends ``step_s`` after it started; what is still in
    flight then is drained (and its latency counted) before the box's
    slowness is taken and the next step starts.  Sleeps standing in for
    the backend set the latencies here, not the box's speed, so only the
    CPU time is also kept at reference speed.
    """
    items = [request for _, requests in steps for request in requests]
    result = LoopResult(items, [None] * len(items), [None] * len(items))
    done_at: List[float] = [0.0] * len(items)
    due_at: List[float] = [0.0] * len(items)
    inflight = 0
    lateness: List[float] = []
    out: List[StepResult] = []

    async def one(index: int) -> None:
        nonlocal inflight
        inflight += 1
        try:
            await issue(router, items[index], {}, result, index, due_at[index], recorder)
        finally:
            inflight -= 1
            done_at[index] = time.perf_counter()

    offset = 0
    after = await slowness()
    for rate, requests in steps:
        before = after
        tasks: List[asyncio.Task] = []
        inflight_mid = 0
        cpu = time.process_time()
        step_start = time.perf_counter()
        for k in range(len(requests)):
            due = step_start + k / rate
            delay = due - time.perf_counter()
            # Always yield: a late generator that never awaited would keep
            # the fleet from running at all.
            await asyncio.sleep(delay if delay > 0 else 0)
            lateness.append(max(time.perf_counter() - due, 0.0))
            due_at[offset + k] = due
            tasks.append(asyncio.ensure_future(one(offset + k)))
            if k == len(requests) // 2:
                inflight_mid = inflight
        delay = step_start + step_s - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        inflight_end = inflight
        wall = time.perf_counter() - step_start
        await asyncio.gather(*tasks)
        cpu = time.process_time() - cpu
        after = await slowness()
        slow = (before + after) / 2
        span = range(offset, offset + len(requests))
        latencies = [done_at[i] - due_at[i] for i in span]
        out.append(
            StepResult(
                rate=rate,
                sent=len(requests),
                latencies=latencies,
                missed=sum(1 for latency in latencies if latency > slo_s),
                not_completed=sum(
                    1 for i in span
                    if result.responses[i].outcome is not RequestOutcome.COMPLETED
                ),
                inflight_mid=inflight_mid,
                inflight_end=inflight_end,
                wall_s=wall,
                cpu_s=cpu,
                slowness=slow,
            )
        )
        result.slowness.append(slow)
        result.raw_wall_s += wall
        result.raw_cpu_s += cpu
        result.cpu_s += cpu / slow
        offset += len(requests)
    result.wall_s = result.raw_wall_s
    result.read_latencies = list(result.raw_read_latencies)
    return OpenLoopResult(result, out, lateness)


# -------------------------------------------------------------------- checks


def parity_failures(
    runner: BenchmarkRunner,
    served: Sequence[Tuple[ServiceRequest, ServiceResponse]],
) -> List[str]:
    """Served verdicts that differ from the offline pipeline's.

    Each sampled read is re-judged by a strategy fresh from the runner,
    through ``ValidationPipeline.run_facts`` — the offline code path.  (The
    strategies read the runner's substrates, not the shard stores, so the
    offline verdict does not depend on the stamped epoch today.)
    """
    provider = strategy_provider(runner)
    pipeline = ValidationPipeline()
    strategies: Dict[Tuple[str, str], object] = {}
    failures = []
    for request, response in served:
        key = (request.method, request.model)
        if key not in strategies:
            strategies[key] = provider(request.method, request.fact.dataset, request.model)
        offline = pipeline.run_facts(
            strategies[key], [request.fact], dataset=request.fact.dataset
        )[0]
        if response.result is None or response.result.verdict != offline.verdict:
            got = response.result.verdict.value if response.result else None
            failures.append(
                f"{request.fact.fact_id}/{request.method}/{request.model}: "
                f"served {got}, offline {offline.verdict.value}"
            )
    return failures


def sample_served(loop: LoopResult, rng, count: int) -> List[Tuple[ServiceRequest, ServiceResponse]]:
    """A seeded sample of completed reads, one per distinct coordinate."""
    seen = set()
    pool = []
    for request, response in zip(loop.requests, loop.responses):
        if not isinstance(request, ServiceRequest):
            continue
        if response.outcome is not RequestOutcome.COMPLETED:
            continue
        key = (request.fact.fact_id, request.method, request.model, response.epoch)
        if key not in seen:
            seen.add(key)
            pool.append((request, response))
    return rng.sample(pool, min(count, len(pool)))


def summarise(values: Sequence[float]) -> Tuple[float, float]:
    """``(p50, p95)`` of client latencies, in the caller's unit."""
    return percentile(values, 50), percentile(values, spec.TAIL_PERCENTILE)
