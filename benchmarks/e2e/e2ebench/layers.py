"""The traced run: harness-side spans at public seams, and layer probes.

Spans are recorded from these files only, at seams the harness wires
itself: the client call into the router (``harness.issue``), a
``ValidationService`` subclass overriding ``submit``/``apply_mutations``,
and a ``ValidationStrategy`` wrapper returned by the strategy provider.
They stay in memory until the run ends.  A layer's self time is its span
minus the part its children cover.  Store layers are timed by direct calls
to their public functions on twins fed the workload's own batches.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import Observability, Tracer
from repro.service import (
    IngestRequest,
    ServiceRequest,
    TCPValidationFrontend,
    ValidationService,
    percentile,
)
from repro.store import VersionedKnowledgeStore
from repro.validation import ValidationStrategy

from . import harness

Layers = Dict[str, Optional[float]]


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent id, request id, label,
    busy]``; a span's id is its position.  ``busy`` is the time the span's
    own code ran (see :class:`Stepped`), where that was measured."""

    def __init__(self) -> None:
        self.spans: List[list] = []

    def begin(self, name: str, parent: Optional[int], request: object, label: str) -> int:
        self.spans.append([name, time.perf_counter(), None, parent, request, label, None])
        return len(self.spans) - 1

    def end(self, span: int, busy: Optional[float] = None) -> None:
        self.spans[span][2] = time.perf_counter()
        self.spans[span][6] = busy

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "request", "label", "busy")
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                handle.write(json.dumps({"id": span_id, **dict(zip(keys, span))}) + "\n")


class Stepped:
    """Awaits a coroutine while summing the time its own code runs.

    A coroutine's span covers the stretches it spends suspended (waiting
    for a batch, for the loop to wake it); ``busy`` counts only the
    stretches between a resume and the next suspension — on a single
    thread, the layer's self time with everything it calls synchronously.
    """

    __slots__ = ("_coro", "busy")

    def __init__(self, coro) -> None:
        self._coro = coro
        self.busy = 0.0

    def __await__(self):
        inner = self._coro.__await__()
        error: Optional[BaseException] = None
        while True:
            started = time.perf_counter()
            try:
                waited_on = inner.send(None) if error is None else inner.throw(error)
            except StopIteration as stop:
                self.busy += time.perf_counter() - started
                return stop.value
            except BaseException:
                self.busy += time.perf_counter() - started
                raise
            self.busy += time.perf_counter() - started
            try:
                yield waited_on
                error = None
            except BaseException as thrown:  # handed on to the coroutine
                error = thrown


class TracedStrategy(ValidationStrategy):
    """Times each ``validate`` and links it to the read waiting for it."""

    def __init__(self, inner: ValidationStrategy, service: "TracedService", model: str) -> None:
        self.inner = inner
        self.method_name = inner.method_name
        self._service = service
        self._model = model
        invalidate = getattr(inner, "invalidate_evidence", None)
        if invalidate is not None:
            self.invalidate_evidence = invalidate

    def model_name(self) -> str:
        return self.inner.model_name()

    def validate(self, fact):
        service = self._service
        waiting = service.waiting.get((self.method_name, self._model, fact.fact_id))
        parent, request = waiting.popleft() if waiting else (None, None)
        span = service.recorder.begin(
            f"validation.{self.method_name}", parent, request, service.label
        )
        result = self.inner.validate(fact)
        service.recorder.end(span)
        if service.tamper is not None:
            result = service.tamper(result)
        return result


class TracedService(ValidationService):
    """A ``ValidationService`` whose public entry points record spans."""

    def __init__(
        self,
        strategies,
        config,
        telemetry,
        store,
        *,
        recorder: SpanRecorder,
        label: str,
        tamper: Optional[Callable] = None,
    ) -> None:
        self.recorder = recorder
        self.label = label
        self.tamper = tamper
        #: Reads admitted and not yet judged, per coordinate, oldest first.
        self.waiting: Dict[tuple, deque] = defaultdict(deque)

        def provider(method: str, dataset: str, model_name: str):
            return TracedStrategy(strategies(method, dataset, model_name), self, model_name)

        super().__init__(strategies=provider, config=config, telemetry=telemetry, store=store)

    async def submit(self, request: ServiceRequest):
        parent, request_id = harness.CURRENT_SPAN.get() or (None, None)
        span = self.recorder.begin("service.submit", parent, request_id, self.label)
        entry = (span, request_id)
        queue = self.waiting[(request.method, request.model, request.fact.fact_id)]
        queue.append(entry)
        stepped = Stepped(super().submit(request))
        try:
            return await stepped
        finally:
            self.recorder.end(span, stepped.busy)
            if entry in queue:  # a cache hit: no strategy ever claimed it
                queue.remove(entry)

    async def apply_mutations(self, mutations):
        parent, request_id = harness.CURRENT_SPAN.get() or (None, None)
        span = self.recorder.begin("service.apply_mutations", parent, request_id, self.label)
        try:
            return await super().apply_mutations(mutations)
        finally:
            self.recorder.end(span)


def traced_factory(runner, config, recorder: SpanRecorder, tamper=None) -> harness.ServiceFactory:
    """``make_service`` for ``harness.build_fleet``: the traced twin of the
    plain factory (same provider, config, telemetry and stores)."""
    provider = harness.strategy_provider(runner)

    def make_service(label: str, store) -> ValidationService:
        return TracedService(
            provider, config, runner.telemetry, store,
            recorder=recorder, label=label, tamper=tamper,
        )

    return make_service


# ------------------------------------------------------------------ analysis


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def analyse_spans(recorder: SpanRecorder) -> Tuple[Layers, Dict[str, int]]:
    """Self times and waits from one traced repetition, and how many facts
    each method judged.

    Router self = the client's ``router.*`` span minus the ``service.*``
    spans under it (both sit suspended over the same stretch, so the
    difference is router code).  Server self = the ``busy`` time of
    ``service.submit``.  Queue wait = ``service.submit`` start to the start
    of the strategy call that judged it, misses only.
    """
    spans = recorder.spans
    children: Dict[int, List[int]] = defaultdict(list)
    for span_id, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(span_id)

    def duration(span_id: int) -> float:
        return spans[span_id][2] - spans[span_id][1]

    busy: Dict[str, List[float]] = defaultdict(list)
    for span_id, span in enumerate(spans):
        if span[0].startswith("validation."):
            busy[span[0]].append(duration(span_id))

    router_read_self, router_write_self = [], []
    server_read_self, server_apply, queue_waits = [], [], []
    for span_id, span in enumerate(spans):
        name = span[0]
        if name == "router.submit":
            served = [c for c in children[span_id] if spans[c][0] == "service.submit"]
            router_read_self.append(duration(span_id) - sum(duration(c) for c in served))
        elif name == "router.apply_mutations":
            applies = [
                duration(c) for c in children[span_id]
                if spans[c][0] == "service.apply_mutations"
            ]
            longest = max(applies, default=0.0)
            router_write_self.append(duration(span_id) - longest)
            server_apply.append(longest)
        elif name == "service.submit":
            server_read_self.append(span[6])
            judged = [c for c in children[span_id] if spans[c][0].startswith("validation.")]
            if judged:  # a miss: how long it waited for its strategy call
                queue_waits.append(spans[judged[0]][1] - span[1])

    def scaled(values, factor):
        mean = _mean(values)
        return None if mean is None else mean * factor

    layers: Layers = {
        "service.router.self_us_per_read": scaled(router_read_self, 1e6),
        "service.router.self_ms_per_write": scaled(router_write_self, 1e3),
        "service.server.self_us_per_read": scaled(server_read_self, 1e6),
        "service.server.apply_ms_per_write": scaled(server_apply, 1e3),
        "service.server.queue_wait_us_p50": (
            percentile(queue_waits, 50) * 1e6 if queue_waits else None
        ),
        "service.server.queue_wait_us_p99": (
            percentile(queue_waits, 99) * 1e6 if queue_waits else None
        ),
        "validation.facts_judged": float(sum(len(v) for v in busy.values())),
    }
    for method in ("dka", "giv-z", "rag"):
        layers[f"validation.busy_us_per_fact.{method}"] = scaled(
            busy.get(f"validation.{method}", []), 1e6
        )
    return layers, {name.split(".", 1)[1]: len(v) for name, v in busy.items()}


def ownership(layers: Layers, judged: Dict[str, int], reads: int) -> Dict[str, float]:
    """Which layer owns a read: self time per read of the serving layers
    (router + server, the cache lookup being part of the server's) against
    the strategies' busy time per read (``judged`` facts per method over
    ``reads`` reads), and the serving layers' share."""
    serving = (layers.get("service.router.self_us_per_read") or 0.0) + (
        layers.get("service.server.self_us_per_read") or 0.0
    )
    judged = sum(
        (layers.get(f"validation.busy_us_per_fact.{method}") or 0.0) * count
        for method, count in judged.items()
    ) / reads
    return {
        "serving_self_us_per_read": serving,
        "validation_busy_us_per_read": judged,
        "serving_share": serving / (serving + judged),
    }


def counter_totals(router) -> Dict[str, float]:
    """Cumulative public counters of the primary tier; two of these around
    a timed phase give that phase's own counts (warm-up excluded)."""
    totals: Dict[str, float] = defaultdict(float)
    for shard, replica, snapshot, _ in router.metrics.per_replica():
        totals[f"completed:{shard}:{replica}"] = snapshot.completed
        totals["batches"] += snapshot.batches
        totals["batched"] += snapshot.mean_batch_size * snapshot.batches
        totals["rejected"] += snapshot.rejected
    for group in router.groups:
        for service in group:
            if service.cache is not None:
                stats = service.cache.stats()
                totals["hits"] += stats.hits
                totals["misses"] += stats.misses
                totals["size"] += stats.size
    return totals


def fleet_counters(router, loop: harness.LoopResult, before: Dict[str, float]) -> Layers:
    """Counters from the program's public stats over one timed phase."""
    after = counter_totals(router)
    delta: Dict[str, float] = defaultdict(float)
    delta.update({name: after[name] - before.get(name, 0.0) for name in after})
    per_shard: Dict[str, List[float]] = defaultdict(list)
    for name, value in delta.items():
        if name.startswith("completed:"):
            per_shard[name.split(":")[1]].append(value)
    ratios = [max(c) / min(c) for c in per_shard.values() if min(c) > 0]
    snapshot = router.metrics.snapshot()
    reads = [
        response for request, response in zip(loop.requests, loop.responses)
        if isinstance(request, ServiceRequest)
    ]
    edge_reads = [r for r in reads if r.served_by not in (None, "primary")]
    staleness = [r.staleness_epochs for r in edge_reads if r.staleness_epochs is not None]
    lookups = delta["hits"] + delta["misses"]
    return {
        "service.router.replica_spread": max(ratios) if ratios else None,
        "service.router.failovers": float(snapshot.failovers),
        "service.router.retries": float(snapshot.retries),
        "service.router.session_fallbacks": float(router.metrics.session_fallbacks),
        "service.router.edge_read_share": len(edge_reads) / len(reads) if reads else None,
        "service.server.mean_batch_size": (
            delta["batched"] / delta["batches"] if delta["batches"] else None
        ),
        "service.server.shed": delta["rejected"],
        "service.cache.hit_rate": delta["hits"] / lookups if lookups else None,
        "service.cache.size": after["size"],
        "store.geosync.staleness_p95_epochs": (
            percentile(staleness, 95) if staleness else None
        ),
    }


# -------------------------------------------------------------------- probes
#
# A probe calls one layer's public functions directly.  Its entry points are
# imported inside it: once a refactor removes one, the probe reports ``None``
# for its metrics instead of taking the run down.

_GONE = (ImportError, AttributeError, TypeError)


def _timed(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def user_bytes(batches: Sequence[Sequence]) -> int:
    """Canonical-JSON bytes of the mutations in ``batches``."""
    return sum(
        len(json.dumps(mutation.to_json(), sort_keys=True, separators=(",", ":")))
        for batch in batches
        for mutation in batch
    )


def ingest_batches(items: Sequence[object]) -> List[Sequence]:
    return [item.mutations for item in items if isinstance(item, IngestRequest)]


def _probe_store(base_store, batches) -> Layers:
    """One shard store applying its share of each batch; the digest the
    router takes per ingest, at the first and the last epoch."""
    twin = base_store.replay_twin()
    first = _timed(lambda: twin.shards[0].state_digest(include_index=False))
    applies = [
        _timed(lambda: twin.shards[index].apply(part))
        for batch in batches
        for index, part in twin.route(batch).items()
    ]
    last = _timed(lambda: twin.shards[0].state_digest(include_index=False))
    return {
        "store.store.apply_ms_per_batch": _mean(applies) * 1e3,
        "store.store.state_digest_ms": (first + last) / 2 * 1e3,
    }


def _probe_sharding(base_store, batches) -> Layers:
    """Routing, and a replica group's ship + verify."""
    twin = base_store.replay_twin()
    routes = [_timed(lambda: twin.route(batch)) for batch in batches]
    groups = twin.replicate(2)
    ships = [
        _timed(lambda: groups[index].apply(part))
        for batch in batches
        for index, part in twin.route(batch).items()
    ]
    return {
        "store.sharding.route_us_per_mutation": (
            sum(routes) / sum(len(batch) for batch in batches) * 1e6
        ),
        "store.sharding.group_apply_ms": _mean(ships) * 1e3,
    }


def _probe_geosync(base_store, batches, scratch: str) -> Layers:
    """A durable enqueue (with its fsync), then a drain of the backlog."""
    from repro.store import GeoReplicator, OutboundQueue

    queue_path = os.path.join(scratch, "probe-queue.jsonl")
    queue = OutboundQueue(shard_index=0, floor_epoch=0, path=queue_path)
    enqueues = [
        _timed(lambda: queue.enqueue(epoch, batch))
        for epoch, batch in enumerate(batches, start=1)
    ]
    queue.close()
    twin = base_store.replay_twin()
    geo = GeoReplicator(twin, queue_dir=os.path.join(scratch, "probe-geo"))
    geo.add_edge("edge-0")
    for batch in batches:
        twin.apply(batch)
    backlog = geo.depth("edge-0")
    drained = _timed(geo.drain_all)
    geo.close()
    return {
        "store.geosync.enqueue_ms": _mean(enqueues) * 1e3,
        "store.geosync.queue_bytes_per_user_byte": (
            os.path.getsize(queue_path) / user_bytes(batches)
        ),
        "store.geosync.drain_batches_per_s": backlog / drained,
    }


def probe_write_path(base_store, batches: Sequence[Sequence], scratch: str) -> Layers:
    """Store, sharding and geosync costs of the workload's own write batches,
    each on a fresh ``replay_twin``: one client, no timers, exact counts."""
    batches = [list(batch) for batch in batches]
    layers: Layers = {}
    for probe in (
        lambda: _probe_store(base_store, batches),
        lambda: _probe_sharding(base_store, batches),
        lambda: _probe_geosync(base_store, batches, scratch),
    ):
        try:
            layers.update(probe())
        except _GONE:
            pass
    return layers


def probe_segment(store: VersionedKnowledgeStore, epochs: Sequence[int], scratch: str,
                  user: int) -> Layers:
    """The segment engine behind its ``format=`` knob, on a copy of the
    workload's store; all ``None`` once the knob is gone (segment then is
    the default, which the workload itself times)."""
    path = os.path.join(scratch, "probe.seg")
    try:
        save_s = _timed(lambda: store.save(path, format="segment"))
        started = time.perf_counter()
        loaded = VersionedKnowledgeStore.load(path)
        len(loaded.graph)
        load_s = time.perf_counter() - started
        cache = loaded.log.reader.page_cache
        before = cache.stats()
        for epoch in epochs:
            loaded.snapshot(epoch)
        after = cache.stats()
    except (*_GONE, ValueError):
        return {}
    lookups = after["hits"] - before["hits"] + after["misses"] - before["misses"]
    return {
        "store.segment.save_s": save_s,
        "store.segment.load_s": load_s,
        "store.segment.bytes_per_user_byte": os.path.getsize(path) / user,
        "store.segment.page_cache_hit_rate": (
            (after["hits"] - before["hits"]) / lookups if lookups else None
        ),
    }


async def probe_wire(router, dataset, requests: Sequence[ServiceRequest],
                     connections: int) -> Optional[float]:
    """Loopback JSON-lines round trip p50 minus in-process ``submit`` p50,
    the same requests both ways, ``connections`` sockets."""
    inproc = []
    for request in requests:
        started = time.perf_counter()
        await router.submit(request)
        inproc.append(time.perf_counter() - started)
    frontend = TCPValidationFrontend(service=router, datasets={dataset.name: dataset})
    await frontend.start()
    wire: List[float] = []
    cursor = 0

    async def connection() -> None:
        nonlocal cursor
        reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
        try:
            while cursor < len(requests):
                request = requests[cursor]
                cursor += 1
                line = json.dumps(
                    {"dataset": dataset.name, "fact_id": request.fact.fact_id,
                     "method": request.method, "model": request.model}
                ).encode("utf-8") + b"\n"
                started = time.perf_counter()
                writer.write(line)
                await writer.drain()
                reply = json.loads(await reader.readline())
                wire.append(time.perf_counter() - started)
                if reply.get("outcome") != "completed":
                    raise RuntimeError(f"wire probe got {reply}")
        finally:
            writer.close()
            await writer.wait_closed()

    try:
        await asyncio.gather(*(connection() for _ in range(connections)))
    finally:
        await frontend.stop()
    return (percentile(wire, 50) - percentile(inproc, 50)) * 1e6


def probe_obs_span(count: int) -> float:
    """Microseconds per ``Tracer.span`` open/close."""
    tracer = Tracer(capacity=8)
    started = time.perf_counter()
    for _ in range(count):
        with tracer.span("probe", "bench"):
            pass
    return (time.perf_counter() - started) / count * 1e6


def probe_exposition(router) -> float:
    """Milliseconds for one exposition render of the fleet's registries."""
    return _timed(router.metrics.exposition) * 1e3


async def tracer_on_cpu_per_read(router, requests: Sequence[ServiceRequest], clients: int) -> float:
    """CPU seconds per read with the program's own tracer armed at
    ``sample_rate=1.0``."""
    router.set_observability(Observability.for_clock(sample_rate=1.0))
    try:
        loop = await harness.closed_loop(router, requests, clients)
    finally:
        router.set_observability(None)
    return loop.cpu_s / len(requests)
