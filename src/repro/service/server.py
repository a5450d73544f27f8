"""Asyncio fact-validation service with micro-batching and admission control.

The online serving scenario: instead of iterating a whole
:class:`~repro.datasets.base.FactDataset` offline, clients submit one fact
at a time and await a :class:`~repro.validation.base.ValidationResult`.
:class:`ValidationService` is the replica worker: clients reach it through
:class:`~repro.service.router.ShardedValidationService` (a single node is
the 1x1 fleet), which calls ``submit(request)`` and
``apply_mutations(mutations)`` positionally.

Architecture (muBench-style service shape, MSMQ-style backpressure):

* ``submit()`` is the single entry point.  It first consults the
  :class:`~repro.service.cache.VerdictCache`; on a miss it passes admission
  control — a bounded in-flight budget that *sheds* excess load with an
  explicit ``REJECTED`` outcome instead of buffering without bound — and
  enqueues the request for its ``(method, model)`` strategy worker.
* Each worker coalesces its waiting requests into micro-batches of at most
  ``max_batch_size`` and runs each through
  :meth:`~repro.validation.pipeline.ValidationPipeline.run_facts` — the
  offline code path, so online verdicts are byte-identical to offline ones.
* The simulated backend executes a micro-batch *concurrently*: it takes
  ``batch_overhead_s`` plus the **maximum** of the items' simulated
  latencies, times ``time_scale``, in a task of its own whose return resolves
  the per-request futures.  A key's next batch leaves when none of its
  batches is in the backend or when it is full (``_drain_batch``).
* With a :class:`~repro.store.VersionedKnowledgeStore` attached, the
  service also serves *writes*: :meth:`ValidationService.apply_mutations`
  quiesces admissions, drains the in-flight requests, applies the batch
  (incremental index maintenance keeps the hot substrates warm), and bumps
  the store epoch.  The cache key of a verdict that reads the store carries
  the epoch, so each one cached before the ingest stops matching and
  post-ingest traffic is re-judged against the fresh knowledge.  A verdict
  of a :data:`~repro.validation.STORE_FREE_METHODS` method carries no
  epoch: no ingest can move it, so it keeps answering, stamped with the
  current epoch like every hit.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..datasets.base import LabeledFact
from ..obs.events import EventLog
from ..obs.trace import OUTCOME_STATUS, STATUS_FAILED, Span, SpanContext, Tracer
from ..store import ApplyReport, Mutation, VersionedKnowledgeStore
from ..validation.base import ValidationResult, ValidationStrategy
from ..validation.pipeline import ValidationPipeline
from .cache import VerdictCache, verdict_scope
from .config import ServiceConfig
from .metrics import ServiceMetrics

__all__ = [
    "RequestOutcome",
    "ServiceRequest",
    "ServiceResponse",
    "StrategyProvider",
    "UnknownStrategyError",
    "ValidationService",
]

#: Builds a strategy for ``(method, dataset, model_name)``;
#: ``BenchmarkRunner.build_strategy`` adapts to this via ``from_runner``.
#: A service calls it once per key and keeps the strategy across ingests, so
#: a strategy must read its substrates live (as the runner's do: an attached
#: store updates the corpus and search index in place).
StrategyProvider = Callable[[str, str, str], ValidationStrategy]


class UnknownStrategyError(ValueError):
    """A request names a method or model no strategy serves.  Raised before
    the request is admitted: it takes no queue slot and no worker, and a
    router does not count it against the replica that raised it."""


class RequestOutcome(str, Enum):
    """What the service did with one request."""

    COMPLETED = "completed"
    REJECTED = "rejected"  # shed by admission control
    INGESTED = "ingested"  # a write: a mutation batch applied to the store
    FAILED = "failed"  # a shard raised or stalled; explicit, never a hang
    #: The retry budget was spent without a live answer, but a stale cached
    #: verdict existed: served epoch-tagged instead of failing (see
    #: :class:`~repro.service.policy.RetryPolicy` and the router's
    #: graceful-degradation path).
    DEGRADED = "degraded"


@dataclass(frozen=True)
class ServiceRequest:
    """One single-fact validation request.

    The owning dataset rides along on ``fact.dataset``; the request only
    needs to pick the judging strategy.
    """

    fact: LabeledFact
    method: str
    model: str


class ServiceResponse(NamedTuple):
    """The service's answer, with per-request latency accounting.

    ``latency_seconds`` is the *measured* wall time inside the service
    (queue wait + batch execution + scheduling); the simulated model
    latency lives on ``result.latency_seconds`` as in the offline pipeline.
    ``epoch`` is the knowledge-store version the answer was computed
    against (0 when no store is attached); for ingest responses it is the
    *new* epoch the batch created.  Behind a
    :class:`~repro.service.router.ShardedValidationService` the router
    stamps ``epoch_vector`` with the per-shard epochs (the owning shard's
    component is the epoch this answer was admitted at) and rewrites
    ``epoch`` to their composite sum; ``error`` carries the failure detail
    of a ``FAILED`` outcome.
    """

    outcome: RequestOutcome
    result: Optional[ValidationResult]
    cached: bool
    latency_seconds: float
    batch_size: int = 0
    epoch: int = 0
    epoch_vector: Tuple[int, ...] = ()
    error: Optional[str] = None
    #: Extra full passes the router made over the owning shard's replicas
    #: beyond the first (0 without a retry policy or on a first-pass answer).
    retries: int = 0
    #: For ``DEGRADED`` answers only: the owning shard's epoch the stale
    #: verdict was originally computed at.  ``epoch_vector`` still carries
    #: the *current* fleet epochs, so ``epoch_vector[shard] - stale_epoch``
    #: is the answer's staleness in epochs.
    stale_epoch: Optional[int] = None
    #: The distributed trace this response belongs to (``None`` when the
    #: serving path ran untraced).  The TCP frontend echoes it to clients
    #: so a slow reply links straight to its span tree.
    trace_id: Optional[str] = None
    #: Which tier answered: ``"primary"`` or an edge name behind a
    #: geo-replicated router; ``None`` without a geo tier.
    served_by: Optional[str] = None
    #: For edge-served reads: how many applied epochs the edge's shard copy
    #: trailed the primary at serve time (0 = fully caught up).  Staleness
    #: is *visible*, never silent — ``epoch_vector`` carries the edge's
    #: actual per-shard epochs alongside.  ``None`` off the geo path.
    staleness_epochs: Optional[int] = None

    @property
    def rejected(self) -> bool:
        """True when admission control shed this request."""
        return self.outcome is RequestOutcome.REJECTED

    @property
    def ingested(self) -> bool:
        """True when this response answers a mutation-batch write."""
        return self.outcome is RequestOutcome.INGESTED

    @property
    def failed(self) -> bool:
        """True when every serving attempt faulted (explicit failure)."""
        return self.outcome is RequestOutcome.FAILED

    @property
    def degraded(self) -> bool:
        """True when the retry budget was spent and a stale verdict served."""
        return self.outcome is RequestOutcome.DEGRADED


#: ``(request, future, span context)``: the span context rides the queue so
#: the micro-batch worker can parent each item's ``worker.execute`` span to
#: the submitting request's span (a batch mixes parents; the worker task's
#: own ambient context is useless for attribution).
_QueueItem = Tuple[
    ServiceRequest,
    "asyncio.Future[Tuple[ValidationResult, int]]",
    Optional[SpanContext],
]


class _Lane(NamedTuple):
    """One ``(method, model)`` key.  ``wake`` is set by an arrival and by a
    batch's return: the two events that can let the key's next batch leave."""

    waiting: deque[_QueueItem]
    in_backend: set[asyncio.Task]
    wake: asyncio.Event


class ValidationService:
    """Coalesces single-fact requests into per-``(method, model)`` batches.

    ``telemetry`` is accepted and unused; ``benchmarks/e2e`` still passes it.
    """

    def __init__(
        self,
        strategies: StrategyProvider,
        config: Optional[ServiceConfig] = None,
        telemetry: object = None,
        store: Optional[VersionedKnowledgeStore] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._strategies_provider = strategies
        self.store = store
        self.cache: Optional[VerdictCache] = (
            VerdictCache(self.config.cache_capacity)
            if self.config.enable_cache
            else None
        )
        self.metrics = ServiceMetrics()
        self._pipeline = ValidationPipeline()
        self._strategies: Dict[Tuple[str, str, str], ValidationStrategy] = {}
        self._queues: Dict[Tuple[str, str], _Lane] = {}
        self._workers: Dict[Tuple[str, str], asyncio.Task] = {}
        self._inflight: set = set()
        self._pending = 0
        self._closed = False
        # Admission gate: cleared while an ingest quiesces the service.
        # (Re)created in start() so a service reused across event loops
        # never awaits a primitive bound to a dead loop.
        self._admission_gate = asyncio.Event()
        self._admission_gate.set()
        self._ingest_lock = asyncio.Lock()
        # Set while ``_pending == 0``: what quiesce and drain wait on.
        self._idle = asyncio.Event()
        self._idle.set()
        # Chaos hook: when armed, every micro-batch fires this named fault
        # point before executing (see repro.chaos.faults.FaultInjector).
        self._fault_injector = None
        self._fault_point = ""
        # Observability hooks (see set_observability): a tracer opening
        # service.submit/worker.execute/store.read spans, an event log for
        # quiesce transitions, and this worker's name in span targets.
        self._tracer: Optional[Tracer] = None
        self._events: Optional[EventLog] = None
        self._obs_point = "service"

    def set_observability(
        self,
        tracer: Optional[Tracer],
        events: Optional[EventLog] = None,
        point: str = "service",
    ) -> None:
        """Arm (or with ``tracer=None`` disarm) tracing and event logging.

        ``point`` names this worker in span targets and event lines — the
        sharded router passes ``shard:{i}/replica:{j}``.  The attached
        store (when any) gets the tracer too, so ``store.apply`` spans nest
        under this worker's ingest path.
        """
        self._tracer = tracer
        self._events = events
        self._obs_point = point
        if self.store is not None:
            self.store.tracer = tracer

    def set_fault_injection(self, injector, point: str) -> None:
        """Arm (or with ``injector=None`` disarm) chaos fault injection.

        ``point`` names this service in the fault-point grammar — e.g.
        ``shard:0/replica:1`` behind the sharded router.  An active
        ``error``/``kill`` fault fails the whole micro-batch with
        :class:`~repro.chaos.faults.InjectedFaultError`; ``stall``/``slow``
        hold the worker on the injector's clock before execution.
        """
        self._fault_injector = injector
        self._fault_point = point

    @classmethod
    def from_runner(
        cls,
        runner,
        config: Optional[ServiceConfig] = None,
        store: Optional[VersionedKnowledgeStore] = None,
    ) -> "ValidationService":
        """Build a service over a ``BenchmarkRunner``'s substrates.

        Strategies come from ``runner.build_strategy`` (so RAG reuses the
        runner's corpora/search indexes/evidence caches, and every model
        call they make lands in the runner's telemetry).  Pass
        ``store=runner.versioned_store(dataset)`` to enable the
        :meth:`apply_mutations` write path with in-place substrate updates.
        """

        def provider(method: str, dataset: str, model_name: str) -> ValidationStrategy:
            return runner.build_strategy(method, dataset, runner.registry.get(model_name))

        return cls(provider, config, store=store)

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """(Re)open the service on the current event loop.

        Recreates the loop-bound primitives (admission gate, ingest lock,
        idle event) and restarts the metrics window; strategy workers spawn
        lazily on the first request for their ``(method, model)``.
        """
        self._closed = False
        self._admission_gate = asyncio.Event()
        self._admission_gate.set()
        self._ingest_lock = asyncio.Lock()
        self._idle = asyncio.Event()
        if not self._pending:
            self._idle.set()
        self.metrics.start()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; by default *drain* in-flight requests first.

        With ``drain=True`` every admitted request — waiting or in the
        backend — is answered before the strategy workers are cancelled, so
        no accepted request is ever dropped without a response during
        shutdown.  ``drain=False`` is the hard-stop path: the batches in the
        backend are cancelled with the workers, and every admitted request
        fails with :class:`asyncio.CancelledError` (their futures are
        cancelled explicitly, so no ``submit`` awaits forever).
        """
        self._closed = True
        # Reads held by a paused gate wake and see the service stopped.
        self._admission_gate.set()
        if drain:
            await self._idle.wait()
        tasks = list(self._workers.values())
        for lane in self._queues.values():
            tasks.extend(lane.in_backend)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._workers.clear()
        self._queues.clear()
        for future in list(self._inflight):
            future.cancel()

    async def __aenter__(self) -> "ValidationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ---------------------------------------------------------------- serving

    @property
    def pending(self) -> int:
        """Admitted requests not yet answered (the admission-control gauge)."""
        return self._pending

    @property
    def epoch(self) -> int:
        """The attached store's current epoch (0 when no store is attached)."""
        return self.store.epoch if self.store is not None else 0

    async def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Validate one fact; never raises for load reasons — it sheds.

        A hit is :meth:`cached`'s answer; a miss is admitted and queued.
        Returns a ``COMPLETED`` response (cached or freshly judged) or a
        ``REJECTED`` one when the in-flight budget is full.  Raises
        :class:`UnknownStrategyError`, admitting nothing, when no strategy
        serves the request's method and model, :class:`RuntimeError` when
        the service is stopped, propagates the
        strategy's exception when its whole micro-batch group fails, and
        raises :class:`asyncio.CancelledError` when a hard stop abandons
        the request.
        """
        if self._closed:
            raise RuntimeError("service is stopped")
        if self._tracer is None:
            return await self._submit_inner(request, None)
        with self._tracer.span("service.submit", self._obs_point) as span:
            span.attributes["method"] = request.method
            span.attributes["model"] = request.model
            response = await self._submit_inner(request, span)
            span.attributes["outcome"] = response.outcome.value
            if response.cached:
                span.attributes["cached"] = True
            # Shed requests always survive head sampling: SHED status.
            span.status = OUTCOME_STATUS.get(response.outcome.value, span.status)
            return response

    async def _submit_inner(
        self, request: ServiceRequest, span: Optional[Span]
    ) -> ServiceResponse:
        started = time.perf_counter()
        trace_id = span.trace_id if span is not None else None
        while not self._admission_gate.is_set():
            # An ingest is quiescing the service; hold the request (reads
            # are paused, not shed) until the new epoch is live.  The
            # latency clock is already running: the quiesce stall is part
            # of the client-observed tail.
            await self._admission_gate.wait()
            if self._closed:
                raise RuntimeError("service is stopped")
        hit = self.cached(request, started, trace_id)
        if hit is not None:
            return ServiceResponse(
                RequestOutcome.COMPLETED, hit[0], True, hit[2], epoch=hit[1], trace_id=trace_id
            )
        method, model = request.method, request.model
        try:
            self._strategy(method, request.fact.dataset, model)
        except Exception as exc:  # counted like a failed batch, never admitted
            self.metrics.observe_error()
            if isinstance(exc, KeyError):
                raise UnknownStrategyError(
                    f"no strategy for method {method!r}, model {model!r}"
                ) from exc
            raise
        epoch = self.epoch

        if self._pending >= self.config.queue_depth:
            self.metrics.observe_shed()
            return ServiceResponse(
                RequestOutcome.REJECTED,
                None,
                False,
                time.perf_counter() - started,
                epoch=epoch,
                trace_id=trace_id,
            )

        if self.cache is not None:
            self.cache.record_miss()
            self.metrics.observe_cache(False)
        self._pending += 1
        self._idle.clear()
        self.metrics.set_queue_depth(self._pending)
        future: "asyncio.Future[Tuple[ValidationResult, int]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight.add(future)
        try:
            lane = self._queue_for(method, model)
            lane.waiting.append(
                (request, future, span.context if span is not None else None)
            )
            lane.wake.set()
            result, batch_size = await future
        except Exception:
            # Admitted but the batch failed (strategy exception): account it
            # so completed + rejected + errors still equals submitted.
            self.metrics.observe_error()
            raise
        finally:
            self._inflight.discard(future)
            self._pending -= 1
            if not self._pending:
                self._idle.set()
            self.metrics.set_queue_depth(self._pending)

        latency = time.perf_counter() - started
        self.metrics.observe_completion(latency, trace_id=trace_id)
        if self.cache is not None:
            # Scoped by the admission-time epoch: apply_mutations drains
            # every in-flight request before mutating, so the substrates
            # this verdict was computed against are exactly that epoch's.
            self.cache.put(
                request.fact, method, model, result, epoch=verdict_scope(method, epoch)
            )
        return ServiceResponse(
            RequestOutcome.COMPLETED, result, False, latency, batch_size,
            epoch=epoch, trace_id=trace_id,
        )

    def cached(
        self, request: ServiceRequest, started: float, trace_id: Optional[str] = None
    ) -> Optional[Tuple[ValidationResult, int, float]]:
        """A verdict-cache hit as ``(verdict, epoch, latency since started)``,
        counted as served and never shed; ``None``, counting nothing, when the
        replica is stopped, its reads are paused, it has no cache, or a miss.
        ``epoch`` is the replica's current one, also for a store-free hit
        cached at an earlier epoch."""
        if self._closed or not self._admission_gate.is_set() or self.cache is None:
            return None
        epoch = self.epoch
        hit = self.cache.get(
            request.fact,
            request.method,
            request.model,
            record=False,
            epoch=verdict_scope(request.method, epoch),
        )
        if hit is None:
            return None
        self.cache.record_hit()
        self.metrics.observe_cache(True)
        latency = time.perf_counter() - started
        self.metrics.observe_completion(latency, trace_id=trace_id)
        return hit, epoch, latency

    # ---------------------------------------------------------------- ingestion

    def pause_reads(self) -> None:
        """Close the admission gate now, ahead of an :meth:`apply_mutations`.

        A write's caller may yield the loop before the apply starts (the
        router's fan-out does); a cache hit never yields, so without this
        reads admitted in between would all be served at the old epoch.
        The next :meth:`apply_mutations` (or :meth:`stop`) reopens the gate;
        a caller whose apply never starts reopens it with :meth:`resume_reads`.
        """
        self._admission_gate.clear()

    def resume_reads(self) -> None:
        """Reopen the gate :meth:`pause_reads` closed for an apply that never
        started.  Never call it while an apply is in progress."""
        self._admission_gate.set()

    async def apply_mutations(self, mutations: Sequence[Mutation]) -> ApplyReport:
        """Apply a mutation batch to the attached store at a safe point.

        Writers serialise on an ingest lock; each ingest closes the
        admission gate (new reads pause — they are *not* shed), waits for
        the in-flight requests to drain (the last one to finish wakes it),
        applies the batch (incremental index maintenance keeps the warm
        substrates hot), and reopens the gate.  The store epoch advance
        makes every previously cached store-reading verdict key stale
        automatically; a store-free verdict (unscoped, see
        :func:`~repro.service.cache.verdict_scope`) keeps answering.  The
        per-``(method, dataset, model)`` strategies are kept: they read the
        store's substrates, which the apply updated in place.

        Returns the store's :class:`~repro.store.ApplyReport`.  Raises
        :class:`RuntimeError` when no store is attached or the service is
        stopped, and :class:`ValueError` (from the store, nothing applied)
        when the batch fails validation.
        """
        if self.store is None:
            raise RuntimeError("no VersionedKnowledgeStore attached to this service")
        if self._closed:
            raise RuntimeError("service is stopped")
        async with self._ingest_lock:
            self._admission_gate.clear()
            if self._events is not None:
                self._events.emit(
                    "quiesce_start", self._obs_point, pending=self._pending
                )
            try:
                await self._idle.wait()
                report = self.store.apply(mutations)
                self.metrics.observe_ingest(report.total_ops)
            finally:
                self._admission_gate.set()
                if self._events is not None:
                    self._events.emit(
                        "quiesce_end", self._obs_point, epoch=self.epoch
                    )
        return report

    # ---------------------------------------------------------------- internals

    def _queue_for(self, method: str, model: str) -> _Lane:
        key = (method, model)
        lane = self._queues.get(key)
        if lane is None:
            lane = self._queues[key] = _Lane(deque(), set(), asyncio.Event())
            self._workers[key] = asyncio.get_running_loop().create_task(
                self._worker(key, lane), name=f"validation-worker-{method}-{model}"
            )
        return lane

    def _strategy(self, method: str, dataset: str, model: str) -> ValidationStrategy:
        key = (method, dataset, model)
        strategy = self._strategies.get(key)
        if strategy is None:
            strategy = self._strategies_provider(method, dataset, model)
            self._strategies[key] = strategy
        return strategy

    def _drain_batch(self, lane: _Lane) -> List[_QueueItem]:
        """The key's next batch if it may leave now, else ``[]``.

        It leaves when none of the key's batches is in the backend (whatever
        waits coalesces, up to ``max_batch_size``) or when it is full: waiting
        behind the batch in flight is what fills the next one, and a full one
        has nothing left to wait for.  ``queue_depth`` alone bounds the backend.
        A request whose caller gave up (future done) is dropped: it takes no slot.
        """
        size, waiting = self.config.max_batch_size, lane.waiting
        if lane.in_backend and len(waiting) < size:
            return []
        batch: List[_QueueItem] = []
        while waiting and len(batch) < size:
            item = waiting.popleft()
            if not item[1].done():
                batch.append(item)
        if lane.in_backend and len(batch) < size:
            # Abandoned requests made it look full: it still waits, in order.
            waiting.extendleft(reversed(batch))
            return []
        return batch

    async def _worker(self, key: Tuple[str, str], lane: _Lane) -> None:
        """Launch the key's batches; the backend wait is a per-batch task that
        answers on return, so this sleeps only until an arrival or a return."""
        method, model = key
        while True:
            while not (batch := self._drain_batch(lane)):
                lane.wake.clear()
                await lane.wake.wait()
            self.metrics.observe_batch(len(batch))
            if self._fault_injector is not None:
                try:
                    await self._fault_injector.fire(self._fault_point)
                except Exception as exc:
                    # Injected fault: fail the whole micro-batch explicitly.
                    self._settle(batch, [exc] * len(batch), None, None)
                    continue
            tracer = self._tracer
            spans: Optional[List[Optional[Span]]] = None
            if tracer is not None:
                # One worker.execute span per *traced* batch item, parented
                # to its own request (a batch mixes parents): the span
                # covers the strategy run plus the simulated backend time.
                spans = [
                    tracer.start_span("worker.execute", self._obs_point, parent=context)
                    if context is not None
                    else None
                    for _, _, context in batch
                ]
                for span in spans:
                    if span is not None:
                        span.attributes["batch_size"] = len(batch)
                        span.attributes["method"] = method
            outcomes = self._execute(method, model, batch, spans)
            settle = partial(self._settle, batch, outcomes, spans, tracer)
            succeeded = [
                outcome for outcome in outcomes if isinstance(outcome, ValidationResult)
            ]
            if succeeded and self.config.time_scale > 0:
                simulated = self.config.batch_overhead_s + max(
                    result.latency_seconds for result in succeeded
                )
                backend = asyncio.create_task(
                    asyncio.sleep(simulated * self.config.time_scale)
                )
                backend.add_done_callback(partial(self._returned, lane, settle))
                lane.in_backend.add(backend)
                self.metrics.observe_backend(+1)
            else:
                settle()

    def _returned(self, lane: _Lane, settle: partial, backend: asyncio.Task) -> None:
        """A batch is back from the backend: answer it, let the next one leave."""
        lane.in_backend.discard(backend)
        self.metrics.observe_backend(-1)
        if not backend.cancelled():  # a hard stop cancels the wait: no answers
            settle()
        lane.wake.set()

    @staticmethod
    def _settle(
        batch: List[_QueueItem],
        outcomes: List[Any],
        spans: Optional[List[Optional[Span]]],
        tracer: Optional[Tracer],
    ) -> None:
        """End each item's ``worker.execute`` span and resolve its future."""
        traced = spans if spans is not None else [None] * len(batch)
        for (_, future, _), outcome, span in zip(batch, outcomes, traced):
            if span is not None and tracer is not None:
                if isinstance(outcome, ValidationResult):
                    tracer.end_span(span)
                else:
                    span.attributes["error"] = type(outcome).__name__
                    tracer.end_span(span, status=STATUS_FAILED)
            if future.done():
                continue
            if isinstance(outcome, ValidationResult):
                future.set_result((outcome, len(batch)))
            else:
                future.set_exception(outcome)

    def _execute(
        self,
        method: str,
        model: str,
        batch: List[_QueueItem],
        spans: Optional[List[Optional[Span]]] = None,
    ) -> List[Any]:
        """Run one micro-batch through the offline pipeline code path.

        Requests are grouped by owning dataset (strategies such as RAG are
        dataset-bound through their corpus/search substrates) while the
        batch's submission order is preserved for the caller.  A failure is
        isolated to its dataset group: co-batched requests for other
        datasets still succeed.  Returns, per batch item, either its
        :class:`ValidationResult` or the exception its group raised.

        With tracing armed (``spans`` carries the per-item
        ``worker.execute`` spans), each group's strategy run is recorded as
        a ``store.read`` child span under every traced item it served —
        shared work attributed to each request that rode it.
        """
        groups: Dict[str, List[int]] = {}
        for index, (request, _, _) in enumerate(batch):
            groups.setdefault(request.fact.dataset, []).append(index)
        outcomes: List[Any] = [None] * len(batch)
        tracer = self._tracer
        for dataset, indexes in groups.items():
            group_start = tracer.clock.now() if tracer is not None else 0.0
            try:
                strategy = self._strategy(method, dataset, model)
                facts = [batch[i][0].fact for i in indexes]
                results = self._pipeline.run_facts(strategy, facts, dataset=dataset)
            except Exception as exc:  # strategy bug: fail this group only
                for i in indexes:
                    outcomes[i] = exc
                continue
            for i, result in zip(indexes, results):
                outcomes[i] = result
            if tracer is not None and spans is not None:
                group_end = tracer.clock.now()
                target = self.store.name if self.store is not None else dataset
                for i in indexes:
                    if spans[i] is not None:
                        tracer.record_span(
                            "store.read",
                            target,
                            spans[i],
                            group_start,
                            group_end,
                            dataset=dataset,
                            epoch=self.epoch,
                            facts=len(indexes),
                        )
        return outcomes
