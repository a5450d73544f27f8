"""Closed-loop load generator for the online validation service.

The muBench replication package pairs every deployed service with a load
generator that replays a workload and collects per-run latency/throughput;
this module is that harness for
:class:`~repro.service.router.ShardedValidationService` (a single node is
the 1x1 fleet).

The generator is *closed-loop*: ``concurrency`` virtual clients each keep
exactly one request in flight, issuing the next item of a shared schedule
as soon as the previous answer (or rejection) returns.  The schedule is a
deterministic arrival mix — seeded weighted draws over the configured
``(method, model)`` strategies and the facts of the given datasets — so two
runs over the same spec replay byte-identical workloads.

The schedule may also carry *writes*: an :class:`IngestRequest` wraps a
mutation batch that the picking client applies through the router's
``apply_mutations``, advancing the owning shards' epochs mid-load, which is
how the benchmark exercises epoch-fresh verdicts under live-update traffic.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..datasets.base import FactDataset
from ..store import Mutation
from .metrics import MetricsSnapshot
from .router import ShardedValidationService
from .server import RequestOutcome, ServiceRequest, ServiceResponse

__all__ = [
    "IngestRequest",
    "LoadGenerator",
    "LoadReport",
    "build_workload",
]


@dataclass(frozen=True)
class IngestRequest:
    """A write in the arrival schedule: one mutation batch to apply."""

    mutations: Tuple[Mutation, ...]

    def __post_init__(self) -> None:
        if not self.mutations:
            raise ValueError("an IngestRequest needs at least one mutation")


#: One schedule item: a single-fact read or a mutation-batch write.
WorkItem = Union[ServiceRequest, IngestRequest]


def build_workload(
    datasets: Sequence[FactDataset],
    methods: Sequence[str],
    models: Sequence[str],
    total_requests: int,
    seed: int = 0,
    method_weights: Optional[Mapping[str, float]] = None,
) -> List[ServiceRequest]:
    """Deterministic request schedule with a configurable arrival mix.

    Facts are drawn uniformly from the union of ``datasets``; the judging
    method follows ``method_weights`` (uniform when omitted) and the model
    is drawn uniformly.  Repeats are expected and intentional — they are
    what exercises the verdict cache under load.
    """
    if total_requests < 0:
        raise ValueError("total_requests must be >= 0")
    if not datasets or not methods or not models:
        raise ValueError("datasets, methods, and models must be non-empty")
    facts = [fact for dataset in datasets for fact in dataset]
    if not facts:
        raise ValueError("datasets contain no facts")
    weights = [float((method_weights or {}).get(method, 1.0)) for method in methods]
    if min(weights) < 0 or sum(weights) <= 0:
        raise ValueError("method_weights must be non-negative and sum > 0")
    rng = random.Random(seed)
    schedule: List[ServiceRequest] = []
    for _ in range(total_requests):
        schedule.append(
            ServiceRequest(
                fact=rng.choice(facts),
                method=rng.choices(list(methods), weights=weights)[0],
                model=rng.choice(list(models)),
            )
        )
    return schedule


@dataclass
class LoadReport:
    """Everything one closed-loop run measured.

    ``requests`` and ``responses`` are index-aligned: ``responses[i]`` is
    the answer to ``requests[i]`` (:meth:`verdicts` relies on this).
    """

    responses: List[ServiceResponse]
    wall_seconds: float
    concurrency: int
    snapshot: MetricsSnapshot = field(repr=False)
    requests: List[WorkItem] = field(default_factory=list, repr=False)
    #: Index-aligned session tokens: ``sessions[i]`` is the client identity
    #: that issued item ``i`` (``None`` for an item issued outside a session).
    sessions: List[Optional[str]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.requests and len(self.requests) != len(self.responses):
            raise ValueError(
                f"requests ({len(self.requests)}) and responses "
                f"({len(self.responses)}) must be index-aligned"
            )
        if self.sessions and len(self.sessions) != len(self.responses):
            raise ValueError(
                f"sessions ({len(self.sessions)}) and responses "
                f"({len(self.responses)}) must be index-aligned"
            )

    @property
    def total(self) -> int:
        """Schedule items issued (reads and writes)."""
        return len(self.responses)

    @property
    def completed(self) -> int:
        """Reads answered with a verdict (cached or judged)."""
        return sum(
            1 for response in self.responses
            if response.outcome is RequestOutcome.COMPLETED
        )

    @property
    def rejected(self) -> int:
        """Reads shed by admission control."""
        return sum(1 for response in self.responses if response.rejected)

    @property
    def failures(self) -> int:
        """Requests a shard failed or stalled on (explicit ``FAILED`` outcomes)."""
        return sum(1 for response in self.responses if response.failed)

    @property
    def degraded(self) -> int:
        """Reads served stale from the last-known-good cache (``DEGRADED``)."""
        return sum(1 for response in self.responses if response.degraded)

    @property
    def retries_total(self) -> int:
        """Extra retry passes the router made across the whole run."""
        return sum(response.retries for response in self.responses)

    @property
    def ingests(self) -> int:
        """Writes in the schedule: applied mutation batches."""
        return sum(1 for response in self.responses if response.ingested)

    @property
    def cache_hits(self) -> int:
        """Reads served straight from the verdict cache."""
        return sum(1 for response in self.responses if response.cached)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall second of this run."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def outcome_counts(self) -> Dict[str, int]:
        """Per-outcome response counts, keyed by ``RequestOutcome`` value.

        Every outcome appears (zero-filled), and the counts sum to
        :attr:`total` by construction — the accounting invariant
        :meth:`LoadGenerator.run` re-checks after every run.
        """
        counts: Dict[str, int] = {outcome.value: 0 for outcome in RequestOutcome}
        for response in self.responses:
            counts[response.outcome.value] += 1
        return counts

    def session_violations(self) -> List[str]:
        """Read-your-writes violations, one line each (empty = the invariant held).

        Per session, in issue order (each closed-loop client pulls strictly
        increasing schedule indices, so global index order *is* per-session
        issue order): every write raises the session's floor at the shards
        it actually landed on (the INGESTED epoch vector is sparse — zero
        at untouched shards, so other clients' concurrent writes never
        inflate this session's floor), and every later completed read's
        epoch vector must cover that floor component-wise.  Degraded
        responses are exempt — serving stale from the last-known-good
        cache is their contract."""
        floors: Dict[str, Dict[int, int]] = {}
        violations: List[str] = []
        for index, (response, session) in enumerate(zip(self.responses, self.sessions)):
            if session is None:
                continue
            if response.outcome is RequestOutcome.INGESTED:
                floor = floors.setdefault(session, {})
                for shard, epoch in enumerate(response.epoch_vector):
                    floor[shard] = max(floor.get(shard, 0), epoch)
            elif response.outcome is RequestOutcome.COMPLETED:
                floor = floors.get(session)
                if not floor:
                    continue
                vector = response.epoch_vector
                for shard, epoch in floor.items():
                    if shard < len(vector) and vector[shard] < epoch:
                        violations.append(
                            f"{session} read #{index} observed epoch "
                            f"{vector[shard]} on shard {shard}, below its own "
                            f"write at {epoch}"
                        )
        return violations

    def verdicts(self) -> Dict[Tuple[str, str, str, str], str]:
        """``(method, model, dataset, fact_id) -> verdict`` over completions."""
        table: Dict[Tuple[str, str, str, str], str] = {}
        for request, response in zip(self.requests, self.responses):
            if not isinstance(request, ServiceRequest) or response.result is None:
                continue
            key = (request.method, request.model, request.fact.dataset, request.fact.fact_id)
            table[key] = response.result.verdict.value
        return table

    def format_table(self, title: str = "Load run") -> str:
        """Render the run's headline numbers as the text table the
        ``loadgen`` CLI prints (see docs/operations.md for the glossary)."""
        header = (
            f"{title}: {self.total} requests, concurrency {self.concurrency}, "
            f"{self.wall_seconds:.3f} s wall"
        )
        lines = [
            header,
            "-" * len(header),
            f"throughput       {self.throughput_rps:.1f} req/s",
            f"completed        {self.completed}",
            f"rejected (shed)  {self.rejected}",
            f"failures         {self.failures}",
            f"degraded         {self.degraded}",
            f"retries          {self.retries_total}",
            f"ingests          {self.ingests}",
            f"cache hits       {self.cache_hits}",
            f"p50 latency      {self.snapshot.p50_latency_s * 1000:.2f} ms",
            f"p95 latency      {self.snapshot.p95_latency_s * 1000:.2f} ms",
            f"p99 latency      {self.snapshot.p99_latency_s * 1000:.2f} ms",
            f"mean batch size  {self.snapshot.mean_batch_size:.2f}",
        ]
        return "\n".join(lines)


class LoadGenerator:
    """Drives a router with ``concurrency`` closed-loop virtual clients.

    Raises :class:`ValueError` when ``concurrency < 1``.
    """

    def __init__(
        self,
        service: ShardedValidationService,
        requests: Sequence[WorkItem],
        concurrency: int = 8,
        regions: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.service = service
        self.requests = list(requests)
        self.concurrency = concurrency
        #: Client home regions: client ``i`` reads from ``regions[i % len]``
        #: (``None`` entries pin clients to the primary tier).  Empty = no
        #: geo affinity, every read goes to the primary.
        self.regions: List[Optional[str]] = list(regions) if regions else []

    def _client_session(self, client_index: int) -> str:
        # Each virtual client is its own session token (one shared identity
        # would hide session-consistency effects under load).
        return f"client-{client_index}"

    def _client_region(self, client_index: int) -> Optional[str]:
        if not self.regions:
            return None
        return self.regions[client_index % len(self.regions)]

    async def _issue(self, item: WorkItem, client_index: int) -> ServiceResponse:
        session = self._client_session(client_index)
        if isinstance(item, IngestRequest):
            started = time.perf_counter()
            report = await self.service.apply_mutations(
                list(item.mutations), session=session
            )
            # The INGESTED epoch vector is the *session's write floor*: the
            # landed epoch at every shard this batch actually touched, zero
            # elsewhere.  The full fleet vector would entangle the session
            # with other clients' concurrent writes on shards it never
            # wrote — the router's read-your-writes gate (and therefore
            # :meth:`LoadReport.session_violations`) covers own writes only.
            landed = [0] * len(report.epoch_vector)
            for shard_index, shard_report in report.shard_reports:
                landed[shard_index] = shard_report.epoch
            return ServiceResponse(
                outcome=RequestOutcome.INGESTED,
                result=None,
                cached=False,
                latency_seconds=time.perf_counter() - started,
                batch_size=report.total_ops,
                epoch=report.epoch,
                epoch_vector=tuple(landed),
            )
        return await self.service.submit(
            item, session=session, region=self._client_region(client_index)
        )

    async def run(self) -> LoadReport:
        """Replay the schedule on the caller's event loop (the service must
        already be started) and return the index-aligned report.

        Raises :class:`RuntimeError` when outcome accounting breaks or any
        client observes an epoch vector below its own last write
        (:meth:`LoadReport.session_violations`)."""
        responses: List[Optional[ServiceResponse]] = [None] * len(self.requests)
        sessions: List[Optional[str]] = [None] * len(self.requests)
        next_index = 0

        async def client(client_index: int) -> None:
            nonlocal next_index
            while True:
                index = next_index
                if index >= len(self.requests):
                    return
                next_index = index + 1
                sessions[index] = self._client_session(client_index)
                responses[index] = await self._issue(self.requests[index], client_index)

        started = time.perf_counter()
        clients = min(self.concurrency, max(1, len(self.requests)))
        await asyncio.gather(*(client(index) for index in range(clients)))
        wall = time.perf_counter() - started
        report = LoadReport(
            responses=[response for response in responses if response is not None],
            wall_seconds=wall,
            concurrency=clients,
            snapshot=self.service.metrics.snapshot(),
            requests=self.requests,
            sessions=sessions[: len(self.requests)],
        )
        # Accounting invariant: every issued schedule item is answered by
        # exactly one outcome — nothing dropped, nothing double-counted.
        counts = report.outcome_counts()
        if sum(counts.values()) != report.total or report.total != len(self.requests):
            raise RuntimeError(
                f"outcome accounting broke: {counts} sums to "
                f"{sum(counts.values())} over {report.total} responses for "
                f"{len(self.requests)} issued requests"
            )
        # Session invariant: no client ever reads below its own writes.
        violations = report.session_violations()
        if violations:
            raise RuntimeError(
                "read-your-writes violated under load: " + "; ".join(violations[:5])
            )
        return report

    def run_sync(self) -> LoadReport:
        """Convenience wrapper: start the service, run, stop, in a fresh loop."""

        async def _go() -> LoadReport:
            async with self.service:
                return await self.run()

        return asyncio.run(_go())
