"""The five named workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up,
untimed) and runs one *repetition* of its timed phase per ``run_round``
call, on a freshly built fleet.  Schedules are balanced — every coordinate
appears equally often, only the order depends on the seed — so two seeds
do the same amount of work.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service import IngestRequest, RequestOutcome, ServiceRequest, percentile
from repro.store import Mutation, VersionedKnowledgeStore

from . import harness, layers, spec
from .calibration import slowness


@dataclass
class Round:
    """One repetition: per-round metric values, counts, checks."""

    metrics: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    failed: int
    setup_s: float
    timed_s: float
    checks: Dict[str, object] = field(default_factory=dict)
    layers: layers.Layers = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    #: The same metrics as the clock read them.
    raw: Dict[str, float] = field(default_factory=dict)
    #: The box's mean slowness over the timed phase (see ``calibration.py``).
    slowness: float = 1.0


def balanced(coordinates: Sequence[tuple], count: int, rng: random.Random) -> List[tuple]:
    """``count`` draws covering ``coordinates`` evenly, in seeded order."""
    repeats = -(-count // len(coordinates))
    pool = list(coordinates) * repeats
    rng.shuffle(pool)
    return pool[:count]


def document_mutation(tag: str, number: int, rng: random.Random) -> Mutation:
    """An ``add_document`` built through the store's own JSON codec."""
    words = " ".join(f"term{rng.randrange(4000)}" for _ in range(48))
    return Mutation.from_json(
        {
            "op": "add_document",
            "document": {
                "doc_id": f"{tag}-doc-{number}",
                "url": f"https://bench.example/{tag}/{number}",
                "title": f"Bench note {number}",
                "text": words,
                "source": "bench.example",
                "fact_id": f"{tag}-fact-{number % 97}",
                "kind": "noise",
            },
        }
    )


def mutation_batches(
    tag: str,
    rng: random.Random,
    batches: int,
    batch_size: int,
    shares: Tuple[float, float],
    live: List[Tuple[str, str, str]],
    start: int = 0,
) -> List[Tuple[Mutation, ...]]:
    """Seeded batches: ``shares`` = (triple adds, removes); the rest are
    documents.  Removes only take triples this generator added earlier
    (``live``), so no batch can fail validation."""
    add_share, remove_share = shares
    number = start
    out = []
    for _ in range(batches):
        batch = []
        for _ in range(batch_size):
            number += 1
            draw = rng.random()
            if draw < add_share or (draw < add_share + remove_share and not live):
                triple = (f"{tag}Subject{number % 2500}", f"benchRel{number % 17}", f"{tag}Object{number}")
                live.append(triple)
                batch.append(Mutation.add_triple(*triple))
            elif draw < add_share + remove_share:
                batch.append(Mutation.remove_triple(*live.pop(rng.randrange(len(live)))))
            else:
                batch.append(document_mutation(tag, number, rng))
        out.append(tuple(batch))
    return out


def schedule_digest(items: Sequence[object]) -> str:
    """A digest of a schedule's content, for the same-seed check."""
    digest = hashlib.sha256()
    for item in items:
        if isinstance(item, IngestRequest):
            for mutation in item.mutations:
                digest.update(repr(sorted(mutation.to_json().items(), key=str)).encode())
        elif isinstance(item, ServiceRequest):
            digest.update(f"{item.fact.fact_id}|{item.method}|{item.model}".encode())
        else:
            digest.update(repr(item).encode())
    return digest.hexdigest()


# ------------------------------------------------------------------- serving


class _Serving:
    """Shared by the four workloads that drive the serving fleet."""

    name = ""
    methods: Tuple[str, ...] = ()
    models: Tuple[str, ...] = spec.MODELS

    def __init__(self, sizes: spec.Sizes, seed: int, scratch: str, quick: bool,
                 runner=None) -> None:
        self.sizes = sizes
        self.scratch = scratch
        self.quick = quick
        self.rng = random.Random(f"{self.name}:{seed}")
        self.runner = runner or harness.build_runner()
        self.dataset = self.runner.dataset(spec.DATASET)
        self.facts = list(self.dataset)[: sizes.facts]
        self.coordinates = [
            ServiceRequest(fact, method, model)
            for fact in self.facts
            for method in self.methods
            for model in self.models
        ]
        self.config = self.service_config()
        self.schedule = self.build_schedule()
        self._round = 0

    def prepare(self) -> None:
        """The rest of set-up, once per run, before the first repetition."""
        # One throwaway fleet: lazy substrates (corpus, BM25 index, reranker
        # matrix, evidence cache) are built once here, not in a repetition.
        # (The smoke size reports no timing worth protecting and skips it.)
        if not self.quick:
            asyncio.run(self._prime())

    # -- per-workload hooks ---------------------------------------------------

    def service_config(self):
        raise NotImplementedError

    def build_schedule(self) -> list:
        raise NotImplementedError

    def fleet_options(self) -> Dict[str, object]:
        """Extra ``harness.build_fleet`` arguments (the edge tier)."""
        return {}

    def fleet(self, recorder=None, tamper=None):
        make_service = None
        if recorder is not None:
            make_service = layers.traced_factory(self.runner, self.config, recorder, tamper)
        return harness.build_fleet(
            self.runner, self.config, make_service=make_service, **self.fleet_options()
        )

    async def timed(self, router, recorder) -> Tuple[harness.LoopResult, Dict[str, object]]:
        raise NotImplementedError

    def schedule_items(self) -> Sequence[object]:
        return self.schedule

    def warm_coordinates(self) -> Sequence[ServiceRequest]:
        return self.coordinates

    # -- the repetition -------------------------------------------------------

    @contextlib.asynccontextmanager
    async def running(self, recorder=None, tamper=None):
        """A freshly built, started and warmed fleet; stopped on exit."""
        router = self.fleet(recorder, tamper)
        await router.start()
        try:
            await harness.warm_up(router, self.warm_coordinates())
            if recorder is not None:
                recorder.spans.clear()  # warm-up spans are not the workload's
            gc.collect()
            yield router
        finally:
            await router.stop()
            if router.geo is not None:
                router.geo.close()
            self.runner.telemetry.clear()

    async def _prime(self) -> None:
        async with self.running():
            pass
        self.discard_files()

    def discard_files(self) -> None:
        """Remove what the last fleet left on disk (durable queues)."""

    def run_round(self, recorder=None) -> Round:
        return asyncio.run(self._run_round(recorder))

    async def _run_round(self, recorder) -> Round:
        self._round += 1
        started = time.perf_counter()
        async with self.running(recorder) as router:
            setup_s = time.perf_counter() - started
            counters = layers.counter_totals(router) if recorder is not None else {}
            loop, extra = await self.timed(router, recorder)
            round_ = self.score(router, loop, extra)
            round_.setup_s = setup_s
            if recorder is not None:
                round_.layers.update(layers.fleet_counters(router, loop, counters))
                span_layers, judged = layers.analyse_spans(recorder)
                round_.layers.update(span_layers)
                round_.detail["ownership"] = layers.ownership(
                    span_layers, judged, len(loop.raw_read_latencies)
                )
            await self.after(router, loop, round_)
        self.checks(router, loop, round_)
        if recorder is not None:
            round_.layers.update(await self.probes())
        self.discard_files()
        return round_

    async def after(self, router, loop, round_: Round) -> None:
        """Untimed epilogue while the fleet is still up."""

    async def probes(self) -> layers.Layers:
        """Layer probes that need more than the traced repetition's spans."""
        return {}

    def conditions(self) -> Dict[str, bool]:
        """What the run's timings should show for it to mean what it says.
        Reported, never a failure: a stall of the box can break one, and
        the program's outputs are no less correct for it."""
        return {}

    def clients(self) -> int:
        raise NotImplementedError

    def score(self, router, loop: harness.LoopResult, extra) -> Round:
        reads = loop.read_latencies
        p50, p95 = harness.summarise(reads)
        completed = sum(
            1 for r in loop.responses if r.outcome is RequestOutcome.COMPLETED
        )
        failed = loop.failed
        metrics = {
            "read_ops_per_s": completed / loop.wall_s,
            "read_p50_ms": p50 * 1e3,
            "read_p95_ms": p95 * 1e3,
            "cpu_us_per_op": loop.cpu_s / len(loop.responses) * 1e6,
            "failed_share": failed / len(loop.responses),
        }
        samples = {"read_p50_ms": len(reads), "read_p95_ms": len(reads)}
        round_ = Round(metrics, samples, len(loop.responses), failed, 0.0, loop.raw_wall_s)
        raw_p50, raw_p95 = harness.summarise(loop.raw_read_latencies)
        round_.slowness = statistics.mean(loop.slowness)
        round_.raw = {
            "read_ops_per_s": completed / loop.raw_wall_s,
            "read_p50_ms": raw_p50 * 1e3,
            "read_p95_ms": raw_p95 * 1e3,
            "cpu_us_per_op": loop.raw_cpu_s / len(loop.responses) * 1e6,
        }
        return round_

    def checks(self, router, loop: harness.LoopResult, round_: Round) -> None:
        report = loop.report(router, self.clients())
        counts = report.outcome_counts()
        round_.checks["outcomes_sum_to_schedule"] = (
            sum(counts.values()) == len(self.schedule_items())
        )
        round_.detail["outcomes"] = counts
        if self._round == 1:
            served = harness.sample_served(loop, self.rng, spec.PARITY_SAMPLE)
            mismatches = harness.parity_failures(self.runner, served)
            round_.checks["verdict_parity"] = bool(served) and not mismatches
            round_.detail["parity_sample"] = len(served)
            if mismatches:
                round_.detail["parity_mismatches"] = mismatches[:5]


class _ClosedReads(_Serving):
    """Reads only, from a closed loop of coroutine clients."""

    def reads(self) -> int:
        raise NotImplementedError

    def slice_items(self) -> int:
        raise NotImplementedError

    def build_schedule(self):
        return balanced(self.coordinates, self.reads(), self.rng)

    async def timed(self, router, recorder):
        loop = await harness.closed_loop(
            router, self.schedule, self.clients(),
            slice_items=self.slice_items(), recorder=recorder,
        )
        return loop, {}


class HotReads(_ClosedReads):
    name = "hot_reads"
    methods = ("dka", "giv-z")

    def service_config(self):
        return harness.service_config()

    def reads(self) -> int:
        return self.sizes.hot_reads

    def slice_items(self) -> int:
        return self.sizes.hot_slice

    def clients(self) -> int:
        return self.sizes.hot_clients

    async def probes(self) -> layers.Layers:
        """The wire and observer probes, on a plain fleet of this workload."""
        sizes = self.sizes
        out: layers.Layers = {}
        async with self.running() as router:
            out["service.frontend.wire_us_per_op"] = await layers.probe_wire(
                router, self.dataset, self.schedule[: sizes.wire_requests], os.cpu_count() or 1
            )
            requests = self.schedule[: sizes.obs_reads]
            plain = await harness.closed_loop(router, requests, self.clients())
            armed = await layers.tracer_on_cpu_per_read(router, requests, self.clients())
            out["obs.tracer_on_cpu_ratio"] = armed / (plain.cpu_s / len(requests))
            out["obs.exposition_ms"] = layers.probe_exposition(router)
        out["obs.span_us"] = layers.probe_obs_span(sizes.obs_spans)
        return out


class ColdReads(_ClosedReads):
    name = "cold_reads"
    methods = ("dka", "giv-z", "rag")

    def service_config(self):
        return harness.service_config(cache_capacity=self.sizes.cold_cache_capacity)

    def reads(self) -> int:
        return self.sizes.cold_reads

    def slice_items(self) -> int:
        return self.sizes.cold_slice

    def clients(self) -> int:
        return self.sizes.cold_clients


class BackendBound(_Serving):
    name = "backend_bound"
    methods = ("dka",)
    models = (spec.MODELS[0],)

    def service_config(self):
        self.lateness_p99s: List[float] = []
        self.reference_cpu_shares: List[float] = []
        self.slo_rates: List[float] = []
        return harness.service_config(
            enable_cache=False, time_scale=self.sizes.backend_time_scale
        )

    def build_schedule(self):
        sizes = self.sizes
        return [
            (rate, balanced(self.coordinates, max(int(rate * sizes.backend_step_s), 4), self.rng))
            for rate in sizes.backend_rates
        ]

    def schedule_items(self):
        return [request for _, requests in self.schedule for request in requests]

    def warm_coordinates(self):
        # The cache is off: one batch per replica builds its lazy strategy,
        # and every fact is judged hundreds of times in the timed phase.
        return self.coordinates[: spec.MAX_BATCH_SIZE]

    def clients(self) -> int:
        return 1

    async def timed(self, router, recorder):
        sizes = self.sizes
        result = await harness.open_loop(
            router, self.schedule, sizes.backend_step_s, sizes.backend_slo_ms / 1e3, recorder
        )
        return result.loop, {"open": result}

    def score(self, router, loop, extra) -> Round:
        sizes = self.sizes
        slo_s = sizes.backend_slo_ms / 1e3
        open_result: harness.OpenLoopResult = extra["open"]
        steps = open_result.steps
        table = []
        passing = 0
        for step in steps:
            p50, p95 = harness.summarise(step.latencies)
            ok = p95 <= slo_s and not step.backlog_grew and step.not_completed == 0
            if ok and passing == len(table):
                passing += 1
            table.append(
                {
                    "rate_rps": step.rate, "sent": step.sent, "p50_ms": p50 * 1e3,
                    "p95_ms": p95 * 1e3, "slo_missed": step.missed,
                    "not_completed": step.not_completed,
                    "inflight_mid_end": [step.inflight_mid, step.inflight_end],
                    "cpu_share": step.cpu_share, "meets_slo": ok,
                }
            )
        reference = steps[sizes.backend_reference_step]
        ref_p50, ref_p95 = harness.summarise(reference.latencies)
        best = steps[passing - 1] if passing else None
        in_slo = (best.sent - best.missed) / best.wall_s if best else 0.0
        below = steps[: sizes.backend_reference_step + 1]
        # An operation *fails* when it is not answered with a verdict; one
        # answered late is counted in failed_share at the reference step.
        failed = sum(step.not_completed for step in steps)
        # Lateness is the generator's own only while the fleet keeps up: take
        # it over the steps up to the reference one.
        unsaturated = sum(step.sent for step in below)
        late_p99 = percentile(open_result.lateness[:unsaturated], 99)
        self.lateness_p99s.append(late_p99)
        self.reference_cpu_shares.append(reference.cpu_share)
        self.slo_rates.append(float(best.rate) if best else 0.0)
        metrics = {
            "read_ops_per_s": in_slo,
            "read_p50_ms": ref_p50 * 1e3,
            "read_p95_ms": ref_p95 * 1e3,
            "cpu_us_per_op": loop.cpu_s / len(loop.responses) * 1e6,
            "failed_share": (reference.not_completed + reference.missed) / reference.sent,
            "slo_rate_rps": self.slo_rates[-1],
        }
        samples = {"read_p50_ms": reference.sent, "read_p95_ms": reference.sent}
        round_ = Round(metrics, samples, len(loop.responses), failed, 0.0, loop.raw_wall_s)
        round_.slowness = statistics.mean(loop.slowness)
        round_.raw = {"cpu_us_per_op": loop.raw_cpu_s / len(loop.responses) * 1e6}
        round_.detail["steps"] = table
        round_.detail["gen_late_p99_ms"] = late_p99 * 1e3
        round_.layers["bench.gen_late_p99_ms"] = late_p99 * 1e3
        return round_

    def conditions(self) -> Dict[str, bool]:
        """What the timings should show for the run to mean what it says,
        as medians over its repetitions (one stall in one repetition is the
        box, not the fleet or the generator).  The generator's honesty is
        not judged at the 1 % size, where one late send is a whole
        percentile."""
        conditions = {"some_step_meets_slo": statistics.median(self.slo_rates) > 0}
        if not self.quick:
            slo_s = self.sizes.backend_slo_ms / 1e3
            conditions["generator_lateness_p99_lt_10pct_slo"] = (
                statistics.median(self.lateness_p99s) < 0.1 * slo_s
            )
            conditions["reference_step_cpu_share_le_half"] = (
                statistics.median(self.reference_cpu_shares) <= 0.5
            )
        return conditions


class MixedRW(_Serving):
    name = "mixed_rw"
    methods = ("dka", "rag")

    def service_config(self):
        return harness.service_config()

    def build_schedule(self):
        sizes = self.sizes
        writes = sizes.mixed_items // sizes.mixed_write_every
        reads = balanced(self.coordinates, sizes.mixed_items - writes, self.rng)
        self.live: List[Tuple[str, str, str]] = []
        batches = mutation_batches(
            "Mixed", self.rng, writes, sizes.mixed_batch, (0.5, 0.2), self.live
        )
        schedule: list = []
        read_cursor = iter(reads)
        for index in range(sizes.mixed_items):
            if index % sizes.mixed_write_every == sizes.mixed_write_every - 1:
                schedule.append(IngestRequest(batches[index // sizes.mixed_write_every]))
            else:
                schedule.append(next(read_cursor))
        return schedule

    def clients(self) -> int:
        return self.sizes.mixed_clients

    def fleet_options(self) -> Dict[str, object]:
        self.queue_dir = os.path.join(self.scratch, "queues")
        shutil.rmtree(self.queue_dir, ignore_errors=True)
        return dict(
            edges=1, queue_dir=self.queue_dir,
            drain_interval_s=self.sizes.mixed_drain_interval_s,
        )

    async def timed(self, router, recorder):
        loop = await harness.closed_loop(
            router, self.schedule, self.clients(), slice_items=self.sizes.mixed_slice,
            sessions=True, regions=(None, "edge-0"), recorder=recorder,
        )
        return loop, {}

    def score(self, router, loop, extra) -> Round:
        round_ = super().score(router, loop, extra)
        writes = loop.write_latencies
        round_.metrics.update(
            {
                "write_ops_per_s": len(writes) / loop.wall_s,
                "write_p50_ms": percentile(writes, 50) * 1e3,
                "write_p95_ms": percentile(writes, 95) * 1e3,
            }
        )
        round_.samples.update({"write_p50_ms": len(writes), "write_p95_ms": len(writes)})
        round_.raw.update(
            {
                "write_ops_per_s": len(writes) / loop.raw_wall_s,
                "write_p50_ms": percentile(loop.raw_write_latencies, 50) * 1e3,
                "write_p95_ms": percentile(loop.raw_write_latencies, 95) * 1e3,
            }
        )
        return round_

    async def after(self, router, loop, round_: Round) -> None:
        await router.drain_edges()
        converged = True
        for name in router.edge_names:
            try:
                router.geo.verify_converged(name)
            except RuntimeError as exc:
                converged = False
                round_.detail["edge_divergence"] = str(exc)
        round_.checks["edges_converged_after_drain"] = converged
        # Disk: the primaries' saved logs plus the durable queue files, over
        # the canonical JSON of every mutation those logs hold.
        prefix = os.path.join(self.queue_dir, "store")
        paths = router.store.save(prefix)
        paths += [os.path.join(self.queue_dir, f) for f in os.listdir(self.queue_dir)
                  if f.startswith("queue.")]
        held = [[mutation for _, mutation in shard.log] for shard in router.store.shards]
        round_.metrics["disk_bytes_per_user_byte"] = (
            sum(os.path.getsize(path) for path in paths) / layers.user_bytes(held)
        )

    async def probes(self) -> layers.Layers:
        base = self.runner.sharded_store(spec.DATASET, spec.NUM_SHARDS)
        batches = layers.ingest_batches(self.schedule)[: self.sizes.probe_batches]
        return layers.probe_write_path(base, batches, self.queue_dir)

    def checks(self, router, loop, round_: Round) -> None:
        super().checks(router, loop, round_)
        violations = loop.report(router, self.clients()).session_violations()
        round_.checks["no_session_violations"] = not violations

    def discard_files(self) -> None:
        shutil.rmtree(self.queue_dir, ignore_errors=True)


# --------------------------------------------------------------------- store


class StoreLifecycle:
    """What an operator pays at restart, audit and save — no fleet at all."""

    name = "store_lifecycle"

    def __init__(self, sizes: spec.Sizes, seed: int, scratch: str, quick: bool,
                 runner=None) -> None:
        self.sizes = sizes
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        per_batch = sizes.store_mutations // sizes.store_epochs
        self.live: List[Tuple[str, str, str]] = []
        self.batches = mutation_batches(
            "Store", self.rng, sizes.store_epochs, per_batch, (0.7, 0.1), self.live
        )
        self.more = mutation_batches(
            "Store", self.rng, sizes.store_more_batches, per_batch, (0.7, 0.1),
            self.live, start=sizes.store_mutations,
        )
        # A triple both generators left alive: the first lookup after a load.
        self.probe_triple = self.live[0]
        self.epochs = [
            (k + 1) * sizes.store_epochs // (sizes.store_snapshots + 1)
            for k in range(sizes.store_snapshots)
        ]
        self.schedule = self.batches + self.more
        self._round = 0

    def prepare(self) -> None:
        """Build the store the lifecycle is paid on (set-up, untimed)."""
        self.store = VersionedKnowledgeStore(name="lifecycle")
        for batch in self.batches:
            self.store.apply(batch)
        self.user_bytes = layers.user_bytes(self.batches)

    def schedule_items(self):
        return [IngestRequest(batch) for batch in self.schedule]

    def _lookup(self, graph) -> bool:
        return graph.contains(*self.probe_triple)

    def conditions(self) -> Dict[str, bool]:
        return {}

    def run_round(self, recorder=None) -> Round:
        return asyncio.run(self._run_round(recorder))

    async def _run_round(self, recorder) -> Round:
        self._round += 1
        sizes = self.sizes
        started = time.perf_counter()
        directory = os.path.join(self.scratch, f"lifecycle-{self._round}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        path = os.path.join(directory, "store.log")
        gc.collect()
        setup_s = time.perf_counter() - started
        verify = self._round == 1
        checks: Dict[str, object] = {}
        totals = {"wall": 0.0, "cpu": 0.0, "raw_wall": 0.0, "raw_cpu": 0.0}
        slows: List[float] = []
        last = [await slowness()]

        async def phase(*calls):
            """Run one group of lifecycle steps; returns each step's seconds
            as the clock read them and at reference speed.  The round's
            wall and CPU are sums over phases, so the digest checks between
            them are never timed."""
            raw = []
            cpu = time.process_time()
            for call in calls:
                wall = time.perf_counter()
                call()
                raw.append(time.perf_counter() - wall)
            cpu = time.process_time() - cpu
            before, last[0] = last[0], await slowness()
            slow = (before + last[0]) / 2
            slows.append(slow)
            totals["raw_wall"] += sum(raw)
            totals["raw_cpu"] += cpu
            totals["wall"] += sum(raw) / slow
            totals["cpu"] += cpu / slow
            return raw, [value / slow for value in raw]

        # The default format, always: never format=.
        raw_saves, saves = await phase(*[lambda: self.store.save(path)] * sizes.store_saves)
        disk = os.path.getsize(path)

        loaded: List[VersionedKnowledgeStore] = []
        found: List[bool] = []

        def cold_start():
            store = VersionedKnowledgeStore.load(path)
            found.append(self._lookup(store.graph))
            loaded[:] = [store]

        raw_loads, loads = [], []
        for _ in range(sizes.store_loads):
            raw, scaled = await phase(cold_start)
            raw_loads += raw
            loads += scaled
        restarted = loaded[0]
        checks["first_lookup_found"] = all(found)
        if verify:
            checks["loaded_digest_equals_saved"] = restarted.state_digest(
                include_index=False
            ) == self.store.state_digest(include_index=False)
            last[0] = await slowness()

        raw_snapshots, snapshots = await phase(
            *(
                (lambda epoch=epoch: self._lookup(restarted.snapshot(epoch).graph))
                for epoch in self.epochs
            )
        )
        raw_tail, tail = await phase(
            *((lambda batch=batch: restarted.apply(batch)) for batch in self.more),
            lambda: restarted.save(path),
        )
        applies, resave_s = tail[:-1], tail[-1]
        if verify:
            checks["resaved_digest_equals_live"] = VersionedKnowledgeStore.load(
                path
            ).state_digest(include_index=False) == restarted.state_digest(include_index=False)
            last[0] = await slowness()
        dropped: List[int] = []
        _, (compact_s,) = await phase(lambda: dropped.append(restarted.compact()))

        reads = loads + snapshots
        raw_reads = raw_loads + raw_snapshots
        metrics = {
            "read_ops_per_s": len(reads) / sum(reads),
            "read_p50_ms": percentile(reads, 50) * 1e3,
            "read_p95_ms": percentile(reads, spec.TAIL_PERCENTILE) * 1e3,
            "cpu_us_per_op": totals["cpu"] / sizes.store_mutations * 1e6,
            "cold_start_s": statistics.median(loads),
            "snapshot_ms": statistics.median(snapshots) * 1e3,
            "save_s": statistics.median(saves),
            "disk_bytes_per_user_byte": disk / self.user_bytes,
        }
        samples = {
            "read_p50_ms": len(reads), "read_p95_ms": len(reads),
            "cold_start_s": len(loads), "snapshot_ms": len(snapshots), "save_s": len(saves),
        }
        # ... and the re-save and the compaction.
        attempted = len(saves) + len(loads) + len(snapshots) + len(applies) + 2
        round_ = Round(metrics, samples, attempted, 0, setup_s, totals["raw_wall"], checks)
        round_.slowness = statistics.mean(slows)
        round_.raw = {
            "read_ops_per_s": len(raw_reads) / sum(raw_reads),
            "read_p50_ms": percentile(raw_reads, 50) * 1e3,
            "read_p95_ms": percentile(raw_reads, spec.TAIL_PERCENTILE) * 1e3,
            "cpu_us_per_op": totals["raw_cpu"] / sizes.store_mutations * 1e6,
            "cold_start_s": statistics.median(raw_loads),
            "snapshot_ms": statistics.median(raw_snapshots) * 1e3,
            "save_s": statistics.median(raw_saves),
        }
        round_.detail.update(
            {"disk_bytes": disk, "user_bytes": self.user_bytes, "resave_s": resave_s,
             "compact_s": compact_s, "compact_dropped_records": dropped[0],
             "apply_ms_per_batch": statistics.mean(applies) * 1e3}
        )
        if recorder is not None:
            round_.layers.update(
                {
                    "store.store.replay_mutations_per_s": sizes.store_mutations / min(loads),
                    "store.store.compact_s": compact_s,
                    "store.store.apply_ms_per_batch": statistics.mean(applies) * 1e3,
                }
            )
            # The segment probe saves with format=, which sticks to the
            # store it is called on: give it a copy, never the measured one.
            self.store.save(path)
            round_.layers.update(
                layers.probe_segment(
                    VersionedKnowledgeStore.load(path), self.epochs, directory, self.user_bytes
                )
            )
        shutil.rmtree(directory, ignore_errors=True)
        return round_


WORKLOADS = {
    cls.name: cls for cls in (HotReads, ColdReads, BackendBound, MixedRW, StoreLifecycle)
}
