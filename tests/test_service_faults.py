"""Fault injection for the sharded router: failures surface, nothing hangs.

The router's contract under faults:

* a shard whose strategy *raises* mid-batch answers with an explicit
  ``FAILED`` outcome (error detail attached) — the co-scattered requests
  on healthy shards are unaffected;
* a shard that *stalls* mid-batch is abandoned after ``request_timeout_s``
  with a ``FAILED`` outcome instead of blocking the caller forever;
* every scatter-gather slot is filled: no silent drops, no hangs;
* ``stop(drain=True)`` answers every admitted request on every shard
  before the workers die.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ShardedValidationService,
    ValidationService,
)
from repro.validation.base import ValidationResult, ValidationStrategy, Verdict
from support import hostile_line, last_value, mark_unhealthy, session_vector, string_fields


@pytest.fixture(scope="module")
def fault_runner():
    return BenchmarkRunner(
        ExperimentConfig(
            scale=0.03,
            max_facts_per_dataset=16,
            world_scale=0.15,
            methods=("dka",),
            datasets=("factbench",),
            models=("gemma2:9b",),
            include_commercial_in_grid=False,
            seed=11,
        )
    )


class _StallingStrategy(ValidationStrategy):
    """Returns verdicts whose simulated latency stalls the shard worker."""

    name = "stall"

    def __init__(self, simulated_seconds: float) -> None:
        self.simulated_seconds = simulated_seconds

    def validate(self, fact) -> ValidationResult:
        return ValidationResult(
            fact_id=fact.fact_id,
            verdict=Verdict.TRUE,
            gold_label=fact.label,
            model="stall-model",
            method=self.name,
            latency_seconds=self.simulated_seconds,
            prompt_tokens=1,
            completion_tokens=1,
            raw_response="stalling",
        )


def _poisoned_router(runner, num_shards, poison_shards, config, *, stall=None,
                     request_timeout_s=None):
    """A router whose listed shard indexes raise (or stall) instead of judging."""

    def healthy(method, dataset, model):
        return runner.build_strategy(method, dataset, runner.registry.get(model))

    shards = []
    for index in range(num_shards):
        if index in poison_shards:
            if stall is not None:
                provider = lambda method, dataset, model: _StallingStrategy(stall)
            else:
                def provider(method, dataset, model):
                    raise ConnectionError("shard backend unreachable")
        else:
            provider = healthy
        shards.append([ValidationService(provider, config)])
    return ShardedValidationService(
        shards, request_timeout_s=request_timeout_s
    )


class TestShardFailuresSurface:
    def test_raising_shard_yields_failed_never_an_exception_or_drop(self, fault_runner):
        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        config = ServiceConfig(enable_cache=False, max_batch_size=4)
        router = _poisoned_router(fault_runner, 3, {1}, config)

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(go())
        # Every slot filled, outcomes explicit, nothing raised to the caller.
        assert len(responses) == len(requests)
        for request, response in zip(requests, responses):
            owner = router.shard_for(request)
            if owner == 1:
                assert response.outcome is RequestOutcome.FAILED
                assert response.result is None
                assert "shard 1 failed" in response.error
                assert "ConnectionError" in response.error
            else:
                assert response.outcome is RequestOutcome.COMPLETED
                assert response.result.fact_id == request.fact.fact_id
        failed = [r for r in responses if r.failed]
        assert failed, "the poisoned shard owned no request (routing broke?)"
        # Accounting is exact, not doubled: each raised request was already
        # counted by its shard's own errors counter, so the fleet snapshot
        # reports it exactly once (router timeouts would add on top).
        assert router.metrics.failures == len(failed)
        assert router.metrics.registry.get("router_timeout_failures_total").value == 0
        snapshot = router.metrics.snapshot()
        assert snapshot.errors == len(failed)
        assert snapshot.completed == len(responses) - len(failed)
        assert snapshot.completed + snapshot.rejected + snapshot.errors == len(requests)

    def test_healthy_shard_verdicts_unaffected_by_sick_neighbour(self, fault_runner):
        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        config = ServiceConfig(enable_cache=False, max_batch_size=4)

        async def run_router(router):
            async with router:
                return await router.submit_many(requests)

        sick = asyncio.run(run_router(_poisoned_router(fault_runner, 3, {1}, config)))
        healthy = asyncio.run(
            run_router(
                ShardedValidationService.from_runner(fault_runner, 3, config)
            )
        )
        for sick_response, healthy_response in zip(sick, healthy):
            if sick_response.outcome is RequestOutcome.COMPLETED:
                assert sick_response.result == healthy_response.result

    def test_stalled_shard_times_out_with_failed_not_a_hang(self, fault_runner):
        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        # The poisoned shard's simulated latency is 1000 s scaled at 0.01 —
        # a 10-second real stall; the router abandons it after 0.2 s.
        config = ServiceConfig(enable_cache=False, max_batch_size=4, time_scale=0.01)
        router = _poisoned_router(
            fault_runner, 3, {0}, config, stall=1000.0, request_timeout_s=0.2
        )

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(asyncio.wait_for(go(), timeout=5.0))
        assert len(responses) == len(requests)
        stalled = [r for r in responses if r.failed]
        assert stalled, "the stalled shard owned no request (routing broke?)"
        # Timeouts are invisible to the shard's own counters, so the router
        # folds exactly these into the fleet errors.
        assert router.metrics.registry.get("router_timeout_failures_total").value == len(stalled)
        assert router.metrics.snapshot().errors == len(stalled)
        for response in stalled:
            assert "stalled past" in response.error
            assert response.latency_seconds < 1.0
        # Healthy shards answered normally despite the sick neighbour.
        assert any(r.outcome is RequestOutcome.COMPLETED for r in responses)

    def test_rejected_passes_through_as_shed_not_failed(self, fault_runner):
        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        config = ServiceConfig(
            enable_cache=False, max_batch_size=1, queue_depth=1, time_scale=0.01
        )
        router = ShardedValidationService.from_runner(fault_runner, 2, config)

        async def go():
            async with router:
                return await router.submit_many(requests)

        responses = asyncio.run(go())
        outcomes = {response.outcome for response in responses}
        assert RequestOutcome.REJECTED in outcomes  # per-shard admission control
        assert RequestOutcome.FAILED not in outcomes  # shedding is not a fault
        assert all(
            response.outcome in (RequestOutcome.COMPLETED, RequestOutcome.REJECTED)
            for response in responses
        )


class TestStallFault:
    def test_stall_holds_the_worker_not_the_batches_in_the_backend(
        self, fault_runner, backend
    ):
        """A ``stall`` fault fires where a batch leaves: it parks the worker
        — and the batch it was about to run — on the injector's clock, while
        the batches already in the backend return on their own.  The stall is
        virtual time, so nothing here depends on how long anything takes."""
        from repro.chaos import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
        from repro.chaos.clock import VirtualClock

        clock = VirtualClock()
        injector = FaultInjector(
            FaultSchedule(
                [FaultEvent(at_s=1.0, target="shard:0", fault=FaultSpec.parse("stall:30"))]
            ),
            clock=clock,
        )
        service = ValidationService.from_runner(
            fault_runner,
            ServiceConfig(enable_cache=False, max_batch_size=8, time_scale=0.2),
        )
        service.set_fault_injection(injector, "shard:0/replica:0")
        facts = list(fault_runner.dataset("factbench"))[:12]

        async def go():
            async with service:
                injector.start()
                tasks = await backend.three_groups(service, facts)
                clock.advance(1.0)  # the stall is live; two batches are in the backend
                in_backend = await asyncio.gather(*tasks[:9])
                await backend.turns()
                # Both returned under the stall; their return woke the worker,
                # which drained the partial batch and is parked with it.
                assert injector.injected["stall"] == 1 and clock.pending_sleepers == 1
                assert service.pending == 3 and backend.in_flight(service) == 0
                assert not any(task.done() for task in tasks[9:])
                await clock.run_for(30.0)
                return in_backend + await asyncio.gather(*tasks[9:])

        responses = asyncio.run(asyncio.wait_for(go(), timeout=10.0))
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        assert [r.batch_size for r in responses] == [1] + [8] * 8 + [3] * 3


class TestDrainAcrossShards:
    def test_stop_drain_true_answers_every_admitted_request_on_every_shard(
        self, fault_runner
    ):
        dataset = fault_runner.dataset("factbench")
        router = ShardedValidationService.from_runner(
            fault_runner,
            3,
            ServiceConfig(enable_cache=False, max_batch_size=1, time_scale=0.05),
        )
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]

        async def go():
            await router.start()
            tasks = [
                asyncio.create_task(router.submit(request)) for request in requests
            ]
            await asyncio.sleep(0.01)  # batches mid-sleep on several shards
            assert router.pending > 0
            await asyncio.wait_for(router.stop(drain=True), timeout=10.0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(outcome, ServiceResponse) for outcome in outcomes)
            assert all(
                outcome.outcome is RequestOutcome.COMPLETED for outcome in outcomes
            )
            # Every shard that owned work reports it completed.
            per_shard = [snapshot.completed for snapshot in router.metrics.per_shard()]
            assert sum(per_shard) == len(requests)
            assert router.pending == 0

        asyncio.run(go())

    def test_restart_keeps_one_metrics_object_and_a_bound_scraper_live(
        self, fault_runner
    ):
        """``router.metrics`` is one object for the router's life: a
        ``stop()``/``start()`` cycle zeroes it in place, so a scraper bound
        to ``collect_families`` before the restart keeps seeing the fleet."""
        from repro.obs.timeseries import MetricsScraper

        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        router = _poisoned_router(
            fault_runner, 2, {1}, ServiceConfig(enable_cache=False)
        )
        metrics, health = router.metrics, router.health
        scraper = MetricsScraper(metrics.collect_families)
        healthy = next(r for r in requests if router.shard_for(r) == 0)
        completed = {"outcome": "completed"}

        async def go():
            async with router:
                await router.submit_many(requests)
            assert metrics.failures > 0 and metrics.snapshot().completed > 0
            assert not health[1][0].healthy
            async with router:
                assert router.metrics is metrics and router.health is health
                assert metrics.failures == 0 == metrics.snapshot().completed
                assert metrics.snapshot().unhealthy_replicas == 0
                scraper.scrape_once()
                assert last_value(scraper, "service_requests_total", completed) == 0
                await router.submit(healthy)
                scraper.scrape_once()
            assert metrics.snapshot().completed == 1
            assert last_value(scraper, "service_requests_total", completed) == 1

        asyncio.run(go())

    def test_stop_drain_does_not_wait_on_dead_replica_queue(
        self, fault_runner, backend
    ):
        """Regression: drain-stop on a router whose shard has an unhealthy
        replica must hard-stop that replica instead of waiting for its
        wedged queue to empty (pre-fix this hung for the stall's full
        duration — hours of simulated latency)."""
        config = ServiceConfig(enable_cache=False, max_batch_size=8, time_scale=1.0)

        def healthy_provider(method, dataset, model):
            return fault_runner.build_strategy(
                method, dataset, fault_runner.registry.get(model)
            )

        healthy = ValidationService(healthy_provider, config)
        # A replica wedged mid-batch for a simulated hour of real time.
        stalling = ValidationService(
            lambda method, dataset, model: _StallingStrategy(3600.0), config
        )
        router = ShardedValidationService([[healthy, stalling]])
        facts = list(fault_runner.dataset("factbench"))[:12]

        async def go():
            await router.start()
            # Pin requests on the sick replica (direct submit bypasses the
            # balancer): two batches wedged in its backend and a partial one
            # genuinely queued behind them at stop.
            stuck = await backend.three_groups(stalling, facts)
            mark_unhealthy(router, 0, 1)
            started = time.perf_counter()
            await asyncio.wait_for(router.stop(drain=True), timeout=2.0)
            assert time.perf_counter() - started < 2.0
            # The wedged requests are abandoned explicitly (the hard-stop
            # contract), never silently dropped or waited out.
            outcomes = await asyncio.gather(*stuck, return_exceptions=True)
            assert all(isinstance(outcome, asyncio.CancelledError) for outcome in outcomes)
            assert stalling.pending == 0 == backend.in_flight(stalling)
            assert router.pending == 0

        asyncio.run(go())

    def test_stop_drain_still_answers_healthy_replicas_alongside_dead_one(
        self, fault_runner
    ):
        """The drain fix must not weaken the healthy-side guarantee: admitted
        requests on healthy replicas are still answered during drain-stop."""
        config = ServiceConfig(enable_cache=False, max_batch_size=1, time_scale=0.05)

        def healthy_provider(method, dataset, model):
            return fault_runner.build_strategy(
                method, dataset, fault_runner.registry.get(model)
            )

        healthy = ValidationService(healthy_provider, config)
        stalling = ValidationService(
            lambda method, dataset, model: _StallingStrategy(3600.0), config
        )
        router = ShardedValidationService([[healthy, stalling]])
        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset][:4]

        async def go():
            await router.start()
            mark_unhealthy(router, 0, 1)  # all traffic lands on the healthy replica
            tasks = [
                asyncio.create_task(router.submit(request)) for request in requests
            ]
            await asyncio.sleep(0.01)
            assert router.pending > 0
            await asyncio.wait_for(router.stop(drain=True), timeout=10.0)
            outcomes = await asyncio.gather(*tasks)
            assert all(
                outcome.outcome is RequestOutcome.COMPLETED for outcome in outcomes
            )

        asyncio.run(go())

    def test_stop_drain_still_drains_sole_unhealthy_replica(self, fault_runner):
        """A single-replica shard marked unhealthy by a transient fault is
        still the only path to an answer for its admitted requests —
        drain-stop must answer them, not hard-cancel (the PR 4 contract)."""
        router = ShardedValidationService.from_runner(
            fault_runner,
            2,
            ServiceConfig(enable_cache=False, max_batch_size=1, time_scale=0.05),
        )
        dataset = fault_runner.dataset("factbench")
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset][:6]

        async def go():
            await router.start()
            tasks = [
                asyncio.create_task(router.submit(request)) for request in requests
            ]
            await asyncio.sleep(0.01)
            assert router.pending > 0
            # Transient faults marked both sole replicas unhealthy, but they
            # are alive and serving everything.
            mark_unhealthy(router, 0, 0)
            mark_unhealthy(router, 1, 0)
            await asyncio.wait_for(router.stop(drain=True), timeout=10.0)
            outcomes = await asyncio.gather(*tasks)
            assert all(
                outcome.outcome is RequestOutcome.COMPLETED for outcome in outcomes
            )

        asyncio.run(go())

    def test_hard_stop_cancels_instead_of_hanging(self, fault_runner):
        dataset = fault_runner.dataset("factbench")
        router = ShardedValidationService.from_runner(
            fault_runner,
            2,
            ServiceConfig(enable_cache=False, max_batch_size=1, time_scale=0.05),
        )
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset][:6]

        async def go():
            await router.start()
            tasks = [
                asyncio.create_task(router.submit(request)) for request in requests
            ]
            await asyncio.sleep(0.01)
            await asyncio.wait_for(router.stop(drain=False), timeout=2.0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            # The hard stop is explicit about abandonment: every in-flight
            # request fails with CancelledError, none blocks forever.
            assert all(
                isinstance(outcome, asyncio.CancelledError) for outcome in outcomes
            )

        asyncio.run(go())


# ------------------------------------------------------------- geo tier faults


class TestGeoTierFaults:
    """The async geo tier under faults: crash-resume, partition, restart."""

    def _fleet(self, seed: int = 3):
        import random

        from repro.kg import Triple

        rng = random.Random(seed)
        triples = sorted(
            {
                Triple(
                    f"entity{rng.randrange(20)}",
                    f"pred{rng.randrange(4)}",
                    f"entity{rng.randrange(20)}",
                )
                for _ in range(30)
            }
        )
        from repro.store import ShardedStore

        return ShardedStore.partition(triples, [], num_shards=2)

    def _write_batches(self, fleet, count: int, start: int = 0):
        from repro.store import Mutation

        for index in range(start, start + count):
            fleet.apply(
                [Mutation.add_triple(f"GeoWrite{index}", "worksFor", f"Org{index}")]
            )

    def test_enqueue_enforces_the_dense_epoch_contract(self):
        """The next epoch is recorded, a sibling replica's report of a
        queued epoch is the silent duplicate, and anything else — a gap,
        or an epoch the floor already covers — is a lost batch: it raises
        at the queue instead of diverging an edge later."""
        from repro.store import Mutation, OutboundQueue

        batch = [Mutation.add_triple("GeoWrite", "worksFor", "Org")]
        queue = OutboundQueue(floor_epoch=3)
        assert queue.enqueue(4, batch) is True
        assert queue.enqueue(4, batch) is False
        for lost in (6, 3, 2):  # a gap; at the floor; below it
            with pytest.raises(ValueError, match="dense"):
                queue.enqueue(lost, batch)
        assert (queue.floor_epoch, queue.max_epoch) == (3, 4)
        assert queue.enqueue(5, batch) is True

    def test_a_caught_up_edge_costs_nothing_however_much_is_queued(self):
        """``pending_after`` and ``depth`` run per shard per edge per drain
        tick and per metrics scrape: their cost is the batches they hand
        back (or a bisect's few probes), never the whole queue.  Counted on
        a stand-in for the queue's list — no clock."""
        from repro.store import Mutation, OutboundQueue

        class CountingList(list):
            visited = 0

            def __getitem__(self, index):
                found = super().__getitem__(index)
                self.visited += len(found) if isinstance(index, slice) else 1
                return found

            def __iter__(self):
                self.visited += len(self)
                return super().__iter__()

        queued, per_batch = 2000, 8
        queue = OutboundQueue()
        queue.register("edge-0", 0)
        for epoch in range(1, queued + 1):
            queue.enqueue(
                epoch,
                [Mutation.add_triple(f"S{epoch}", "p", f"O{i}") for i in range(per_batch)],
            )
        queue.ack("edge-0", queued)
        queue._batches = counting = CountingList(queue._batches)
        assert queue.pending_after(queue.max_epoch, limit=8) == []
        assert queue.depth("edge-0") == 0
        behind = queue.pending_after(queued - 20, limit=8)
        assert [epoch for epoch, _ in behind] == list(range(queued - 19, queued - 11))
        # 8 batches handed back plus, at most, two bisects over 16,000 records.
        assert counting.visited <= 8 + 2 * 14

    def test_appends_after_a_torn_tail_recovery_start_a_record_of_their_own(
        self, tmp_path
    ):
        """A crash mid-append leaves a fragment; ``load`` used to drop it in
        memory only, so the next (acknowledged, fsynced) batch was glued to
        it, read back as "the torn tail" and lost — and the one after made
        the file unloadable.  ``load`` cuts the fragment out of the file.  A
        whole record missing only its newline is torn the same way: the
        sync that would have made it durable never returned."""
        from repro.store import Mutation, OutboundQueue

        def batch(epoch):
            return [Mutation.add_triple(f"S{epoch}", "p", "O")]

        path = str(tmp_path / "queue.jsonl")
        queue = OutboundQueue(path=path)
        queue.enqueue(1, batch(1))
        queue.close()
        for fragment in ('{"kind": "batch", "epo', '{"edge": "edge-0", "epoch": 9, "kind": "ack"}'):
            intact = os.path.getsize(path)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(fragment)
            queue = OutboundQueue.load(path)
            assert os.path.getsize(path) == intact and queue.watermarks == {}
            head = queue.max_epoch
            assert queue.enqueue(head + 1, batch(head + 1)) is True
            assert queue.enqueue(head + 2, batch(head + 2)) is True
            queue.close()
            reloaded = OutboundQueue.load(path)
            assert reloaded.max_epoch == reloaded.durable_epoch == head + 2
            assert [epoch for epoch, _ in reloaded.pending_after(0)] == list(
                range(1, head + 3)
            )

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"kind": "header", "version": 1, "floor_epoch": -3}', "floor_epoch -3 is not"),
            ('{"kind": "header", "version": 1, "floor_epoch": true}', "floor_epoch True is not"),
            ('{"kind": "header", "version": 9, "floor_epoch": 0}', "version 9 is not 1"),
            ('{"kind": "header", "version": 1, "shard": "0"}', "shard '0' is not"),
            ('{"kind": "batch", "mutations": []}', "missing integer 'epoch'"),
            ('{"kind": "batch", "epoch": 1.7, "mutations": []}', "missing integer 'epoch'"),
            ('{"kind": "batch", "epoch": 1}', "missing a 'mutations' list"),
            ('{"kind": "batch", "epoch": 1, "mutations": [7]}', "missing a 'mutations' list"),
            ('{"kind": "batch", "epoch": 1, "mutations": [{"op": "nope"}]}', "Unknown mutation op"),
            ('{"kind": "ack", "epoch": 1}', "missing string 'edge'"),
            ('{"kind": "ack", "edge": "edge-0", "epoch": "1"}', "missing integer 'epoch'"),
            ("[1, 2]", "not a JSON object"),
            (
                '{"kind": "batch", "epoch": 1, "mutations": [{"op": "add_triple", '
                '"subject": 7, "predicate": "p", "object": "o"}]}',
                "field 'subject' is missing or not a string",
            ),
            (b'{"kind": "ack", "edge": "edge-\xff", "epoch": 0}', "not valid JSON"),
            ("[" * 200_000, "not valid JSON"),
        ],
        ids=[
            "negative-floor", "bool-floor", "version", "shard", "batch-no-epoch",
            "float-epoch", "no-mutations", "mutation-not-object", "bad-mutation",
            "ack-no-edge", "ack-string-epoch", "not-an-object", "int-subject",
            "not-utf8", "nested-too-deep",
        ],
    )
    def test_a_malformed_queue_line_raises_naming_its_path_and_line(
        self, tmp_path, line, message
    ):
        """The queue file obeys the header and record rules the JSONL log and
        the segment header do: a bad line before the final one is corruption,
        a ``ValueError`` at ``<path>:<line>``, never a bare ``KeyError`` or a
        value read as something else (epoch ``1.7`` as batch 1, ``true`` as
        floor 1, an int subject), nor ``UnicodeDecodeError`` or
        ``RecursionError``."""
        from repro.store import OutboundQueue

        path = tmp_path / "queue.jsonl"
        line = line if isinstance(line, bytes) else line.encode()
        header = b'{"kind": "header", "version": 1, "shard": 0, "floor_epoch": 0}'
        lines = [line] if b'"header"' in line else [header, line]
        ack = b'{"kind": "ack", "edge": "edge-0", "epoch": 0}'
        path.write_bytes(b"\n".join(lines + [ack]) + b"\n")
        with pytest.raises(ValueError, match=rf"queue\.jsonl:{len(lines)}: .*{re.escape(message)}"):
            OutboundQueue.load(str(path))

    def test_a_queue_header_past_the_first_line_is_refused(self, tmp_path):
        """A second header used to move the floor under the batches already
        read: epochs 1-2 came back as 11-12."""
        from repro.store import Mutation, OutboundQueue

        path = str(tmp_path / "queue.jsonl")
        queue = OutboundQueue(path=path)
        for epoch in (1, 2):
            queue.enqueue(epoch, [Mutation.add_triple(f"S{epoch}", "p", "O")])
        queue.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "header", "version": 1, "shard": 0, "floor_epoch": 10}\n')
            handle.write('{"kind": "ack", "edge": "edge-0", "epoch": 0}\n')
        with pytest.raises(ValueError, match=r"queue\.jsonl:4: a header after the first line"):
            OutboundQueue.load(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_outbound_queue_load_is_total(self, tmp_path_factory, data):
        """Whatever one line of a queue file holds, ``OutboundQueue.load``
        returns a queue of string-typed batches (a bad final line is a torn
        tail, cut off) or raises ``ValueError`` naming the file and line:
        never ``KeyError``, ``AttributeError``, ``TypeError``, ``IndexError``
        or ``RecursionError``."""
        from repro.store import OutboundQueue

        triple = {"op": "add_triple", "subject": "a", "predicate": "p", "object": "b"}
        document = {"doc_id": "d", "url": "u", "title": "t", "text": "x", "source": "s"}
        records = [
            {"kind": "header", "version": 1, "shard": 1, "floor_epoch": 4},
            {"kind": "batch", "epoch": 5, "mutations": [triple, dict(triple, subject="c")]},
            {"kind": "ack", "edge": "edge-0", "epoch": 4},
            {"kind": "batch", "epoch": 6, "mutations": [{"op": "add_document",
                                                          "document": document}]},
            {"kind": "ack", "edge": "edge-0", "epoch": 6},
        ]
        lines = [json.dumps(record).encode() for record in records]
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = hostile_line(data, records[index])
        path = tmp_path_factory.mktemp("hostile") / "queue.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            queue = OutboundQueue.load(str(path), shard_index=1)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), exc
        else:
            assert string_fields(
                [mutation for _, batch in queue.pending_after(queue.floor_epoch)
                 for mutation in batch]
            )

    def test_edge_crash_mid_drain_resumes_without_skip_or_double_apply(
        self, tmp_path
    ):
        """An edge dying mid-drain (some batches applied, the rest not)
        restarts from its *durable* watermark — its own store epochs — and
        the resumed drain applies exactly the missing suffix: every queued
        epoch lands exactly once, then digests prove convergence."""
        from repro.store import EdgeReplica, Mutation
        from repro.store.geosync import GeoReplicator

        fleet = self._fleet()
        geo = GeoReplicator(fleet, queue_dir=str(tmp_path / "queues"))
        geo.add_edge("edge-0")
        floors = [queue.floor_epoch for queue in geo.queues]
        self._write_batches(fleet, 6)

        # The edge dies after two batches of shard 0 and none of shard 1.
        assert geo.drain("edge-0", shard_index=0, max_batches=2) == 2
        vector_at_crash = geo.edges["edge-0"].applied_vector
        assert vector_at_crash == (floors[0] + 2, floors[1])

        # The crash-restart: persist the edge, reload it, re-attach.  Its
        # applied vector (the durable watermark) is exactly where it died.
        geo.edges["edge-0"].save(str(tmp_path / "edge"))
        restored = EdgeReplica.load("edge-0", str(tmp_path / "edge"), 2)
        assert restored.applied_vector == vector_at_crash
        geo.adopt_edge(restored)

        geo.drain("edge-0")
        # Exactly-once per epoch per shard, densely up to the primary head:
        # the edge's own log holds each queued batch once, in epoch order.
        for index, (primary, store) in enumerate(zip(fleet.shards, restored.stores)):
            shipped = geo.queues[index].pending_after(floors[index])
            assert [epoch for epoch, _ in shipped] == list(
                range(floors[index] + 1, primary.epoch + 1)
            )
            assert [
                (epoch, [Mutation.from_record(record) for record in records])
                for epoch, records in store.log.batches(after=floors[index])
            ] == [(epoch, list(batch)) for epoch, batch in shipped]
        assert geo.verify_converged("edge-0") == fleet.state_digests(
            include_index=False
        )
        geo.close()

    def test_primary_restart_preserves_queued_unshipped_batches(self, tmp_path):
        """Queued-but-unshipped batches and reported watermarks survive a
        primary restart: ``GeoReplicator.resume`` reloads the durable
        queue files and a lagging edge drains to convergence against the
        rebuilt primary."""
        from repro.store import EdgeReplica
        from repro.store.geosync import GeoReplicator

        queue_dir = str(tmp_path / "queues")
        fleet = self._fleet()
        geo = GeoReplicator(fleet, queue_dir=queue_dir)
        geo.add_edge("edge-0")
        self._write_batches(fleet, 5)
        pending_before = geo.depth("edge-0")
        assert pending_before == 5  # nothing drained yet
        watermark_before = geo.watermark_vector("edge-0")
        geo.edges["edge-0"].save(str(tmp_path / "edge"))
        geo.close()  # primary process dies

        rebuilt = fleet.replay_twin()  # restart: state from the logs
        resumed = GeoReplicator.resume(rebuilt, queue_dir)
        restored = EdgeReplica.load("edge-0", str(tmp_path / "edge"), 2)
        resumed.adopt_edge(restored)
        assert resumed.watermark_vector("edge-0") == watermark_before
        assert resumed.depth("edge-0") == pending_before
        assert resumed.drain("edge-0") == pending_before
        assert resumed.verify_converged("edge-0") == rebuilt.state_digests(
            include_index=False
        )
        resumed.close()

    def test_resume_refuses_a_queue_ahead_of_the_restored_primary(self, tmp_path):
        """A primary restored from a save older than its last write would
        reuse epochs the queue already holds: the idempotent enqueue would
        drop the new batches and the drain would ship the dead timeline.
        ``resume`` refuses up front, naming the shard and both epochs."""
        from repro.store import ShardedStore
        from repro.store.geosync import GeoReplicator
        from repro.store.sharding import ReplicaDivergedError

        queue_dir = str(tmp_path / "queues")
        fleet = self._fleet()
        geo = GeoReplicator(fleet, queue_dir=queue_dir)
        geo.add_edge("edge-0")
        self._write_batches(fleet, 1)
        assert fleet.epoch_vector == (1, 2)
        fleet.save(str(tmp_path / "primary"))
        self._write_batches(fleet, 3, start=1)  # never saved, but queued + fsynced
        assert tuple(queue.max_epoch for queue in geo.queues) == (3, 3)
        geo.close()  # primary process dies

        restored = ShardedStore.load(str(tmp_path / "primary"), 2)
        assert restored.epoch_vector == (1, 2)
        with pytest.raises(
            ReplicaDivergedError, match=r"shard 0 holds epoch 3 .* resumed at epoch 1"
        ):
            GeoReplicator.resume(restored, queue_dir)

    def test_resume_refuses_queue_files_swapped_between_shards(self, tmp_path):
        """``load`` used to take a queue file's ``shard`` from its header, so
        a fleet whose two queue files had traded places resumed, and each
        edge would have applied the other shard's batches."""
        from repro.store.geosync import GeoReplicator

        queue_dir = tmp_path / "queues"
        fleet = self._fleet()
        geo = GeoReplicator(fleet, queue_dir=str(queue_dir))
        self._write_batches(fleet, 4)
        geo.close()
        first, second = queue_dir / "queue.shard0.jsonl", queue_dir / "queue.shard1.jsonl"
        swapped = second.read_bytes()
        second.write_bytes(first.read_bytes())
        first.write_bytes(swapped)
        with pytest.raises(ValueError, match=r"queue\.shard0\.jsonl:1: header shard 1 is not 0"):
            GeoReplicator.resume(fleet, str(queue_dir))

    def test_resume_after_a_save_at_the_last_write_keeps_shipping(self, tmp_path):
        """The passing twin: the primary was saved after its last write, so
        the reloaded queues are level with it, new writes enqueue at fresh
        epochs and a lagging edge drains old and new batches to parity."""
        from repro.store import EdgeReplica, ShardedStore
        from repro.store.geosync import GeoReplicator

        queue_dir = str(tmp_path / "queues")
        fleet = self._fleet()
        geo = GeoReplicator(fleet, queue_dir=queue_dir)
        geo.add_edge("edge-0")
        self._write_batches(fleet, 4)
        assert fleet.epoch_vector == (3, 3)
        fleet.save(str(tmp_path / "primary"))
        geo.edges["edge-0"].save(str(tmp_path / "edge"))
        geo.close()

        restored = ShardedStore.load(str(tmp_path / "primary"), 2)
        resumed = GeoReplicator.resume(restored, queue_dir)
        edge = EdgeReplica.load("edge-0", str(tmp_path / "edge"), 2)
        resumed.adopt_edge(edge)
        self._write_batches(restored, 3, start=4)
        assert resumed.depth("edge-0") == 7
        assert resumed.drain("edge-0") == 7
        assert resumed.verify_converged("edge-0") == restored.state_digests(
            include_index=False
        )
        resumed.close()

    def test_partitioned_edge_serves_stale_stamped_reads_and_sessions_route_around(
        self, fault_runner
    ):
        """A partitioned edge (drain loop stalled by an ``edge:{i}`` fault)
        keeps serving reads — epoch-stamped with visible staleness — while
        sessions whose writes it has not applied fall back to the primary
        instead of reading below their own writes."""
        from repro.chaos import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
        from repro.store import Mutation

        router = ShardedValidationService.from_runner(
            fault_runner,
            2,
            ServiceConfig(time_scale=0.001),
            store=fault_runner.sharded_store("factbench", 2).replay_twin(),
            edges=2,
            drain_interval_s=0.005,
        )
        fact = fault_runner.dataset("factbench")[0]

        async def go():
            async with router:
                injector = FaultInjector(
                    FaultSchedule(
                        [
                            FaultEvent(
                                at_s=0.0,
                                target="edge:1",
                                fault=FaultSpec.parse("stall:30"),
                            )
                        ]
                    ),
                    clock=router.clock,
                )
                router.set_fault_injection(injector)
                injector.start()
                frozen = router.geo.watermark_vector("edge-1")
                for index in range(4):
                    await router.apply_mutations(
                        [Mutation.add_triple(f"Partition{index}", "worksFor", "Org")],
                        session="writer",
                    )

                # A session with no writes reads from the partitioned edge:
                # answered locally, staleness visible, vector = edge state.
                stale = await router.submit(
                    ServiceRequest(fact, "dka", "gemma2:9b"),
                    session="reader",
                    region="edge-1",
                )
                # The writer's session floor is above the frozen watermark:
                # the router routes around the edge to the primary.
                fresh = await router.submit(
                    ServiceRequest(fact, "dka", "gemma2:9b"),
                    session="writer",
                    region="edge-1",
                )
                fallbacks = router.metrics.session_fallbacks
                return frozen, stale, fresh, fallbacks

        frozen, stale, fresh, fallbacks = asyncio.run(go())
        assert stale.outcome is RequestOutcome.COMPLETED
        assert stale.served_by == "edge-1"
        # Staleness is the *owning shard's* visible lag; the four writes
        # hash across both shards, so each shard trails by at least one.
        assert stale.staleness_epochs and stale.staleness_epochs >= 1
        assert stale.epoch_vector == frozen  # stamped with the edge's state
        assert fresh.outcome is RequestOutcome.COMPLETED
        assert fresh.served_by == "primary"
        assert all(
            served >= floor for served, floor in zip(fresh.epoch_vector, frozen)
        )
        assert fallbacks >= 1

    def test_lagging_edge_never_blocks_a_write_nor_serves_past_the_bound(
        self, fault_runner
    ):
        """No wall clock: on a ``VirtualClock`` nothing moves unless the
        test advances it, so an edge whose lag is 100x the drain interval
        never drains.  Every write must still return — with the clock
        untouched and the edge's queue one batch deeper — because writes
        never wait on an edge.  A read pinned to that edge falls back to
        the primary once it trails by more than ``staleness_bound_epochs``,
        and ``drain_edges()`` converges the digests and hands the read
        back to the edge."""
        from repro.chaos.clock import VirtualClock
        from repro.store import Mutation

        writes, bound = 5, 2
        clock = VirtualClock()
        router = ShardedValidationService.from_runner(
            fault_runner,
            2,
            ServiceConfig(enable_cache=False),
            store=fault_runner.sharded_store("factbench", 2).replay_twin(),
            clock=clock,
            edges=1,
            staleness_bound_epochs=bound,
            drain_interval_s=0.01,
            edge_lag_s={"edge-0": 1.0},
        )
        request = ServiceRequest(
            fault_runner.dataset("factbench")[0], "dka", "gemma2:9b"
        )
        owner = router.shard_for(request)

        async def go():
            async with router:
                for index in range(writes):
                    await router.apply_mutations(
                        [
                            Mutation.add_triple(
                                request.fact.triple.subject, "updatedBy", f"Feed_{index}"
                            )
                        ]
                    )
                    assert clock.now() == 0.0
                    assert router.geo.depth("edge-0") == index + 1
                assert router.geo.lag_vector("edge-0")[owner] == writes > bound
                behind = await router.submit(request, region="edge-0")
                drained = await router.drain_edges()
                digests = router.geo.verify_converged("edge-0")
                level = await router.submit(request, region="edge-0")
                return behind, drained, digests, level

        # A write that waited on the edge would park on the virtual clock
        # forever; bound the run so that regression fails instead of hanging.
        behind, drained, digests, level = asyncio.run(asyncio.wait_for(go(), 60.0))
        assert behind.served_by == "primary" and behind.staleness_epochs == 0
        assert router.metrics.session_fallbacks == 1
        assert drained == writes and router.geo.depth("edge-0") == 0
        assert digests == router.store.state_digests(include_index=False)
        assert level.served_by == "edge-0" and level.staleness_epochs == 0
        assert behind.result == level.result
        assert clock.now() == 0.0

    def test_concurrent_drains_of_one_edge_apply_each_batch_once(self, fault_runner):
        """Two drains of one edge — a background tick racing a foreground
        ``drain_edges()`` — must not read the pending suffix off the same
        epoch: the first parks in the edge copy's quiesce wait behind an
        in-flight read, and a second that entered meanwhile used to ship
        the same batch again.  No clock in any assertion: the tick interval
        outlasts the test, so the only drains are the two gathered below."""
        from repro.store import Mutation

        batches = 3
        router = ShardedValidationService.from_runner(
            fault_runner,
            2,
            ServiceConfig(enable_cache=False, time_scale=0.02),
            store=fault_runner.sharded_store("factbench", 2).replay_twin(),
            edges=1,
            drain_interval_s=3600.0,
        )
        request = ServiceRequest(
            fault_runner.dataset("factbench")[0], "dka", "gemma2:9b"
        )
        owner = router.shard_for(request)
        edge_service = router.edge_services["edge-0"][owner]

        async def go():
            async with router:
                for index in range(batches):
                    await router.apply_mutations(
                        [
                            Mutation.add_triple(
                                request.fact.triple.subject, "updatedBy", f"Feed_{index}"
                            )
                        ]
                    )
                admitted_at = edge_service.epoch
                held = asyncio.ensure_future(router.submit(request, region="edge-0"))
                while not edge_service.pending:
                    await asyncio.sleep(0)
                applied = await asyncio.gather(
                    router.drain_edges(), router.drain_edges()
                )
                digests = router.geo.verify_converged("edge-0")
                return admitted_at, await held, applied, digests

        admitted_at, held, applied, digests = asyncio.run(go())
        assert sum(applied) == batches and router.geo.depth("edge-0") == 0
        assert router.geo_tier.drain_errors == []
        assert digests == router.store.state_digests(include_index=False)
        # The held read was answered by the edge at the epoch it was admitted
        # at, every queued batch still ahead of it.
        assert held.served_by == "edge-0" and held.staleness_epochs == batches
        assert held.epoch_vector[owner] == admitted_at


# ------------------------------------------------------- durable queue commits


class TestDurableCommit:
    """Written is not durable: who syncs a queue record, on which thread,
    and what may ship or be acknowledged before the sync returns.  Every
    claim is read off the ``fsyncs`` shim — syncs that returned, by thread,
    path and size — never off a clock."""

    SESSION = "writer"

    def _router(self, fault_runner, tmp_path):
        """2 shards x 2 replicas + 1 edge over durable queues; the drain
        loop's tick outlasts the test, so every drain is the test's own."""
        return ShardedValidationService.from_runner(
            fault_runner,
            2,
            ServiceConfig(time_scale=0.0),
            store=fault_runner.sharded_store("factbench", 2).replay_twin(),
            replicas=2,
            edges=1,
            drain_interval_s=3600.0,
            queue_dir=str(tmp_path / "queues"),
        )

    @staticmethod
    def _two_shard_batch(router, tag):
        from repro.store import Mutation

        batch, owners, index = [], set(), 0
        while owners != {0, 1}:
            mutation = Mutation.add_triple(f"Durable{tag}_{index}", "worksFor", "Org")
            owner = next(iter(router.store.route([mutation])))
            if owner not in owners:
                owners.add(owner)
                batch.append(mutation)
            index += 1
        return batch

    @staticmethod
    def _one_read_per_shard(router, fault_runner):
        requests = {}
        for fact in fault_runner.dataset("factbench"):
            request = ServiceRequest(fact, "dka", "gemma2:9b")
            requests.setdefault(router.shard_for(request), request)
        assert sorted(requests) == [0, 1]
        return [requests[0], requests[1]]

    @staticmethod
    async def _until_held(fsyncs):
        while not fsyncs.held.is_set():
            await asyncio.sleep(0.001)

    @staticmethod
    def _queue_paths(router):
        return sorted(os.path.realpath(queue._path) for queue in router.geo.queues)

    def test_an_ingest_is_two_syncs_off_the_loop_and_a_drain_is_none(
        self, fault_runner, tmp_path, fsyncs
    ):
        router = self._router(fault_runner, tmp_path)
        ingests = 3

        async def go():
            async with router:
                per_ingest = []
                for index in range(ingests):
                    before = len(fsyncs.calls)
                    await router.apply_mutations(self._two_shard_batch(router, index))
                    per_ingest.append(fsyncs.calls[before:])
                before = len(fsyncs.calls)
                drained = await router.drain_edges()
                during_drain = fsyncs.calls[before:]
                router.geo.verify_converged("edge-0")
                return per_ingest, drained, during_drain, list(fsyncs.on_main_thread())

        started = len(fsyncs.on_main_thread())
        per_ingest, drained, during_drain, on_loop = asyncio.run(
            asyncio.wait_for(go(), 60.0)
        )
        for calls in per_ingest:
            assert sorted(path for _, path, _ in calls) == self._queue_paths(router)
        # Nothing synced on the loop thread between start() and the drain.
        assert len(on_loop) == started
        assert drained == 2 * ingests and during_drain == []
        # stop() left no ack unsynced, so closing has nothing to do.
        for queue in router.geo.queues:
            assert fsyncs.synced_size(queue._path) == os.path.getsize(queue._path)
        before = len(fsyncs.calls)
        router.geo.close()
        assert len(fsyncs.calls) == before

    def test_nothing_is_acknowledged_or_shipped_while_the_sync_is_held(
        self, fault_runner, tmp_path, fsyncs
    ):
        router = self._router(fault_runner, tmp_path)

        async def go():
            async with router:
                reads = self._one_read_per_shard(router, fault_runner)
                await router.apply_mutations(self._two_shard_batch(router, "first"))
                await router.drain_edges()
                durable = [queue.durable_epoch for queue in router.geo.queues]
                fsyncs.hold()
                ingest = asyncio.ensure_future(
                    router.apply_mutations(
                        self._two_shard_batch(router, "held"), session=self.SESSION
                    )
                )
                await self._until_held(fsyncs)
                # The shards applied and the records are written — and the
                # loop is free: both shards and the edge answer reads.
                assert router.epoch_vector == tuple(epoch + 1 for epoch in durable)
                for request in reads:
                    for region in (None, "edge-0"):
                        response = await router.submit(request, region=region)
                        assert response.outcome is RequestOutcome.COMPLETED
                assert not ingest.done()
                assert session_vector(router, self.SESSION) == {}
                for queue, epoch in zip(router.geo.queues, durable):
                    assert queue.max_epoch == epoch + 1
                    assert queue.durable_epoch == epoch
                    assert queue.pending_after(epoch) == []
                assert await router.drain_edges() == 0
                fsyncs.release()
                report = await ingest
                landed = {shard: shard_report.epoch for shard, shard_report in report.shard_reports}
                assert session_vector(router, self.SESSION) == landed
                assert [queue.durable_epoch for queue in router.geo.queues] == [
                    landed[0], landed[1]
                ]
                assert await router.drain_edges() == 2
                router.geo.verify_converged("edge-0")

        asyncio.run(asyncio.wait_for(go(), 60.0))
        router.geo.close()

    def test_a_failed_sync_fails_the_ingest_and_the_next_commit_covers_both(
        self, fault_runner, tmp_path, fsyncs
    ):
        router = self._router(fault_runner, tmp_path)

        async def go():
            async with router:
                durable = [queue.durable_epoch for queue in router.geo.queues]
                before = len(fsyncs.calls)
                fsyncs.fail_next = 1
                with pytest.raises(OSError, match="injected fsync failure"):
                    await router.apply_mutations(
                        self._two_shard_batch(router, "lost"), session=self.SESSION
                    )
                assert session_vector(router, self.SESSION) == {}
                assert [queue.durable_epoch for queue in router.geo.queues] == durable
                assert await router.drain_edges() == 0
                # The sibling queue's sync did return — and counts for
                # nothing: the ingest failed, so neither record is durable.
                while len(fsyncs.calls) == before:
                    await asyncio.sleep(0.001)
                await router.apply_mutations(self._two_shard_batch(router, "next"))
                assert len(fsyncs.calls) - before == 1 + 2
                for queue, epoch in zip(router.geo.queues, durable):
                    assert queue.durable_epoch == queue.max_epoch == epoch + 2
                    assert fsyncs.synced_size(queue._path) == os.path.getsize(queue._path)
                assert await router.drain_edges() == 4
                router.geo.verify_converged("edge-0")

        asyncio.run(asyncio.wait_for(go(), 60.0))
        router.geo.close()

    def test_stop_with_a_commit_in_flight_leaves_clean_files_and_inline_commits(
        self, fault_runner, tmp_path, fsyncs
    ):
        router = self._router(fault_runner, tmp_path)

        async def go():
            await router.start()
            fsyncs.hold()
            ingest = asyncio.ensure_future(
                router.apply_mutations(self._two_shard_batch(router, "held"))
            )
            await self._until_held(fsyncs)
            await router.stop()
            # stop() synced what the held workers have not: no file is dirty
            # and the batch is durable, though its ingest has yet to return.
            for queue in router.geo.queues:
                assert fsyncs.synced_size(queue._path) == os.path.getsize(queue._path)
                assert queue.durable_epoch == queue.max_epoch
            assert not ingest.done()
            fsyncs.release()
            return await ingest

        report = asyncio.run(asyncio.wait_for(go(), 60.0))
        assert sorted(shard for shard, _ in report.shard_reports) == [0, 1]
        # No router serves the replicator now: the listener commits inline
        # again, so a direct store write is durable (and ships) on return.
        on_loop = len(fsyncs.on_main_thread())
        router.store.apply(self._two_shard_batch(router, "inline"))
        assert len(fsyncs.on_main_thread()) - on_loop == 2
        for queue in router.geo.queues:
            assert queue.durable_epoch == queue.max_epoch
            assert fsyncs.synced_size(queue._path) == os.path.getsize(queue._path)
        router.geo.close()

    def test_without_a_router_apply_syncs_inline_and_ships_at_once(
        self, tmp_path, fsyncs
    ):
        """The ``_probe_geosync`` shape: ``twin.apply`` then ``drain_all``."""
        from repro.store.geosync import GeoReplicator

        faults = TestGeoTierFaults()
        fleet = faults._fleet()
        geo = GeoReplicator(fleet, queue_dir=str(tmp_path / "queues"))
        geo.add_edge("edge-0")
        writes = 4
        for index in range(writes):
            before = len(fsyncs.on_main_thread())
            faults._write_batches(fleet, 1, start=index)
            assert len(fsyncs.on_main_thread()) > before
            for queue in geo.queues:
                assert queue.durable_epoch == queue.max_epoch
                assert fsyncs.synced_size(queue._path) == os.path.getsize(queue._path)
        assert len(fsyncs.calls) == len(fsyncs.on_main_thread())
        before, backlog = len(fsyncs.calls), geo.depth("edge-0")
        assert geo.drain_all() == backlog == writes
        assert len(fsyncs.calls) == before  # acks ride the next commit
        geo.verify_converged("edge-0")
        geo.close()
        for queue in geo.queues:
            assert fsyncs.synced_size(queue._path) == os.path.getsize(queue._path)

    def test_a_restart_that_loses_every_unsynced_ack_converges_without_a_double_apply(
        self, tmp_path, fsyncs
    ):
        """The primary dies after a drain whose acks never met a commit:
        ``resume`` comes back with the watermarks of the last commit — behind
        what the edge applied — ``adopt_edge`` re-reports from the edge's own
        epochs, and the next drain applies exactly what the edge lacks."""
        from repro.store import EdgeReplica
        from repro.store.geosync import GeoReplicator

        faults = TestGeoTierFaults()
        queue_dir = str(tmp_path / "queues")
        fleet = faults._fleet()
        geo = GeoReplicator(fleet, queue_dir=queue_dir)
        edge = geo.add_edge("edge-0")
        registered = geo.watermark_vector("edge-0")
        faults._write_batches(fleet, 4)
        assert geo.drain("edge-0") == sum(fleet.epoch_vector) - sum(registered)
        assert geo.watermark_vector("edge-0") == fleet.epoch_vector
        edge.save(str(tmp_path / "edge"))
        # The crash: nothing commits, and every byte no sync covered is gone.
        for queue in geo.queues:
            queue._handle.close()
            assert fsyncs.synced_size(queue._path) < os.path.getsize(queue._path)
            os.truncate(queue._path, fsyncs.synced_size(queue._path))

        rebuilt = fleet.replay_twin()
        resumed = GeoReplicator.resume(rebuilt, queue_dir)
        assert resumed.watermark_vector("edge-0") == registered
        assert tuple(queue.max_epoch for queue in resumed.queues) == fleet.epoch_vector
        restored = EdgeReplica.load("edge-0", str(tmp_path / "edge"), 2)
        resumed.adopt_edge(restored)
        assert resumed.watermark_vector("edge-0") == fleet.epoch_vector
        faults._write_batches(rebuilt, 3, start=4)
        # The drain stops after one batch per shard, then finishes: the
        # edge's own log holds exactly the batches it lacked, once each.
        owed = [after - before for before, after in zip(fleet.epoch_vector, rebuilt.epoch_vector)]
        assert resumed.drain("edge-0", max_batches=1) == sum(min(count, 1) for count in owed)
        resumed.drain("edge-0")
        for shard, store in enumerate(restored.stores):
            assert [
                epoch for epoch, _ in store.log.batches(after=fleet.epoch_vector[shard])
            ] == list(range(fleet.epoch_vector[shard] + 1, rebuilt.epoch_vector[shard] + 1))
        assert resumed.verify_converged("edge-0") == rebuilt.state_digests(
            include_index=False
        )
        resumed.close()
