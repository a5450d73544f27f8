"""Tests for the online validation service: batching, shedding, parity, TCP."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.service import (
    LoadGenerator,
    MetricsSnapshot,
    RequestOutcome,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ShardedValidationService,
    TCPValidationFrontend,
    UnknownStrategyError,
    ValidationService,
    build_workload,
    percentile,
)
from repro.service import frontend as frontend_module
from repro.validation import ValidationPipeline, ValidationResult, ValidationStrategy
from support import calls_of


@pytest.fixture(scope="module")
def service_config():
    return ExperimentConfig(
        scale=0.03,
        max_facts_per_dataset=14,
        world_scale=0.15,
        methods=("dka", "giv-z"),
        datasets=("factbench", "yago"),
        models=("gemma2:9b", "qwen2.5:7b"),
        include_commercial_in_grid=False,
        seed=11,
    )


@pytest.fixture(scope="module")
def service_runner(service_config):
    return BenchmarkRunner(service_config)


class _FailsFirst(ValidationStrategy):
    """A strategy bug: the first validation raises, later ones delegate."""

    name = "fails-first"

    def __init__(self, inner: ValidationStrategy) -> None:
        self.inner = inner
        self.failed = False

    def validate(self, fact) -> ValidationResult:
        if not self.failed:
            self.failed = True
            raise RuntimeError("strategy bug")
        return self.inner.validate(fact)


def _drive(service, requests):
    """Run a list of requests concurrently through a service's lifecycle."""

    async def go():
        async with service:
            return await asyncio.gather(*(service.submit(req) for req in requests))

    return asyncio.run(go())


class TestVerdictParity:
    def test_service_results_equal_offline_pipeline(self, service_runner):
        dataset = service_runner.dataset("factbench")
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, max_batch_size=4)
        )
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset]
        responses = _drive(service, requests)

        offline = ValidationPipeline().run(
            service_runner.build_strategy("dka", "factbench", service_runner.registry.get("gemma2:9b")),
            dataset,
        )
        assert [response.result for response in responses] == offline.results
        assert all(response.outcome is RequestOutcome.COMPLETED for response in responses)

    def test_mixed_dataset_batches_route_to_right_strategy(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:4] + list(
            service_runner.dataset("yago")
        )[:4]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, max_batch_size=8)
        )
        responses = _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts])
        for fact, response in zip(facts, responses):
            assert response.result.fact_id == fact.fact_id
            assert response.result.gold_label == fact.label


class TestMicroBatching:
    def test_concurrent_requests_coalesce_into_one_batch(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:8]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, max_batch_size=8)
        )
        responses = _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts])
        assert [response.batch_size for response in responses] == [8] * 8
        snapshot = service.metrics.snapshot()
        assert snapshot.batches == 1
        assert snapshot.mean_batch_size == pytest.approx(8.0)

    def test_max_batch_size_respected(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:9]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, max_batch_size=3)
        )
        responses = _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts])
        assert max(response.batch_size for response in responses) <= 3
        assert service.metrics.snapshot().batches >= 3

    def test_distinct_strategies_get_distinct_workers(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:4]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, max_batch_size=8)
        )
        requests = [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts]
        requests += [ServiceRequest(fact, "giv-z", "qwen2.5:7b") for fact in facts]
        responses = _drive(service, requests)
        # Two (method, model) workers -> two batches of four, never merged.
        assert [response.batch_size for response in responses] == [4] * 8
        assert {response.result.method for response in responses} == {"dka", "giv-z"}

    # The launch rule — a key's next batch leaves when none of its batches is
    # in the backend or when it is full — in counts and ordering, no clock in
    # any assertion: ``time_scale`` only has to keep a batch in the backend
    # while a handful of event-loop turns run, and the tests wait on the
    # answers, never on time.
    CONFIG = dict(enable_cache=False, max_batch_size=8, time_scale=0.4)

    def _service(self, runner, **overrides):
        return ValidationService.from_runner(
            runner, ServiceConfig(**{**self.CONFIG, **overrides})
        )

    def test_a_batch_that_can_grow_waits_and_a_full_one_does_not(self, service_runner, backend):
        facts = list(service_runner.dataset("factbench"))[:9]
        service = self._service(service_runner)

        async def go():
            async with service:
                first = backend.submit(service, facts[:1])
                await backend.turns()
                assert service.metrics.snapshot().batches == 1  # in the backend
                seven = backend.submit(service, facts[1:8])
                await backend.turns()
                # Waiting behind the batch in flight is what fills the next one.
                assert service.metrics.snapshot().batches == 1
                assert service.pending == 8
                assert not any(task.done() for task in first + seven)
                eighth = backend.submit(service, facts[8:])
                await backend.turns()
                # A full batch has nothing left to wait for: it is in the
                # backend beside the first, which has not returned.
                assert service.metrics.snapshot().batches == 2
                assert not first[0].done()
                return await asyncio.gather(*first, *seven, *eighth)

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        assert [r.batch_size for r in responses] == [1] + [8] * 8
        offline = ValidationPipeline().run_facts(
            service_runner.build_strategy(
                "dka", "factbench", service_runner.registry.get("gemma2:9b")
            ),
            facts,
            dataset="factbench",
        )
        assert [r.result for r in responses] == offline

    def test_full_batches_overlap_in_the_backend(self, service_runner, backend):
        facts = (list(service_runner.dataset("factbench")) * 2)[:25]
        service = self._service(service_runner)

        async def go():
            async with service:
                first = backend.submit(service, facts[:1])
                await backend.turns()
                rest = backend.submit(service, facts[1:])
                await backend.turns()
                # Three full batches launched before the first returned.
                assert service.metrics.snapshot().batches == 4
                assert backend.in_flight(service) == 4
                assert service.pending == 25 and not first[0].done()
                responses = await asyncio.gather(*first, *rest)
                assert backend.in_flight(service) == 0
                return responses

        responses = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in responses)
        assert [r.batch_size for r in responses] == [1] + [8] * 24

    def test_admission_not_a_slot_count_bounds_the_backend(self, service_runner, backend):
        facts = (list(service_runner.dataset("factbench")) * 2)[:17]
        service = self._service(service_runner, queue_depth=16)

        async def go():
            async with service:
                tasks = backend.submit(service, facts)
                await backend.turns()
                # 16 admitted — the whole first drain went at once (8), the
                # next 8 behind it were a full batch — and the 17th shed.
                assert service.pending == 16
                assert backend.in_flight(service) == 2
                return await asyncio.gather(*tasks)

        responses = asyncio.run(go())
        assert [r.outcome for r in responses] == (
            [RequestOutcome.COMPLETED] * 16 + [RequestOutcome.REJECTED]
        )
        assert service.metrics.snapshot().rejected == 1

    def test_abandoned_requests_are_not_judged_and_take_no_slot(self, service_runner, backend):
        """A caller that gave up (the router's timeout, or any cancel) must
        not cost a strategy call or a place in a batch — nor make the batch
        behind one in flight look full when it is not."""
        facts = list(service_runner.dataset("factbench"))[:9]
        judged = []

        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.method_name = inner.method_name

            def validate(self, fact):
                judged.append(fact.fact_id)
                return self.inner.validate(fact)

        def provider(method, dataset, model):
            return Counting(
                service_runner.build_strategy(
                    method, dataset, service_runner.registry.get(model)
                )
            )

        service = ValidationService(provider, ServiceConfig(**self.CONFIG))

        async def go():
            async with service:
                first = backend.submit(service, facts[:1])
                await backend.turns()
                gave_up = backend.submit(service, facts[1:8])
                await backend.turns()
                for task in gave_up:
                    task.cancel()
                await backend.turns()
                assert service.pending == 1
                live = backend.submit(service, facts[8:])
                await backend.turns()
                # Eight wait, one of them alive: not a full batch, so it waits.
                assert service.metrics.snapshot().batches == 1
                return await asyncio.gather(*first, *live)

        first, live = asyncio.run(go())
        assert judged == [facts[0].fact_id, facts[8].fact_id]
        assert (first.batch_size, live.batch_size) == (1, 1)
        snapshot = service.metrics.snapshot()
        assert (snapshot.batches, snapshot.completed) == (2, 2)



class TestAdmissionControl:
    def test_overload_sheds_with_explicit_rejected_outcome(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:12]
        service = ValidationService.from_runner(
            service_runner,
            ServiceConfig(enable_cache=False, max_batch_size=1, queue_depth=2, time_scale=0.01),
        )
        responses = _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts])
        rejected = [response for response in responses if response.rejected]
        completed = [response for response in responses if not response.rejected]
        assert len(completed) == 2
        assert len(rejected) == 10
        assert all(response.outcome is RequestOutcome.REJECTED for response in rejected)
        assert all(response.result is None for response in rejected)
        snapshot = service.metrics.snapshot()
        assert snapshot.rejected == 10
        assert snapshot.completed == 2
        # Overload costs the shed requests, never the admitted ones' answers.
        offline = ValidationPipeline().run(
            service_runner.build_strategy(
                "dka", "factbench", service_runner.registry.get("gemma2:9b")
            ),
            service_runner.dataset("factbench"),
        )
        by_fact = {result.fact_id: result for result in offline.results}
        assert all(r.result == by_fact[r.result.fact_id] for r in completed)

    def test_rejection_is_load_shedding_not_an_error(self, service_runner):
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, queue_depth=1, time_scale=0.01)
        )

        async def go():
            async with service:
                first, second = await asyncio.gather(
                    service.submit(ServiceRequest(fact, "dka", "gemma2:9b")),
                    service.submit(ServiceRequest(fact, "giv-z", "gemma2:9b")),
                )
                # Once load drains, the service admits again.
                third = await service.submit(ServiceRequest(fact, "giv-z", "gemma2:9b"))
                return first, second, third

        first, second, third = asyncio.run(go())
        assert not first.rejected
        assert second.rejected
        assert not third.rejected


class TestVerdictCacheIntegration:
    def test_repeat_request_is_served_from_cache_with_identical_result(self, service_runner):
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(service_runner, ServiceConfig())

        async def go():
            async with service:
                first = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                second = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                other_model = await service.submit(ServiceRequest(fact, "dka", "qwen2.5:7b"))
                return first, second, other_model

        first, second, other_model = asyncio.run(go())
        assert not first.cached and second.cached
        assert second.result == first.result  # exact fields, tokens included
        assert not other_model.cached  # different model must not collide
        stats = service.cache.stats()
        assert stats.hits == 1 and stats.misses == 2
        assert service.metrics.snapshot().cache_hit_rate == pytest.approx(1 / 3)

    def test_shed_requests_do_not_count_as_cache_misses(self, service_runner):
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(queue_depth=1, time_scale=0.01)
        )

        async def go():
            async with service:
                return await asyncio.gather(
                    service.submit(ServiceRequest(fact, "dka", "gemma2:9b")),
                    service.submit(ServiceRequest(fact, "giv-z", "gemma2:9b")),
                )

        first, second = asyncio.run(go())
        assert not first.rejected and second.rejected
        # Only the admitted request registers a miss; the shed one must not
        # deflate the served-traffic hit rate.
        stats = service.cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)
        snapshot = service.metrics.snapshot()
        assert (snapshot.cache_hits, snapshot.cache_misses) == (0, 1)

    def test_cache_disabled_never_marks_cached(self, service_runner):
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False)
        )
        responses = _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b")] * 3)
        assert service.cache is None
        assert all(not response.cached for response in responses)


class TestLifecycleAndFailure:
    def test_submit_after_stop_raises(self, service_runner):
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(service_runner, ServiceConfig())

        async def go():
            async with service:
                await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
            with pytest.raises(RuntimeError):
                await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))

        asyncio.run(go())

    def test_stop_drains_inflight_requests_before_cancelling_workers(self, service_runner, backend):
        facts = list(service_runner.dataset("factbench"))[:12]
        service = ValidationService.from_runner(
            service_runner,
            ServiceConfig(enable_cache=False, max_batch_size=8, time_scale=0.2),
        )

        async def go():
            await service.start()
            tasks = await backend.three_groups(service, facts)
            await asyncio.wait_for(service.stop(), timeout=5.0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            # Every accepted request gets a real response: nothing waiting or
            # in the backend is dropped by a graceful shutdown.
            assert all(isinstance(outcome, ServiceResponse) for outcome in outcomes)
            assert all(outcome.outcome is RequestOutcome.COMPLETED for outcome in outcomes)
            assert [outcome.batch_size for outcome in outcomes] == [1] + [8] * 8 + [3] * 3
            assert service.metrics.snapshot().completed == len(facts)
            assert backend.in_flight(service) == 0

        asyncio.run(go())

    def test_stop_without_drain_cancels_inflight_requests(self, service_runner, backend):
        facts = list(service_runner.dataset("factbench"))[:12]
        service = ValidationService.from_runner(
            service_runner,
            ServiceConfig(enable_cache=False, max_batch_size=8, time_scale=0.2),
        )

        async def go():
            await service.start()
            tasks = await backend.three_groups(service, facts)
            await asyncio.wait_for(service.stop(drain=False), timeout=2.0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(outcome, asyncio.CancelledError) for outcome in outcomes)
            # The batches in the backend went with the worker: nothing of the
            # service is left on the loop, and nothing was answered.
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert service.pending == 0 == backend.in_flight(service)
            assert service.metrics.snapshot().completed == 0

        asyncio.run(go())

    def test_hard_stop_in_the_turn_of_a_launch_leaves_nothing_behind(
        self, service_runner, backend
    ):
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(
            service_runner, ServiceConfig(enable_cache=False, time_scale=0.2)
        )

        async def go():
            await service.start()
            (task,) = backend.submit(service, [fact])
            while not service.metrics.snapshot().batches:
                await asyncio.sleep(0)
            # Launched this very turn: the batch's wait has not run a step yet.
            await asyncio.wait_for(service.stop(drain=False), timeout=2.0)
            (outcome,) = await asyncio.gather(task, return_exceptions=True)
            assert isinstance(outcome, asyncio.CancelledError)
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert service.pending == 0 == backend.in_flight(service)

        asyncio.run(go())

    def test_strategy_failure_propagates_and_worker_survives(self, service_runner):
        fact = service_runner.dataset("factbench")[0]

        def flaky_provider(method, dataset, model):
            return _FailsFirst(
                service_runner.build_strategy(method, dataset, service_runner.registry.get(model))
            )

        service = ValidationService(flaky_provider, ServiceConfig(enable_cache=False))

        async def go():
            async with service:
                with pytest.raises(RuntimeError, match="strategy bug"):
                    await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                # The worker keeps serving after a failed batch.
                return await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))

        response = asyncio.run(go())
        assert response.outcome is RequestOutcome.COMPLETED
        # The failed batch is accounted as an error, keeping
        # completed + rejected + errors == submitted.
        snapshot = service.metrics.snapshot()
        assert snapshot.errors == 1
        assert snapshot.completed == 1

    def test_group_failure_does_not_fail_cobatched_datasets(self, service_runner):
        factbench_fact = service_runner.dataset("factbench")[0]
        yago_fact = service_runner.dataset("yago")[0]

        def provider(method, dataset, model):
            strategy = service_runner.build_strategy(
                method, dataset, service_runner.registry.get(model)
            )
            return _FailsFirst(strategy) if dataset == "yago" else strategy

        service = ValidationService(provider, ServiceConfig(enable_cache=False, max_batch_size=8))

        async def go():
            async with service:
                return await asyncio.gather(
                    service.submit(ServiceRequest(factbench_fact, "dka", "gemma2:9b")),
                    service.submit(ServiceRequest(yago_fact, "dka", "gemma2:9b")),
                    return_exceptions=True,
                )

        ok, failed = asyncio.run(go())
        # Both rode the same (dka, gemma2:9b) micro-batch; only the yago
        # group's failure surfaces, the factbench request still completes.
        assert ok.outcome is RequestOutcome.COMPLETED and ok.batch_size == 2
        assert isinstance(failed, RuntimeError)

    def test_an_unknown_method_or_model_is_refused_before_admission(self, service_runner):
        """No lane, worker or queue slot for a name no strategy serves; the
        refusal counts as an error, and the service serves on."""
        fact = service_runner.dataset("factbench")[0]
        service = ValidationService.from_runner(service_runner, ServiceConfig())

        async def go():
            async with service:
                for method, model in (("bogus", "gemma2:9b"), ("dka", "no-such-model")):
                    with pytest.raises(UnknownStrategyError, match="no strategy"):
                        await service.submit(ServiceRequest(fact, method, model))
                assert service._queues == {} and service.pending == 0
                response = await service.submit(ServiceRequest(fact, "dka", "gemma2:9b"))
                assert list(service._queues) == [("dka", "gemma2:9b")]
                return response

        assert asyncio.run(go()).outcome is RequestOutcome.COMPLETED
        snapshot = service.metrics.snapshot()
        assert (snapshot.errors, snapshot.completed) == (2, 1)


class TestMetrics:
    def test_percentile_interpolates(self):
        # Linear interpolation between closest ranks (the registry is the
        # single percentile implementation since the observability PR).
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.5
        assert percentile(values, 95) == 95.05
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 95) == 0.0
        assert percentile([7.0], 99) == 7.0
        # Short windows interpolate instead of snapping to one sample.
        assert percentile([1.0, 2.0], 50) == 1.5
        assert percentile([1.0, 3.0], 25) == 1.5
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile(values, -1)

    def test_p99_of_a_concatenation_can_exceed_every_parts_p99(self):
        # Why a fleet roll-up is not bounded by its worst shard's p99.
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0]
        b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.9]
        assert percentile(a, 99) == pytest.approx(9.79)
        assert percentile(b, 99) == pytest.approx(9.697)
        assert percentile(a + b, 99) == pytest.approx(9.985)
        assert percentile(a + b, 99) > max(percentile(a, 99), percentile(b, 99))

    def test_snapshot_shape_and_telemetry_wiring(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:6]
        telemetry = service_runner.telemetry
        before = len(calls_of(telemetry, task="dka"))
        service = ValidationService.from_runner(service_runner, ServiceConfig(enable_cache=False))
        _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts])
        snapshot = service.metrics.snapshot()
        assert isinstance(snapshot, MetricsSnapshot)
        assert snapshot.completed == 6
        assert snapshot.throughput_rps > 0
        assert 0 < snapshot.p50_latency_s <= snapshot.p95_latency_s <= snapshot.p99_latency_s
        assert "p95" in snapshot.format_table()
        # Only the strategies' own model calls land in the collector: six
        # cache-miss reads add six ``dka`` records and no ``serve/*`` task,
        # and a cache hit — no model ran — adds nothing at all.
        assert len(calls_of(telemetry, task="dka")) - before == 6
        assert not [r for r in telemetry.records() if r.task.startswith("serve/")]
        cached = ValidationService.from_runner(service_runner, ServiceConfig())
        request = ServiceRequest(facts[0], "dka", "gemma2:9b")
        _drive(cached, [request])
        warm = len(telemetry)
        assert all(response.cached for response in _drive(cached, [request] * 200))
        assert len(telemetry) == warm

    def test_restart_resets_the_measurement_window(self, service_runner):
        facts = list(service_runner.dataset("factbench"))[:5]
        service = ValidationService.from_runner(service_runner, ServiceConfig(enable_cache=False))
        _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts])
        assert service.metrics.snapshot().completed == 5
        # A second serving window must not divide the old completion count
        # by the new elapsed time.
        _drive(service, [ServiceRequest(fact, "dka", "gemma2:9b") for fact in facts[:2]])
        snapshot = service.metrics.snapshot()
        assert snapshot.completed == 2
        assert snapshot.batches >= 1


class TestLoadGenerator:
    def test_closed_loop_run_completes_workload(self, service_runner):
        datasets = [service_runner.dataset("factbench"), service_runner.dataset("yago")]
        workload = build_workload(
            datasets, ["dka", "giv-z"], ["gemma2:9b", "qwen2.5:7b"], 80, seed=5
        )
        router = ShardedValidationService.from_runner(
            service_runner, 1, ServiceConfig(time_scale=0.001)
        )
        report = LoadGenerator(router, workload, concurrency=8).run_sync()
        assert report.total == 80
        assert report.completed == 80
        assert report.rejected == 0
        assert report.throughput_rps > 0
        assert report.cache_hits > 0  # the mix repeats facts by design
        assert "p95 latency" in report.format_table()
        verdicts = report.verdicts()
        assert verdicts  # (method, model, dataset, fact_id) -> verdict
        assert all(len(key) == 4 for key in verdicts)

    def test_workload_is_deterministic_per_seed(self, service_runner):
        datasets = [service_runner.dataset("factbench")]
        first = build_workload(datasets, ["dka"], ["gemma2:9b"], 30, seed=9)
        second = build_workload(datasets, ["dka"], ["gemma2:9b"], 30, seed=9)
        different = build_workload(datasets, ["dka"], ["gemma2:9b"], 30, seed=10)
        assert [(r.fact.fact_id, r.method, r.model) for r in first] == [
            (r.fact.fact_id, r.method, r.model) for r in second
        ]
        assert [(r.fact.fact_id, r.method, r.model) for r in first] != [
            (r.fact.fact_id, r.method, r.model) for r in different
        ]

    def test_method_weights_shape_the_mix(self, service_runner):
        datasets = [service_runner.dataset("factbench")]
        workload = build_workload(
            datasets, ["dka", "giv-z"], ["gemma2:9b"], 200, seed=1,
            method_weights={"dka": 9.0, "giv-z": 1.0},
        )
        dka_share = sum(1 for request in workload if request.method == "dka") / len(workload)
        assert dka_share > 0.75

    def test_invalid_specs_rejected(self, service_runner):
        datasets = [service_runner.dataset("factbench")]
        with pytest.raises(ValueError):
            build_workload([], ["dka"], ["gemma2:9b"], 10)
        with pytest.raises(ValueError):
            build_workload(datasets, ["dka"], ["gemma2:9b"], -1)
        with pytest.raises(ValueError):
            build_workload(datasets, ["dka"], ["gemma2:9b"], 10, method_weights={"dka": 0.0})


class TestTCPFrontend:
    def test_round_trip_metrics_and_errors(self, service_runner):
        dataset = service_runner.dataset("factbench")

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    assert frontend.port != 0
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)

                    async def ask(payload):
                        writer.write(json.dumps(payload).encode() + b"\n")
                        await writer.drain()
                        return json.loads(await reader.readline())

                    good = await ask(
                        {"dataset": "factbench", "fact_id": dataset[0].fact_id,
                         "method": "dka", "model": "gemma2:9b", "id": "req-1"}
                    )
                    repeat = await ask(
                        {"dataset": "factbench", "fact_id": dataset[0].fact_id,
                         "method": "dka", "model": "gemma2:9b"}
                    )
                    missing = await ask({"dataset": "factbench", "fact_id": "nope"})
                    bad_dataset = await ask({"dataset": "unknown", "fact_id": "x"})
                    metrics = await ask({"cmd": "metrics"})
                    malformed_reply = None
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    malformed_reply = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    # Error replies count toward requests_handled (so a
                    # --max-requests bound terminates even on bad input);
                    # control commands like metrics do not.
                    assert frontend.requests_handled == 5
                    return good, repeat, missing, bad_dataset, metrics, malformed_reply

        good, repeat, missing, bad_dataset, metrics, malformed = asyncio.run(go())
        assert good["outcome"] == "completed"
        assert good["id"] == "req-1"
        assert good["verdict"] in {"true", "false", "invalid", "tie"}
        assert repeat["cached"] is True
        assert repeat["verdict"] == good["verdict"]
        assert missing["outcome"] == "error" and "unknown fact_id" in missing["error"]
        assert bad_dataset["outcome"] == "error" and "unknown dataset" in bad_dataset["error"]
        assert metrics["completed"] == 2
        assert malformed["outcome"] == "error"

    def test_allowed_method_model_restrictions_enforced(self, service_runner):
        dataset = service_runner.dataset("factbench")

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                frontend = TCPValidationFrontend(
                    router, {"factbench": dataset},
                    allowed_methods=("dka",), allowed_models=("gemma2:9b",),
                )
                async with frontend:
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)

                    async def ask(payload):
                        writer.write(json.dumps(payload).encode() + b"\n")
                        await writer.drain()
                        return json.loads(await reader.readline())

                    ok = await ask({"dataset": "factbench", "fact_id": dataset[0].fact_id,
                                    "method": "dka", "model": "gemma2:9b"})
                    bad_method = await ask({"dataset": "factbench", "fact_id": dataset[0].fact_id,
                                            "method": "rag", "model": "gemma2:9b"})
                    bad_model = await ask({"dataset": "factbench", "fact_id": dataset[0].fact_id,
                                           "method": "dka", "model": "qwen2.5:7b"})
                    writer.close()
                    await writer.wait_closed()
                    return ok, bad_method, bad_model

        ok, bad_method, bad_model = asyncio.run(go())
        assert ok["outcome"] == "completed"
        assert bad_method["outcome"] == "error" and "not served" in bad_method["error"]
        assert bad_model["outcome"] == "error" and "not served" in bad_model["error"]

    def test_an_unserved_method_is_an_error_reply_that_faults_no_replica(self, service_runner):
        """Without an allowlist, a method or model no strategy serves gets an
        error reply; no replica is marked, no lane is created, and the next
        valid read is served by its home replica."""
        dataset = service_runner.dataset("factbench")
        fact = dataset[0]

        async def go():
            router = ShardedValidationService.from_runner(
                service_runner, 1, ServiceConfig(), replicas=2
            )
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)

                    async def ask(method, model="gemma2:9b"):
                        payload = {"dataset": "factbench", "fact_id": fact.fact_id,
                                   "method": method, "model": model}
                        writer.write(json.dumps(payload).encode() + b"\n")
                        await writer.drain()
                        return json.loads(await reader.readline())

                    refused = [await ask("bogus"), await ask("bogus2"), await ask("dka", "nope")]
                    health = [(h.healthy, h.failures, h.served) for h in router.health[0]]
                    lanes = [dict(replica._queues) for replica in router.groups[0]]
                    home = router._replica_order(0, ServiceRequest(fact, "dka", "gemma2:9b"))[0]
                    served = await ask("dka")
                    writer.close()
                    await writer.wait_closed()
                    return refused, health, lanes, home, served, router.health[0]

        refused, health, lanes, home, served, after = asyncio.run(go())
        for reply in refused:
            assert reply["outcome"] == "error" and "no strategy" in reply["error"]
        assert health == [(True, 0, 0), (True, 0, 0)]
        assert lanes == [{}, {}]
        assert served["outcome"] == "completed"
        assert [replica.served for replica in after] == [int(i == home) for i in range(2)]
        assert all(replica.healthy and not replica.failures for replica in after)

    def test_a_stalled_connection_is_closed_while_others_keep_serving(
        self, service_runner, monkeypatch
    ):
        """Slow-loris: an idle connection and one stalled mid-line each get an
        error reply and a close once ``READ_TIMEOUT_S`` passes, while a
        connection that keeps sending is served throughout."""
        monkeypatch.setattr(frontend_module, "READ_TIMEOUT_S", 0.2)
        dataset = service_runner.dataset("factbench")
        request = json.dumps(
            {"dataset": "factbench", "fact_id": dataset[0].fact_id,
             "method": "dka", "model": "gemma2:9b"}
        ).encode() + b"\n"

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    idle = await asyncio.open_connection("127.0.0.1", frontend.port)
                    partial = await asyncio.open_connection("127.0.0.1", frontend.port)
                    partial[1].write(b'{"dataset": "fact')
                    healthy_reader, healthy_writer = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    served = []
                    for _ in range(5):  # 0.5 s of traffic, past the deadline
                        healthy_writer.write(request)
                        await healthy_writer.drain()
                        served.append(json.loads(await healthy_reader.readline()))
                        await asyncio.sleep(0.1)
                    closed = []
                    for reader, writer in (idle, partial):
                        reply = json.loads(await asyncio.wait_for(reader.readline(), 2.0))
                        closed.append((reply, await asyncio.wait_for(reader.read(), 2.0)))
                        writer.close()
                    healthy_writer.close()
                    await healthy_writer.wait_closed()
                    await asyncio.sleep(0.05)  # the handler sees EOF and frees its slot
                    return served, closed, frontend._connections

        served, closed, still_open = asyncio.run(go())
        assert [reply["outcome"] for reply in served] == ["completed"] * 5
        for reply, rest in closed:
            assert reply["outcome"] == "error" and "no request line within 0.2s" in reply["error"]
            assert rest == b""  # closed after the reply
        assert still_open == 0

    def test_connections_past_the_cap_are_refused(self, service_runner, monkeypatch):
        """A flood: connections past ``MAX_CONNECTIONS`` get an error reply
        and a close; the ones inside the cap keep serving, and a closed one
        frees its slot."""
        monkeypatch.setattr(frontend_module, "MAX_CONNECTIONS", 2)
        dataset = service_runner.dataset("factbench")
        request = json.dumps(
            {"dataset": "factbench", "fact_id": dataset[0].fact_id,
             "method": "dka", "model": "gemma2:9b"}
        ).encode() + b"\n"

        async def ask(reader, writer):
            writer.write(request)
            await writer.drain()
            return json.loads(await reader.readline())

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    port = frontend.port
                    first = await asyncio.open_connection("127.0.0.1", port)
                    second = await asyncio.open_connection("127.0.0.1", port)
                    answers = [await ask(*first), await ask(*second)]
                    refused = []
                    for _ in range(3):
                        reader, writer = await asyncio.open_connection("127.0.0.1", port)
                        refused.append(
                            (json.loads(await reader.readline()), await reader.read())
                        )
                        writer.close()
                    answers.append(await ask(*first))
                    first[1].close()
                    await first[1].wait_closed()
                    await asyncio.sleep(0.05)  # the handler sees EOF and frees its slot
                    third = await asyncio.open_connection("127.0.0.1", port)
                    answers.append(await ask(*third))
                    for _, writer in (second, third):
                        writer.close()
                        await writer.wait_closed()
                    return answers, refused

        answers, refused = asyncio.run(go())
        assert [reply["outcome"] for reply in answers] == ["completed"] * 4
        for reply, rest in refused:
            assert reply == {"outcome": "error", "error": "too many connections (limit 2)"}
            assert rest == b""

    def test_a_handler_cancelled_while_closing_ends_quietly(self, service_runner, monkeypatch):
        """Loop teardown cancels a handler still waiting for its socket to
        close; the cancellation must not escape to the loop's exception
        handler (the ``loop_exceptions`` fixture fails the test if it does)."""
        dataset = service_runner.dataset("factbench")
        parked = []

        async def never_closes(writer):
            parked.append(writer)
            await asyncio.sleep(3600)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", never_closes)

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    _, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
                    writer.write_eof()  # the handler reads EOF and parks in its close
                    await asyncio.sleep(0.05)
                    writer.close()

        asyncio.run(go())
        assert parked, "the handler never reached its close"

    def test_empty_allowlist_denies_all_instead_of_unrestricting(self, service_runner):
        dataset = service_runner.dataset("factbench")
        frontend = TCPValidationFrontend(
            ShardedValidationService.from_runner(service_runner, 1),
            {"factbench": dataset},
            allowed_methods=[],
        )
        assert frontend.allowed_methods == frozenset()
        assert frontend.allowed_models is None

    def test_mid_request_disconnect_does_not_kill_the_accept_loop(self, service_runner):
        dataset = service_runner.dataset("factbench")

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    # Client 1 vanishes mid-request: a partial line with no
                    # newline, then an abortive close (RST via SO_LINGER 0
                    # where supported; plain close otherwise).
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
                    writer.write(b'{"dataset": "factbench", "fact_id": ')
                    await writer.drain()
                    sock = writer.get_extra_info("socket")
                    if sock is not None:
                        import socket as socket_module
                        import struct

                        sock.setsockopt(
                            socket_module.SOL_SOCKET,
                            socket_module.SO_LINGER,
                            struct.pack("ii", 1, 0),
                        )
                    writer.close()

                    # Client 2 disconnects right after a full request, before
                    # reading the reply (the server's write/drain may fail).
                    reader2, writer2 = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    writer2.write(
                        json.dumps(
                            {"dataset": "factbench", "fact_id": dataset[0].fact_id,
                             "method": "dka", "model": "gemma2:9b"}
                        ).encode() + b"\n"
                    )
                    await writer2.drain()
                    writer2.close()

                    await asyncio.sleep(0.05)  # let both handlers run their course

                    # The accept loop survived both: a fresh connection is
                    # served normally.
                    reader3, writer3 = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    writer3.write(
                        json.dumps(
                            {"dataset": "factbench", "fact_id": dataset[0].fact_id,
                             "method": "dka", "model": "gemma2:9b"}
                        ).encode() + b"\n"
                    )
                    await writer3.drain()
                    reply = json.loads(await reader3.readline())
                    writer3.close()
                    await writer3.wait_closed()
                    return reply

        reply = asyncio.run(go())
        assert reply["outcome"] == "completed"

    def test_truncated_json_line_gets_structured_error_reply(self, service_runner):
        dataset = service_runner.dataset("factbench")

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
                    # A line that ends mid-object: terminated, but truncated.
                    writer.write(b'{"dataset": "factbench", "fact_id"\n')
                    await writer.drain()
                    truncated = json.loads(await reader.readline())
                    # The connection stays usable for well-formed follow-ups.
                    writer.write(
                        json.dumps(
                            {"dataset": "factbench", "fact_id": dataset[0].fact_id,
                             "method": "dka", "model": "gemma2:9b"}
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    follow_up = json.loads(await reader.readline())
                    # EOF mid-line (no trailing newline at close): the server
                    # answers with a structured error, never dies silently.
                    writer.write(b'{"dataset": "fact')
                    await writer.drain()
                    writer.write_eof()
                    trailing = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    assert frontend.requests_handled == 3
                    return truncated, follow_up, trailing

        truncated, follow_up, trailing = asyncio.run(go())
        assert truncated["outcome"] == "error" and "malformed JSON" in truncated["error"]
        assert follow_up["outcome"] == "completed"
        assert trailing["outcome"] == "error" and "malformed JSON" in trailing["error"]

    def test_oversized_line_gets_error_reply_not_a_dead_handler(self, service_runner):
        dataset = service_runner.dataset("factbench")

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
                    writer.write(b'{"pad": "' + b"x" * 200_000 + b'"}\n')
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    # The stream cannot be resynchronised; the server closes
                    # the connection after the error reply (plain EOF, or a
                    # reset when our oversized line is still unread).
                    try:
                        trailing = await reader.readline()
                    except ConnectionResetError:
                        trailing = b""
                    assert trailing == b""
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                    return reply

        reply = asyncio.run(go())
        assert reply["outcome"] == "error" and "too long" in reply["error"]

    def test_non_utf8_and_deeply_nested_lines_get_error_replies(self, service_runner):
        """Neither bytes that are not UTF-8 nor nesting past the parser's
        recursion limit (well under the line limit) may kill the handler: each
        gets a malformed-JSON reply, and the same connection answers the next
        line."""
        dataset = service_runner.dataset("factbench")
        bad_lines = [b'{"a": "\xff"}', b"[" * 10_000 + b"]" * 10_000]

        async def go():
            router = ShardedValidationService.from_runner(service_runner, 1)
            async with router:
                async with TCPValidationFrontend(router, {"factbench": dataset}) as frontend:
                    reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
                    replies = []
                    for line in bad_lines:
                        for sent in (line, b'"x"'):
                            writer.write(sent + b"\n")
                            await writer.drain()
                            replies.append(json.loads(await reader.readline()))
                    writer.close()
                    await writer.wait_closed()
                    return replies, frontend.requests_handled

        replies, handled = asyncio.run(go())
        assert [reply["outcome"] for reply in replies] == ["error"] * 4
        assert "malformed JSON" in replies[0]["error"]
        assert "malformed JSON" in replies[2]["error"]
        assert replies[1]["error"] == replies[3]["error"] == "request must be a JSON object"
        assert handled == 4
