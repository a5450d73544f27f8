"""Observability layer: registry, tracing, events, and fleet integration.

Covers the unified metrics registry (typed instruments, labels, exemplars,
Prometheus-style exposition and its parser), the seeded tracer (id
determinism, context propagation, head sampling, JSONL export), the span
trees the serving fleet produces for shed / mid-flight failover /
degraded-after-budget-exhaustion journeys on a :class:`VirtualClock`
(byte-identical across reruns), the structured event log, and the
:class:`TelemetryCollector` concurrency contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import BenchmarkRunner, ExperimentConfig
from repro.chaos import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
from repro.chaos.clock import VirtualClock
from repro.llm.base import LLMResponse
from repro.llm.telemetry import TelemetryCollector
from repro.obs import (
    EVENT_KINDS,
    SPAN_TAXONOMY,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    EventLog,
    MetricsRegistry,
    Observability,
    Tracer,
    percentile,
    render_exposition,
    render_spans,
    slowest_path,
)
from repro.obs import events as events_module
from repro.obs import registry as registry_module
from repro.obs import trace as trace_module
from repro.service import (
    ROUTER_METRIC_NAMES,
    SERVICE_METRIC_NAMES,
    RequestOutcome,
    RetryPolicy,
    ServiceConfig,
    ServiceMetrics,
    ServiceRequest,
    ShardedValidationService,
    ValidationService,
)
from support import calls_of, parse_exposition, reexpose


def _carrier(span) -> dict:
    """The ``trace`` payload field a client sends for one of its spans."""
    return dataclasses.asdict(span.context)


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def obs_runner():
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


def _requests(runner, count=4):
    dataset = runner.dataset("factbench")
    return [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset[:count]]


# ------------------------------------------------------------------ percentile


class TestPercentile:
    def test_empty_window_is_zero_not_an_error(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_single_sample_short_window(self):
        assert percentile([3.0], 0) == 3.0
        assert percentile([3.0], 99) == 3.0

    def test_two_samples_interpolate(self):
        assert percentile([1.0, 2.0], 50) == 1.5
        assert percentile([10.0, 20.0], 25) == 12.5
        assert percentile([10.0, 20.0], 100) == 20.0

    def test_interpolation_matches_closest_ranks(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.5
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_unsorted_input_is_sorted_internally(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_out_of_range_quantiles_raise(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)


# ------------------------------------------------------------------ registry


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "Requests.", ("outcome",))
        requests.labels(outcome="ok").inc()
        requests.labels(outcome="ok").inc(2)
        requests.labels(outcome="bad").inc()
        assert requests.labels(outcome="ok").value == 3
        depth = registry.gauge("queue_depth", "Depth.")
        depth.set(7)
        depth.inc(-3)
        assert depth.value == 4
        latency = registry.histogram("latency_seconds", "Latency.")
        for value in (0.002, 0.004, 0.5):
            latency.observe(value)
        assert latency.window() == [0.002, 0.004, 0.5]
        assert latency.percentile(50) == 0.004

    def test_getters_are_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "A.")
        assert registry.counter("a_total", "A.") is first
        with pytest.raises(ValueError):
            registry.gauge("a_total", "A as a gauge.")
        with pytest.raises(ValueError):
            registry.counter("a_total", "A.", ("shard",))  # labelnames differ

    def test_histogram_window_is_bounded(self, monkeypatch):
        monkeypatch.setattr(registry_module, "HISTOGRAM_WINDOW", 4)
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "Latency.")
        for value in range(10):
            latency.observe(float(value))
        assert latency.window() == [6.0, 7.0, 8.0, 9.0]

    def test_reset_clears_every_instrument(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.")
        gauge = registry.gauge("g", "G.")
        histogram = registry.histogram("h_seconds", "H.")
        counter.inc(5)
        gauge.set(2)
        histogram.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert gauge.value == 0
        assert histogram.window() == []

    def test_exposition_renders_and_parses_round_trip(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "Requests.", ("outcome",))
        requests.labels(outcome="ok").inc(3)
        registry.gauge("depth", "Depth.").set(2)
        latency = registry.histogram("latency_seconds", "Latency.")
        latency.observe(0.003)
        text = registry.exposition()
        parsed = parse_exposition(text)
        assert parsed["requests_total"]["kind"] == "counter"
        samples = {
            (name, labels): value
            for name, labels, value in parsed["requests_total"]["samples"]
        }
        assert samples[("requests_total", '{outcome="ok"}')] == 3
        assert parsed["depth"]["kind"] == "gauge"
        assert parsed["latency_seconds"]["kind"] == "histogram"

    def test_parse_rejects_samples_without_type(self):
        with pytest.raises(ValueError):
            parse_exposition("mystery_metric 3\n")

    def test_exemplars_attach_to_buckets_and_render(self):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "Latency.")
        latency.observe(0.003, exemplar="aaaa0000aaaa0000")
        latency.observe(0.004, exemplar="bbbb1111bbbb1111")
        exemplars = dict(latency.exemplars())
        assert "bbbb1111bbbb1111" in exemplars.values()
        text = render_exposition(registry.collect())
        assert 'trace_id="bbbb1111bbbb1111"' in text
        assert parse_exposition(text)  # exemplar syntax still parses

    def test_collect_with_extra_labels_merges_fleet_expositions(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("served_total", "Served.").inc(1)
        b.counter("served_total", "Served.").inc(2)
        families = a.collect({"replica": "0"}) + b.collect({"replica": "1"})
        text = render_exposition(families)
        assert 'served_total{replica="0"} 1' in text
        assert 'served_total{replica="1"} 2' in text
        # One family header despite two source registries.
        assert text.count("# TYPE served_total counter") == 1

    def test_service_metrics_snapshot_derives_from_registry(self):
        metrics = ServiceMetrics()
        metrics.start()
        metrics.observe_completion(0.004, trace_id="cafe0000cafe0000")
        metrics.observe_shed()
        metrics.observe_cache(True)
        metrics.observe_batch(2)
        snapshot = metrics.snapshot()
        assert snapshot.completed == 1
        assert snapshot.rejected == 1
        assert snapshot.cache_hits == 1
        assert any(trace == "cafe0000cafe0000" for _, trace in snapshot.exemplars)
        registry_text = metrics.exposition()
        parsed = parse_exposition(registry_text)
        samples = {
            (name, labels): value
            for name, labels, value in parsed["service_requests_total"]["samples"]
        }
        assert samples[("service_requests_total", '{outcome="completed"}')] == 1

    @pytest.mark.parametrize("edges", [0, 1])
    def test_fleet_exposition_carries_every_family_and_edge_series(
        self, obs_runner, edges
    ):
        """A 2x2 fleet's merged exposition parses strictly and names every
        ``SERVICE_METRIC_NAMES``/``ROUTER_METRIC_NAMES`` family; the
        per-edge ``router_geo_*`` families appear exactly once per
        configured edge with their ``edge`` label (the session-fallback
        counter is fleet-level and always present)."""
        per_edge = [
            name
            for name in ROUTER_METRIC_NAMES
            if name.startswith("router_geo_")
            and name != "router_geo_session_fallbacks_total"
        ]

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner,
                2,
                ServiceConfig(enable_cache=False),
                replicas=2,
                # The geo tier needs a store to replicate.
                store=obs_runner.sharded_store("factbench", 2).replay_twin()
                if edges
                else None,
                edges=edges,
            )
            async with router:
                await router.submit_many(_requests(obs_runner))
                return router.metrics.exposition()

        parsed = parse_exposition(asyncio.run(go()))
        for name in SERVICE_METRIC_NAMES + ROUTER_METRIC_NAMES:
            if name not in per_edge:
                assert name in parsed, f"exposition lost metric family {name!r}"
                continue
            samples = parsed[name]["samples"] if name in parsed else []
            edge_labels = [labels for _, labels, _ in samples if 'edge="' in labels]
            assert len(edge_labels) == edges, f"{name!r}: {edge_labels}"
            assert all('edge="edge-0"' in labels for labels in edge_labels)
        # Per-replica series carry fleet coordinates: 2x2 -> four of each.
        labelled = {
            labels for _, labels, _ in parsed["service_requests_total"]["samples"]
        }
        for shard in (0, 1):
            for replica in (0, 1):
                assert any(
                    f'shard="{shard}"' in labels and f'replica="{replica}"' in labels
                    for labels in labelled
                ), f"no series for shard:{shard}/replica:{replica}"

    @pytest.mark.parametrize("edges", [0, 1])
    def test_fleet_exposition_shape_is_pinned_and_covers_edge_copies(
        self, obs_runner, edges
    ):
        """After a scripted ``VirtualClock`` run on a 2x2 fleet (reads, one
        injected failover, one ingest, one edge drain, one edge read) the
        exposition has exactly these families, kinds and label sets.  The
        replica and router rows are PR 16's output written out; the edge
        copies' ``service_*`` series under ``edge``/``shard`` are new, and
        every ``router_*`` family lives in the router's one registry."""
        from repro.store import Mutation

        clock = VirtualClock()
        requests = _requests(obs_runner)

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner,
                2,
                ServiceConfig(enable_cache=False),
                store=obs_runner.sharded_store("factbench", 2).replay_twin(),
                replicas=2,
                clock=clock,
                edges=edges,
            )
            first = requests[0]
            owner = router.shard_for(first)
            async with router:
                injector = FaultInjector(
                    FaultSchedule(
                        [
                            FaultEvent(
                                at_s=0.0,
                                target=f"shard:{owner}/replica:0",
                                fault=FaultSpec.parse("error:1.0"),
                            )
                        ]
                    ),
                    clock=clock,
                    seed=1,
                )
                router.set_fault_injection(injector)
                injector.start()
                await router.submit_many(requests)
                router.set_fault_injection(None)
                await router.apply_mutations(
                    [Mutation.add_triple(first.fact.triple.subject, "updatedBy", "Feed")]
                )
                if edges:
                    assert await router.drain_edges() == 1
                    served = await router.submit(first, region="edge-0")
                    assert served.served_by == "edge-0"
                return router, router.metrics.exposition()

        router, text = asyncio.run(go())
        assert router.metrics.failovers == 1
        # family: (kind, label names each sample carries beyond its fleet
        # coordinates)
        service = {
            "service_requests_total": ("counter", [("outcome",)]),
            "service_verdict_cache_lookups_total": ("counter", [("result",)]),
            "service_batches_total": ("counter", [()]),
            "service_batched_requests_total": ("counter", [()]),
            "service_queue_depth": ("gauge", [()]),
            "service_ingests_total": ("counter", [()]),
            "service_ingested_ops_total": ("counter", [()]),
            "service_request_latency_seconds": ("histogram", [("le",), ()]),
            "service_batches_in_flight": ("gauge", [()]),
        }
        fleet_level = {
            "router_failures_total": "counter",
            "router_timeout_failures_total": "counter",
            "router_failovers_total": "counter",
            "router_retries_total": "counter",
            "router_degraded_total": "counter",
            "router_budget_exhausted_total": "counter",
            "router_unhealthy_replicas": "gauge",
            "router_staleness_epochs": "gauge",
            "router_geo_session_fallbacks_total": "counter",
            "router_lockstep_audits_total": "counter",
        }
        per_edge = {
            "router_geo_watermark_epoch": "gauge",
            "router_geo_watermark_lag_epochs": "gauge",
            "router_geo_queue_depth": "gauge",
            "router_geo_edge_reads_total": "counter",
            "router_geo_batches_shipped_total": "counter",
        }
        coordinates = [("shard", "replica")] + [("edge", "shard")] * edges
        expected = {
            name: (kind, {frozenset(at + own) for at in coordinates for own in owns})
            for name, (kind, owns) in service.items()
        }
        expected.update(
            {name: (kind, {frozenset()}) for name, kind in fleet_level.items()}
        )
        if edges:
            expected.update(
                {name: (kind, {frozenset({"edge"})}) for name, kind in per_edge.items()}
            )
        parsed = parse_exposition(text)
        shape = {
            name: (
                family["kind"],
                {
                    frozenset(re.findall(r'(\w+)="', labels))
                    for _, labels, _ in family["samples"]
                },
            )
            for name, family in parsed.items()
        }
        assert shape == expected
        assert set(expected) == set(SERVICE_METRIC_NAMES + ROUTER_METRIC_NAMES) - (
            set() if edges else set(per_edge)
        )
        if edges:
            requests_total = {
                labels: value
                for _, labels, value in parsed["service_requests_total"]["samples"]
            }
            owner = router.shard_for(requests[0])
            at_edge = f'{{edge="edge-0",shard="{owner}",outcome="completed"}}'
            assert requests_total[at_edge] == 1
        # One registry holds every router_* family; no service registry does.
        assert set(router.metrics.registry.names()) == {
            name for name in expected if name.startswith("router_")
        }
        copies = [service for group in router.groups for service in group]
        copies += [s for services in router.edge_services.values() for s in services]
        assert len(copies) == 4 + 2 * edges
        for copy in copies:
            assert sorted(copy.metrics.registry.names()) == sorted(SERVICE_METRIC_NAMES)


# ------------------------------------------------------------------ tracer


class TestTracer:
    def test_same_seed_mints_identical_ids(self):
        clock_a, clock_b = VirtualClock(), VirtualClock()
        a, b = Tracer(clock_a, seed=7), Tracer(clock_b, seed=7)
        for tracer in (a, b):
            with tracer.span("frontend.request", "frontend"):
                pass
        assert a.trace_ids() == b.trace_ids()

    def test_nested_spans_parent_through_the_contextvar(self):
        tracer = Tracer(VirtualClock(), seed=1)
        with tracer.span("router.route", "shard:0") as root:
            with tracer.span("replica.call", "shard:0/replica:0") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id

    def test_ambient_context_crosses_wait_for(self):
        tracer = Tracer(VirtualClock(), seed=1)

        async def go():
            async def leaf():
                with tracer.span("service.submit", "service") as span:
                    return span

            with tracer.span("router.route", "shard:0") as root:
                inner = await asyncio.wait_for(leaf(), timeout=1.0)
            return root, inner

        root, inner = asyncio.run(go())
        assert inner.parent_id == root.span_id

    def test_exception_marks_failed_and_propagates(self):
        tracer = Tracer(VirtualClock(), seed=1)
        with pytest.raises(RuntimeError):
            with tracer.span("worker.execute", "w"):
                raise RuntimeError("boom")
        [trace_id] = tracer.trace_ids()
        [span] = tracer.spans(trace_id)
        assert span.status == STATUS_FAILED
        assert span.attributes["error"] == "RuntimeError"

    def test_head_sampling_drops_ok_keeps_bad(self):
        tracer = Tracer(VirtualClock(), seed=3, sample_rate=0.0)
        for _ in range(5):
            with tracer.span("frontend.request", "frontend"):
                pass
        assert tracer.trace_ids() == []
        assert tracer.sampled_out == 5
        with tracer.span("frontend.request", "frontend") as span:
            span.status = STATUS_SHED
        assert len(tracer.trace_ids()) == 1  # bad outcomes always commit

    def test_sample_rate_does_not_shift_the_id_stream(self):
        ids = []
        for rate in (1.0, 0.5):
            tracer = Tracer(VirtualClock(), seed=9, sample_rate=rate)
            with tracer.span("frontend.request", "frontend") as span:
                span.status = STATUS_FAILED  # always kept
            ids.append(tracer.trace_ids())
        assert ids[0] == ids[1]

    def test_inject_extract_round_trip_and_malformed(self):
        tracer = Tracer(VirtualClock(), seed=2)
        with tracer.span("frontend.request", "frontend") as span:
            carrier = _carrier(span)
        context = Tracer.extract(carrier)
        assert context is not None
        assert context.trace_id == span.trace_id
        assert Tracer.extract(None) is None
        assert Tracer.extract({"trace_id": "zz", "span_id": "11"}) is None
        assert Tracer.extract("not a mapping") is None

    def test_remote_parent_anchors_a_local_subtree(self):
        upstream = Tracer(VirtualClock(), seed=4)
        downstream = Tracer(VirtualClock(), seed=5)
        with upstream.span("client.request", "client") as span:
            carrier = _carrier(span)
        remote = Tracer.extract(carrier)
        with downstream.span("frontend.request", "frontend", parent=remote) as span:
            assert span.trace_id == remote.trace_id
            assert span.parent_id == remote.span_id
        assert downstream.trace_ids() == [remote.trace_id]

    def test_record_span_attributes_shared_work(self):
        tracer = Tracer(VirtualClock(), seed=6)
        with tracer.span("worker.execute", "w") as parent:
            tracer.record_span("store.read", "store", parent, 0.0, 0.5, facts=3)
        [trace_id] = tracer.trace_ids()
        spans = tracer.spans(trace_id)
        read = next(span for span in spans if span.name == "store.read")
        assert read.duration_s == 0.5
        assert read.attributes["facts"] == 3

    def test_export_jsonl_sorted_keys_and_count(self):
        tracer = Tracer(VirtualClock(), seed=8)
        with tracer.span("frontend.request", "frontend"):
            with tracer.span("service.submit", "service"):
                pass
        sink = io.StringIO()
        assert tracer.export_jsonl(sink) == 2
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert record["name"] in SPAN_TAXONOMY

    def test_render_spans_tree_shape(self):
        tracer = Tracer(VirtualClock(), seed=10)
        with tracer.span("router.route", "shard:0"):
            with tracer.span("replica.call", "shard:0/replica:0"):
                pass
        [trace_id] = tracer.trace_ids()
        tree = tracer.render_tree(trace_id)
        assert tree.splitlines()[0].startswith(f"trace {trace_id}")
        assert "└─ router.route" in tree
        assert "   └─ replica.call" in tree
        assert render_spans([]) == "(empty trace)"

    def test_slowest_path_follows_max_duration_children(self):
        clock = VirtualClock()
        tracer = Tracer(clock, seed=11)
        root = tracer.start_span("router.route", "shard:0")
        fast = tracer.start_span("replica.call", "r0", parent=root)
        tracer.end_span(fast)  # zero duration
        slow = tracer.start_span("replica.call", "r1", parent=root)
        clock.advance(0.5)
        tracer.end_span(slow)
        tracer.end_span(root)
        [trace_id] = tracer.trace_ids()
        assert slowest_path(tracer.spans(trace_id)) == "router.route>replica.call"
        assert slowest_path([]) == ""

    def test_slowest_trace_is_the_longest_root_earliest_on_a_tie(self):
        clock = VirtualClock()
        tracer = Tracer(clock, seed=12)
        assert tracer.slowest_trace() == ("", [])
        for duration in (0.25, 0.5, 0.5, 0.125):  # binary-exact, so the tie is exact
            with tracer.span("router.route", "shard:0"):
                with tracer.span("replica.call", "shard:0/replica:0"):
                    clock.advance(duration)
        # A long child does not make its trace the slowest: roots decide.
        with tracer.span("router.route", "shard:0") as root:
            tracer.record_span("store.read", "store", root, 0.0, 9.0)
        trace_id, spans = tracer.slowest_trace()
        assert trace_id == tracer.trace_ids()[1]
        assert spans == tracer.spans(trace_id)
        assert [span.name for span in spans] == ["router.route", "replica.call"]

    def test_max_spans_per_trace_bounds_memory_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS_PER_TRACE", 3)
        tracer = Tracer(VirtualClock(), seed=1)
        with tracer.span("router.route", "shard:0"):
            for _ in range(5):
                with tracer.span("replica.call", "shard:0/replica:0"):
                    pass
        [trace_id] = tracer.trace_ids()
        assert len(tracer.spans(trace_id)) == 3, "root + first two children"
        assert tracer.spans_dropped == 3


# ------------------------------------------------------------------ events


class TestEventLog:
    def test_emit_counts_and_order(self):
        clock = VirtualClock()
        log = EventLog(clock)
        log.emit("replica_killed", "shard:0/replica:1")
        clock.advance(0.5)
        log.emit("failover", "shard:0", faulted_attempts=1)
        events = log.events()
        assert [event.kind for event in events] == ["replica_killed", "failover"]
        assert events[0].ts_s == 0.0 and events[1].ts_s == 0.5
        assert events[1].attributes == {"faulted_attempts": 1}
        assert log.counts() == {"failover": 1, "replica_killed": 1}
        assert all(kind in EVENT_KINDS for kind in log.counts())

    def test_bounded_capacity_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(events_module, "EVENT_LOG_CAPACITY", 2)
        log = EventLog(VirtualClock())
        for index in range(4):
            log.emit("failover", f"shard:{index}")
        assert [event.target for event in log.events()] == ["shard:2", "shard:3"]
        assert len(log) == 2

    def test_dropped_counter_accounts_for_every_eviction(self, monkeypatch):
        monkeypatch.setattr(events_module, "EVENT_LOG_CAPACITY", 2)
        log = EventLog(VirtualClock())
        assert log.dropped == 0
        for index in range(5):
            log.emit("failover", f"shard:{index}")
        assert log.dropped == 3
        assert log.dropped + len(log) == 5, "emitted == retained + dropped"
        # seq numbers stay globally monotonic across evictions.
        assert [event.seq for event in log.events()] == [3, 4]

    def test_export_jsonl_and_table(self):
        log = EventLog(VirtualClock())
        log.emit("quiesce_start", "service", pending=3)
        sink = io.StringIO()
        assert log.export_jsonl(sink) == 1
        record = json.loads(sink.getvalue())
        assert record["kind"] == "quiesce_start"
        assert "quiesce_start" in log.format_table()


# ------------------------------------------------------- telemetry threading


class TestTelemetryConcurrency:
    def test_record_is_thread_safe_under_contention(self):
        collector = TelemetryCollector()
        threads, per_thread = 8, 250
        start = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            response = LLMResponse(
                text="x", model=f"m{worker % 2}", prompt_tokens=1,
                completion_tokens=1, latency_seconds=0.001,
            )
            start.wait()
            for index in range(per_thread):
                collector.record(response, task="serve/dka")

        workers = [
            threading.Thread(target=hammer, args=(index,)) for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        records = calls_of(collector, task="serve/dka")
        assert len(records) == threads * per_thread
        assert sum(record.prompt_tokens for record in records) == threads * per_thread


# --------------------------------------------------------- fleet span trees


def _names(spans):
    return sorted(span.name for span in spans)


def _connected(spans):
    """Every span except one root chains back to that root."""
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent_id not in by_id]
    return len(roots) == 1


class TestFleetSpanTrees:
    def _router(self, runner, clock, replicas=2, retry_policy=None, **kwargs):
        return ShardedValidationService.from_runner(
            runner,
            1,
            ServiceConfig(enable_cache=False),
            replicas=replicas,
            retry_policy=retry_policy,
            clock=clock,
            **kwargs,
        )

    def test_shed_request_produces_a_shed_span_despite_sampling(self, obs_runner):
        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=42, sample_rate=0.0)

        async def go():
            service = ValidationService.from_runner(
                obs_runner, ServiceConfig(enable_cache=False, queue_depth=1)
            )
            service.set_observability(obs.tracer, obs.events)
            requests = _requests(obs_runner, 4)
            async with service:
                # Fill the single admission slot, then submit over budget.
                tasks = [
                    asyncio.get_running_loop().create_task(service.submit(request))
                    for request in requests
                ]
                return await asyncio.gather(*tasks)

        responses = asyncio.run(go())
        shed = [r for r in responses if r.outcome is RequestOutcome.REJECTED]
        assert shed, "queue_depth=1 under 4 concurrent submits must shed"
        # sample_rate=0 drops every OK trace; the SHED ones always commit.
        committed = obs.tracer.traces()
        assert committed, "shed traces must survive head sampling"
        for spans in committed.values():
            assert any(span.status == STATUS_SHED for span in spans)
        for response in shed:
            assert response.trace_id in committed

    def test_mid_flight_failover_tree_shows_both_replica_attempts(self, obs_runner):
        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=42)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    at_s=0.0,
                    target="shard:0/replica:0",
                    fault=FaultSpec.parse("error:1.0"),
                    clear_at_s=None,
                )
            ]
        )

        async def go():
            router = self._router(obs_runner, clock)
            router.set_observability(obs)
            injector = FaultInjector(schedule, clock=clock, seed=1)
            router.set_fault_injection(injector)
            async with router:
                injector.start()
                return await router.submit(_requests(obs_runner, 1)[0])

        response = asyncio.run(go())
        assert response.outcome is RequestOutcome.COMPLETED
        spans = obs.tracer.spans(response.trace_id)
        assert _connected(spans)
        calls = [span for span in spans if span.name == "replica.call"]
        assert len(calls) == 2, "one faulted attempt + the rescuing sibling"
        statuses = sorted(span.status for span in calls)
        assert statuses == [STATUS_FAILED, STATUS_OK]
        root = next(span for span in spans if span.parent_id is None)
        assert root.name == "router.route" and root.status == STATUS_OK
        assert any(span.name == "worker.execute" for span in spans)
        # The metrics exemplar links back to this same trace.
        assert obs.events.counts().get("failover") == 1

    def test_degraded_after_budget_exhaustion_tags_staleness(self, obs_runner):
        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=42)
        policy = RetryPolicy(
            max_attempts=2, base_backoff_s=0.0, max_backoff_s=0.0, jitter=0.0
        )
        schedule = FaultSchedule(
            [FaultEvent(at_s=0.0, target="shard:0", fault=FaultSpec.parse("error:1.0"))]
        )
        request = _requests(obs_runner, 1)[0]

        async def go():
            router = self._router(obs_runner, clock, retry_policy=policy)
            router.set_observability(obs)
            async with router:
                warm = await router.submit(request)
                injector = FaultInjector(schedule, clock=clock, seed=1)
                router.set_fault_injection(injector)
                injector.start()
                dark = await router.submit(request)
                return warm, dark

        warm, dark = asyncio.run(go())
        assert warm.outcome is RequestOutcome.COMPLETED
        assert dark.outcome is RequestOutcome.DEGRADED
        spans = obs.tracer.spans(dark.trace_id)
        assert _connected(spans)
        root = next(span for span in spans if span.parent_id is None)
        assert root.status == STATUS_DEGRADED
        assert root.attributes["stale_epoch"] == dark.stale_epoch
        assert root.attributes["staleness_epochs"] >= 0
        attempts = [span for span in spans if span.name == "router.attempt"]
        assert len(attempts) == policy.max_attempts
        assert all(span.status == STATUS_FAILED for span in attempts)
        assert obs.events.counts().get("budget_exhausted") == 1

    def test_replica_kill_emits_event_and_unhealthy_transition(self, obs_runner):
        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=42)

        async def go():
            router = self._router(obs_runner, clock)
            router.set_observability(obs)
            async with router:
                await router.kill_replica(0, 1)
                return await router.submit(_requests(obs_runner, 1)[0])

        response = asyncio.run(go())
        assert response.outcome is RequestOutcome.COMPLETED
        assert obs.events.counts().get("replica_killed") == 1

    def test_span_trees_are_byte_identical_across_reruns(self, obs_runner):
        def run_once() -> str:
            clock = VirtualClock()
            obs = Observability.for_clock(clock, seed=7)
            schedule = FaultSchedule(
                [
                    FaultEvent(
                        at_s=0.0,
                        target="shard:0/replica:0",
                        fault=FaultSpec.parse("error:1.0"),
                    )
                ]
            )

            async def go():
                router = self._router(obs_runner, clock)
                router.set_observability(obs)
                injector = FaultInjector(schedule, clock=clock, seed=1)
                router.set_fault_injection(injector)
                async with router:
                    injector.start()
                    for request in _requests(obs_runner, 4):
                        await router.submit(request)

            asyncio.run(go())
            sink = io.StringIO()
            obs.tracer.export_jsonl(sink)
            events = io.StringIO()
            obs.events.export_jsonl(events)
            return sink.getvalue() + "\n---\n" + events.getvalue()

        first, second = run_once(), run_once()
        assert first == second
        assert first.strip(), "the run must actually produce spans"

    def test_store_apply_and_ship_spans_on_the_ingest_path(self, obs_runner):
        from repro.store import Mutation
        from repro.retrieval.corpus import Document

        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=13)
        store = obs_runner.sharded_store("factbench", 1).replay_twin()

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner,
                1,
                ServiceConfig(enable_cache=False),
                store=store,
                replicas=2,
                clock=clock,
            )
            router.set_observability(obs)
            async with router:
                document = Document(
                    doc_id="obs-ingest-0",
                    url="https://obs.example/0",
                    title="Obs ingest",
                    text="Fresh evidence.",
                    source="obs.example",
                    kind="news",
                )
                await router.apply_mutations([Mutation.add_document(document)])

        asyncio.run(go())
        spans = [
            span for trace in obs.tracer.traces().values() for span in trace
        ]
        # Each live replica applies its own store copy: one apply span each.
        applies = [span for span in spans if span.name == "store.apply"]
        assert len(applies) == 2
        assert all(span.attributes["ops"] == 1 for span in applies)
        counts = obs.events.counts()
        assert counts.get("quiesce_start") == 2  # both replicas gated
        assert counts.get("quiesce_end") == 2

    def test_served_ingest_fires_store_and_never_crosses_the_ship_point(
        self, obs_runner
    ):
        """Pins the served 2x2 write path: the router fires ``store`` once
        and every replica copy of both shards traces ``store.apply``.
        Neither the ``store/ship`` fault point nor a ``store.ship`` span
        appears — the router ships through each replica's own
        ``apply_mutations``, never ``ReplicaGroup.apply``."""
        from repro.store import Mutation

        class RecordingInjector(FaultInjector):
            def __init__(self, clock):
                super().__init__(clock=clock)
                self.points = []

            def active_for(self, point):
                self.points.append(point)
                return super().active_for(point)

        clock = VirtualClock()
        obs = Observability.for_clock(clock, seed=13)
        injector = RecordingInjector(clock)
        store = obs_runner.sharded_store("factbench", 2).replay_twin()

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner,
                2,
                ServiceConfig(enable_cache=False),
                store=store,
                replicas=2,
                clock=clock,
            )
            router.set_observability(obs)
            router.set_fault_injection(injector)
            async with router:
                injector.start()
                return await router.apply_mutations(
                    [Mutation.add_triple(f"Ship{i}", "worksFor", "Org") for i in range(6)]
                )

        report = asyncio.run(go())
        assert report.shards_touched == (0, 1)
        assert injector.points == ["store"]
        names = [
            span.name for trace in obs.tracer.traces().values() for span in trace
        ]
        assert names == ["store.apply"] * 4  # 2 shards x 2 replica copies


# ----------------------------------------------------------- chaos run table


class TestChaosTraceColumns:
    def test_run_table_gains_trace_derived_timing_columns(self, obs_runner):
        from repro.chaos import ScenarioRunner, load_scenario
        from repro.chaos.scenario import RunTable

        scenario = load_scenario(
            {
                "name": "obs-columns",
                "seed": 23,
                "dataset": "factbench",
                "methods": ["dka"],
                "models": ["gemma2:9b"],
                "requests": 24,
                "concurrency": 4,
                "service": {"time_scale": 0.001, "enable_cache": False},
                "matrix": {
                    "topology": [{"shards": 1, "replicas": 2}],
                    "traffic": [{"shape": "steady"}],
                    "faults": [
                        {
                            "name": "kill-one",
                            "schedule": [
                                {
                                    "at_s": 0.0,
                                    "target": "shard:0/replica:1",
                                    "fault": "kill",
                                }
                            ],
                        }
                    ],
                },
                "invariants": {"max_failed": 0, "verdict_parity": True},
            }
        )
        table = ScenarioRunner(obs_runner, scenario).run()
        assert table.ok

        assert "slowest_path" in RunTable.TIMING_COLUMNS
        assert "worst_trace" in RunTable.TIMING_COLUMNS
        for column in ("slowest_path", "worst_trace"):
            assert column not in RunTable.DETERMINISTIC_COLUMNS

        rows = table.rows(include_timings=True)
        for row in rows:
            # Every cell served traffic, so every cell has a worst trace
            # (a 16-hex exemplar id) and a root-to-leaf slowest path.
            assert re.fullmatch(r"[0-9a-f]{16}", row["worst_trace"])
            assert row["slowest_path"].startswith("router.route")
            assert ">" in row["slowest_path"]
        # The deterministic CSV view stays free of trace-derived columns.
        deterministic = table.csv(include_timings=False)
        assert "slowest_path" not in deterministic
        assert "worst_trace" not in deterministic
        # The kill cell's event log reached the cell result.
        killed = next(cell for cell in table.cells if not cell.reference)
        assert killed.event_counts.get("replica_killed") == 1


# --------------------------------------------------------------- end to end


class TestFrontendTracing:
    def test_tcp_request_against_killed_replica_yields_one_connected_tree(
        self, obs_runner
    ):
        """The PR's acceptance journey: a 2x2 fleet, one replica dying
        mid-flight, one TCP request — a single connected span tree from
        frontend root through router, both replica attempts, worker, and
        store, with the trace id in the reply."""
        from repro.service import TCPValidationFrontend

        obs = Observability.for_clock(seed=42)
        dataset = obs_runner.dataset("factbench")
        fact = dataset[0]

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner,
                2,
                ServiceConfig(enable_cache=False),
                replicas=2,
            )
            async with router:
                frontend = TCPValidationFrontend(router, {"factbench": dataset})
                frontend.set_observability(obs)
                async with frontend:
                    request = ServiceRequest(fact, "dka", "gemma2:9b")
                    shard = router.shard_for(request)
                    # The replica the balancer picks first dies mid-call
                    # (an injected error — a pre-kill would leave the
                    # rotation before any attempt), so the request's first
                    # attempt fails over to the sibling mid-flight.
                    # Peek the balancer's next pick without perturbing its
                    # round-robin state (the order call advances it).
                    rr = router.balancer.rr[shard]
                    victim = router.balancer.order(shard, request)[0]
                    router.balancer.rr[shard] = rr
                    injector = FaultInjector(
                        FaultSchedule(
                            [
                                FaultEvent(
                                    at_s=0.0,
                                    target=f"shard:{shard}/replica:{victim}",
                                    fault=FaultSpec.parse("error:1.0"),
                                )
                            ]
                        ),
                        clock=router.clock,
                        seed=1,
                    )
                    router.set_fault_injection(injector)
                    injector.start()
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    writer.write(
                        json.dumps(
                            {
                                "dataset": "factbench",
                                "fact_id": fact.fact_id,
                                "method": "dka",
                                "model": "gemma2:9b",
                            }
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    writer.write(
                        json.dumps({"cmd": "metrics", "format": "exposition"}).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    exposition = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return reply, exposition

        reply, exposition = asyncio.run(go())
        assert reply["outcome"] == "completed"
        trace_id = reply["trace_id"]
        spans = obs.tracer.spans(trace_id)
        assert _connected(spans)
        names = [span.name for span in spans]
        root = next(span for span in spans if span.parent_id is None)
        assert root.name == "frontend.request"
        assert "router.route" in names
        assert names.count("replica.call") == 2, "killed attempt + live sibling"
        assert "service.submit" in names
        assert "worker.execute" in names
        assert "store.read" in names
        assert every_name_in_taxonomy(names)
        # The exposition command rendered the unified fleet registry.
        parsed = parse_exposition(exposition["exposition"])
        assert "service_requests_total" in parsed
        assert "router_failovers_total" in parsed

    def test_wire_trace_context_reparents_the_frontend_span(self, obs_runner):
        from repro.service import TCPValidationFrontend

        obs = Observability.for_clock(seed=42)
        client = Tracer(VirtualClock(), seed=99)
        dataset = obs_runner.dataset("factbench")
        fact = dataset[0]

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner, 1, ServiceConfig(enable_cache=False)
            )
            async with router:
                frontend = TCPValidationFrontend(router, {"factbench": dataset})
                frontend.set_observability(obs)
                async with frontend:
                    with client.span("client.request", "client") as span:
                        carrier = _carrier(span)
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    writer.write(
                        json.dumps(
                            {
                                "dataset": "factbench",
                                "fact_id": fact.fact_id,
                                "method": "dka",
                                "model": "gemma2:9b",
                                "trace": carrier,
                            }
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return reply, carrier

        reply, carrier = asyncio.run(go())
        assert reply["trace_id"] == carrier["trace_id"]
        spans = obs.tracer.spans(carrier["trace_id"])
        root = next(span for span in spans if span.name == "frontend.request")
        assert root.parent_id == carrier["span_id"]


def every_name_in_taxonomy(names) -> bool:
    return all(name in SPAN_TAXONOMY for name in names)


# ----------------------------------------------- exposition round-trip property


@st.composite
def _registries(draw):
    """A registry with a drawn mix of counters, gauges, histograms,
    label values, and exemplars — plus optional fleet extra-labels."""
    registry = MetricsRegistry()
    outcomes = draw(
        st.lists(
            st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    counter = registry.counter("req_total", "Requests.", ("outcome",))
    for outcome in outcomes:
        counter.labels(outcome=outcome).inc(
            draw(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
        )
    if draw(st.booleans()):
        registry.gauge("depth", "Depth.").set(
            draw(
                st.floats(
                    min_value=-1e12,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
        )
    histogram = registry.histogram("lat_seconds", "Latency.")
    for value in draw(
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6)
    ):
        histogram.observe(
            value,
            exemplar=draw(
                st.one_of(st.none(), st.from_regex(r"[0-9a-f]{16}", fullmatch=True))
            ),
        )
    extra = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "shard": st.from_regex(r"[0-9]{1,2}", fullmatch=True),
                    "replica": st.from_regex(r"[0-9]{1,2}", fullmatch=True),
                }
            ),
        )
    )
    return registry, extra


class TestExpositionRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(_registries())
    def test_expose_parse_reexpose_is_byte_identical(self, drawn):
        """``reexpose(parse_exposition(text)) == text`` for every family
        kind, label set, sample value, and exemplar the registry can
        render — the property the chaos boundary relies on when it
        ingests fleet expositions."""
        registry, extra = drawn
        text = render_exposition(registry.collect(extra or {}))
        parsed = parse_exposition(text)
        assert reexpose(parsed) == text

    def test_round_trip_preserves_help_exemplars_and_inf_bounds(self):
        registry = MetricsRegistry()
        latency = registry.histogram("lat_seconds", "Latency seconds.")
        latency.observe(0.003, exemplar="cafe0000cafe0000")
        registry.counter("plain_total", "Plain.").inc(2)
        text = render_exposition(registry.collect({"replica": "1"}))
        parsed = parse_exposition(text)
        assert parsed["lat_seconds"]["help"] == "Latency seconds."
        exemplars = [e for e in parsed["lat_seconds"]["exemplars"] if e is not None]
        assert exemplars[0][0] == "cafe0000cafe0000"
        assert 'le="+Inf"' in text
        assert reexpose(parsed) == text


# ------------------------------------------- frontend scrape-while-serving


class TestFrontendMetricsConcurrency:
    def test_concurrent_scrapes_are_untorn_and_monotonic(self, obs_runner):
        """Two clients hammer the ``metrics`` exposition verb while a
        third streams validation requests through a 2x2 fleet.  Every
        scrape must parse under the strict parser (a torn or interleaved
        exposition raises), re-expose byte-identically, and read
        monotonically non-decreasing completion counters."""
        from repro.service import TCPValidationFrontend

        dataset = obs_runner.dataset("factbench")
        facts = list(dataset[:6])

        async def request_client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for fact in facts:
                writer.write(
                    json.dumps(
                        {
                            "dataset": "factbench",
                            "fact_id": fact.fact_id,
                            "method": "dka",
                            "model": "gemma2:9b",
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        async def scrape_client(port, count):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            texts = []
            for _ in range(count):
                writer.write(b'{"cmd": "metrics", "format": "exposition"}\n')
                await writer.drain()
                texts.append(json.loads(await reader.readline())["exposition"])
                await asyncio.sleep(0)
            writer.close()
            await writer.wait_closed()
            return texts

        async def go():
            router = ShardedValidationService.from_runner(
                obs_runner, 2, ServiceConfig(enable_cache=False), replicas=2
            )
            async with router:
                frontend = TCPValidationFrontend(router, {"factbench": dataset})
                async with frontend:
                    return await asyncio.gather(
                        request_client(frontend.port),
                        scrape_client(frontend.port, 8),
                        scrape_client(frontend.port, 8),
                    )

        replies, *scrape_streams = asyncio.run(go())
        assert [reply["outcome"] for reply in replies] == ["completed"] * len(facts)
        for texts in scrape_streams:
            previous = 0.0
            for text in texts:
                parsed = parse_exposition(text)  # strict: torn output raises
                assert reexpose(parsed) == text
                family = parsed.get("service_requests_total")
                completed = sum(
                    value
                    for _, labels, value in (family["samples"] if family else [])
                    if 'outcome="completed"' in labels
                )
                assert 0.0 <= completed <= float(len(facts))
                assert completed >= previous, "counters never run backwards"
                previous = completed
