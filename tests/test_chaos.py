"""Chaos engine: virtual clocks, fault schedules, retry/degrade, scenarios.

Covers the chaos subsystem's contracts:

* :class:`VirtualClock` — sleepers wake in deadline order with the clock
  reading exactly their own deadline; time never moves on its own;
* the fault grammar — specs, events, and schedules validate up front
  (bad kinds, bad targets, negative times, overlapping windows);
* :class:`FaultInjector` — lazy timeline evaluation on a virtual clock,
  consume-once kills, seeded error determinism;
* :class:`RetryPolicy` — bounded budgets, capped jittered backoff,
  deadline propagation; the router serves stale ``DEGRADED`` verdicts
  after budget exhaustion and keeps PR 5 ``FAILED`` semantics without a
  policy;
* health probes on the injectable clock — an unhealthy replica becomes a
  probe candidate exactly when virtual time passes ``probe_interval_s``;
* the declarative scenario layer — malformed YAML fails with
  :class:`ScenarioError` naming the offending key, and the same scenario
  + seed yields byte-identical traffic and run tables.
"""

from __future__ import annotations

import asyncio
import math
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InjectedFaultError,
    ScenarioError,
    ScenarioRunner,
    TrafficSpec,
    VirtualClock,
    build_traffic,
    load_scenario,
)
from repro.chaos.faults import parse_edge_target, parse_replica_target
from repro.chaos.scenario import GeoOptions, Invariants, Topology
from repro.datasets.base import LabeledFact
from repro.kg import Triple
from repro.service import (
    RequestOutcome,
    RetryPolicy,
    ServiceConfig,
    ServiceRequest,
    ShardedValidationService,
)
from repro.service.loadgen import IngestRequest
from support import mark_unhealthy


# --------------------------------------------------------------- VirtualClock


class TestVirtualClock:
    def test_time_only_moves_on_advance(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_sleepers_wake_in_deadline_order_observing_their_deadline(self):
        async def go():
            clock = VirtualClock()
            log = []

            async def sleeper(name, seconds):
                await clock.sleep(seconds)
                log.append((name, clock.now()))

            tasks = [
                asyncio.ensure_future(sleeper("late", 0.3)),
                asyncio.ensure_future(sleeper("early", 0.1)),
                asyncio.ensure_future(sleeper("mid", 0.2)),
            ]
            await asyncio.sleep(0)
            assert clock.pending_sleepers == 3
            assert clock.next_deadline() == pytest.approx(0.1)
            released = await clock.run_for(0.25)
            assert released == 2
            assert log == [("early", pytest.approx(0.1)), ("mid", pytest.approx(0.2))]
            await clock.run_for(0.1)
            assert [name for name, _ in log] == ["early", "mid", "late"]
            # The late sleeper woke at its own deadline, not the advance target.
            assert log[-1][1] == pytest.approx(0.3)
            await asyncio.gather(*tasks)

        asyncio.run(go())

    def test_zero_sleep_yields_without_parking(self):
        async def go():
            clock = VirtualClock()
            await clock.sleep(0)
            await clock.sleep(-1)
            assert clock.pending_sleepers == 0
            with pytest.raises(ValueError):
                clock.next_deadline()

        asyncio.run(go())


# -------------------------------------------------------------- fault grammar


class TestFaultGrammar:
    def test_spec_parse_accepts_the_documented_forms(self):
        assert FaultSpec.parse("kill").kind == "kill"
        assert FaultSpec.parse("stall:0.5").duration_s == 0.5
        assert FaultSpec.parse("error:0.25").rate == 0.25
        slow = FaultSpec.parse("slow:0.02:0.01")
        assert (slow.latency_s, slow.jitter_s) == (0.02, 0.01)
        assert FaultSpec.parse({"kind": "stall", "duration_s": 1.0}).duration_s == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            "explode",
            "kill:1",
            "stall",
            "stall:0",
            "error:0",
            "error:1.5",
            "slow",
            "slow:0.1:0.1:0.1",
            "slow:inf",
            "stall:nan",
            {"kind": "stall", "duration_s": 1.0, "bogus": 2},
            {"duration_s": 1.0},
            42,
        ],
    )
    def test_spec_parse_rejects_malformed_input(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="at_s"):
            FaultEvent(at_s=-0.1, target="store", fault=FaultSpec.parse("kill"))
        with pytest.raises(ValueError, match="clear_at_s"):
            FaultEvent(
                at_s=1.0, target="store", fault=FaultSpec.parse("stall:1"), clear_at_s=0.5
            )
        with pytest.raises(ValueError, match="target"):
            FaultEvent(at_s=0.0, target="shard:0/worker:1", fault=FaultSpec.parse("kill"))
        with pytest.raises(ValueError, match="permanent"):
            FaultEvent(
                at_s=0.0,
                target="shard:0/replica:1",
                fault=FaultSpec.parse("kill"),
                clear_at_s=1.0,
            )

    def test_schedule_rejects_overlapping_windows_per_target(self):
        first = FaultEvent(
            at_s=0.0, target="shard:0", fault=FaultSpec.parse("stall:1"), clear_at_s=1.0
        )
        overlapping = FaultEvent(
            at_s=0.5, target="shard:0", fault=FaultSpec.parse("error:0.5"), clear_at_s=2.0
        )
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule([first, overlapping])
        # Same windows on different targets are fine.
        FaultSchedule(
            [
                first,
                FaultEvent(
                    at_s=0.5,
                    target="shard:1",
                    fault=FaultSpec.parse("error:0.5"),
                    clear_at_s=2.0,
                ),
            ]
        )

    def test_kill_targets_lists_replica_kills_only(self):
        schedule = FaultSchedule(
            [
                FaultEvent(at_s=0.2, target="shard:1/replica:0", fault=FaultSpec.parse("kill")),
                FaultEvent(at_s=0.1, target="store", fault=FaultSpec.parse("kill")),
            ]
        )
        assert schedule.kill_targets() == [(0.2, (1, 0))]

    @pytest.mark.parametrize(
        "target, replica, edge",
        [
            pytest.param(target, replica, edge, id=target)
            for target, replica, edge in (
                ("shard:0/replica:1", (0, 1), None),
                ("shard:12/replica:3", (12, 3), None),
                ("edge:4", None, 4),
                ("shard:2", None, None),
                ("store", None, None),
                ("shard:0/replica:1/extra", None, None),
                ("edge:-1", None, None),
            )
        ],
    )
    def test_target_parsers_read_only_their_own_form(self, target, replica, edge):
        assert parse_replica_target(target) == replica
        assert parse_edge_target(target) == edge

    def test_event_matches_its_target_and_every_point_beneath_it(self):
        shard = FaultEvent(at_s=0.0, target="shard:1", fault=FaultSpec.parse("error:0.5"))
        assert shard.matches("shard:1")
        assert shard.matches("shard:1/replica:0")
        # A prefix only counts at a path boundary: shard:1 is not shard:10.
        assert not shard.matches("shard:10/replica:0")
        assert not shard.matches("shard:0/replica:1")
        replica = FaultEvent(at_s=0.0, target="shard:1/replica:0", fault=FaultSpec.parse("kill"))
        assert replica.matches("shard:1/replica:0")
        assert not replica.matches("shard:1")
        assert not replica.matches("shard:1/replica:1")


# -------------------------------------------------------------- FaultInjector


def _fire_now(injector, point):
    """Run ``injector.fire(point)`` to completion without an event loop: a
    ``kill``/``error`` fault (or none) never suspends, it raises or returns."""
    coroutine = injector.fire(point)
    try:
        coroutine.send(None)
    except StopIteration:
        return
    coroutine.close()
    raise AssertionError(f"fault point {point!r} suspended")


class TestFaultInjector:
    def _injector(self, events, seed=0):
        clock = VirtualClock()
        injector = FaultInjector(FaultSchedule(events), clock=clock, seed=seed)
        injector.start()
        return injector, clock

    def test_lazy_timeline_activates_and_clears_on_the_clock(self):
        injector, clock = self._injector(
            [
                FaultEvent(
                    at_s=0.5,
                    target="shard:0",
                    fault=FaultSpec.parse("error:1.0"),
                    clear_at_s=1.0,
                )
            ]
        )
        _fire_now(injector, "shard:0/replica:0")  # before at_s: inert
        clock.advance(0.6)
        with pytest.raises(InjectedFaultError, match="error"):
            _fire_now(injector, "shard:0/replica:0")
        _fire_now(injector, "shard:1/replica:0")  # other shard: no match
        clock.advance(0.5)  # past clear_at_s
        _fire_now(injector, "shard:0/replica:0")
        assert injector.injected["error"] == 1

    def test_window_fully_passed_never_activates(self):
        injector, clock = self._injector(
            [
                FaultEvent(
                    at_s=0.1,
                    target="store",
                    fault=FaultSpec.parse("error:1.0"),
                    clear_at_s=0.2,
                )
            ]
        )
        clock.advance(5.0)  # the whole window passed while nothing fired
        _fire_now(injector, "store")
        assert injector.injected["error"] == 0

    def test_due_kills_are_consumed_exactly_once(self):
        injector, clock = self._injector(
            [FaultEvent(at_s=0.3, target="shard:0/replica:1", fault=FaultSpec.parse("kill"))]
        )
        assert injector.due_kills() == []
        clock.advance(0.4)
        assert injector.due_kills() == [(0, 1)]
        assert injector.due_kills() == []
        # The point itself still raises as defence in depth.
        with pytest.raises(InjectedFaultError, match="kill"):
            _fire_now(injector, "shard:0/replica:1")

    def test_stall_suspends_on_the_injector_clock(self):
        async def go():
            injector, clock = self._injector(
                [FaultEvent(at_s=0.0, target="frontend", fault=FaultSpec.parse("stall:0.5"))]
            )
            done = []

            async def fire():
                await injector.fire("frontend")
                done.append(clock.now())

            task = asyncio.ensure_future(fire())
            await asyncio.sleep(0)
            assert not done  # parked on the virtual clock
            await clock.run_for(0.6)
            await task
            assert done == [pytest.approx(0.5)]

        asyncio.run(go())

    def test_seeded_error_faults_inject_identically(self):
        def run(seed):
            injector, clock = self._injector(
                [FaultEvent(at_s=0.0, target="shard:0", fault=FaultSpec.parse("error:0.5"))],
                seed=seed,
            )
            clock.advance(0.1)
            outcomes = []
            for _ in range(40):
                try:
                    _fire_now(injector, "shard:0/replica:0")
                    outcomes.append(False)
                except InjectedFaultError:
                    outcomes.append(True)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)  # and the seed actually matters
        assert any(run(7)) and not all(run(7))  # rate 0.5 is a coin, not a constant

    def test_the_timeline_starts_at_start_not_at_construction(self):
        clock = VirtualClock()
        injector = FaultInjector(
            FaultSchedule([FaultEvent(at_s=0.0, target="store", fault=FaultSpec.parse("kill"))]),
            clock=clock,
        )
        clock.advance(3.0)
        assert injector.elapsed() == 0.0
        _fire_now(injector, "store")  # not started: nothing is active yet
        assert injector.active_for("store") == []
        injector.start()
        clock.advance(0.25)
        assert injector.elapsed() == pytest.approx(0.25)
        with pytest.raises(InjectedFaultError, match="kill"):
            _fire_now(injector, "store")
        assert injector.fired == 1 and injector.injected["kill"] == 1

    def test_slow_fault_delays_by_its_latency_within_the_jitter(self):
        async def go(jitter):
            spec = f"slow:0.2:{jitter}" if jitter else "slow:0.2"
            injector, clock = self._injector(
                [FaultEvent(at_s=0.0, target="shard:0", fault=FaultSpec.parse(spec))]
            )
            woke = []

            async def fire():
                await injector.fire("shard:0/replica:0")
                woke.append(clock.now())

            task = asyncio.ensure_future(fire())
            await asyncio.sleep(0)
            assert not woke
            await clock.run_for(1.0)
            await task
            assert injector.injected["slow"] == 1
            return woke[0]

        assert asyncio.run(go(0.0)) == pytest.approx(0.2)
        assert 0.1 - 1e-9 <= asyncio.run(go(0.1)) <= 0.3 + 1e-9


# ---------------------------------------------------------------- RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0)

    def test_backoff_grows_exponentially_and_caps(self):
        import random

        policy = RetryPolicy(
            max_attempts=5,
            base_backoff_s=0.1,
            multiplier=2.0,
            max_backoff_s=0.3,
            jitter=0.0,
        )
        rng = random.Random(0)
        waits = [policy.backoff_s(n, rng) for n in (1, 2, 3, 4)]
        assert waits == [0.1, 0.2, 0.3, 0.3]  # capped at max_backoff_s

    def test_jitter_only_shrinks_the_wait(self):
        import random

        policy = RetryPolicy(base_backoff_s=0.1, multiplier=1.0, jitter=0.5)
        rng = random.Random(3)
        for retry in range(1, 20):
            wait = policy.backoff_s(retry, rng)
            assert 0.05 <= wait <= 0.1

    def test_attempt_timeout_takes_the_tighter_bound(self):
        policy = RetryPolicy()
        assert policy.attempt_timeout_s(0.5, 0.2) == 0.2
        assert policy.attempt_timeout_s(0.1, 0.4) == 0.1
        assert policy.attempt_timeout_s(None, 0.4) == 0.4
        assert policy.attempt_timeout_s(0.5, None) == 0.5
        assert policy.attempt_timeout_s(None, None) is None


# ----------------------------------------------- probes on the virtual clock


class TestProbeTimingOnVirtualClock:
    def test_unhealthy_replica_becomes_probe_candidate_after_interval(self, runner):
        clock = VirtualClock()
        router = ShardedValidationService.from_runner(
            runner,
            1,
            ServiceConfig(enable_cache=False),
            replicas=2,
            probe_interval_s=0.25,
            clock=clock,
        )
        request = ServiceRequest(runner.dataset("factbench")[0], "dka", "gemma2:9b")
        mark_unhealthy(router, 0, 1)
        # Resting: the unhealthy replica stays at the tail as a last resort.
        assert router._replica_order(0, request) == [0, 1]
        assert router.health[0][1].probes == 0
        clock.advance(0.2)  # not yet due
        assert router._replica_order(0, request) == [0, 1]
        clock.advance(0.1)  # 0.3 s > probe_interval_s: probe due
        order = router._replica_order(0, request)
        assert order[0] == 1, "probe-due replica should head the pick order"
        assert router.health[0][1].probes == 1
        assert router.health[0][1].probing

    def test_a_canary_abandoned_on_an_exhausted_deadline_is_probed_again(self, runner):
        class TickingClock(VirtualClock):
            """Moves 4 ms every time it is read, as a real clock does
            between the balancer's pick and the attempt's deadline check."""

            def now(self):
                reading = super().now()
                self.advance(0.004)
                return reading

        clock = TickingClock()
        router = ShardedValidationService.from_runner(
            runner,
            1,
            ServiceConfig(enable_cache=False),
            replicas=2,
            probe_interval_s=0.25,
            retry_policy=RetryPolicy(max_attempts=1, deadline_s=0.006),
            clock=clock,
        )
        request = ServiceRequest(runner.dataset("factbench")[0], "dka", "gemma2:9b")

        async def go():
            async with router:
                mark_unhealthy(router, 0, 1)
                clock.advance(1.0)
                response = await router.submit(request)
                health = router.health[0][1]
                released = (health.probing, health.probes)
                # Once due again, the replica is probed again.
                clock.advance(10.0)
                return response, released, router._replica_order(0, request), health

        response, released, order, health = asyncio.run(go())
        assert "request deadline exhausted before trying shard 0 replica 1" in (
            response.error
        )
        assert released == (False, 1), "the untried canary must be released"
        assert order == [1, 0]
        assert health.probing and health.probes == 2

    def test_replica_table_reports_each_replica_health(self, runner):
        router = ShardedValidationService.from_runner(
            runner, 1, ServiceConfig(enable_cache=False), replicas=2, clock=VirtualClock()
        )
        mark_unhealthy(router, 0, 1)
        title, rule, header, *rows = router.metrics.format_replica_table().splitlines()
        assert title == "Per-replica health" and rule == "-" * len(title)
        assert header.split()[:3] == ["shard", "replica", "state"]
        assert [row.split()[:3] for row in rows] == [
            ["0", "0", "healthy"],
            ["0", "1", "unhealthy"],
        ]


def _reference_replica_order(self, shard_index, request):
    """The balancer's pick order as it was computed with a per-read sort:
    the body of ``ShardedValidationService._replica_order`` before the
    selector stopped classifying fully healthy shards, kept verbatim for a
    cacheless group, plus the home rule for a caching one: rotate from the
    request's home replica (the crc32 of its dataset, fact id, method and
    model) and sort by depth only when the first healthy replica is at
    least one full batch deeper than the shallowest."""
    group = self.groups[shard_index]
    healths = self.health[shard_index]
    if len(group) == 1:
        return [0]
    caching = group[0].cache is not None
    if caching:
        fact = request.fact
        coordinate = f"{fact.dataset}\0{fact.fact_id}\0{request.method}\0{request.model}"
        offset = zlib.crc32(coordinate.encode()) % len(group)
    else:
        offset = self._rr[shard_index]
        self._rr[shard_index] = (offset + 1) % len(group)
    now = self.clock.now()
    healthy = []
    due = []
    resting = []
    for replica_index, health in enumerate(healths):
        if group[replica_index]._closed:
            continue
        if health.healthy:
            healthy.append(replica_index)
        elif (
            not health.probing
            and health.marked_unhealthy_at is not None
            and now - health.marked_unhealthy_at >= self.probe_interval_s
        ):
            due.append(replica_index)
        else:
            resting.append(replica_index)

    def by_depth(index):
        return (group[index].pending, (index - offset) % len(group))

    if caching:
        healthy.sort(key=lambda index: (index - offset) % len(group))
        shallowest = min((group[index].pending for index in healthy), default=0)
        if healthy and group[healthy[0]].pending - shallowest >= group[0].config.max_batch_size:
            healthy.sort(key=by_depth)
    else:
        healthy.sort(key=by_depth)
    order = []
    if due:
        probe = min(due, key=lambda index: healths[index].marked_unhealthy_at)
        probe_health = healths[probe]
        probe_health.probing = True
        probe_health.probes += 1
        order.append(probe)
        resting.extend(index for index in due if index != probe)
    order.extend(healthy)
    order.extend(sorted(resting))
    return order


class _StubReplica:
    """What the balancer reads of a replica service, and what start() calls."""

    def __init__(self, pending: int, stopped: bool, config: ServiceConfig) -> None:
        self.pending = pending
        self._closed = stopped
        self.config = config
        self.cache = {} if config.enable_cache else None

    async def start(self) -> None:
        self._closed = False


def _request(fact_id: str, method: str, model: str) -> ServiceRequest:
    triple = Triple(f"{fact_id}-subject", "p", "o")
    fact = LabeledFact(fact_id, triple, True, "factbench", "subject", "o", "p")
    return ServiceRequest(fact, method, model)


_replica_state = st.fixed_dictionaries(
    {
        "healthy": st.booleans(),
        "stopped": st.booleans(),
        "probing": st.booleans(),
        "marked_at": st.none() | st.floats(0.0, 2.0),
        "pending": st.integers(0, 3),
    }
)

_requests = st.builds(
    _request,
    st.sampled_from([f"factbench-{index:06d}" for index in range(8)]),
    st.sampled_from(["dka", "giv-z", "rag"]),
    st.sampled_from(["gemma2:9b", "qwen2.5:7b"]),
)


class TestBalancerOrder:
    """The selector's order and side effects equal the sorting reference's,
    for cacheless (round-robin) and caching (home replica) groups."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(1, 4),
        shards=st.integers(1, 2),
        now=st.floats(0.0, 2.0),
        config=st.builds(
            ServiceConfig, max_batch_size=st.integers(1, 4), enable_cache=st.booleans()
        ),
    )
    def test_order_and_health_match_the_sorting_reference(
        self, data, size, shards, now, config
    ):
        clock = VirtualClock()
        clock.advance(now)
        groups = []
        for _ in range(shards):
            states = data.draw(st.lists(_replica_state, min_size=size, max_size=size))
            groups.append(states)
        router = ShardedValidationService(
            [
                [_StubReplica(state["pending"], state["stopped"], config) for state in states]
                for states in groups
            ],
            probe_interval_s=0.25,
            clock=clock,
        )
        for shard_index, states in enumerate(groups):
            for replica_index, state in enumerate(states):
                health = router.health[shard_index][replica_index]
                health.healthy = state["healthy"]
                health.probing = state["probing"]
                health.marked_unhealthy_at = state["marked_at"]
                if state["stopped"]:
                    router._dead.add((shard_index, replica_index))
            router._rr[shard_index] = data.draw(st.integers(0, size - 1))
        steps = data.draw(
            st.lists(
                st.sampled_from(["order", "order", "advance", "pending", "start"]),
                min_size=1,
                max_size=12,
            )
        )
        for step in steps:
            if step == "advance":
                clock.advance(data.draw(st.floats(0.0, 0.5)))
            elif step == "pending":
                for group in router.groups:
                    for replica in group:
                        replica.pending = data.draw(st.integers(0, 3))
            elif step == "start":
                asyncio.run(router.start())
            for shard_index in range(shards):
                request = data.draw(_requests)
                rr = list(router._rr)
                healths = [replace(health) for health in router.health[shard_index]]
                reference = _reference_replica_order(router, shard_index, request)
                expected = (list(router._rr), list(router.health[shard_index]))
                router._rr[:] = rr
                router.health[shard_index][:] = healths
                order = router._replica_order(shard_index, request)
                assert isinstance(order, list)
                assert order == reference
                assert (router._rr, router.health[shard_index]) == expected


# ------------------------------------------------- retry/degrade integration


@pytest.fixture(scope="module")
def chaos_runner():
    from repro.benchmark import BenchmarkRunner, ExperimentConfig

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


class TestGracefulDegradation:
    def _requests(self, runner, count=4):
        dataset = runner.dataset("factbench")
        return [ServiceRequest(fact, "dka", "gemma2:9b") for fact in dataset[:count]]

    def _outage(self):
        return FaultSchedule(
            [FaultEvent(at_s=0.0, target="shard:0", fault=FaultSpec.parse("error:1.0"))]
        )

    def test_budget_exhaustion_serves_stale_epoch_tagged_degraded(self, chaos_runner):
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.001, max_backoff_s=0.005)
        requests = self._requests(chaos_runner)

        async def go():
            router = ShardedValidationService.from_runner(
                chaos_runner,
                1,
                ServiceConfig(enable_cache=False),
                replicas=2,
                retry_policy=policy,
            )
            async with router:
                warm = [await router.submit(request) for request in requests]
                injector = FaultInjector(self._outage(), clock=router.clock)
                router.set_fault_injection(injector)
                injector.start()
                dark = [await router.submit(request) for request in requests]
                return warm, dark, router.metrics.snapshot()

        warm, dark, snapshot = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in warm)
        for before, after in zip(warm, dark):
            assert after.outcome is RequestOutcome.DEGRADED
            assert after.degraded and not after.failed
            assert after.stale_epoch is not None
            assert after.result == before.result  # the stale verdict is last-known-good
            assert after.retries == policy.max_attempts - 1
        assert snapshot.degraded == len(requests)
        assert snapshot.budget_exhausted == len(requests)
        assert snapshot.retries == len(requests) * (policy.max_attempts - 1)

    def test_without_retry_policy_total_outage_still_fails_explicitly(self, chaos_runner):
        requests = self._requests(chaos_runner, count=2)

        async def go():
            router = ShardedValidationService.from_runner(
                chaos_runner, 1, ServiceConfig(enable_cache=False), replicas=2
            )
            async with router:
                warm = [await router.submit(request) for request in requests]
                injector = FaultInjector(self._outage(), clock=router.clock)
                router.set_fault_injection(injector)
                injector.start()
                dark = [await router.submit(request) for request in requests]
                return warm, dark

        warm, dark = asyncio.run(go())
        assert all(r.outcome is RequestOutcome.COMPLETED for r in warm)
        # PR 5 semantics preserved: no policy means no retry loop and no
        # degradation — a total outage surfaces as FAILED with the cause.
        for response in dark:
            assert response.outcome is RequestOutcome.FAILED
            assert "injected error fault" in (response.error or "")

    def test_cold_cache_budget_exhaustion_fails_rather_than_lies(self, chaos_runner):
        policy = RetryPolicy(max_attempts=2, base_backoff_s=0.001)
        requests = self._requests(chaos_runner, count=2)

        async def go():
            router = ShardedValidationService.from_runner(
                chaos_runner,
                1,
                ServiceConfig(enable_cache=False),
                replicas=2,
                retry_policy=policy,
            )
            async with router:
                injector = FaultInjector(self._outage(), clock=router.clock)
                router.set_fault_injection(injector)
                injector.start()
                return [await router.submit(request) for request in requests]

        for response in asyncio.run(go()):
            # Nothing was ever served for these coordinates, so there is no
            # last known good verdict to degrade to.
            assert response.outcome is RequestOutcome.FAILED
            assert response.retries == policy.max_attempts - 1


# --------------------------------------------------------- scenario validation


def _minimal_scenario(**overrides) -> dict:
    scenario = {
        "name": "unit",
        "seed": 3,
        "dataset": "factbench",
        "methods": ["dka"],
        "models": ["gemma2:9b"],
        "requests": 8,
        "concurrency": 2,
        "matrix": {
            "topology": [{"shards": 1, "replicas": 2}],
            "traffic": [{"shape": "steady"}],
            "faults": [
                {
                    "name": "kill",
                    "schedule": [
                        {"at_s": 0.0, "target": "shard:0/replica:1", "fault": "kill"}
                    ],
                }
            ],
        },
    }
    scenario.update(overrides)
    return scenario


def _geo_scenario() -> dict:
    """``_minimal_scenario`` with every optional block filled in and an edge."""
    scenario = _minimal_scenario(
        store=True,
        service={"request_timeout_s": 0.25, "probe_interval_s": 0.02, "time_scale": 0.0},
        retry={"max_attempts": 2, "base_backoff_s": 0.001},
        geo={
            "staleness_bound_epochs": 4,
            "drain_interval_s": 0.01,
            "edge_lag_s": {"edge-0": 0.05},
            "drain_seed": 1,
            "regions": ["edge-0", None],
        },
        invariants={
            "max_failed": 0,
            "geo_converged": True,
            "edge_staleness_bound_epochs": 4,
            "forbid_alerts": {"none": ["*"]},
        },
    )
    scenario["matrix"]["topology"][0]["edges"] = 1
    scenario["matrix"]["traffic"][0]["write_fraction"] = 0.25
    return scenario


def _floats(node):
    """Every float reachable from a loaded scenario."""
    if isinstance(node, float):
        yield node
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _floats(item)
    elif isinstance(node, dict):
        yield from _floats(list(node.items()))
    elif hasattr(node, "__dict__"):
        yield from _floats(vars(node))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _paths(node, prefix=()):
    """The path of every value nested anywhere inside a dict/list tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _NON_FINITE
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


class TestScenarioValidation:
    def test_minimal_scenario_loads(self):
        scenario = load_scenario(_minimal_scenario())
        assert scenario.cell_count == 2  # reference + one fault case

    def test_yaml_file_roundtrip_and_malformed_yaml(self, tmp_path):
        import yaml

        path = tmp_path / "ok.yaml"
        path.write_text(yaml.safe_dump(_minimal_scenario()), encoding="utf-8")
        assert load_scenario(path).name == "unit"

        broken = tmp_path / "broken.yaml"
        broken.write_text("matrix: [unclosed\n  - {shards: 1", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(broken)
        with pytest.raises(ScenarioError, match="does not exist"):
            load_scenario(tmp_path / "missing.yaml")
        scalar = tmp_path / "scalar.yaml"
        scalar.write_text("just a string", encoding="utf-8")
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario(scalar)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s.update(bogus=1), "unknown scenario keys"),
            (lambda s: s.update(requests=0), "requests"),
            (lambda s: s.update(methods=[]), "at least one method"),
            (lambda s: s.update(retry={"max_attempts": 0}), "invalid retry policy"),
            (lambda s: s.update(retry={"bogus": 1}), "invalid retry policy"),
            (lambda s: s.update(service={"bogus": 1}), "unknown service keys"),
            (lambda s: s.update(invariants={"max_failed": -1}), "max_failed"),
            (lambda s: s.pop("matrix"), "matrix"),
            (lambda s: s["matrix"].update(topology=[]), "matrix is empty"),
            (lambda s: s["matrix"].update(traffic=[]), "matrix is empty"),
            (lambda s: s["matrix"].update(faults=[]), "matrix is empty"),
            (
                lambda s: s["matrix"].update(traffic=[{"shape": "square_wave"}]),
                "unknown traffic shape",
            ),
            (
                lambda s: s["matrix"].update(
                    traffic=[{"shape": "steady"}, {"shape": "steady"}]
                ),
                "repeats a shape",
            ),
            (
                lambda s: s["matrix"]["faults"][0]["schedule"].__setitem__(
                    0, {"at_s": -1.0, "target": "store", "fault": "kill"}
                ),
                "at_s",
            ),
            (
                lambda s: s["matrix"]["faults"][0]["schedule"].__setitem__(
                    0, {"at_s": 0.0, "target": "rack:9", "fault": "kill"}
                ),
                "unknown fault target",
            ),
            (
                # No code fires it, so the grammar no longer has it: the
                # schedule would run fault-free and pass vacuously.
                lambda s: s["matrix"]["faults"][0]["schedule"].__setitem__(
                    0, {"at_s": 0.0, "target": "store/ship", "fault": "error:1.0"}
                ),
                "unknown fault target 'store/ship'",
            ),
            (
                lambda s: s["matrix"]["faults"][0]["schedule"].__setitem__(
                    0, {"at_s": 0.0, "target": "store", "fault": "melt"}
                ),
                "unknown fault kind",
            ),
            (
                lambda s: s["matrix"]["faults"][0]["schedule"].extend(
                    [
                        {"at_s": 0.0, "target": "store", "fault": "stall:1", "clear_at_s": 2.0},
                        {"at_s": 1.0, "target": "store", "fault": "stall:1", "clear_at_s": 3.0},
                    ]
                ),
                "overlapping",
            ),
            (
                lambda s: s["matrix"]["faults"].append(s["matrix"]["faults"][0]),
                "repeats a name",
            ),
            (
                lambda s: s["matrix"].update(
                    traffic=[{"shape": "steady", "write_fraction": 0.1}]
                ),
                "'store' is false",
            ),
            # Values of the wrong type or out of range, each caught at load
            # by its block's declaration and named by key (nothing is coerced).
            (lambda s: s.update(service={"max_batch_size": 0}), "max_batch_size"),
            (lambda s: s.update(service={"request_timeout_s": -1}), "request_timeout_s"),
            (lambda s: s.update(service={"time_scale": "x"}), "time_scale"),
            (lambda s: s.update(geo={"drain_interval_s": "x"}), "drain_interval_s"),
            (lambda s: s.update(models=5), "models"),
            (lambda s: s.update(store="false"), "store"),
            (lambda s: s.update(invariants={"verdict_parity": "no"}), "verdict_parity"),
            (lambda s: s.update(methods="dka"), "methods"),
            (lambda s: s.update(requests=True), "requests"),
            (lambda s: s["matrix"]["topology"][0].update(shards=2.7), "shards"),
            (lambda s: s["matrix"]["topology"][0].update(replicas="2"), "replicas"),
            # NaN and infinity pass every range rule, so they are refused first.
            (
                lambda s: s["matrix"]["faults"][0]["schedule"][0].update(at_s=math.nan),
                r"schedule\[0\]\.at_s must be finite, got nan",
            ),
            (
                lambda s: s.update(retry={"base_backoff_s": math.nan}),
                "base_backoff_s must be finite",
            ),
            (
                lambda s: s.update(service={"batch_overhead_s": math.nan}),
                "batch_overhead_s must be finite",
            ),
            (lambda s: s.update(service={"time_scale": math.inf}), "time_scale must be finite"),
            (
                lambda s: s.update(service={"probe_interval_s": math.inf}),
                "probe_interval_s must be finite",
            ),
            (
                lambda s: s["matrix"]["faults"][0]["schedule"][0].update(fault="slow:inf"),
                "parameters must be finite",
            ),
            (
                lambda s: s["matrix"]["faults"][0]["schedule"][0].update(fault="stall:nan"),
                "parameters must be finite",
            ),
        ],
    )
    def test_malformed_scenarios_raise_scenario_error(self, mutate, message):
        scenario = _minimal_scenario()
        mutate(scenario)
        with pytest.raises(ScenarioError, match=message):
            load_scenario(scenario)

    def test_fault_targets_checked_against_every_topology(self):
        scenario = _minimal_scenario()
        scenario["matrix"]["faults"][0]["schedule"][0]["target"] = "shard:3/replica:0"
        with pytest.raises(ScenarioError, match="only 1 shard"):
            load_scenario(scenario)
        scenario = _minimal_scenario()
        scenario["matrix"]["faults"][0]["schedule"][0]["target"] = "shard:0/replica:5"
        with pytest.raises(ScenarioError, match="only 2 replica"):
            load_scenario(scenario)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_load_scenario_is_total(self, data):
        """Whatever value sits at whatever key, loading ends in a
        ``Scenario`` or a ``ScenarioError`` — never in a bare
        ``TypeError``/``ValueError`` the CLI would print as a traceback —
        and a ``Scenario`` holds no NaN or infinity: either one passes every
        range rule (a kill at ``at_s: .nan`` never fires)."""
        from repro.chaos.scenario import Scenario

        scenario = data.draw(st.sampled_from([_minimal_scenario, _geo_scenario]))()
        path = data.draw(st.sampled_from(list(_paths(scenario))))
        _at(scenario, path[:-1])[path[-1]] = data.draw(_JSONISH)
        try:
            loaded = load_scenario(scenario)
        except ScenarioError:
            return
        assert isinstance(loaded, Scenario)
        assert all(map(math.isfinite, _floats(loaded)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_no_numeric_key_admits_a_non_finite_value(self, value):
        """Exhaustive twin of the totality property for the one value class
        every range rule lets through."""
        reference = _geo_scenario()
        numeric = [
            path for path in _paths(reference) if type(_at(reference, path)) in (int, float)
        ]
        assert len(numeric) >= 15
        for path in numeric:
            scenario = _geo_scenario()
            _at(scenario, path[:-1])[path[-1]] = value
            with pytest.raises(ScenarioError):
                load_scenario(scenario)

    @pytest.mark.parametrize(
        "block",
        [
            ServiceConfig(max_batch_size=2, enable_cache=False, time_scale=0.5),
            RetryPolicy(max_attempts=5, jitter=0.0, deadline_s=1.5),
            Topology(shards=3, replicas=2, edges=1),
            TrafficSpec(shape="zipf", zipf_s=1.4, write_fraction=0.25),
            Invariants(
                max_failed=2,
                verdict_parity=False,
                staleness_bound_epochs=3,
                expect_alerts=(("kill", ("fleet-availability:page",)),),
                geo_converged=True,
            ),
            GeoOptions(
                staleness_bound_epochs=2,
                drain_interval_s=0.5,
                edge_lag_s={"edge-0": 0.1},
                drain_seed=9,
                regions=("edge-0", None),
            ),
        ],
        ids=lambda block: type(block).__name__,
    )
    def test_a_block_is_built_from_its_declaration_alone(self, block):
        """No key, default or type lives outside the dataclass: an empty
        block is the dataclass's defaults and ``asdict`` round-trips."""
        import dataclasses

        from repro.chaos.scenario import _build

        cls = type(block)
        assert _build(cls, {}, "block") == cls()
        assert _build(cls, dataclasses.asdict(block), "block") == block


# ----------------------------------------------------------- traffic shapes


class TestTrafficShapes:
    def _key(self, item):
        if isinstance(item, IngestRequest):
            return ("write", len(item.mutations))
        return (item.fact.fact_id, item.method, item.model)

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from(["steady", "diurnal", "flash_crowd", "zipf"]),
        seed=st.integers(min_value=0, max_value=2**31),
        requests=st.integers(min_value=1, max_value=60),
    )
    def test_same_spec_and_seed_yield_identical_schedules(
        self, factbench_small, shape, seed, requests
    ):
        spec = TrafficSpec(shape=shape, requests=requests, seed=seed)
        first = build_traffic([factbench_small], ["dka"], ["gemma2:9b"], spec)
        second = build_traffic([factbench_small], ["dka"], ["gemma2:9b"], spec)
        assert len(first) == requests
        assert [self._key(item) for item in first] == [self._key(item) for item in second]

    def test_flash_crowd_concentrates_the_burst_window(self, factbench_small):
        spec = TrafficSpec(
            shape="flash_crowd",
            requests=400,
            seed=5,
            hot_fraction=0.05,
            burst_start=0.5,
            burst_duration=0.25,
            burst_intensity=1.0,
        )
        schedule = build_traffic([factbench_small], ["dka"], ["gemma2:9b"], spec)
        burst = schedule[200:300]
        hot_ids = {item.fact.fact_id for item in burst}
        background_ids = {item.fact.fact_id for item in schedule[:200]}
        # The burst hammers a hot set far smaller than the background spread.
        assert len(hot_ids) < len(background_ids) / 2

    def test_zipf_skews_toward_the_head(self, factbench_small):
        from collections import Counter

        spec = TrafficSpec(shape="zipf", requests=600, seed=9, zipf_s=1.5)
        schedule = build_traffic([factbench_small], ["dka"], ["gemma2:9b"], spec)
        counts = Counter(item.fact.fact_id for item in schedule)
        top = counts.most_common(1)[0][1]
        assert top >= 600 / len(counts) * 2, "zipf head should be well above uniform"

    def test_write_mix_splices_the_declared_fraction(self, factbench_small):
        from repro.retrieval.corpus import Document
        from repro.store import Mutation

        spec = TrafficSpec(shape="steady", requests=100, seed=1, write_fraction=0.1)

        def factory(index):
            return [
                Mutation.add_document(
                    Document(
                        doc_id=f"w{index}",
                        url=f"https://x/{index}",
                        title="t",
                        text="evidence",
                        source="x",
                    )
                )
            ]

        schedule = build_traffic(
            [factbench_small], ["dka"], ["gemma2:9b"], spec, ingest_factory=factory
        )
        writes = [item for item in schedule if isinstance(item, IngestRequest)]
        assert len(writes) == 10
        assert len(schedule) == 110
        with pytest.raises(ValueError, match="ingest_factory"):
            build_traffic([factbench_small], ["dka"], ["gemma2:9b"], spec)


# ------------------------------------------------------- scenario runner smoke


class TestScenarioRunnerSmoke:
    def test_kill_scenario_passes_invariants_and_is_deterministic(self, runner):
        scenario = load_scenario(
            _minimal_scenario(
                requests=24,
                concurrency=4,
                retry={"max_attempts": 2, "base_backoff_s": 0.001},
                service={"request_timeout_s": 0.25, "probe_interval_s": 0.02},
            )
        )
        first = ScenarioRunner(runner, scenario).run()
        second = ScenarioRunner(runner, scenario).run()
        assert first.ok, f"invariant failures: {first.failed_checks()}"
        assert len(first.cells) == 2
        assert first.csv(include_timings=False) == second.csv(include_timings=False)
        # The full CSV adds the timing columns on top of the deterministic ones.
        header = first.csv(include_timings=True).splitlines()[0]
        for column in ("verdict_digest", "p99_ms", "retries", "degraded"):
            assert column in header
        markdown = first.markdown()
        assert "all invariants passed" in markdown
        assert "s1xr2/steady/kill" in markdown
