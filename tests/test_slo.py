"""Telemetry consumption: time series, SLOs, burn-rate alerts, dashboard.

Covers the PR 8 tentpole layer end to end:

* :class:`TimeSeries` — bounded raw rings, open/closed range queries,
  and the reset-aware :meth:`~TimeSeries.increase` the SLO math builds on;
* :class:`MetricsScraper` — lazy series materialisation, the
  ``max_series`` cardinality bound, label-subset matching, and
  deterministic sampling under a :class:`VirtualClock`;
* the SLI family — availability from counters, time-based health from
  gauges — plus exact error budgets and
  the multi-window multi-burn-rate trip condition;
* :class:`AlertManager` — pending→firing→resolved lifecycles, ``ALERT_FOR_S``
  hold-down, and the structured events each transition emits;
* :func:`render_dashboard` — byte-identical frames under seeded reruns;
* the chaos scenario integration — ``expect_alerts`` / ``forbid_alerts``
  invariants, the kill-cell-pages / reference-stays-silent acceptance
  journey, and the run-table rule that alert columns are timing-view
  only so the deterministic CSV stays byte-identical;
* the ``obs top`` / ``obs slo`` CLI modes and the frontend ``slo`` verb.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.chaos import ScenarioError, ScenarioRunner, VirtualClock, load_scenario
from repro.chaos.scenario import Invariants, RunTable
from repro.obs import (
    DEFAULT_BURN_RULES,
    AlertManager,
    AvailabilitySLI,
    BurnRule,
    EventLog,
    HealthSLI,
    MetricsRegistry,
    MetricsScraper,
    SLO,
    SLOMonitor,
    TimeSeries,
    WindowSample,
    budget_bar,
    render_dashboard,
    series_key,
    sparkline,
)
from repro.obs import alerts as alerts_module
from repro.obs import dashboard as dashboard_module
from repro.obs import timeseries as timeseries_module
from support import last_value, series_keys


# ----------------------------------------------------------------- time series


class TestTimeSeries:
    def _series(self):
        return TimeSeries("m_total", (), "counter")

    def test_series_key_formats_labels_deterministically(self):
        assert series_key("up", {}) == "up"
        assert series_key("up", {"shard": "0", "replica": "1"}) == (
            'up{shard="0",replica="1"}'
        )

    def test_capacity_bounds_the_raw_ring(self, monkeypatch):
        monkeypatch.setattr(timeseries_module, "SERIES_CAPACITY", 4)
        series = self._series()
        for second in range(10):
            series.observe(float(second), float(second))
        assert len(series) == 4
        assert [point.ts_s for point in series.points()] == [6.0, 7.0, 8.0, 9.0]

    def test_window_range_is_open_closed(self):
        series = self._series()
        for second in (1.0, 2.0, 3.0):
            series.observe(second, second * 10)
        assert series.increase(1.0, 3.0) == 20.0  # the points at 2 and 3
        assert series.increase(0.0, 2.0) == 20.0  # born at 1 with 10, then +10
        assert series.points()[-1].value == 30.0

    def test_increase_sums_positive_deltas(self):
        series = self._series()
        for ts, value in ((0.0, 0.0), (1.0, 4.0), (2.0, 10.0)):
            series.observe(ts, value)
        assert series.increase(0.0, 2.0) == 10.0
        assert series.increase(1.0, 2.0) == 6.0
        assert series.increase(5.0, 9.0) == 0.0

    def test_increase_is_reset_aware(self):
        # A worker restart resets its registry: 8 -> 3 must read as "+3
        # since the restart", never as a negative rate.
        series = self._series()
        for ts, value in ((0.0, 0.0), (1.0, 8.0), (2.0, 3.0), (3.0, 5.0)):
            series.observe(ts, value)
        assert series.increase(0.0, 3.0) == 8.0 + 3.0 + 2.0

    def test_series_born_in_window_contributes_its_first_value(self):
        series = self._series()
        series.observe(5.0, 7.0)
        assert series.increase(0.0, 10.0) == 7.0


# -------------------------------------------------------------------- scraper


class TestMetricsScraper:
    def _registry(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "Requests.", ("outcome",))
        requests.labels(outcome="completed").inc(5)
        requests.labels(outcome="error").inc(1)
        registry.gauge("depth", "Depth.").set(2)
        return registry

    def test_scrape_materialises_series_per_sample_line(self):
        clock = VirtualClock()
        scraper = MetricsScraper(self._registry(), clock=clock)
        recorded = scraper.scrape_once()
        assert recorded == 3
        assert scraper.scrapes == 1
        assert series_keys(scraper) == [
            "depth",
            'requests_total{outcome="completed"}',
            'requests_total{outcome="error"}',
        ]
        assert scraper.get("depth").kind == "gauge"

    def test_histogram_scrapes_bucket_sum_and_count_series(self):
        registry = MetricsRegistry()
        latency = registry.histogram("lat_seconds", "L.")
        latency.observe(0.004)
        scraper = MetricsScraper(registry, clock=VirtualClock())
        scraper.scrape_once()
        names = {series.name for key in series_keys(scraper) for series in [scraper.get(key)]}
        assert names == {"lat_seconds_bucket", "lat_seconds_sum", "lat_seconds_count"}
        under = scraper.match("lat_seconds_bucket", {"le": "0.01"})
        assert len(under) == 1 and under[0].points()[-1].value == 1.0

    def test_max_series_bound_counts_drops_instead_of_growing(self, monkeypatch):
        monkeypatch.setattr(timeseries_module, "MAX_SERIES", 4)
        registry = MetricsRegistry()
        fanout = registry.counter("fan_total", "F.", ("idx",))
        for index in range(6):
            fanout.labels(idx=str(index)).inc()
        scraper = MetricsScraper(registry, clock=VirtualClock())
        scraper.scrape_once()
        assert len(scraper) == 4
        assert scraper.dropped_series == 2
        scraper.scrape_once()  # known series keep recording, drops keep counting
        assert len(scraper) == 4
        assert scraper.dropped_series == 4

    def test_match_is_a_label_subset_selector(self):
        registry = MetricsRegistry()
        served = registry.counter("served_total", "S.")
        served.inc(3)
        scraper = MetricsScraper(
            lambda: registry.collect({"shard": "0", "replica": "1"}),
            clock=VirtualClock(),
        )
        scraper.scrape_once()
        assert len(scraper.match("served_total")) == 1
        assert len(scraper.match("served_total", {"shard": "0"})) == 1
        assert scraper.match("served_total", {"shard": "9"}) == []
        assert last_value(scraper, "served_total") == 3.0

    def test_sum_increase_spans_replicas_and_respects_windows(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("served_total", "S.").inc(1)
        b.counter("served_total", "S.").inc(2)
        clock = VirtualClock()
        scraper = MetricsScraper(
            lambda: a.collect({"replica": "0"}) + b.collect({"replica": "1"}),
            clock=clock,
        )
        scraper.scrape_once()
        clock.advance(1.0)
        a.counter("served_total", "S.").inc(4)
        scraper.scrape_once()
        assert scraper.sum_increase("served_total", 0.0, 1.0) == 4.0
        assert scraper.sum_increase("served_total", -1.0, 1.0) == 7.0

    def test_seeded_scrapes_are_deterministic(self):
        def run():
            clock = VirtualClock()
            scraper = MetricsScraper(self._registry(), clock=clock, interval_s=0.5)
            for _ in range(4):
                scraper.scrape_once()
                clock.advance(0.5)
            return [
                (key, [(p.ts_s, p.value) for p in scraper.get(key).points()])
                for key in series_keys(scraper)
            ]

        assert run() == run()

    def test_validation(self):
        with pytest.raises(ValueError, match="interval_s"):
            MetricsScraper(MetricsRegistry(), interval_s=0.0)


# ------------------------------------------------------------------------ SLOs


def _scraped(registry, clock=None):
    scraper = MetricsScraper(registry, clock=clock or VirtualClock())
    scraper.scrape_once()
    return scraper


class TestSLIs:
    def test_availability_sli_reads_counter_increases(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "R.", ("outcome",))
        requests.labels(outcome="completed").inc(97)
        requests.labels(outcome="error").inc(1)
        registry.counter("failures_total", "F.").inc(3)
        sli = AvailabilitySLI.of(
            good={"requests_total": {"outcome": "completed"}},
            bad={"failures_total": {}},
        )
        window = sli.evaluate(_scraped(registry), -1.0, 1.0)
        assert (window.good, window.bad) == (97.0, 3.0)
        assert window.bad_ratio == 0.03

    def test_health_sli_is_time_based_and_merges_replicas(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("unhealthy", "U.")
        clock = VirtualClock()
        scraper = MetricsScraper(registry, clock=clock)
        scraper.scrape_once()  # t=0: 0 unhealthy of 4
        clock.advance(1.0)
        gauge.set(1)
        scraper.scrape_once()  # t=1: 1 unhealthy of 4
        sli = HealthSLI("unhealthy", bad_when=lambda value: value / 4.0)
        window = sli.evaluate(scraper, -1.0, 2.0)
        assert (window.good, window.bad) == (1.75, 0.25)
        assert window.total == 2.0  # two scrape instants


class TestSLO:
    def _slo(self, objective=0.99, rules=DEFAULT_BURN_RULES):
        return SLO(
            "avail",
            objective=objective,
            sli=AvailabilitySLI.of(
                good={"good_total": {}}, bad={"bad_total": {}}
            ),
            rules=rules,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="objective"):
            self._slo(objective=1.0)
        with pytest.raises(ValueError, match="burn rule"):
            self._slo(rules=())

    def test_budget_and_burn_math_is_exact(self):
        registry = MetricsRegistry()
        registry.counter("good_total", "G.").inc(990)
        registry.counter("bad_total", "B.").inc(10)
        slo = self._slo(objective=0.99)
        status = slo.evaluate(_scraped(registry), now_s=1.0)
        # bad_ratio exactly equals the error budget: burning at 1x, 0 left.
        assert status.window.bad_ratio == pytest.approx(0.01)
        assert status.budget_remaining == pytest.approx(0.0)
        for reading in status.rules:
            assert reading.long_burn == pytest.approx(1.0)
            assert not reading.exceeded

    def test_rules_trip_only_when_both_windows_exceed(self):
        # One burst of badness long ago: the long window still sees it but
        # the short window is clean, so the page must NOT trip.
        registry = MetricsRegistry()
        good = registry.counter("good_total", "G.")
        bad = registry.counter("bad_total", "B.")
        clock = VirtualClock()
        scraper = MetricsScraper(registry, clock=clock)
        scraper.scrape_once()
        bad.inc(50)
        good.inc(50)
        clock.advance(600.0)
        scraper.scrape_once()  # the burst lands at t=600
        good.inc(100)
        clock.advance(2000.0)
        scraper.scrape_once()  # clean traffic at t=2600
        rule = BurnRule("page", factor=14.4, long_window_s=3600.0, short_window_s=300.0)
        status = SLO(
            "avail",
            0.99,
            AvailabilitySLI.of(good={"good_total": {}}, bad={"bad_total": {}}),
            rules=(rule,),
        ).evaluate(scraper, now_s=2600.0)
        (reading,) = status.rules
        assert reading.long_burn > rule.factor
        assert reading.short_burn == 0.0
        assert not reading.exceeded

    def test_empty_windows_report_healthy_not_divide_by_zero(self):
        status = self._slo().evaluate(
            MetricsScraper(MetricsRegistry(), clock=VirtualClock()), now_s=0.0
        )
        assert status.budget_remaining == 1.0
        assert all(not reading.exceeded for reading in status.rules)

    def test_error_budget_and_burn_rate_follow_the_objective(self):
        slo = self._slo(objective=0.999)
        assert slo.error_budget == pytest.approx(0.001)
        assert slo.burn_rate(WindowSample(good=990.0, bad=10.0)) == pytest.approx(10.0)
        assert slo.burn_rate(WindowSample(good=1.0, bad=0.0)) == 0.0
        assert slo.burn_rate(WindowSample(good=0.0, bad=0.0)) == 0.0

    def test_budget_window_is_the_longest_rule_window(self):
        assert self._slo().budget_window_s == 21600.0
        short = self._slo(
            rules=(
                BurnRule("page", factor=14.4, long_window_s=60.0, short_window_s=5.0),
                BurnRule("ticket", factor=6.0, long_window_s=30.0, short_window_s=5.0),
            )
        )
        assert short.budget_window_s == 60.0
        # Badness older than the budget window no longer spends the budget.
        registry = MetricsRegistry()
        bad = registry.counter("bad_total", "B.")
        good = registry.counter("good_total", "G.")
        clock = VirtualClock()
        scraper = MetricsScraper(registry, clock=clock)
        scraper.scrape_once()
        bad.inc(5)
        scraper.scrape_once(now=1.0)
        good.inc(100)
        scraper.scrape_once(now=100.0)
        assert short.evaluate(scraper, now_s=100.0).budget_remaining == 1.0
        assert self._slo().evaluate(scraper, now_s=100.0).budget_remaining < 0.0


# ---------------------------------------------------------------------- alerts


class TestAlertManager:
    def _burning_scraper(self, clock):
        registry = MetricsRegistry()
        registry.counter("good_total", "G.").inc(1)
        registry.counter("bad_total", "B.").inc(99)
        scraper = MetricsScraper(registry, clock=clock)
        scraper.scrape_once()
        return registry, scraper

    def _slo(self):
        return SLO(
            "avail",
            0.99,
            AvailabilitySLI.of(good={"good_total": {}}, bad={"bad_total": {}}),
            rules=(
                BurnRule("page", factor=14.4, long_window_s=3600.0, short_window_s=300.0),
            ),
        )

    def test_duplicate_alert_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate alert id"):
            AlertManager([self._slo(), self._slo()])

    def test_zero_alert_for_s_goes_pending_and_firing_in_one_pass(self):
        clock = VirtualClock()
        _, scraper = self._burning_scraper(clock)
        events = EventLog(clock)
        manager = AlertManager([self._slo()], events=events)
        manager.evaluate_once(scraper, now_s=1.0)
        alert = manager.get("avail:page")
        assert alert.state == "firing" and alert.fired_count == 1
        assert manager.fired_ids() == ["avail:page"]
        # The pending event still lands first so the timeline is explicit.
        kinds = [event.kind for event in events.events()]
        assert kinds == ["alert_pending", "alert_firing"]
        assert events.events()[0].target == "avail:page"

    def test_alert_for_s_holds_the_alert_in_pending(self, monkeypatch):
        monkeypatch.setattr(alerts_module, "ALERT_FOR_S", 10.0)
        clock = VirtualClock()
        _, scraper = self._burning_scraper(clock)
        manager = AlertManager([self._slo()])
        manager.evaluate_once(scraper, now_s=1.0)
        assert manager.get("avail:page").state == "pending"
        manager.evaluate_once(scraper, now_s=5.0)
        assert manager.get("avail:page").state == "pending"
        assert manager.fired_ids() == []
        manager.evaluate_once(scraper, now_s=11.0)
        assert manager.get("avail:page").state == "firing"

    def test_firing_resolves_when_the_condition_clears_and_emits(self):
        clock = VirtualClock()
        registry, scraper = self._burning_scraper(clock)
        events = EventLog(clock)
        manager = AlertManager([self._slo()], events=events)
        manager.evaluate_once(scraper, now_s=1.0)
        # Flood the short window with good traffic: short burn collapses.
        registry.counter("good_total", "G.").inc(10_000_000)
        clock.advance(3601.0)
        scraper.scrape_once()
        manager.evaluate_once(scraper, now_s=3602.0)
        alert = manager.get("avail:page")
        assert alert.state == "resolved"
        assert alert.fired_count == 1  # survives resolution for invariants
        kinds = [event.kind for event in events.events()]
        assert kinds == ["alert_pending", "alert_firing", "alert_resolved"]

    def test_pending_that_never_fired_resolves_silently(self, monkeypatch):
        monkeypatch.setattr(alerts_module, "ALERT_FOR_S", 100.0)
        clock = VirtualClock()
        registry, scraper = self._burning_scraper(clock)
        events = EventLog(clock)
        manager = AlertManager([self._slo()], events=events)
        manager.evaluate_once(scraper, now_s=1.0)
        registry.counter("good_total", "G.").inc(10_000_000)
        clock.advance(3601.0)
        scraper.scrape_once()
        manager.evaluate_once(scraper, now_s=3602.0)
        assert manager.get("avail:page").state == "resolved"
        assert manager.fired_ids() == []
        kinds = [event.kind for event in events.events()]
        assert kinds == ["alert_pending"], "no firing, so no resolved event"

    def test_alerts_keep_registration_order_and_active_tracks_the_lifecycle(self):
        clock = VirtualClock()
        registry, scraper = self._burning_scraper(clock)
        quiet = SLO(
            "quiet",
            0.99,
            AvailabilitySLI.of(good={"good_total": {}}, bad={}),
            rules=(BurnRule("ticket", factor=6.0, long_window_s=3600.0, short_window_s=300.0),),
        )
        manager = AlertManager([self._slo(), quiet])
        assert [alert.alert_id for alert in manager.alerts()] == ["avail:page", "quiet:ticket"]
        def active(alert):
            return alert.state in ("pending", "firing")

        assert not any(active(alert) for alert in manager.alerts())
        manager.evaluate_once(scraper, now_s=1.0)
        assert [alert.alert_id for alert in manager.alerts() if active(alert)] == ["avail:page"]
        registry.counter("good_total", "G.").inc(10_000_000)
        clock.advance(3601.0)
        scraper.scrape_once()
        manager.evaluate_once(scraper, now_s=3602.0)
        page = manager.get("avail:page")
        assert page.state == "resolved" and not active(page)
        assert manager.get("no:such") is None


class TestSLOMonitor:
    def test_tick_scrapes_evaluates_and_payload_is_json_safe(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        registry.counter("good_total", "G.").inc(10)
        monitor = SLOMonitor(
            MetricsScraper(registry, clock=clock),
            [
                SLO(
                    "avail",
                    0.99,
                    AvailabilitySLI.of(good={"good_total": {}}, bad={}),
                )
            ],
        )
        assert monitor.statuses == []
        statuses = monitor.tick()
        assert len(statuses) == 1 and monitor.scraper.scrapes == 1
        payload = monitor.status_payload()
        json.dumps(payload)  # JSON-safe end to end
        assert payload["slos"][0]["name"] == "avail"
        assert payload["alerts"][0]["alert_id"] == "avail:page"

    def test_tick_reads_the_scraper_clock(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        registry.counter("good_total", "G.").inc(1)
        slos = [SLO("avail", 0.99, AvailabilitySLI.of(good={"good_total": {}}, bad={}))]
        monitor = SLOMonitor(MetricsScraper(registry, clock=clock), slos)
        assert monitor.slos == tuple(slos)
        clock.advance(2.0)
        monitor.tick()
        clock.advance(3.0)
        monitor.tick()
        [series] = monitor.scraper.match("good_total")
        assert [point.ts_s for point in series.points()] == [2.0, 5.0]


# ------------------------------------------------------------------- dashboard


class TestDashboard:
    def test_sparkline_scales_per_window_and_flat_reads_calm(self, monkeypatch):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)))) == 32
        monkeypatch.setattr(dashboard_module, "SPARK_WIDTH", 8)
        assert sparkline(list(range(100))) == sparkline(list(range(92, 100)))

    def test_budget_bar_clamps(self, monkeypatch):
        assert budget_bar(1.0) == "[" + "█" * 20 + "]"
        monkeypatch.setattr(dashboard_module, "BUDGET_BAR_WIDTH", 4)
        assert budget_bar(1.0) == "[████]"
        assert budget_bar(0.0) == "[░░░░]"
        assert budget_bar(-3.0) == "[░░░░]"
        assert budget_bar(0.5) == "[██░░]"

    def _monitor(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        requests = registry.counter(
            "service_requests_total", "R.", ("outcome",)
        )
        requests.labels(outcome="completed").inc(10)
        registry.gauge("router_unhealthy_replicas", "U.").set(1)
        events = EventLog(clock)
        monitor = SLOMonitor(
            MetricsScraper(registry, clock=clock),
            [
                SLO(
                    "fleet",
                    0.99,
                    HealthSLI(
                        "router_unhealthy_replicas",
                        bad_when=lambda value: value / 4.0,
                    ),
                )
            ],
            events=events,
        )
        clock.advance(1.0)
        monitor.tick()
        return monitor, events

    def test_render_contains_every_section_and_is_deterministic(self):
        first_monitor, first_events = self._monitor()
        second_monitor, second_events = self._monitor()
        first = render_dashboard(first_monitor, events=first_events, title="unit")
        second = render_dashboard(second_monitor, events=second_events, title="unit")
        assert first == second, "seeded rerun must render byte-identical frames"
        assert "── obs top · unit" in first
        assert "error budgets" in first and "alerts" in first
        assert "fleet:page" in first
        assert "recent alert events" in first  # the 25x burn pages at once
        assert "─" in first.splitlines()[0]


# ------------------------------------------------- chaos invariants + run table


def _alert_scenario(**overrides) -> dict:
    scenario = {
        "name": "alerts",
        "seed": 3,
        "dataset": "factbench",
        "methods": ["dka"],
        "models": ["gemma2:9b"],
        "requests": 24,
        "concurrency": 4,
        "retry": {"max_attempts": 2, "base_backoff_s": 0.001},
        "service": {"request_timeout_s": 0.25, "probe_interval_s": 0.02},
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
        "invariants": {
            "max_failed": 0,
            "expect_alerts": {"kill": ["fleet-availability:page"]},
            "forbid_alerts": {"none": ["*"]},
        },
    }
    scenario.update(overrides)
    return scenario


class TestAlertInvariantParsing:
    def test_alert_maps_parse_and_lookups_work(self):
        scenario = load_scenario(_alert_scenario())
        invariants = scenario.invariants
        assert invariants.expected_alerts_for("kill") == ("fleet-availability:page",)
        assert invariants.expected_alerts_for("none") == ()
        assert invariants.forbidden_alerts_for("none") == ("*",)
        assert invariants.forbidden_alerts_for("kill") is None

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda inv: inv.update(expect_alerts={"bogus-cell": ["a:page"]}),
                "unknown cell",
            ),
            (
                lambda inv: inv.update(expect_alerts={"kill": []}),
                "non-empty list",
            ),
            (
                lambda inv: inv.update(expect_alerts={"kill": ["no-colon"]}),
                "slo-name:severity",
            ),
            (
                lambda inv: inv.update(expect_alerts={"kill": ["*"]}),
                "only forbid_alerts",
            ),
            (
                lambda inv: inv.update(forbid_alerts={"kill": [7]}),
                "non-string alert id",
            ),
            (
                lambda inv: inv.update(expect_alerts=["a:page"]),
                "must map fault-case names",
            ),
        ],
    )
    def test_malformed_alert_maps_raise(self, mutate, message):
        scenario = _alert_scenario()
        mutate(scenario["invariants"])
        with pytest.raises(ScenarioError, match=message):
            load_scenario(scenario)


class TestRunTableAlertColumns:
    def test_alert_columns_are_timing_view_only(self):
        assert "alerts" in RunTable.TIMING_COLUMNS
        assert "alerts" not in RunTable.DETERMINISTIC_COLUMNS


class TestScenarioAlertIntegration:
    def test_kill_cell_pages_reference_stays_silent_and_csv_is_deterministic(
        self, runner
    ):
        """The PR's acceptance journey: one replica dead from t=0 burns
        the fleet-availability budget at 2x fleet share — both burn
        windows read 50x on a 1x2 fleet — so the page must fire in the
        kill cell and nothing may fire in the fault-free reference; the
        deterministic CSV (which excludes the alerts column) must stay
        byte-identical across reruns even though alerts fired."""
        scenario = load_scenario(_alert_scenario())
        first = ScenarioRunner(runner, scenario).run()
        second = ScenarioRunner(runner, scenario).run()
        assert first.ok, f"invariant failures: {first.failed_checks()}"

        by_fault = {cell.fault_name: cell for cell in first.cells}
        assert "fleet-availability:page" in by_fault["kill"].fired_alerts
        assert by_fault["none"].fired_alerts == ()
        check_names = {check.name for check in by_fault["kill"].checks}
        assert "expect-alerts" in check_names
        assert "forbid-alerts" in {
            check.name for check in by_fault["none"].checks
        }

        # Alert columns ride the timing view only: the deterministic CSV
        # is byte-identical across runs, the full CSV names the alerts.
        assert first.csv(include_timings=False) == second.csv(include_timings=False)
        deterministic_header = first.csv(include_timings=False).splitlines()[0]
        assert "alerts" not in deterministic_header
        timed = first.csv(include_timings=True)
        assert "alerts" in timed.splitlines()[0]
        assert "fleet-availability:page" in timed


# ------------------------------------------------------------ CLI + frontend


class TestObsDashboardCLI:
    CLI_ARGS = [
        "--scale",
        "0.02",
        "--max-facts",
        "12",
        "--requests",
        "24",
        "--frames",
        "3",
        "--replicas",
        "2",
        "--time-scale",
        "0",
    ]

    def _run(self, *extra):
        from repro.benchmark.cli import main

        stream = io.StringIO()
        code = main(["obs", *extra, *self.CLI_ARGS], stream=stream)
        return code, stream.getvalue()

    def test_obs_top_once_renders_byte_identically(self):
        first_code, first = self._run("top", "--once", "--kill", "shard:0/replica:1")
        second_code, second = self._run("top", "--once", "--kill", "shard:0/replica:1")
        assert first_code == second_code == 0
        assert first == second, "seeded obs top reruns must be byte-identical"
        assert "── obs top ·" in first
        # The killed replica pages the fleet-availability SLO.
        assert "UNHEALTHY" in first
        assert "! fleet-availability:page" in first

    def test_obs_slo_emits_the_json_payload(self):
        code, output = self._run("slo")
        assert code == 0
        payload = json.loads(output)
        assert {slo["name"] for slo in payload["slos"]} == {
            "availability",
            "fleet-availability",
        }
        assert all(alert["state"] == "inactive" for alert in payload["alerts"])

    def test_bad_kill_target_fails_fast(self):
        with pytest.raises(SystemExit, match="outside"):
            self._run("top", "--once", "--kill", "shard:5/replica:0")
        with pytest.raises(SystemExit, match="shard:0/replica:1"):
            self._run("top", "--once", "--kill", "replica-one")

    def test_a_bad_fleet_shape_is_reported_before_the_kill_target(self):
        with pytest.raises(SystemExit, match="--shards must be >= 1"):
            self._run("top", "--once", "--shards", "0", "--kill", "shard:0/replica:0")


class TestFrontendSLOVerb:
    def test_slo_verb_serves_the_monitor_payload(self, runner):
        from repro.service import (
            ServiceConfig,
            ShardedValidationService,
            TCPValidationFrontend,
        )

        dataset = runner.dataset("factbench")
        fact = dataset[0]

        async def go():
            router = ShardedValidationService.from_runner(
                runner, 1, ServiceConfig(enable_cache=False), replicas=2
            )
            async with router:
                monitor = SLOMonitor(
                    MetricsScraper(lambda: router.metrics.collect_families()),
                    [
                        SLO(
                            "availability",
                            0.999,
                            AvailabilitySLI.of(
                                good={
                                    "service_requests_total": {
                                        "outcome": "completed"
                                    }
                                },
                                bad={"router_failures_total": {}},
                            ),
                        )
                    ],
                )
                frontend = TCPValidationFrontend(router, {"factbench": dataset})
                frontend.slo_monitor = monitor
                async with frontend:
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
                    await reader.readline()
                    writer.write(b'{"cmd": "slo"}\n')
                    await writer.drain()
                    payload = json.loads(await reader.readline())
                    handled = frontend.requests_handled
                    writer.close()
                    await writer.wait_closed()
            return payload, handled

        payload, handled = asyncio.run(go())
        assert payload["slos"][0]["name"] == "availability"
        assert payload["slos"][0]["good"] >= 1.0  # the request was scraped
        assert payload["scrapes"] >= 1
        # Control commands never count toward requests_handled.
        assert handled == 1

    def test_slo_verb_without_a_monitor_is_an_error_reply(self, runner):
        from repro.service import ServiceConfig, ShardedValidationService, TCPValidationFrontend

        dataset = runner.dataset("factbench")

        async def go():
            router = ShardedValidationService.from_runner(
                runner, 1, ServiceConfig(enable_cache=False)
            )
            async with router:
                frontend = TCPValidationFrontend(router, {"factbench": dataset})
                async with frontend:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", frontend.port
                    )
                    writer.write(b'{"cmd": "slo"}\n')
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
            return reply

        reply = asyncio.run(go())
        assert reply["outcome"] == "error"
        assert "no SLO monitor" in reply["error"]
