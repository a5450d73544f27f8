"""Observability layer: tracing, unified metrics, structured events.

Three cooperating pieces, all deterministic under the injectable
:class:`~repro.chaos.clock.Clock`:

* :mod:`repro.obs.trace` — seeded distributed tracing with contextvar
  propagation, head sampling, JSONL export, and an ASCII tree renderer;
* :mod:`repro.obs.registry` — the metrics registry (counters, gauges,
  fixed-bucket histograms with exemplars) every ``MetricsSnapshot``
  derives from, with Prometheus-style text exposition;
* :mod:`repro.obs.events` — the structured event log of discrete fleet
  transitions (health, failover, quiesce, kills, budget exhaustion,
  alert lifecycle);
* :mod:`repro.obs.timeseries` — ring-buffered time series scraped from
  any registry on the clock, with range queries;
* :mod:`repro.obs.slo` — declarative SLOs (availability and
  health/staleness) with exact error budgets and multi-window
  multi-burn-rate rules;
* :mod:`repro.obs.alerts` — the alert manager's
  pending→firing→resolved lifecycles, emitting into the event log;
* :mod:`repro.obs.dashboard` — the ``obs top`` ASCII fleet view,
  byte-identical under seeded virtual-clock reruns.

:class:`Observability` bundles tracer + events for one-call wiring:
``router.set_observability(Observability.for_clock(clock, seed))`` arms
every layer the router fronts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..chaos.clock import Clock, MonotonicClock
from .alerts import ALERT_STATES, Alert, AlertManager, SLOMonitor
from .dashboard import budget_bar, render_dashboard, sparkline
from .events import EVENT_KINDS, Event, EventLog
from .registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    percentile,
    render_exposition,
)
from .slo import (
    DEFAULT_BURN_RULES,
    AvailabilitySLI,
    BurnRule,
    HealthSLI,
    RuleReading,
    SLO,
    SLOStatus,
    WindowSample,
    fleet_slos,
)
from .timeseries import (
    MetricsScraper,
    SeriesPoint,
    TimeSeries,
    series_key,
)
from .trace import (
    SPAN_TAXONOMY,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    Span,
    SpanContext,
    Tracer,
    render_spans,
    slowest_path,
)

__all__ = [
    "ALERT_STATES",
    "DEFAULT_BURN_RULES",
    "LATENCY_BUCKETS",
    "EVENT_KINDS",
    "SPAN_TAXONOMY",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "Alert",
    "AlertManager",
    "AvailabilitySLI",
    "BurnRule",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "HealthSLI",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsScraper",
    "Observability",
    "RuleReading",
    "SLO",
    "SLOMonitor",
    "SLOStatus",
    "SeriesPoint",
    "Span",
    "SpanContext",
    "TimeSeries",
    "Tracer",
    "WindowSample",
    "budget_bar",
    "fleet_slos",
    "percentile",
    "render_dashboard",
    "render_exposition",
    "render_spans",
    "series_key",
    "slowest_path",
    "sparkline",
]


@dataclass
class Observability:
    """One tracer + one event log, built over one clock and one seed.

    The metrics registries stay owned by the services' ``ServiceMetrics``
    (each replica's counters are its own); this bundle carries the pieces
    that are genuinely fleet-global.
    """

    tracer: Tracer
    events: EventLog

    @classmethod
    def for_clock(
        cls,
        clock: Optional[Clock] = None,
        seed: int = 0,
        sample_rate: float = 1.0,
        trace_capacity: int = 512,
    ) -> "Observability":
        clock = clock or MonotonicClock()
        return cls(
            tracer=Tracer(
                clock=clock,
                seed=seed,
                sample_rate=sample_rate,
                capacity=trace_capacity,
            ),
            events=EventLog(clock=clock),
        )
