"""The ``obs top`` fleet dashboard: ASCII, deterministic, allocation-light.

One :func:`render_dashboard` call turns the telemetry trio — a
:class:`~repro.obs.alerts.SLOMonitor` (scraper + SLOs + alerts), the
router's :class:`~repro.service.router.RouterMetrics`, and the shared
:class:`~repro.obs.events.EventLog` — into one text frame:

* per-shard/replica health table (state, served, faults, queue depth),
* sparklines over the scraper's ring buffers (request rate, failures,
  unhealthy replicas),
* error-budget gauges per SLO with worst-window burn rates,
* the alert board and the tail of the alert event timeline.

Every value rendered is *count-derived or clock-derived* — served
counts, outcome counters, gauge readings, virtual timestamps — never a
wall-clock latency, so a seeded :class:`~repro.chaos.clock.VirtualClock`
rerun renders byte-identical frames (the CI smoke diffs two runs).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .alerts import SLOMonitor
from .events import EventLog
from .timeseries import MetricsScraper

__all__ = [
    "budget_bar",
    "render_dashboard",
    "sparkline",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Characters in a sparkline: the last this many scrapes.
SPARK_WIDTH = 32
#: Characters inside an error-budget gauge's brackets.
BUDGET_BAR_WIDTH = 20

#: Alert-board glyph per lifecycle state.
_STATE_GLYPHS = {"inactive": "·", "pending": "~", "firing": "!", "resolved": "✓"}


def sparkline(values: Sequence[float]) -> str:
    """The last ``SPARK_WIDTH`` values as a block-character sparkline.

    Scaling is per-line (min..max of the shown window); a flat line
    renders as all-low so "nothing happening" looks calm, not maxed.
    """
    if not values:
        return ""
    shown = list(values)[-SPARK_WIDTH:]
    low, high = min(shown), max(shown)
    if high <= low:
        return _SPARK_CHARS[0] * len(shown)
    span = high - low
    top = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int((value - low) / span * top + 0.5)] for value in shown
    )


def budget_bar(fraction: float) -> str:
    """An error-budget gauge: ``[██████░░░░]``; clamps to [0, 1]."""
    clamped = min(max(fraction, 0.0), 1.0)
    filled = int(clamped * BUDGET_BAR_WIDTH + 0.5)
    return "[" + "█" * filled + "░" * (BUDGET_BAR_WIDTH - filled) + "]"


def _merged_points(
    scraper: MetricsScraper, name: str, labels: Optional[Mapping[str, str]] = None
) -> List[float]:
    """Per-scrape fleet totals for one metric (series summed by instant)."""
    by_ts = {}
    for series in scraper.match(name, labels):
        for point in series.points():
            by_ts[point.ts_s] = by_ts.get(point.ts_s, 0.0) + point.value
    return [by_ts[ts] for ts in sorted(by_ts)]


def _deltas(totals: Sequence[float]) -> List[float]:
    """Per-interval increases of a cumulative counter (reset-aware)."""
    deltas = []
    previous = None
    for value in totals:
        if previous is None:
            deltas.append(value)
        elif value >= previous:
            deltas.append(value - previous)
        else:  # counter reset
            deltas.append(value)
        previous = value
    return deltas


def render_dashboard(
    monitor: SLOMonitor,
    fleet=None,
    events: Optional[EventLog] = None,
    now_s: Optional[float] = None,
    title: str = "fleet",
) -> str:
    """Render one dashboard frame as a multi-line string.

    ``fleet`` is the router's ``RouterMetrics`` (anything with a
    ``per_replica()`` quadruple iterator) or ``None`` to skip the health
    table.  ``now_s`` defaults to the scraper clock's reading.
    """
    scraper = monitor.scraper
    ts = scraper.clock.now() if now_s is None else now_s
    lines: List[str] = []

    header = f"── obs top · {title} · t={ts:.1f}s · scrapes={scraper.scrapes} · series={len(scraper)} "
    lines.append(header + "─" * max(0, 72 - len(header)))

    # ------------------------------------------------------------ fleet health
    if fleet is not None:
        lines.append("")
        lines.append(
            f"{'shard':>5}  {'replica':>7}  {'state':>9}  {'served':>7}  "
            f"{'ok':>7}  {'faults':>6}  {'queue':>5}"
        )
        for shard_index, replica_index, snapshot, health in fleet.per_replica():
            state = "healthy" if health.healthy else "UNHEALTHY"
            lines.append(
                f"{shard_index:>5}  {replica_index:>7}  {state:>9}  "
                f"{health.served:>7}  {snapshot.completed:>7}  "
                f"{health.failures:>6}  {snapshot.queue_depth:>5}"
            )

    # -------------------------------------------------------------- sparklines
    lines.append("")
    rate = _deltas(_merged_points(scraper, "service_requests_total"))
    failures = _deltas(_merged_points(scraper, "router_failures_total"))
    unhealthy = _merged_points(scraper, "router_unhealthy_replicas")
    for label, values, total in (
        ("req rate", rate, sum(rate)),
        ("failures", failures, sum(failures)),
        ("unhealthy", unhealthy, unhealthy[-1] if unhealthy else 0.0),
    ):
        spark = sparkline(values) or "(no samples)"
        lines.append(f"{label:>9}  {spark:<{SPARK_WIDTH}}  {total:>8.0f}")

    # ----------------------------------------------------------- error budgets
    statuses = monitor.statuses
    if statuses:
        lines.append("")
        lines.append("error budgets")
        for status in statuses:
            worst = max(
                (reading for reading in status.rules),
                key=lambda reading: max(reading.long_burn, reading.short_burn),
            )
            lines.append(
                f"  {status.name:<22} {budget_bar(status.budget_remaining)} "
                f"{status.budget_remaining * 100:>6.1f}%  "
                f"burn {worst.long_burn:>6.2f}x/{worst.short_burn:>6.2f}x "
                f"(slo {status.objective * 100:.2f}%)"
            )

    # ----------------------------------------------------------------- alerts
    lines.append("")
    lines.append("alerts")
    for alert in monitor.manager.alerts():
        glyph = _STATE_GLYPHS.get(alert.state, "?")
        lines.append(
            f"  {glyph} {alert.alert_id:<28} {alert.state:<9} "
            f"fired={alert.fired_count}"
        )

    # --------------------------------------------------------- alert timeline
    if events is not None:
        tail = [
            event
            for event in events.events()
            if event.kind.startswith("alert_")
        ][-5:]
        if tail:
            lines.append("")
            lines.append("recent alert events")
            for event in tail:
                lines.append(
                    f"  t={event.attributes.get('at_s', 0.0):>8.1f}s  "
                    f"{event.kind:<14} {event.target}"
                )

    lines.append("")
    lines.append("keys: Ctrl-C quits · --once renders a single frame")
    return "\n".join(lines)
