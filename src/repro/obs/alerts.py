"""Alert lifecycles over SLO burn-rate rules, wired into the event log.

The :class:`AlertManager` owns one state machine per ``(slo, rule)`` pair
— alert ids read ``<slo-name>:<severity>``, e.g.
``fleet-availability:page`` — and walks it on every evaluation pass:

    inactive ──condition──▶ pending ──held for_s──▶ firing
        ▲                      │                       │
        └──────cleared─────────┴───────cleared─────────▶ resolved

Each transition into *pending*, *firing*, or *resolved* emits a
structured event (``alert_pending`` / ``alert_firing`` /
``alert_resolved``) into the shared :class:`~repro.obs.events.EventLog`,
so alert history rides the same bounded ring, table renderer, and JSONL
export as replica-health events.  With ``for_s == 0`` (the default
rules) an alert goes pending *and* firing in the same pass — the pending
event still lands first, keeping the timeline explicit.

:class:`SLOMonitor` bundles the usual trio — scraper, SLO list, alert
manager — behind a single :meth:`~SLOMonitor.tick`, which is what the
chaos scenario runner, the TCP frontend's ``slo`` verb, and ``obs top``
all drive.  Everything is a pure function of scraper contents and the
clock, so a seeded ``VirtualClock`` rerun replays the identical alert
timeline byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .events import EventLog
from .slo import SLO, RuleReading, SLOStatus
from .timeseries import MetricsScraper

__all__ = [
    "ALERT_STATES",
    "Alert",
    "AlertManager",
    "SLOMonitor",
]

#: Every state an alert can be observed in.
ALERT_STATES: Tuple[str, ...] = ("inactive", "pending", "firing", "resolved")


@dataclass
class Alert:
    """One rule's live state.  ``fired_count`` survives resolution so
    invariant checks can ask "did this ever page?" after the run."""

    alert_id: str
    slo_name: str
    severity: str
    state: str = "inactive"
    since_s: Optional[float] = None
    fired_at_s: Optional[float] = None
    resolved_at_s: Optional[float] = None
    fired_count: int = 0
    last_long_burn: float = 0.0
    last_short_burn: float = 0.0


class AlertManager:
    """Evaluates SLOs and drives every alert's lifecycle.

    ``events`` is optional — the manager works standalone for tests —
    but in the fleet it is the cell's shared :class:`EventLog` so alert
    transitions interleave with replica-health events in one timeline.
    """

    def __init__(self, slos: Sequence[SLO], events: Optional[EventLog] = None) -> None:
        self.slos = tuple(slos)
        self.events = events
        self._alerts: Dict[str, Alert] = {}
        for slo in self.slos:
            for rule in slo.rules:
                alert_id = f"{slo.name}:{rule.severity}"
                if alert_id in self._alerts:
                    raise ValueError(f"duplicate alert id {alert_id!r}")
                self._alerts[alert_id] = Alert(
                    alert_id=alert_id, slo_name=slo.name, severity=rule.severity
                )

    # --------------------------------------------------------------- evaluate

    def evaluate_once(
        self, scraper: MetricsScraper, now_s: float
    ) -> List[SLOStatus]:
        """One evaluation pass: read every SLO, step every alert."""
        statuses = []
        for slo in self.slos:
            status = slo.evaluate(scraper, now_s)
            statuses.append(status)
            for reading in status.rules:
                self._step(self._alerts[reading.alert_id], reading, now_s)
        return statuses

    def _step(self, alert: Alert, reading: RuleReading, now_s: float) -> None:
        alert.last_long_burn = reading.long_burn
        alert.last_short_burn = reading.short_burn
        if reading.exceeded:
            if alert.state in ("inactive", "resolved"):
                alert.state = "pending"
                alert.since_s = now_s
                self._emit("alert_pending", alert, reading, now_s)
            if alert.state == "pending" and now_s - alert.since_s >= reading.for_s:
                alert.state = "firing"
                alert.fired_at_s = now_s
                alert.fired_count += 1
                self._emit("alert_firing", alert, reading, now_s)
        else:
            if alert.state in ("pending", "firing"):
                was_firing = alert.state == "firing"
                alert.state = "resolved"
                alert.resolved_at_s = now_s
                alert.since_s = None
                if was_firing:
                    self._emit("alert_resolved", alert, reading, now_s)

    def _emit(
        self, kind: str, alert: Alert, reading: RuleReading, now_s: float
    ) -> None:
        if self.events is None:
            return
        self.events.emit(
            kind,
            alert.alert_id,
            slo=alert.slo_name,
            severity=alert.severity,
            long_burn=round(reading.long_burn, 4),
            short_burn=round(reading.short_burn, 4),
            factor=reading.factor,
            at_s=round(now_s, 6),
        )

    # ---------------------------------------------------------------- queries

    def alerts(self) -> List[Alert]:
        """Every alert, in registration (SLO, rule) order."""
        return list(self._alerts.values())

    def get(self, alert_id: str) -> Optional[Alert]:
        return self._alerts.get(alert_id)

    def fired_ids(self) -> List[str]:
        """Ids that ever reached *firing* this run, sorted — what the
        chaos ``expect_alerts`` / ``forbid_alerts`` invariants check."""
        return sorted(
            a.alert_id for a in self._alerts.values() if a.fired_count > 0
        )


class SLOMonitor:
    """Scraper + SLOs + alert manager behind one ``tick()``.

    The fleet-facing convenience: the scenario runner ticks it from the
    fault-driver loop, the frontend's ``slo`` verb serves
    :meth:`status_payload`, and the dashboard reads all three parts.
    """

    def __init__(
        self,
        scraper: MetricsScraper,
        slos: Sequence[SLO],
        events: Optional[EventLog] = None,
    ) -> None:
        self.scraper = scraper
        self.manager = AlertManager(slos, events=events)
        self._statuses: List[SLOStatus] = []

    @property
    def slos(self) -> Tuple[SLO, ...]:
        return self.manager.slos

    def tick(self) -> List[SLOStatus]:
        """Scrape once, evaluate every SLO, step every alert."""
        ts = self.scraper.clock.now()
        self.scraper.scrape_once(now=ts)
        self._statuses = self.manager.evaluate_once(self.scraper, ts)
        return self._statuses

    @property
    def statuses(self) -> List[SLOStatus]:
        """The most recent evaluation (empty before the first tick)."""
        return list(self._statuses)

    def status_payload(self) -> dict:
        """A JSON-safe snapshot for the frontend ``slo`` verb."""
        return {
            "scrapes": self.scraper.scrapes,
            "series": len(self.scraper),
            "slos": [
                {
                    "name": status.name,
                    "objective": status.objective,
                    "good": status.window.good,
                    "bad": status.window.bad,
                    "budget_remaining": round(status.budget_remaining, 6),
                    "rules": [
                        {
                            "alert_id": reading.alert_id,
                            "severity": reading.severity,
                            "factor": reading.factor,
                            "long_burn": round(reading.long_burn, 4),
                            "short_burn": round(reading.short_burn, 4),
                            "exceeded": reading.exceeded,
                        }
                        for reading in status.rules
                    ],
                }
                for status in self._statuses
            ],
            "alerts": [
                {
                    "alert_id": alert.alert_id,
                    "state": alert.state,
                    "fired_count": alert.fired_count,
                }
                for alert in self.manager.alerts()
            ],
        }
