"""Declarative SLOs with exact error budgets and burn-rate alert rules.

An :class:`SLO` binds an *objective* (say 99.9% good) to an *SLI* — a
recipe that reads a :class:`~repro.obs.timeseries.MetricsScraper` window
and answers ``(good, bad)``.  Two SLI families cover the fleet:

* :class:`AvailabilitySLI` — request availability from outcome counters
  (reset-aware increases, so replica restarts do not fake errors);
* :class:`HealthSLI` — a *time-based* SLI over gauge samples: each scrape
  instant is good or bad by a predicate on the gauge (unhealthy replicas,
  staleness epoch lag), so a dead replica burns budget even while
  failover keeps every request succeeding.

Alerting follows the Google SRE multi-window multi-burn-rate recipe: a
:class:`BurnRule` compares the burn rate — ``bad_ratio / (1 - objective)``
— over a *long* and a *short* window and trips only when **both** exceed
the factor, so a page needs sustained burn (long window) that is still
happening (short window).  :meth:`SLO.evaluate` is a pure function of the
scraper contents and the evaluation instant; under a ``VirtualClock``
the whole alert timeline is deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from .timeseries import MetricsScraper

__all__ = [
    "DEFAULT_BURN_RULES",
    "AvailabilitySLI",
    "BurnRule",
    "HealthSLI",
    "RuleReading",
    "SLO",
    "SLOStatus",
    "WindowSample",
    "fleet_slos",
]


# --------------------------------------------------------------------------- SLIs


@dataclass(frozen=True)
class WindowSample:
    """One SLI reading over a window: good and bad unit counts.

    Units are requests for counter SLIs and scrape-instants for
    time-based SLIs; the burn-rate math only needs the ratio.
    """

    good: float
    bad: float

    @property
    def total(self) -> float:
        return self.good + self.bad

    @property
    def bad_ratio(self) -> float:
        return self.bad / self.total if self.total > 0 else 0.0


@dataclass(frozen=True)
class AvailabilitySLI:
    """Good/bad from counter increases over the window.

    ``bad_metric`` counts failures (``router_failures_total``); good is
    the sum of ``good_metrics`` increases minus nothing — each metric is
    summed across all matching series with reset-aware increases.
    """

    good_metrics: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]
    bad_metrics: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]

    @staticmethod
    def of(
        good: Mapping[str, Mapping[str, str]],
        bad: Mapping[str, Mapping[str, str]],
    ) -> "AvailabilitySLI":
        """Build from ``{metric_name: label_subset}`` mappings."""
        freeze = lambda spec: tuple(
            (name, tuple(labels.items())) for name, labels in spec.items()
        )
        return AvailabilitySLI(freeze(good), freeze(bad))

    def evaluate(
        self, scraper: MetricsScraper, start_s: float, end_s: float
    ) -> WindowSample:
        good = sum(
            scraper.sum_increase(name, start_s, end_s, dict(labels))
            for name, labels in self.good_metrics
        )
        bad = sum(
            scraper.sum_increase(name, start_s, end_s, dict(labels))
            for name, labels in self.bad_metrics
        )
        return WindowSample(good=max(good, 0.0), bad=max(bad, 0.0))


@dataclass(frozen=True)
class HealthSLI:
    """Time-based SLI: each scrape instant of a gauge is good or bad.

    ``bad_when`` maps the summed gauge value at one instant to a badness
    fraction in ``[0, 1]`` — e.g. ``unhealthy / fleet_size`` so one dead
    replica out of four burns budget at 0.25 per instant.  Instants with
    no sample contribute nothing.
    """

    metric: str
    bad_when: Callable[[float], float]

    def evaluate(
        self, scraper: MetricsScraper, start_s: float, end_s: float
    ) -> WindowSample:
        timestamps, cum_good, cum_bad = self._prepared(scraper)
        lo = bisect_right(timestamps, start_s)
        hi = bisect_right(timestamps, end_s)
        if lo >= hi:
            return WindowSample(good=0.0, bad=0.0)
        base_good = cum_good[lo - 1] if lo else 0.0
        base_bad = cum_bad[lo - 1] if lo else 0.0
        return WindowSample(
            good=cum_good[hi - 1] - base_good, bad=cum_bad[hi - 1] - base_bad
        )

    def _prepared(self, scraper: MetricsScraper):
        """Merged per-instant badness as cumulative prefixes, computed once
        per scrape (every rule window of every SLO sharing this SLI then
        answers with two bisects).  Merging sums samples across matching
        series by timestamp so a fleet of per-replica gauges reads as one
        fleet-level instant."""
        key = ("health-sli", self)
        cached = scraper.query_cache.get(key)
        if cached is not None:
            return cached
        matched = scraper.match(self.metric)
        if len(matched) == 1:
            timestamps, merged = matched[0].samples()
        else:
            by_ts: Dict[float, float] = {}
            for series in matched:
                for ts, value in zip(*series.samples()):
                    by_ts[ts] = by_ts.get(ts, 0.0) + value
            timestamps = sorted(by_ts)
            merged = [by_ts[ts] for ts in timestamps]
        cum_good: list = []
        cum_bad: list = []
        good = bad = 0.0
        for value in merged:
            fraction = min(max(self.bad_when(value), 0.0), 1.0)
            bad += fraction
            good += 1.0 - fraction
            cum_good.append(good)
            cum_bad.append(bad)
        prepared = (timestamps, cum_good, cum_bad)
        scraper.query_cache[key] = prepared
        return prepared


# ------------------------------------------------------------------ burn rules


@dataclass(frozen=True)
class BurnRule:
    """One multi-window burn-rate rule.

    Fires when the burn rate exceeds ``factor`` over **both** the long
    and the short window.
    """

    severity: str
    factor: float
    long_window_s: float
    short_window_s: float


#: The classic Google-SRE pair: page on fast burn, ticket on slow burn.
DEFAULT_BURN_RULES: Tuple[BurnRule, ...] = (
    BurnRule(severity="page", factor=14.4, long_window_s=3600.0, short_window_s=300.0),
    BurnRule(severity="ticket", factor=6.0, long_window_s=21600.0, short_window_s=1800.0),
)


@dataclass(frozen=True)
class SLOStatus:
    """One SLO's full reading at one evaluation instant."""

    name: str
    objective: float
    window: WindowSample
    budget_remaining: float
    rules: Tuple["RuleReading", ...]


@dataclass(frozen=True)
class RuleReading:
    """Burn rates for one rule plus whether both windows exceeded."""

    alert_id: str
    severity: str
    factor: float
    long_burn: float
    short_burn: float
    exceeded: bool


class SLO:
    """A named objective over an SLI, with burn-rate alert rules.

    ``budget_window_s`` is the compliance window the error budget is
    accounted over: the longest rule window.  Everything in
    :meth:`evaluate` derives from scraper contents and ``now_s`` alone.
    """

    def __init__(
        self,
        name: str,
        objective: float,
        sli,
        rules: Tuple[BurnRule, ...] = DEFAULT_BURN_RULES,
        description: str = "",
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        if not rules:
            raise ValueError("an SLO needs at least one burn rule")
        self.name = name
        self.objective = objective
        self.sli = sli
        self.rules = tuple(rules)
        self.budget_window_s = max(rule.long_window_s for rule in rules)
        self.description = description

    @property
    def error_budget(self) -> float:
        """The allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective

    def burn_rate(self, window: WindowSample) -> float:
        """How many times faster than allowed the budget is burning."""
        return window.bad_ratio / self.error_budget

    def evaluate(self, scraper: MetricsScraper, now_s: float) -> SLOStatus:
        """Read every window once and report budget + rule states."""
        budget_window = self.sli.evaluate(
            scraper, now_s - self.budget_window_s, now_s
        )
        allowed_bad = budget_window.total * self.error_budget
        if allowed_bad > 0:
            remaining = 1.0 - budget_window.bad / allowed_bad
        else:
            remaining = 1.0 if budget_window.bad == 0 else 0.0
        readings = []
        for rule in self.rules:
            long_burn = self.burn_rate(
                self.sli.evaluate(scraper, now_s - rule.long_window_s, now_s)
            )
            short_burn = self.burn_rate(
                self.sli.evaluate(scraper, now_s - rule.short_window_s, now_s)
            )
            readings.append(
                RuleReading(
                    alert_id=f"{self.name}:{rule.severity}",
                    severity=rule.severity,
                    factor=rule.factor,
                    long_burn=long_burn,
                    short_burn=short_burn,
                    exceeded=long_burn >= rule.factor and short_burn >= rule.factor,
                )
            )
        return SLOStatus(
            name=self.name,
            objective=self.objective,
            window=budget_window,
            budget_remaining=remaining,
            rules=tuple(readings),
        )


def fleet_slos(
    shards: int, replicas: int, edges: int = 0, lag_budget: float = 0.0
) -> List[SLO]:
    """The SLO set a serving fleet is monitored against (``obs top`` /
    ``obs slo`` and every chaos scenario cell).

    Deliberately **count- and gauge-derived only** (no latency SLO):
    request latencies read the real wall clock even under a virtual one,
    so a latency alert could flap across reruns and break the
    byte-identical-rerun guarantees (the ``forbid_alerts`` reference
    invariant, the CI render smoke).  Availability and fleet health are
    exact counts, deterministic on both clocks.

    With ``edges > 0`` the set also watches watermark lag: an instant is
    bad when the fleet-summed worst-shard lag exceeds ``lag_budget``
    epochs — the burn-rate alert behind the edge-lag runbook.
    """
    fleet_size = float(shards * replicas)
    slos = [
        SLO(
            "availability",
            objective=0.999,
            sli=AvailabilitySLI.of(
                good={
                    "service_requests_total": {"outcome": "completed"},
                    "router_degraded_total": {},
                },
                bad={"router_failures_total": {}},
            ),
            description="FAILED responses vs answered requests",
        ),
        SLO(
            "fleet-availability",
            objective=0.99,
            sli=HealthSLI(
                "router_unhealthy_replicas",
                bad_when=lambda value: value / fleet_size,
            ),
            description="replica-time in the routing rotation",
        ),
    ]
    if edges > 0:
        slos.append(
            SLO(
                "replication-staleness",
                objective=0.95,
                sli=HealthSLI(
                    "router_geo_watermark_lag_epochs",
                    bad_when=lambda lag: 1.0 if lag > lag_budget else 0.0,
                ),
                description="edge-time inside the staleness bound",
            )
        )
    return slos
