"""Metric time series: ring-buffered samples of scraped metrics.

PR 7 gave the fleet a :class:`~repro.obs.registry.MetricsRegistry` that
answers "what is the value *now*"; this module adds *history*.  A
:class:`MetricsScraper` samples a collect source (a registry, a router's
merged fleet families, or any callable returning
:class:`~repro.obs.registry.MetricFamily` rows) on the injectable
:class:`~repro.chaos.clock.Clock` and lands every sample in a
:class:`TimeSeries`: a ring of the last ``capacity`` ``(ts, value)``
points.

Memory is bounded *by construction*: every ring drops its oldest point
past ``capacity`` and the scraper refuses to grow past ``max_series``
distinct series (excess series are counted in
:attr:`MetricsScraper.dropped_series`, never silently materialised).
Under a :class:`~repro.chaos.clock.VirtualClock` the sample timestamps —
and therefore every range query and sparkline derived from them — are
deterministic.

:meth:`TimeSeries.increase` is the counter-rate primitive the SLO layer
builds on: a reset-aware sum of positive deltas over a window, so a
replica restart (``ServiceMetrics.start`` resets its registry) reads as
"the counter began again at zero", not as a negative rate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..chaos.clock import Clock, MonotonicClock
from .registry import MetricFamily, MetricsRegistry

__all__ = [
    "MetricsScraper",
    "SeriesPoint",
    "TimeSeries",
    "series_key",
]


def series_key(name: str, labels: Mapping[str, str]) -> str:
    """The canonical series identity: ``name`` or ``name{k="v",...}``.

    Label order follows the mapping's iteration order (the registry emits
    a deterministic order), so the same sample always keys the same way.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels.items())
    return f"{name}{{{inner}}}"


@dataclass(frozen=True)
class SeriesPoint:
    """One raw sample: the series' value at one scrape instant."""

    ts_s: float
    value: float


class TimeSeries:
    """One scraped series: a ring of its last ``capacity`` raw points."""

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        kind: str,
        capacity: int = 512,
    ) -> None:
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.key = series_key(name, dict(labels))
        self.capacity = capacity
        # Parallel arrays instead of a point ring: timestamps are sorted
        # (scrapes are monotonic), so window queries bisect in O(log n),
        # and ``_cum`` carries the running reset-aware increase so
        # :meth:`increase` is two lookups instead of a full-ring scan —
        # the SLO layer calls it for every rule window on every tick.
        self._ts: List[float] = []
        self._values: List[float] = []
        self._cum: List[float] = []

    # ---------------------------------------------------------------- writing

    def observe(self, ts_s: float, value: float) -> None:
        """Record one sample (the oldest drops out past ``capacity``)."""
        if not self._values:
            delta = value  # a counter is born at zero
        elif value >= self._values[-1]:
            delta = value - self._values[-1]
        else:  # counter reset (a registry restart)
            delta = value
        self._ts.append(ts_s)
        self._values.append(value)
        self._cum.append((self._cum[-1] if self._cum else 0.0) + delta)
        if len(self._ts) > self.capacity:
            del self._ts[0]
            del self._values[0]
            del self._cum[0]

    # ---------------------------------------------------------------- queries

    def _window(
        self, start_s: Optional[float], end_s: Optional[float]
    ) -> Tuple[int, int]:
        """Index slice ``[lo, hi)`` of points with ``start_s < ts <= end_s``."""
        lo = 0 if start_s is None else bisect_right(self._ts, start_s)
        hi = len(self._ts) if end_s is None else bisect_right(self._ts, end_s)
        return lo, hi

    def points(
        self, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> List[SeriesPoint]:
        """Raw points with ``start_s < ts <= end_s`` (open/closed range)."""
        lo, hi = self._window(start_s, end_s)
        return [
            SeriesPoint(self._ts[index], self._values[index])
            for index in range(lo, hi)
        ]

    def samples(
        self, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> Tuple[List[float], List[float]]:
        """Parallel ``(timestamps, values)`` lists over the same open/closed
        range as :meth:`points` — the allocation-light form hot SLI math
        reads instead of materialising :class:`SeriesPoint` objects."""
        lo, hi = self._window(start_s, end_s)
        return self._ts[lo:hi], self._values[lo:hi]

    def increase(self, start_s: float, end_s: float) -> float:
        """Reset-aware counter increase over ``(start_s, end_s]``.

        Sums positive deltas between consecutive samples; a drop (a
        registry reset on worker restart) contributes the post-reset value
        — the counter restarted from zero.  A series *born* inside the
        window contributes its first value whole, because every registry
        counter starts at zero.  O(log n) via the running cumulative
        increase — deltas are fixed at observe time, so a point whose
        predecessor was since evicted keeps its original delta.
        """
        lo, hi = self._window(start_s, end_s)
        if lo >= hi:
            return 0.0
        return self._cum[hi - 1] - (self._cum[lo - 1] if lo > 0 else 0.0)

    def __len__(self) -> int:
        return len(self._ts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeSeries({self.key!r}, points={len(self._ts)})"


#: What a scraper samples: a registry, anything with ``.collect()``, or a
#: plain callable returning collected families.
CollectSource = Union[MetricsRegistry, Callable[[], List[MetricFamily]]]


class MetricsScraper:
    """Samples a collect source into bounded :class:`TimeSeries` rings.

    One scrape walks every family the source collects and appends one
    point per sample line (histogram ``_bucket``/``_sum``/``_count``
    series included).
    Series materialise lazily on first sight and never exceed
    ``max_series``; beyond that new series are *counted* as dropped, not
    stored, so a label-cardinality explosion degrades visibly instead of
    eating the heap.
    """

    def __init__(
        self,
        source: CollectSource,
        clock: Optional[Clock] = None,
        interval_s: float = 1.0,
        capacity: int = 512,
        max_series: int = 2048,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        self._collect = source.collect if isinstance(source, MetricsRegistry) else source
        self.clock = clock or MonotonicClock()
        self.interval_s = interval_s
        self.capacity = capacity
        self.max_series = max_series
        self._series: Dict[str, TimeSeries] = {}
        # Selector fast path: series grouped by sample name (key-sorted),
        # with the label dict cached per series — ``match`` runs on every
        # SLO window of every tick and must not re-sort the whole keyspace
        # or rebuild label dicts each call.
        self._by_name: Dict[str, List[Tuple[TimeSeries, Dict[str, str]]]] = {}
        #: Per-scrape memo for derived readings (cleared on every scrape):
        #: SLIs park prepared cumulative window structures here so one
        #: tick's five rule windows share one pass over the raw points.
        self.query_cache: Dict[object, object] = {}
        #: Samples refused because ``max_series`` was reached.
        self.dropped_series = 0
        #: Completed scrape passes.
        self.scrapes = 0

    # ---------------------------------------------------------------- scraping

    def scrape_once(self, now: Optional[float] = None) -> int:
        """Sample the source once; returns the number of points recorded."""
        ts = self.clock.now() if now is None else now
        recorded = 0
        for family in self._collect():
            for sample in family.samples:
                name = family.name + sample.suffix
                key = series_key(name, dict(sample.labels))
                series = self._series.get(key)
                if series is None:
                    if len(self._series) >= self.max_series:
                        self.dropped_series += 1
                        continue
                    series = TimeSeries(
                        name,
                        tuple(sample.labels),
                        family.kind,
                        capacity=self.capacity,
                    )
                    self._series[key] = series
                    bucket = self._by_name.setdefault(name, [])
                    bucket.append((series, dict(series.labels)))
                    bucket.sort(key=lambda entry: entry[0].key)
                series.observe(ts, sample.value)
                recorded += 1
        self.scrapes += 1
        self.query_cache.clear()
        return recorded

    async def run(self) -> None:
        """Scrape forever on the clock — the task a fleet runner owns
        (cancel it to stop; each pass is one :meth:`scrape_once`)."""
        while True:
            self.scrape_once()
            await self.clock.sleep(self.interval_s)

    # ---------------------------------------------------------------- queries

    def get(self, key: str) -> Optional[TimeSeries]:
        return self._series.get(key)

    def match(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> List[TimeSeries]:
        """Series named ``name`` whose labels contain every ``labels`` pair
        (label-subset match — the fleet merge injects ``shard``/``replica``
        coordinates the selector usually does not care about)."""
        wanted = tuple((labels or {}).items())
        candidates = self._by_name.get(name, ())
        if not wanted:
            return [series for series, _ in candidates]
        return [
            series
            for series, have in candidates
            if all(have.get(label) == value for label, value in wanted)
        ]

    def sum_increase(
        self,
        name: str,
        start_s: float,
        end_s: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        """Reset-aware increase summed across every matching series."""
        return sum(
            series.increase(start_s, end_s) for series in self.match(name, labels)
        )

    def __len__(self) -> int:
        return len(self._series)
