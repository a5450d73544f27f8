"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per service owns every instrument that used to
live as ad-hoc counter attributes on ``ServiceMetrics``/``RouterMetrics``.
Instruments are named, typed, carry label sets, and render to a
Prometheus-style text exposition (the ``metrics`` verb on the TCP frontend
and the ``obs`` CLI subcommand both emit it).

Design points:

* **Histograms keep two representations.**  Fixed cumulative buckets are
  the exposition/alerting shape; a bounded raw-sample window is kept
  alongside so :meth:`Histogram.percentile` stays *exact* (interpolated
  over real samples, not bucket-quantised) — the serving benchmarks'
  latency floors assert on real percentiles, and per-shard percentiles
  can only be rolled up from raw windows.
* **Exemplars** link histogram buckets to traces: ``observe(value,
  exemplar=trace_id)`` remembers the latest trace id per bucket, rendered
  in OpenMetrics exemplar syntax (``… # {trace_id="…"} value``) and
  surfaced on ``MetricsSnapshot.exemplars``.
* **Cross-registry merging**: :meth:`MetricsRegistry.collect` returns
  plain :class:`MetricFamily` rows with injectable extra labels, and
  :func:`render_exposition` groups same-named families — a sharded
  router merges every replica's registry into one fleet exposition with
  ``shard``/``replica`` labels, without the registries sharing state.

Everything is lock-protected: the TCP frontend, asyncio workers, and the
fork-pool result threads all record into the same instruments.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "percentile",
    "render_exposition",
]

#: Every histogram's bucket bounds (seconds), ascending: sub-millisecond
#: through multi-second, matching the simulated-backend latency range the
#: service benchmarks use.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
#: Raw observations a histogram keeps per label set for exact percentiles.
HISTOGRAM_WINDOW = 4096


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 100]); 0.0 for empty.

    The single percentile implementation for the whole serving tier
    (``ServiceMetrics``/``RouterMetrics`` delegate here through their
    registry histograms).  Interpolation fixes the short-window degeneracy
    of the old nearest-rank rule: over two samples, p50 is their midpoint
    instead of silently collapsing to the minimum, and p99 approaches the
    maximum smoothly instead of jumping a whole sample at a time.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * (q / 100.0)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def _format_label_value(value: object) -> str:
    text = str(value)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_format_label_value(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def _le_label(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return repr(bound) if bound != int(bound) else str(int(bound))


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value`` plus optional exemplar."""

    suffix: str  # "", "_bucket", "_sum", "_count"
    labels: Tuple[Tuple[str, str], ...]
    value: float
    exemplar: Optional[Tuple[str, float]] = None  # (trace_id, observed value)


@dataclass
class MetricFamily:
    """One named metric's samples, ready for rendering or merging."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: List[Sample] = field(default_factory=list)


class _Metric:
    """Shared child-management for labelled instruments."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            # The unlabelled fast path: one default child, no dict lookup
            # needed by callers.
            self._children[()] = self._new_child()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labelled ({self.labelnames}); "
                "call .labels(...) first"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()  # type: ignore[attr-defined]


class _CounterChild:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Counter(_Metric):
    """A monotonically increasing count (optionally per label set)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _GaugeChild:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge(_Metric):
    """A value that goes up and down (queue depth, unhealthy replicas)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _HistogramChild:
    def __init__(self, buckets: Tuple[float, ...], window: int) -> None:
        self.buckets = buckets
        self._lock = threading.Lock()
        self._counts = [0] * (len(buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._window: Deque[float] = deque(maxlen=window)
        # Latest exemplar per bucket index: (trace_id, observed value).
        self._exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        with self._lock:
            index = len(self.buckets)
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    index = position
                    break
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._window.append(value)
            if exemplar is not None:
                self._exemplars[index] = (exemplar, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def window(self) -> List[float]:
        """A copy of the bounded raw-sample window (exact percentiles)."""
        with self._lock:
            return list(self._window)

    def percentile(self, q: float) -> float:
        return percentile(self.window(), q)

    def exemplars(self) -> List[Tuple[str, str]]:
        """``(bucket le label, trace_id)`` pairs, bucket order."""
        with self._lock:
            items = sorted(self._exemplars.items())
        bounds = list(self.buckets) + [math.inf]
        return [(_le_label(bounds[index]), trace_id) for index, (trace_id, _) in items]

    def cumulative(self) -> List[Tuple[float, int, Optional[Tuple[str, float]]]]:
        """``(upper bound, cumulative count, exemplar)`` per bucket."""
        with self._lock:
            counts = list(self._counts)
            exemplars = dict(self._exemplars)
        bounds = list(self.buckets) + [math.inf]
        rows = []
        running = 0
        for index, bound in enumerate(bounds):
            running += counts[index]
            rows.append((bound, running, exemplars.get(index)))
        return rows

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._window.clear()
            self._exemplars.clear()


class Histogram(_Metric):
    """Fixed cumulative buckets + a bounded raw window for exact percentiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.buckets = LATENCY_BUCKETS
        self.window_size = HISTOGRAM_WINDOW
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets, self.window_size)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self._default().observe(value, exemplar)

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def window(self) -> List[float]:
        return self._default().window()

    def percentile(self, q: float) -> float:
        return self._default().percentile(q)

    def exemplars(self) -> List[Tuple[str, str]]:
        return self._default().exemplars()


class MetricsRegistry:
    """Owns named instruments; the single source every snapshot derives from.

    Instrument getters are idempotent: asking twice for the same name
    returns the same instrument, and asking with a conflicting type or
    label set raises :class:`ValueError` (two call sites silently feeding
    differently-shaped metrics into one name is the bug this catches).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help, ())

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every instrument — the measurement-window restart hook
        (``ServiceMetrics.start``); exposition consumers never call this."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # ------------------------------------------------------------- exposition

    def collect(
        self, extra_labels: Optional[Mapping[str, object]] = None
    ) -> List[MetricFamily]:
        """Every instrument as :class:`MetricFamily` rows.

        ``extra_labels`` are prepended to every sample's label set — the
        fleet merge path: each replica's registry collects with its
        ``shard``/``replica`` coordinates injected.
        """
        extras: Tuple[Tuple[str, str], ...] = tuple(
            (key, str(value)) for key, value in (extra_labels or {}).items()
        )
        with self._lock:
            metrics = sorted(self._metrics.items())
        families: List[MetricFamily] = []
        for name, metric in metrics:
            family = MetricFamily(name=name, kind=metric.kind, help=metric.help)
            for key, child in metric.children():
                base = extras + tuple(zip(metric.labelnames, key))
                if metric.kind == "histogram":
                    for bound, cumulative, exemplar in child.cumulative():
                        family.samples.append(
                            Sample(
                                suffix="_bucket",
                                labels=base + (("le", _le_label(bound)),),
                                value=float(cumulative),
                                exemplar=exemplar,
                            )
                        )
                    family.samples.append(
                        Sample(suffix="_sum", labels=base, value=child.sum)
                    )
                    family.samples.append(
                        Sample(suffix="_count", labels=base, value=float(child.count))
                    )
                else:
                    family.samples.append(
                        Sample(suffix="", labels=base, value=child.value)
                    )
            families.append(family)
        return families

    def exposition(self) -> str:
        """This registry alone as Prometheus-style text."""
        return render_exposition(self.collect())


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Render (and merge same-named) families as Prometheus-style text.

    Families with the same name — one per replica registry in a fleet —
    merge into one ``# HELP``/``# TYPE`` block; a kind mismatch across
    registries raises :class:`ValueError`.
    """
    merged: "Dict[str, MetricFamily]" = {}
    for family in families:
        existing = merged.get(family.name)
        if existing is None:
            merged[family.name] = MetricFamily(
                family.name, family.kind, family.help, list(family.samples)
            )
        else:
            if existing.kind != family.kind:
                raise ValueError(
                    f"metric {family.name!r} collected as both "
                    f"{existing.kind} and {family.kind}"
                )
            existing.samples.extend(family.samples)
    lines: List[str] = []
    for name in sorted(merged):
        family = merged[name]
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for sample in family.samples:
            line = (
                f"{name}{sample.suffix}"
                f"{_render_labels(dict(sample.labels))} "
                f"{_format_value(sample.value)}"
            )
            if sample.exemplar is not None:
                trace_id, observed = sample.exemplar
                line += f' # {{trace_id="{trace_id}"}} {_format_value(observed)}'
            lines.append(line)
    return "\n".join(lines) + "\n"
