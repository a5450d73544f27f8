"""Traffic shapes for chaos scenarios: how load *looks*, deterministically.

The load generator is closed-loop, so a traffic shape is not an arrival-
rate curve — it is the **composition of the schedule over its length**
(position in the schedule is the closed-loop analogue of time).  Shapes
modulate which facts are drawn where:

* ``steady`` — uniform fact draws end to end (the PR 4 baseline mix).
* ``diurnal`` — a sinusoidal ramp: the probability of drawing from a small
  hot set rises and falls over the schedule, concentrating load (and cache
  heat) at the peaks the way daily traffic does.
* ``flash_crowd`` — uniform background, then a burst window in which most
  draws hammer the hot set at once (the thundering-herd case chaos
  scenarios care about: a fault landing inside the burst hurts most).
* ``zipf`` — stationary hot-key skew: facts are ranked by a seeded shuffle
  and drawn with probability ``1 / rank**s`` (Zipf), the classic skewed
  key-popularity model.

Every shape draws methods/models uniformly from the configured lists and
may splice in a deterministic read/write mix (``write_fraction`` of the
schedule becomes evenly spaced ingest batches built by the caller's
factory).  Everything is driven by one seeded RNG plus closed-form math,
so the same spec + seed always yields a byte-identical schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..datasets.base import FactDataset, LabeledFact
from ..service.loadgen import IngestRequest, WorkItem
from ..service.server import ServiceRequest
from ..store import Mutation

__all__ = ["TRAFFIC_SHAPES", "TrafficSpec", "build_traffic"]

#: The supported shapes, in documentation order.
TRAFFIC_SHAPES = ("steady", "diurnal", "flash_crowd", "zipf")

#: Builds the ``index``-th ingest batch for a write-mixed schedule.
IngestFactory = Callable[[int], Sequence[Mutation]]


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic shape and its parameters.

    Attributes
    ----------
    shape:
        One of :data:`TRAFFIC_SHAPES`.
    requests:
        Schedule length (reads; ingest slots are added on top).
    seed:
        Seed for every draw the shape makes.
    hot_fraction:
        Fraction of the fact population forming the hot set
        (``diurnal`` / ``flash_crowd``).
    burst_start / burst_duration / burst_intensity:
        ``flash_crowd`` only: the burst window as fractions of the
        schedule, and the probability a draw inside it hits the hot set.
    peak_intensity / cycles:
        ``diurnal`` only: the hot-set probability at the peak of the
        sinusoid, and how many day cycles the schedule spans.
    zipf_s:
        ``zipf`` only: the skew exponent (larger = hotter head).
    write_fraction / write_batch_size:
        Read/write mix: ``round(write_fraction * requests)`` ingest slots
        spliced in evenly, each a batch of ``write_batch_size`` mutations
        from the caller's factory.
    """

    shape: str = "steady"
    requests: int = 200
    seed: int = 0
    hot_fraction: float = 0.05
    burst_start: float = 0.4
    burst_duration: float = 0.2
    burst_intensity: float = 0.9
    peak_intensity: float = 0.7
    cycles: float = 1.0
    zipf_s: float = 1.1
    write_fraction: float = 0.0
    write_batch_size: int = 4

    def __post_init__(self) -> None:
        if self.shape not in TRAFFIC_SHAPES:
            raise ValueError(
                f"unknown traffic shape {self.shape!r}; expected one of "
                f"{list(TRAFFIC_SHAPES)}"
            )
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= self.burst_start <= 1.0:
            raise ValueError("burst_start must be in [0, 1]")
        if not 0.0 < self.burst_duration <= 1.0:
            raise ValueError("burst_duration must be in (0, 1]")
        if not 0.0 <= self.burst_intensity <= 1.0:
            raise ValueError("burst_intensity must be in [0, 1]")
        if not 0.0 <= self.peak_intensity <= 1.0:
            raise ValueError("peak_intensity must be in [0, 1]")
        if self.cycles <= 0:
            raise ValueError("cycles must be > 0")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be > 0")
        if not 0.0 <= self.write_fraction < 1.0:
            raise ValueError("write_fraction must be in [0, 1)")
        if self.write_batch_size < 1:
            raise ValueError("write_batch_size must be >= 1")


def _hot_set(facts: Sequence[LabeledFact], fraction: float, rng: random.Random) -> List[LabeledFact]:
    shuffled = list(facts)
    rng.shuffle(shuffled)
    return shuffled[: max(1, math.ceil(len(shuffled) * fraction))]


def _pick_fact(
    spec: TrafficSpec,
    position: float,
    facts: Sequence[LabeledFact],
    hot: Sequence[LabeledFact],
    zipf_weights: Optional[Sequence[float]],
    rng: random.Random,
) -> LabeledFact:
    """One fact draw at ``position`` (0..1 through the schedule)."""
    if spec.shape == "zipf":
        assert zipf_weights is not None
        return rng.choices(list(facts), weights=list(zipf_weights))[0]
    if spec.shape == "flash_crowd":
        in_burst = (
            spec.burst_start <= position < spec.burst_start + spec.burst_duration
        )
        if in_burst and rng.random() < spec.burst_intensity:
            return rng.choice(list(hot))
        return rng.choice(list(facts))
    if spec.shape == "diurnal":
        # Sinusoidal ramp from 0 at the troughs to peak_intensity at the
        # peaks, `cycles` times across the schedule.
        hot_probability = spec.peak_intensity * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * spec.cycles * position)
        )
        if rng.random() < hot_probability:
            return rng.choice(list(hot))
        return rng.choice(list(facts))
    return rng.choice(list(facts))  # steady


def build_traffic(
    datasets: Sequence[FactDataset],
    methods: Sequence[str],
    models: Sequence[str],
    spec: TrafficSpec,
    ingest_factory: Optional[IngestFactory] = None,
) -> List[WorkItem]:
    """A deterministic schedule shaped by ``spec``.

    Reads draw facts per the shape and methods/models uniformly; with
    ``write_fraction > 0`` the schedule also carries evenly spaced
    :class:`~repro.service.loadgen.IngestRequest` slots built by
    ``ingest_factory`` (required then).  Raises :class:`ValueError` for
    empty inputs or a write mix without a factory.
    """
    if not datasets or not methods or not models:
        raise ValueError("datasets, methods, and models must be non-empty")
    facts = [fact for dataset in datasets for fact in dataset]
    if not facts:
        raise ValueError("datasets contain no facts")
    if spec.write_fraction > 0 and ingest_factory is None:
        raise ValueError("a write mix needs an ingest_factory")
    rng = random.Random(spec.seed)
    hot = _hot_set(facts, spec.hot_fraction, rng)
    zipf_weights: Optional[List[float]] = None
    if spec.shape == "zipf":
        ranked = list(facts)
        rng.shuffle(ranked)
        facts = ranked
        zipf_weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(ranked))]
    total = spec.requests
    schedule: List[WorkItem] = []
    for index in range(total):
        position = index / total
        schedule.append(
            ServiceRequest(
                fact=_pick_fact(spec, position, facts, hot, zipf_weights, rng),
                method=rng.choice(list(methods)),
                model=rng.choice(list(models)),
            )
        )
    writes = round(spec.write_fraction * total)
    for position in range(writes):
        batch = tuple(ingest_factory(position))  # type: ignore[misc]
        index = (position + 1) * total // (writes + 1)
        schedule.insert(min(index + position, len(schedule)), IngestRequest(batch))
    return schedule
