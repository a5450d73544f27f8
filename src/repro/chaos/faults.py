"""Fault injection: named fault points driven by a seeded, clocked timeline.

The serving stack exposes **fault points** — well-known names compiled
into the layers that can plausibly fail in production:

========================  ====================================================
point                     where it fires
========================  ====================================================
``shard:{i}/replica:{j}``  a :class:`~repro.service.server.ValidationService`
                           worker, just before executing a micro-batch
``store``                  the router's write path, before a mutation batch
                           fans out (:meth:`ShardedValidationService.apply_mutations`)
``frontend``               the TCP front-end, per decoded request line
``edge:{i}``               a geo edge's background drain loop, per tick
                           (``kill`` removes the edge; ``stall``/``error``
                           partition it — the queue stalls but the edge
                           keeps serving stale reads; ``slow`` adds lag)
========================  ====================================================

A :class:`FaultSchedule` is a list of :class:`FaultEvent` rows — *at
``at_s`` activate ``fault`` on ``target``, optionally clearing at
``clear_at_s``* — and a :class:`FaultInjector` evaluates it **lazily**
against an injectable :class:`~repro.chaos.clock.Clock`: each time a fault
point fires, the injector activates every event whose time has come and
retires every event whose clear time has passed, then applies the active
faults.  Nothing polls and nothing sleeps on a timer, so the same schedule
is exactly reproducible on a :class:`~repro.chaos.clock.VirtualClock`.

Fault taxonomy (mirrors the scenario YAML):

* ``kill`` — the component is dead: every fire raises.  Replica-targeted
  kills are additionally surfaced through :meth:`FaultInjector.due_kills`
  so a scenario driver can hard-stop the worker for real
  (:meth:`ShardedValidationService.kill_replica`), which is what makes a
  kill permanent rather than a string of raises.
* ``stall(duration_s)`` — every fire suspends for ``duration_s`` of clock
  time: long enough past the request timeout and the router abandons the
  attempt and fails over.
* ``error(rate)`` — every fire raises :class:`InjectedFaultError` with
  probability ``rate``, drawn from the injector's seeded RNG.
* ``slow(latency_s, jitter_s)`` — every fire sleeps a latency sampled
  uniformly from ``latency_s ± jitter_s`` (clipped at zero): degraded but
  alive, the tail-latency case.

Targets address points by prefix: ``shard:0`` matches every replica of
shard 0, ``shard:0/replica:1`` exactly one worker.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .clock import Clock, MonotonicClock

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "InjectedFaultError",
    "parse_edge_target",
    "parse_replica_target",
]

KILL = "kill"
STALL = "stall"
ERROR = "error"
SLOW = "slow"

#: The supported fault kinds, in documentation order.
FAULT_KINDS = (KILL, STALL, ERROR, SLOW)

_REPLICA_TARGET = re.compile(r"^shard:(\d+)/replica:(\d+)$")
_SHARD_TARGET = re.compile(r"^shard:(\d+)$")
_EDGE_TARGET = re.compile(r"^edge:(\d+)$")


class InjectedFaultError(RuntimeError):
    """A fault point fired: the scheduled fault for its target applied.

    Carries the point and fault kind so failover/retry accounting (and
    test assertions) can tell injected faults from organic bugs.
    """

    def __init__(self, point: str, kind: str, detail: str = "") -> None:
        self.point = point
        self.kind = kind
        message = f"injected {kind} fault at {point}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


def parse_replica_target(target: str) -> Optional[Tuple[int, int]]:
    """``(shard, replica)`` for a ``shard:{i}/replica:{j}`` target, else None."""
    match = _REPLICA_TARGET.match(target)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def parse_edge_target(target: str) -> Optional[int]:
    """The edge index for an ``edge:{i}`` target, else ``None``."""
    match = _EDGE_TARGET.match(target)
    if match is None:
        return None
    return int(match.group(1))


def _valid_target(target: str) -> bool:
    return bool(
        target in ("store", "frontend")
        or _SHARD_TARGET.match(target)
        or _REPLICA_TARGET.match(target)
        or _EDGE_TARGET.match(target)
    )


@dataclass(frozen=True)
class FaultSpec:
    """One fault's kind and parameters (see the module taxonomy)."""

    kind: str
    duration_s: float = 0.0  # stall
    rate: float = 1.0  # error
    latency_s: float = 0.0  # slow: mean added latency
    jitter_s: float = 0.0  # slow: +/- uniform jitter

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {list(FAULT_KINDS)}"
            )
        if self.kind == STALL and self.duration_s <= 0:
            raise ValueError("stall faults need duration_s > 0")
        if self.kind == ERROR and not 0.0 < self.rate <= 1.0:
            raise ValueError("error faults need a rate in (0, 1]")
        if self.kind == SLOW and self.latency_s <= 0:
            raise ValueError("slow faults need latency_s > 0")
        if self.jitter_s < 0:
            raise ValueError("jitter_s must be >= 0")

    @staticmethod
    def parse(value) -> "FaultSpec":
        """Build a spec from YAML-ish input.

        Accepts a string — ``"kill"``, ``"stall:0.5"``, ``"error:0.25"``,
        ``"slow:0.02"`` or ``"slow:0.02:0.01"`` (latency:jitter) — or a
        mapping with a ``kind`` key and the kind's parameter fields.
        Raises :class:`ValueError` for anything else.
        """
        if isinstance(value, FaultSpec):
            return value
        if isinstance(value, str):
            kind, _, params = value.partition(":")
            parts = [part for part in params.split(":") if part] if params else []
            try:
                numbers = [float(part) for part in parts]
            except ValueError as exc:
                raise ValueError(f"malformed fault {value!r}: {exc}") from exc
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"malformed fault {value!r}: parameters must be finite")
            if kind == KILL:
                if numbers:
                    raise ValueError("kill faults take no parameters")
                return FaultSpec(KILL)
            if kind == STALL:
                if len(numbers) != 1:
                    raise ValueError("stall faults take exactly one duration")
                return FaultSpec(STALL, duration_s=numbers[0])
            if kind == ERROR:
                if len(numbers) != 1:
                    raise ValueError("error faults take exactly one rate")
                return FaultSpec(ERROR, rate=numbers[0])
            if kind == SLOW:
                if len(numbers) not in (1, 2):
                    raise ValueError("slow faults take latency[:jitter]")
                return FaultSpec(
                    SLOW,
                    latency_s=numbers[0],
                    jitter_s=numbers[1] if len(numbers) == 2 else 0.0,
                )
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {list(FAULT_KINDS)}"
            )
        if isinstance(value, dict):
            unknown = set(value) - {"kind", "duration_s", "rate", "latency_s", "jitter_s"}
            if unknown:
                raise ValueError(f"unknown fault fields {sorted(unknown)}")
            if "kind" not in value:
                raise ValueError("a fault mapping needs a 'kind'")
            return FaultSpec(**value)
        raise ValueError(f"cannot parse a fault from {value!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: activate on ``target`` at ``at_s``, clear at
    ``clear_at_s`` (``None`` = never; the fault persists for the run)."""

    at_s: float
    target: str
    fault: FaultSpec
    clear_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.clear_at_s is not None and self.clear_at_s <= self.at_s:
            raise ValueError(
                f"clear_at_s ({self.clear_at_s}) must be after at_s ({self.at_s})"
            )
        if not _valid_target(self.target):
            raise ValueError(
                f"unknown fault target {self.target!r}; expected 'store', "
                "'frontend', 'shard:<i>', 'shard:<i>/replica:<j>', or 'edge:<i>'"
            )
        if self.fault.kind == KILL and self.clear_at_s is not None:
            raise ValueError("kill faults are permanent; they cannot clear")

    def matches(self, point: str) -> bool:
        """Whether this event's target addresses ``point`` (exact or prefix)."""
        return point == self.target or point.startswith(self.target + "/")

    def window(self) -> Tuple[float, float]:
        """The active interval ``[at_s, clear_at_s)`` (inf when permanent)."""
        return (self.at_s, self.clear_at_s if self.clear_at_s is not None else float("inf"))


class FaultSchedule:
    """An ordered, validated list of :class:`FaultEvent` rows.

    Raises :class:`ValueError` when two events on the same target have
    overlapping active windows — an overlap is always a scenario-authoring
    mistake (the second fault would be shadowed or compounded
    unpredictably), so it is rejected up front rather than surfacing as a
    confusing mid-run interaction.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(
            events, key=lambda event: (event.at_s, event.target)
        )
        by_target: Dict[str, List[FaultEvent]] = {}
        for event in self.events:
            by_target.setdefault(event.target, []).append(event)
        for target, rows in by_target.items():
            for earlier, later in zip(rows, rows[1:]):
                if later.at_s < earlier.window()[1]:
                    raise ValueError(
                        f"overlapping fault windows on target {target!r}: "
                        f"{earlier.fault.kind} at {earlier.at_s}s has not cleared "
                        f"when {later.fault.kind} starts at {later.at_s}s"
                    )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def kill_targets(self) -> List[Tuple[float, Tuple[int, int]]]:
        """``(at_s, (shard, replica))`` for every replica-targeted kill."""
        kills = []
        for event in self.events:
            if event.fault.kind != KILL:
                continue
            coordinates = parse_replica_target(event.target)
            if coordinates is not None:
                kills.append((event.at_s, coordinates))
        return kills

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSchedule({len(self.events)} events)"


@dataclass
class _ActiveFault:
    event: FaultEvent
    injected: int = 0


class FaultInjector:
    """Evaluates a :class:`FaultSchedule` at named fault points.

    The injector is lazy: :meth:`fire` / :meth:`check` first roll the
    schedule forward to ``clock.now()`` (activating due events, retiring
    cleared ones), then apply whatever is active at the given point.  The
    error-fault RNG is seeded, so a single-threaded replay of the same
    fire sequence injects identically.

    An injector with no schedule is inert and safe to leave attached —
    the fast path is one dict lookup.
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        clock: Optional[Clock] = None,
        seed: int = 0,
    ) -> None:
        self.schedule = schedule or FaultSchedule()
        self.clock = clock or MonotonicClock()
        self.seed = seed
        self._rng = random.Random(seed)
        self._started_at: Optional[float] = None
        self._pending: List[FaultEvent] = []
        self._active: List[_ActiveFault] = []
        self._consumed_kills: set = set()
        #: Telemetry: fires evaluated and injections applied, by kind.
        self.fired = 0
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Anchor the timeline: schedule times are relative to this call."""
        self._started_at = self.clock.now()
        self._rng = random.Random(self.seed)
        self._pending = list(self.schedule.events)
        self._active = []
        self._consumed_kills = set()
        self.fired = 0
        self.injected = {kind: 0 for kind in FAULT_KINDS}

    def elapsed(self) -> float:
        """Seconds of clock time since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return self.clock.now() - self._started_at

    # ------------------------------------------------------------- evaluation

    def _refresh(self) -> None:
        if self._started_at is None:
            return
        now = self.elapsed()
        if self._pending:
            still_pending = []
            for event in self._pending:
                if event.at_s <= now:
                    # Events whose whole window already passed never activate.
                    if event.window()[1] > now:
                        self._active.append(_ActiveFault(event))
                else:
                    still_pending.append(event)
            self._pending = still_pending
        if self._active:
            self._active = [
                active for active in self._active if active.event.window()[1] > now
            ]

    def active_for(self, point: str) -> List[FaultEvent]:
        """The events currently active at ``point`` (rolls time forward)."""
        self._refresh()
        return [active.event for active in self._active if active.event.matches(point)]

    def due_kills(self) -> List[Tuple[int, int]]:
        """Replica-targeted kill events that have come due and were not yet
        returned; the scenario driver consumes these to hard-stop workers."""
        self._refresh()
        due = []
        for active in self._active:
            event = active.event
            if event.fault.kind != KILL:
                continue
            coordinates = parse_replica_target(event.target)
            if coordinates is None or coordinates in self._consumed_kills:
                continue
            self._consumed_kills.add(coordinates)
            due.append(coordinates)
        return due

    def check(self, point: str) -> None:
        """Synchronous fault point: raise-only faults (``kill``/``error``).

        For code that cannot await; ``stall``/``slow`` faults are ignored
        here — a synchronous sleep would block the whole event loop, which
        is a worse lie than skipping the injection.
        """
        self.fired += 1
        for event in self.active_for(point):
            kind = event.fault.kind
            if kind == KILL:
                self.injected[KILL] += 1
                raise InjectedFaultError(point, KILL)
            if kind == ERROR and self._rng.random() < event.fault.rate:
                self.injected[ERROR] += 1
                raise InjectedFaultError(point, ERROR, f"rate={event.fault.rate}")

    async def fire(self, point: str) -> None:
        """Asynchronous fault point: applies every active fault at ``point``.

        Raises :class:`InjectedFaultError` for ``kill`` and (per ``rate``)
        ``error`` faults; suspends on the injector's clock for ``stall``
        and ``slow`` faults.  A point with no active fault returns
        immediately without touching the event loop.
        """
        self.fired += 1
        events = self.active_for(point)
        if not events:
            return
        delay = 0.0
        for event in events:
            fault = event.fault
            if fault.kind == KILL:
                self.injected[KILL] += 1
                raise InjectedFaultError(point, KILL)
            if fault.kind == ERROR:
                if self._rng.random() < fault.rate:
                    self.injected[ERROR] += 1
                    raise InjectedFaultError(point, ERROR, f"rate={fault.rate}")
            elif fault.kind == STALL:
                self.injected[STALL] += 1
                delay += fault.duration_s
            elif fault.kind == SLOW:
                self.injected[SLOW] += 1
                jitter = fault.jitter_s
                sample = fault.latency_s + (
                    self._rng.uniform(-jitter, jitter) if jitter else 0.0
                )
                delay += max(0.0, sample)
        if delay > 0:
            await self.clock.sleep(delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(events={len(self.schedule)}, fired={self.fired}, "
            f"injected={ {k: v for k, v in self.injected.items() if v} })"
        )
