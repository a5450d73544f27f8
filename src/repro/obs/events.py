"""Structured event log: the fleet's discrete state transitions.

Metrics aggregate and traces follow single requests; the event log records
the *discrete* things that happen to the fleet in between — a replica
leaving the routing rotation, a failover, an ingest quiescing a worker, a
chaos kill consumed from the :class:`~repro.chaos.faults.FaultInjector`, a
retry budget running dry.  The chaos :class:`~repro.chaos.scenario.ScenarioRunner`
ingests it to annotate the run table, and operators tail it to answer
"what changed at t=1.7s?" without diffing metric snapshots.

Timestamps read through the injectable :class:`~repro.chaos.clock.Clock`,
so under a :class:`~repro.chaos.clock.VirtualClock` the log is
deterministic alongside the span trees.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, TextIO, Union

from ..chaos.clock import Clock, MonotonicClock

__all__ = ["EVENT_KINDS", "Event", "EventLog"]

#: Every event kind the serving tier emits (the runbook documents each).
EVENT_KINDS = (
    "replica_unhealthy",   # left the routing rotation after faults
    "replica_recovered",   # re-admitted by a probe or successful request
    "replica_killed",      # hard-stopped (chaos kill / ops eviction)
    "failover",            # a sibling rescued a request after >= 1 faults
    "quiesce_start",       # an ingest closed a worker's admission gate
    "quiesce_end",         # the gate reopened at the new epoch
    "budget_exhausted",    # a request spent its whole retry budget
    "alert_pending",       # a burn-rate rule tripped; holding for ``ALERT_FOR_S``
    "alert_firing",        # the alert held long enough and paged
    "alert_resolved",      # a firing alert's condition cleared
    "edge_bootstrap",      # a geo edge joined the serving tier (snapshot + replay)
    "edge_drain",          # a geo edge applied queued batches (catch-up tick)
    "edge_killed",         # a geo edge hard-stopped (chaos kill / drain failure)
)


@dataclass(frozen=True)
class Event:
    """One discrete fleet transition."""

    seq: int
    ts_s: float
    kind: str
    target: str = ""
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts_s": self.ts_s,
            "kind": self.kind,
            "target": self.target,
            "attributes": self.attributes,
        }


#: Events an :class:`EventLog` keeps; the oldest is overwritten past it.
EVENT_LOG_CAPACITY = 4096


class EventLog:
    """Bounded, thread-safe, clock-stamped event buffer."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or MonotonicClock()
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=EVENT_LOG_CAPACITY)
        self._seq = 0
        #: Events overwritten by the ring since construction — ``seq`` is
        #: still globally monotonic, so ``dropped + len(log)`` == emitted.
        self.dropped = 0

    def emit(self, kind: str, target: str = "", **attributes: Any) -> Event:
        """Record one event (unknown kinds are allowed — the tier may grow
        new transitions before this list catches up — but the known ones
        keep their documented names)."""
        with self._lock:
            event = Event(self._seq, self.clock.now(), kind, target, dict(attributes))
            self._seq += 1
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)
            return event

    def events(self) -> List[Event]:
        """A copy of the buffer, oldest first."""
        with self._lock:
            return list(self._events)

    def counts(self) -> Dict[str, int]:
        """``{kind: occurrences}`` over the current buffer."""
        tally: Dict[str, int] = {}
        for event in self.events():
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return dict(sorted(tally.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def export_jsonl(self, sink: Union[str, TextIO]) -> int:
        """One JSON object per event (sorted keys — deterministic under a
        virtual clock); returns the event count.

        Streams line by line so exporting a full ring never materialises
        a second copy of the buffer as one string.
        """
        events = self.events()
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        for event in events:
            sink.write(
                json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
            )
            sink.write("\n")
        return len(events)

    def format_table(self, title: str = "Fleet events") -> str:
        """The buffer as an aligned text table (the ``obs`` CLI's view)."""
        lines = [title, "-" * len(title)]
        header = f"{'seq':>4}  {'t (s)':>8}  {'kind':<18}  {'target':<20}  detail"
        lines.append(header)
        for event in self.events():
            detail = " ".join(
                f"{key}={event.attributes[key]}" for key in sorted(event.attributes)
            )
            lines.append(
                f"{event.seq:>4}  {event.ts_s:>8.3f}  {event.kind:<18}  "
                f"{event.target:<20}  {detail}"
            )
        return "\n".join(lines)
