"""Injectable clocks: real monotonic time or deterministic virtual time.

Every time-dependent mechanism in the chaos and serving layers — fault
schedules, health-probe timers, retry backoff, request deadlines — reads
the current time and sleeps through a :class:`Clock` instead of calling
``time.monotonic()`` / ``asyncio.sleep`` directly.  Production code runs
on the :class:`MonotonicClock` (a thin veneer over the real primitives);
tests run on a :class:`VirtualClock`, where time only moves when the test
calls :meth:`VirtualClock.advance` — so "wait 0.25 s for the probe timer"
is a deterministic, instantaneous assertion instead of a flaky wall-clock
race.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import List, Tuple

__all__ = ["Clock", "MonotonicClock", "VirtualClock"]


class Clock:
    """The time surface the chaos/serving layers depend on.

    Implementations provide :meth:`now` (monotonic seconds; only
    differences are meaningful) and the awaitable :meth:`sleep`.
    """

    def now(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for ``seconds`` of this clock's time."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real clock: ``time.monotonic`` + ``asyncio.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MonotonicClock()"


class VirtualClock(Clock):
    """Deterministic virtual time: ``now()`` moves only via :meth:`advance`.

    Sleepers park on futures keyed by their virtual deadline;
    :meth:`advance` walks the deadline heap in order, stepping ``now()``
    to each due deadline before releasing its sleeper, so two sleepers
    due at different times always wake in deadline order with the clock
    reading exactly their own deadline.  Released sleepers resume on the
    next event-loop iteration — after a sync ``advance()`` a test should
    ``await asyncio.sleep(0)`` (or use the async :meth:`run_for`) to let
    them run.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = itertools.count()
        self._sleepers: List[Tuple[float, int, "asyncio.Future[None]"]] = []

    def now(self) -> float:
        return self._now

    @property
    def pending_sleepers(self) -> int:
        """Tasks currently parked in :meth:`sleep`."""
        return sum(1 for _, _, future in self._sleepers if not future.done())

    def next_deadline(self) -> float:
        """The earliest parked deadline; raises :class:`ValueError` when
        no task is sleeping."""
        while self._sleepers and self._sleepers[0][2].done():
            heapq.heappop(self._sleepers)
        if not self._sleepers:
            raise ValueError("no tasks are sleeping on this VirtualClock")
        return self._sleepers[0][0]

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            # Still yield once, as asyncio.sleep(0) does.
            await asyncio.sleep(0)
            return
        future: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        heapq.heappush(
            self._sleepers, (self._now + seconds, next(self._sequence), future)
        )
        await future

    def advance(self, seconds: float) -> int:
        """Move virtual time forward; wake every sleeper that comes due.

        Returns the number of sleepers released.  Raises
        :class:`ValueError` for a negative step.
        """
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + seconds
        released = 0
        while self._sleepers and self._sleepers[0][0] <= target:
            deadline, _, future = heapq.heappop(self._sleepers)
            # Step the clock to the deadline first: a sleeper waking "at"
            # t=0.25 must observe now() == 0.25, not the advance target.
            self._now = max(self._now, deadline)
            if not future.done():  # a cancelled sleeper stays cancelled
                future.set_result(None)
                released += 1
        self._now = target
        return released

    async def run_for(self, seconds: float) -> int:
        """Advance deadline by deadline, yielding to the loop after each.

        Between wakes the clock jumps straight to the next parked deadline
        (never past it), so every woken task observes ``now()`` equal to
        its own deadline — and any sleeps it starts while handling the
        wake are themselves honoured within the same call.  Returns the
        total sleepers released.
        """
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + seconds
        released = 0
        while True:
            try:
                deadline = self.next_deadline()
            except ValueError:
                break
            if deadline > target:
                break
            released += self.advance(deadline - self._now)
            # Two yields: one to wake the sleeper, one to let it progress
            # far enough to park again.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        released += self.advance(target - self._now)
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return released

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self._now:.3f}, sleepers={self.pending_sleepers})"
