"""Replica selection and health for a fleet of replica groups.

:class:`ReplicaBalancer` decides which replica of a shard's group serves a
read, in which order its siblings are tried when it faults, and when a
faulted replica is probed back into the rotation.

* In a group that caches verdicts, each verdict coordinate has a **home**
  replica (a process-stable hash of its dataset, fact id, method and
  model), and its reads go there unless the home is out of the rotation
  or at least one full batch deeper than the shallowest healthy sibling —
  so the group's caches divide the shard's coordinates instead of each
  holding the same ones.  A cacheless group orders healthy replicas by
  queue depth (least pending first) with a round-robin tie-break, so
  single-fact reads fan out across the whole group.
* A replica that raises, stalls or is killed mid-request turns unhealthy.
  After ``probe_interval_s`` the balancer routes one canary request at it:
  success restores it to the rotation, failure resets the probe timer.  A
  replica removed by :meth:`ReplicaBalancer.kill` never rejoins.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..chaos.clock import Clock
from .server import ServiceRequest, ValidationService

__all__ = ["HOME_MEMO_CAPACITY", "ReplicaBalancer", "ReplicaHealth"]

#: Bound on the per-coordinate home-replica memo, emptied whole when full
#: (a miss costs only the crc32 it would cost without one).
HOME_MEMO_CAPACITY = 4096


@dataclass
class ReplicaHealth:
    """Live health and traffic state of one replica worker.

    Attributes
    ----------
    shard / replica:
        The replica's coordinates in the fleet.
    healthy:
        Whether the balancer currently routes regular traffic here.  A
        replica turns unhealthy on its first fault and healthy again the
        moment any request (including a probe) succeeds on it.
    served:
        Requests this replica answered (completions and shed responses).
    failures / timeouts:
        Faulted attempts observed on this replica; ``timeouts`` is the
        subset abandoned past ``request_timeout_s``.
    consecutive_failures:
        Current fault streak; reset to zero by any success.
    probes:
        Canary requests routed here while unhealthy.
    readmissions:
        Times a probe (or last-resort attempt) restored the replica.
    marked_unhealthy_at:
        Balancer-clock time of the latest fault — the probe timer's
        anchor — or ``None`` while healthy.  Read through the injectable
        :class:`~repro.chaos.clock.Clock`, so probe timing is
        deterministic under a virtual clock.
    probing:
        True while one canary is in flight (bounds probes to one at a
        time per replica).
    """

    shard: int
    replica: int
    healthy: bool = True
    served: int = 0
    failures: int = 0
    timeouts: int = 0
    consecutive_failures: int = 0
    probes: int = 0
    readmissions: int = 0
    marked_unhealthy_at: Optional[float] = None
    probing: bool = False


class ReplicaBalancer:
    """Pick order, health table and probe timing over ``groups``: one list
    of replica services per shard, every list the same length.

    :attr:`health` is ``health[shard][replica]``; :meth:`reset` renews it in
    place, so whatever holds it (metrics, a scraper) keeps reading the live
    table.  :attr:`events` is the armed event log, ``None`` when unarmed.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[ValidationService]],
        clock: Clock,
        probe_interval_s: float,
    ) -> None:
        self.groups = groups
        self.clock = clock
        self.probe_interval_s = probe_interval_s
        self.events = None
        self.health: List[List[ReplicaHealth]] = [[] for _ in groups]
        # Replica indexes by rotation distance from each offset.
        size = len(groups[0])
        self._rotations = [[(rr + step) % size for step in range(size)] for rr in range(size)]
        # Per shard, the queue-depth lead at which a caching group's home
        # replica yields its reads to a shallower sibling: one full batch.
        # None: a cacheless group, which round-robins.
        self._home_lead: List[Optional[int]] = [
            group[0].config.max_batch_size if group[0].cache is not None else None
            for group in groups
        ]
        # (dataset, fact_id, method, model) -> home replica index.
        self._homes: Dict[Tuple[str, str, str, str], int] = {}
        #: ``(shard, replica)`` of every replica :meth:`kill` removed: their
        #: store copies missed every ingest since, so they never rejoin —
        #: not even across a stop()/start() cycle — without a fresh log ship.
        self.dead: set = set()
        self.reset()

    def reset(self) -> None:
        """A fresh rotation for a (re)start: round-robin offsets back to zero
        and every replica healthy again, except the killed ones."""
        #: Per shard, a cacheless group's next round-robin offset.
        self.rr = [0] * len(self.groups)
        for shard, healths in enumerate(self.health):
            healths[:] = [
                ReplicaHealth(shard, replica, (shard, replica) not in self.dead)
                for replica in range(len(self.groups[shard]))
            ]

    @staticmethod
    def point(shard_index: int, replica_index: int) -> str:
        """One replica's fault-injection and observability point label."""
        return f"shard:{shard_index}/replica:{replica_index}"

    def describe(self, shard_index: int, replica_index: int) -> str:
        """One replica as a request's error detail names it."""
        if len(self.groups[shard_index]) == 1:
            return f"shard {shard_index}"
        return f"shard {shard_index} replica {replica_index}"

    def order(self, shard_index: int, request: ServiceRequest) -> List[int]:
        """Pick order for one read: probe-due canary, then the healthy
        rotation (from the home replica, or a round-robin offset in a
        cacheless group), then unhealthy-but-running last resorts — a shard
        whose every replica is marked down still *tries*, since a request
        is the cheapest probe there is.  Stopped replicas are left out.
        Only a shard with a replica out of the rotation reads the clock.
        """
        group = self.groups[shard_index]
        healths = self.health[shard_index]
        if len(group) == 1:
            return [0]
        lead = self._home_lead[shard_index]
        if lead is None:
            offset = self.rr[shard_index]
            self.rr[shard_index] = (offset + 1) % len(group)
        else:
            fact = request.fact
            key = (fact.dataset, fact.fact_id, request.method, request.model)
            offset = self._homes.get(key)
            if offset is None:
                offset = self.home(key)
        # Rotation distance order, so a stable sort by queue depth alone
        # is the (depth, distance) order — and equal depths need none.
        healthy = [
            index
            for index in self._rotations[offset]
            if healths[index].healthy and not group[index]._closed
        ]
        depths = [group[index].pending for index in healthy]
        if depths and (
            min(depths) != max(depths) if lead is None else depths[0] - min(depths) >= lead
        ):
            healthy.sort(key=lambda index: group[index].pending)
        if len(healthy) == len(group):
            return healthy
        now = self.clock.now()
        due: List[int] = []
        resting: List[int] = []
        for replica_index, health in enumerate(healths):
            if health.healthy or group[replica_index]._closed:
                continue
            if (
                not health.probing
                and health.marked_unhealthy_at is not None
                and now - health.marked_unhealthy_at >= self.probe_interval_s
            ):
                due.append(replica_index)
            else:
                resting.append(replica_index)
        order: List[int] = []
        if due:
            probe = min(due, key=lambda index: healths[index].marked_unhealthy_at)
            probe_health = healths[probe]
            probe_health.probing = True
            probe_health.probes += 1
            order.append(probe)
            resting.extend(index for index in due if index != probe)
        order.extend(healthy)
        order.extend(sorted(resting))
        return order

    def home(self, key: Tuple[str, str, str, str]) -> int:
        """The home replica of one verdict coordinate: its crc32 (stable
        across processes, unlike the builtin ``hash``) modulo the group
        size, memoised."""
        if len(self._homes) >= HOME_MEMO_CAPACITY:
            self._homes.clear()
        digest = zlib.crc32("\0".join(key).encode("utf-8"))
        home = self._homes[key] = digest % len(self._rotations)
        return home

    def record_success(self, shard_index: int, replica_index: int) -> None:
        """One answer from the replica: count it and readmit the replica."""
        health = self.health[shard_index][replica_index]
        health.served += 1
        health.consecutive_failures = 0
        health.probing = False
        if not health.healthy:
            health.healthy = True
            health.marked_unhealthy_at = None
            health.readmissions += 1
            if self.events is not None:
                self.events.emit(
                    "replica_recovered",
                    self.point(shard_index, replica_index),
                    readmissions=health.readmissions,
                )

    def record_failure(
        self, errors: List[str], shard_index: int, replica_index: int, what: str,
        timeout: bool = False,
    ) -> None:
        """Count one faulted attempt; ``errors`` gets ``"<replica> <what>"``."""
        errors.append(f"{self.describe(shard_index, replica_index)} {what}")
        health = self.health[shard_index][replica_index]
        health.failures += 1
        if timeout:
            health.timeouts += 1
        health.consecutive_failures += 1
        health.probing = False
        if health.healthy and self.events is not None:
            self.events.emit(
                "replica_unhealthy",
                self.point(shard_index, replica_index),
                consecutive_failures=health.consecutive_failures,
                timeout=timeout,
            )
        health.healthy = False
        # Every fault re-anchors the probe timer, so a failed canary rests
        # the replica for another full interval before the next one.
        health.marked_unhealthy_at = self.clock.now()

    def live_replicas(self, shard_index: int) -> List[int]:
        """Indexes of the shard's running replicas.  A stopped one cannot
        apply, so it leaves the rotation rather than rejoin with a stale copy."""
        live = []
        for replica_index, service in enumerate(self.groups[shard_index]):
            if service._closed:
                self.health[shard_index][replica_index].healthy = False
            else:
                live.append(replica_index)
        return live

    def kill(self, shard_index: int, replica_index: int) -> None:
        """Take one replica out of the rotation for good (its owner stops
        it).  Raises :class:`IndexError` for out-of-range coordinates."""
        health = self.health[shard_index][replica_index]
        health.healthy = False
        health.marked_unhealthy_at = self.clock.now()
        self.dead.add((shard_index, replica_index))
        if self.events is not None:
            self.events.emit("replica_killed", self.point(shard_index, replica_index))
