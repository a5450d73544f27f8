"""The attempt executor: a read's passes over its owning shard's replicas.

:class:`AttemptExecutor` answers every read the router does not answer from
a cache hit.  A pass tries the shard's replicas in the balancer's order; a
faulted attempt — a raise, a stall past ``request_timeout_s``, or a replica
killed mid-request — marks the replica and moves on to the next sibling,
so single-replica faults are invisible to the caller.  Load shedding still
surfaces as ``REJECTED``: that is the replica's admission control speaking.

With a :class:`~repro.service.policy.RetryPolicy`, a pass in which every
replica faulted is retried after a jittered backoff on the injected clock,
up to the budget and inside the policy's deadline.  Once the budget is
spent, the last known good verdict for the coordinates is served as an
epoch-tagged ``DEGRADED`` response when one exists, and only otherwise
does the caller see ``FAILED`` with the per-attempt error details.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from ..obs.trace import OUTCOME_STATUS, STATUS_FAILED, Span
from ..validation.base import ValidationResult
from .balancer import ReplicaBalancer
from .cache import coordinate_key
from .policy import RetryPolicy
from .server import (
    RequestOutcome,
    ServiceRequest,
    ServiceResponse,
    UnknownStrategyError,
    ValidationService,
)

__all__ = ["AttemptExecutor", "ReplicaFault", "STALE_CACHE_CAPACITY"]

#: Bound on the last-known-good verdict cache backing graceful degradation
#: (LRU-evicted beyond it).
STALE_CACHE_CAPACITY = 4096


class ReplicaFault(Exception):
    """One replica call failed for a reason that is the replica's, not the
    request's: ``str(fault)`` says what happened, ``timeout`` whether it
    stalled past its budget."""

    def __init__(self, what: str, timeout: bool = False) -> None:
        super().__init__(what)
        self.timeout = timeout


class AttemptExecutor:
    """Failover, retries and degradation over ``balancer``'s groups.

    ``respond(outcome, shard, latency, **fields)`` builds the response the
    caller sees; ``is_closed()`` tells a replica stopped under a running
    fleet from a fleet shutdown.  :attr:`tracer` and :attr:`events` are the
    armed observability, ``None`` when unarmed.
    """

    def __init__(
        self,
        balancer: ReplicaBalancer,
        metrics,
        request_timeout_s: Optional[float],
        retry_policy: Optional[RetryPolicy],
        respond: Callable[..., ServiceResponse],
        is_closed: Callable[[], bool],
    ) -> None:
        self.balancer = balancer
        self.metrics = metrics
        self.clock = balancer.clock
        self.request_timeout_s = request_timeout_s
        self.retry_policy = retry_policy
        self.respond = respond
        self.is_closed = is_closed
        self.tracer = None
        self.events = None
        # Jitter source for retry backoff.  Seeded: backoff *timing* need
        # not be reproducible, but a fixed seed keeps runs comparable.
        self._retry_rng = random.Random(0x5EED)
        # Last known good verdict per request coordinates, with the owning
        # shard's epoch it was computed at — the graceful-degradation store.
        self._stale: "OrderedDict[tuple, Tuple[ValidationResult, int]]" = OrderedDict()

    async def call(
        self,
        service: ValidationService,
        request: ServiceRequest,
        timeout_s: Optional[float],
        point: Optional[str] = None,
    ) -> ServiceResponse:
        """One replica call, through ``service.submit`` inside ``timeout_s``
        (``None``: no limit); traced as a ``replica.call`` span at ``point``
        when a point is given.

        Raises :class:`ReplicaFault` when the replica raised, stalled, or
        was stopped under a running fleet.  Propagates
        :class:`UnknownStrategyError` (the request is at fault, and every
        replica would refuse it alike) and the caller's cancellation.
        """
        call = service.submit(request)
        if timeout_s is not None:
            call = asyncio.wait_for(call, timeout=timeout_s)
        try:
            if point is None:
                return await call
            with self.tracer.span("replica.call", point) as call_span:
                response = await call
                call_span.status = OUTCOME_STATUS.get(response.outcome.value, call_span.status)
                return response
        except asyncio.TimeoutError:
            raise ReplicaFault(f"stalled past {timeout_s:.3f}s", timeout=True) from None
        except asyncio.CancelledError:
            if service._closed and not self.is_closed():
                # The replica was hard-stopped under us (a kill): its future
                # cancellation is a replica fault, not our caller cancelling.
                raise ReplicaFault("was stopped mid-request") from None
            raise
        except UnknownStrategyError:
            raise
        except Exception as exc:
            raise ReplicaFault(f"failed: {exc!r}") from exc

    async def run(
        self,
        request: ServiceRequest,
        shard_index: int,
        span: Optional[Span],
        order: Optional[List[int]] = None,
    ) -> ServiceResponse:
        """Answer one read from shard ``shard_index`` (its first pass in
        ``order`` when the caller drew one); traced, each pass is a
        ``router.attempt`` child of ``span``."""
        started = time.perf_counter()
        trace_id = span.trace_id if span is not None else None
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        deadline = (
            self.clock.now() + policy.deadline_s
            if policy is not None and policy.deadline_s is not None
            else None
        )
        errors: List[str] = []
        timed_out = False
        retries = 0
        for attempt in range(max_attempts):
            if attempt:
                retries += 1
                self.metrics.retries_total.inc()
                backoff = policy.backoff_s(attempt, self._retry_rng)
                if deadline is not None:
                    # Deadline propagation: never sleep past the budget.
                    backoff = min(backoff, max(0.0, deadline - self.clock.now()))
                if backoff > 0:
                    await self.clock.sleep(backoff)
            if deadline is not None and deadline - self.clock.now() <= 0:
                errors.append(
                    f"deadline of {policy.deadline_s:.3f}s exhausted "
                    f"after {attempt} of {max_attempts} attempts"
                )
                break
            if self.tracer is None:
                response, pass_timed_out = await self._pass(
                    request, shard_index, errors, deadline, None if attempt else order
                )
            else:
                with self.tracer.span(
                    "router.attempt", f"shard:{shard_index}", parent=span
                ) as attempt_span:
                    attempt_span.attributes["attempt"] = attempt + 1
                    response, pass_timed_out = await self._pass(
                        request, shard_index, errors, deadline
                    )
                    if response is None:
                        attempt_span.status = STATUS_FAILED
                        attempt_span.attributes["error"] = "all replicas faulted"
            timed_out = timed_out or pass_timed_out
            if response is not None:
                if errors:
                    self.metrics.failovers_total.inc()
                    if self.events is not None:
                        self.events.emit(
                            "failover",
                            f"shard:{shard_index}",
                            faulted_attempts=len(errors),
                        )
                if policy is not None and response.outcome is RequestOutcome.COMPLETED:
                    # Only a retry policy can ever degrade to this verdict.
                    self.remember(request, response.result, response.epoch)
                return self.respond(
                    response.outcome,
                    shard_index,
                    response.latency_seconds,
                    result=response.result,
                    cached=response.cached,
                    batch_size=response.batch_size,
                    shard_epoch=response.epoch,
                    retries=retries,
                    # Untraced, a replica's own trace id (if any) passes through.
                    trace_id=trace_id or response.trace_id,
                )
        if not errors:  # every replica stopped: the order was empty
            errors.append(f"shard {shard_index} has no serving replicas")
        if policy is not None:
            self.metrics.budget_exhausted_total.inc()
            if self.events is not None:
                self.events.emit(
                    "budget_exhausted",
                    f"shard:{shard_index}",
                    attempts=max_attempts,
                    retries=retries,
                )
            key = coordinate_key(request.fact, request.method, request.model)
            entry = self._stale.get(key)
            if entry is not None:
                self._stale.move_to_end(key)
                result, stale_epoch = entry
                degraded = self.respond(
                    RequestOutcome.DEGRADED,
                    shard_index,
                    time.perf_counter() - started,
                    result=result,
                    cached=True,
                    error="; ".join(errors),
                    retries=retries,
                    stale_epoch=stale_epoch,
                    trace_id=trace_id,
                )
                self.metrics.observe_degraded(
                    max(degraded.epoch_vector[shard_index] - stale_epoch, 0)
                )
                return degraded
        self.metrics.observe_failure(timeout=timed_out)
        return self.respond(
            RequestOutcome.FAILED,
            shard_index,
            time.perf_counter() - started,
            error="; ".join(errors),
            retries=retries,
            trace_id=trace_id,
        )

    async def _pass(
        self,
        request: ServiceRequest,
        shard_index: int,
        errors: List[str],
        deadline: Optional[float],
        order: Optional[List[int]] = None,
    ) -> Tuple[Optional[ServiceResponse], bool]:
        """One full pass over the owning shard's replicas (in ``order`` if drawn).

        Returns ``(response, timed_out)``: the first replica's answer
        (``None`` when every replica faulted) and whether a stall past the
        per-attempt timeout (or the deadline's remainder, whichever is
        tighter) contributed.
        """
        balancer = self.balancer
        group = balancer.groups[shard_index]
        healths = balancer.health[shard_index]
        timed_out = False
        order = balancer.order(shard_index, request) if order is None else order
        for replica_index in order:
            service = group[replica_index]
            timeout_s = self.request_timeout_s
            if deadline is not None:  # only a retry policy sets one
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    errors.append(
                        "request deadline exhausted before trying "
                        + balancer.describe(shard_index, replica_index)
                    )
                    if replica_index == order[0]:
                        # Untried, so release the canary this pass picked
                        # (a due replica heads the order) for the next one.
                        healths[replica_index].probing = False
                    break
                timeout_s = self.retry_policy.attempt_timeout_s(timeout_s, remaining)
            if service._closed:
                balancer.record_failure(errors, shard_index, replica_index, "is stopped")
                continue
            point = None if self.tracer is None else balancer.point(shard_index, replica_index)
            try:
                response = await self.call(service, request, timeout_s, point)
            except ReplicaFault as fault:
                timed_out = timed_out or fault.timeout
                balancer.record_failure(
                    errors, shard_index, replica_index, str(fault), timeout=fault.timeout
                )
                continue
            except (asyncio.CancelledError, UnknownStrategyError):
                # The caller cancelled, or the request is at fault: no
                # health mark, but release an in-flight canary so the
                # replica stays probe-eligible for the next request.
                healths[replica_index].probing = False
                raise
            balancer.record_success(shard_index, replica_index)
            return response, timed_out
        return None, timed_out

    def remember(
        self, request: ServiceRequest, result: ValidationResult, shard_epoch: int
    ) -> None:
        """Retain the last known good verdict and the owning shard's epoch it
        was computed at (not a stamped fleet sum) for graceful degradation."""
        key = coordinate_key(request.fact, request.method, request.model)
        self._stale[key] = (result, shard_epoch)
        self._stale.move_to_end(key)
        while len(self._stale) > STALE_CACHE_CAPACITY:
            self._stale.popitem(last=False)
