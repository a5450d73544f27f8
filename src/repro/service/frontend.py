"""TCP front-end: newline-delimited JSON over an asyncio stream server.

This is the deployable face of the validation service — the piece the
muBench replication package drives with its load generator.  The protocol
is one JSON object per line:

Request::

    {"dataset": "factbench", "fact_id": "factbench-000123",
     "method": "dka", "model": "gemma2:9b", "id": "optional-correlation-id",
     "session": "optional-client-token", "region": "optional-edge-name"}

``session``/``region`` ride the wire to the router behind the frontend
(read-your-writes sessions and edge-local reads with a geo tier, see
:mod:`repro.service.router`; without one every read is a primary read).
Every reply the router answered carries its per-shard ``epoch_vector``;
geo-tier replies add ``served_by`` and ``staleness_epochs``.

Response::

    {"id": ..., "outcome": "completed", "verdict": "true", "cached": false,
     "latency_ms": 1.91, "fact_id": "factbench-000123",
     "method": "dka", "model": "gemma2:9b", "epoch_vector": [1]}

Control commands: ``{"cmd": "metrics"}`` returns a
:class:`~repro.service.metrics.MetricsSnapshot` as JSON;
``{"cmd": "metrics", "format": "exposition"}`` returns
``{"exposition": <Prometheus-style text>}`` rendered from the unified
metrics registry; ``{"cmd": "slo"}`` returns the armed
:class:`~repro.obs.alerts.SLOMonitor`'s status payload (error budgets,
burn rates, alert states) after one fresh evaluation.  Malformed input,
unknown facts and methods or models no strategy serves produce
``{"outcome": "error", "error": ...}`` instead of closing the connection.

A connection that takes longer than ``READ_TIMEOUT_S`` to deliver its next
line (idle between requests, or stalled mid-line) gets an error reply and
is closed, as is one beyond ``MAX_CONNECTIONS`` open at once and one whose
line outgrows asyncio's stream limit.

Tracing: with :meth:`TCPValidationFrontend.set_observability` armed, every
validation request runs under a ``frontend.request`` root span (re-parented
from the optional ``trace`` payload field — ``trace_id``, ``span_id`` and
``sampled`` of the client's span — so client spans connect), and the reply
carries the ``trace_id``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..datasets.base import FactDataset
from ..obs.trace import OUTCOME_STATUS, Tracer
from .router import ShardedValidationService
from .server import RequestOutcome, ServiceRequest

__all__ = ["TCPValidationFrontend"]

#: Seconds a connection may take to deliver its next request line.
READ_TIMEOUT_S = 30.0
#: Connections served at once; one more is refused.
MAX_CONNECTIONS = 512


def _error_line(message: str) -> bytes:
    return json.dumps({"outcome": "error", "error": message}).encode("utf-8") + b"\n"


class TCPValidationFrontend:
    """Serves a :class:`ShardedValidationService` over newline-delimited JSON
    (a single node is the 1x1 fleet)."""

    def __init__(
        self,
        service: ShardedValidationService,
        datasets: Mapping[str, FactDataset],
        host: str = "127.0.0.1",
        port: int = 0,
        allowed_methods: Optional[Sequence[str]] = None,
        allowed_models: Optional[Sequence[str]] = None,
    ) -> None:
        self.service = service
        self.datasets: Dict[str, FactDataset] = dict(datasets)
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port is set by start()
        #: When set, requests naming other methods/models get an error reply
        #: (the ``serve`` CLI advertises exactly what it enforces).  An empty
        #: allowlist means "deny all", not "unrestricted" — only ``None``
        #: disables the check.
        self.allowed_methods = (
            frozenset(allowed_methods) if allowed_methods is not None else None
        )
        self.allowed_models = (
            frozenset(allowed_models) if allowed_models is not None else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        #: Chaos hook: when armed (see :meth:`set_fault_injection`), every
        #: validation request fires the ``frontend`` fault point before it
        #: reaches the service; injected faults become error replies.
        self.fault_injector = None
        #: Every *answered* request line except control commands — error
        #: replies included, so ``serve --max-requests N`` terminates even
        #: when clients send garbage.  Incremented only after the reply is
        #: flushed, so a max-requests watcher never tears the service down
        #: while the counted request is still in flight.
        self.requests_handled = 0
        #: Optional :class:`~repro.obs.trace.Tracer`; when armed, every
        #: validation request gets a ``frontend.request`` root span.
        self.tracer: Optional[Tracer] = None
        #: Optional :class:`~repro.obs.alerts.SLOMonitor`; when armed, the
        #: ``{"cmd": "slo"}`` control command serves its status payload.
        self.slo_monitor = None

    def set_fault_injection(self, injector) -> None:
        """Arm (or with ``None`` disarm) the ``frontend`` chaos fault point."""
        self.fault_injector = injector

    def set_observability(self, obs) -> None:
        """Arm (or with ``obs=None`` disarm) tracing at the frontend *and*
        in the router behind it (``obs`` is an
        :class:`~repro.obs.Observability` bundle; the router fans it out
        to every layer it fronts)."""
        self.tracer = obs.tracer if obs is not None else None
        self.service.set_observability(obs)

    async def start(self) -> None:
        """Bind and start accepting connections; with ``port=0`` the
        ephemeral port the OS picked is written back to ``self.port``."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listening socket and wait for it to shut down (open
        connections end on their next read; the service is not stopped)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "TCPValidationFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        """Serve until cancelled (starting first if needed) — the blocking
        entry point the ``serve`` CLI awaits."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ---------------------------------------------------------------- protocol

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        try:
            if self._connections > MAX_CONNECTIONS:
                writer.write(_error_line(f"too many connections (limit {MAX_CONNECTIONS})"))
                await writer.drain()
                return
            while True:
                try:
                    async with asyncio.timeout(READ_TIMEOUT_S):
                        line = await reader.readline()
                except ValueError:
                    # Line exceeds asyncio's stream limit; the buffer cannot
                    # be resynchronised to the next line, so reply with an
                    # explicit error and close instead of dying silently.
                    writer.write(_error_line("request line too long"))
                    await writer.drain()
                    self.requests_handled += 1
                    break
                except TimeoutError:
                    writer.write(_error_line(f"no request line within {READ_TIMEOUT_S:g}s"))
                    await writer.drain()
                    break
                if not line:
                    break
                reply, counts = await self._reply_for(line)
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()
                if counts:
                    self.requests_handled += 1
        except asyncio.CancelledError:
            # Server shutdown with the connection still open: end the
            # handler quietly instead of surfacing a cancelled task to the
            # event loop's exception logger.
            pass
        except (ConnectionError, OSError):
            # The client vanished mid-request (reset while reading, or the
            # reply could not be flushed).  Close this connection quietly;
            # the accept loop and every other connection keep serving.
            pass
        finally:
            self._connections -= 1
            writer.close()
            # A loop tearing down cancels this wait too: the handler still
            # ends quietly, not as a cancelled task the loop has to log.
            with contextlib.suppress(ConnectionError, OSError, asyncio.CancelledError):
                await writer.wait_closed()

    async def _reply_for(self, line: bytes) -> Tuple[dict, bool]:
        """Produce ``(reply, counts_toward_requests_handled)`` for one line."""
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
            return {"outcome": "error", "error": f"malformed JSON: {exc}"}, True
        if not isinstance(payload, dict):
            return {"outcome": "error", "error": "request must be a JSON object"}, True
        if payload.get("cmd") == "metrics":
            if payload.get("format") == "exposition":
                return {"exposition": self.service.metrics.exposition()}, False
            return dataclasses.asdict(self.service.metrics.snapshot()), False
        if payload.get("cmd") == "slo":
            if self.slo_monitor is None:
                return {
                    "outcome": "error",
                    "error": "no SLO monitor armed on this frontend",
                }, False
            self.slo_monitor.tick()
            return self.slo_monitor.status_payload(), False
        return await self._validate(payload), True

    async def _validate(self, payload: dict) -> dict:
        if self.tracer is None:
            return await self._validate_inner(payload)
        # Re-parent from the wire context when the client sent one; the
        # frontend span is the local root either way and commits the trace.
        remote = Tracer.extract(payload.get("trace"))
        with self.tracer.span("frontend.request", "frontend", parent=remote) as span:
            span.attributes["dataset"] = str(payload.get("dataset", ""))
            reply = await self._validate_inner(payload)
            outcome = reply.get("outcome", "")
            span.attributes["outcome"] = outcome
            span.status = OUTCOME_STATUS.get(outcome, span.status)
            reply["trace_id"] = span.trace_id
            return reply

    async def _validate_inner(self, payload: dict) -> dict:
        correlation = payload.get("id")
        dataset_name = payload.get("dataset", "")
        # A list or an object is no dataset name, and no dict key either.
        dataset = self.datasets.get(dataset_name) if isinstance(dataset_name, str) else None
        if dataset is None:
            return {
                "id": correlation,
                "outcome": "error",
                "error": f"unknown dataset {dataset_name!r}; have {sorted(self.datasets)}",
            }
        fact = dataset.get(str(payload.get("fact_id", "")))
        if fact is None:
            return {
                "id": correlation,
                "outcome": "error",
                "error": f"unknown fact_id {payload.get('fact_id')!r} in {dataset_name!r}",
            }
        method = str(payload.get("method", "dka"))
        model = str(payload.get("model", ""))
        if self.allowed_methods is not None and method not in self.allowed_methods:
            return {
                "id": correlation,
                "outcome": "error",
                "error": f"method {method!r} not served; have {sorted(self.allowed_methods)}",
            }
        if self.allowed_models is not None and model not in self.allowed_models:
            return {
                "id": correlation,
                "outcome": "error",
                "error": f"model {model!r} not served; have {sorted(self.allowed_models)}",
            }
        try:
            if self.fault_injector is not None:
                # stall/slow faults hold the reply on the injector's clock;
                # error/kill faults surface as an error reply below.
                await self.fault_injector.fire("frontend")
            # Session tokens and region affinity ride the wire as-is.
            session = payload.get("session")
            region = payload.get("region")
            response = await self.service.submit(
                ServiceRequest(fact, method, model),
                session=str(session) if session is not None else None,
                region=str(region) if region is not None else None,
            )
        except Exception as exc:
            return {"id": correlation, "outcome": "error", "error": str(exc)}
        reply = {
            "id": correlation,
            "outcome": response.outcome.value,
            "cached": response.cached,
            "latency_ms": round(response.latency_seconds * 1000.0, 3),
            "fact_id": fact.fact_id,
            "method": method,
            "model": model,
        }
        if response.outcome is RequestOutcome.COMPLETED and response.result is not None:
            reply["verdict"] = response.result.verdict.value
            reply["batch_size"] = response.batch_size
        if response.outcome is RequestOutcome.DEGRADED and response.result is not None:
            # A stale answer is still an answer: the verdict rides along,
            # tagged with the epoch it was computed at.
            reply["verdict"] = response.result.verdict.value
            reply["stale_epoch"] = response.stale_epoch
        if response.outcome is RequestOutcome.FAILED and response.error:
            reply["error"] = response.error
        if response.retries:
            reply["retries"] = response.retries
        reply["epoch_vector"] = list(response.epoch_vector)
        if response.served_by is not None:
            # Geo-tier visibility on the wire: which tier answered, and how
            # many epochs an edge-served read trailed the primary.
            reply["served_by"] = response.served_by
            reply["staleness_epochs"] = response.staleness_epochs
        return reply
