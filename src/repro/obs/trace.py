"""Distributed tracing over the serving fleet's injectable clock.

A :class:`Tracer` produces :class:`Span` trees: every hop of one request —
TCP frontend, router, per-attempt pass, replica call, micro-batch worker,
store read/apply/ship — opens a child span of whatever span is current in
its task, carried implicitly through :mod:`contextvars` (asyncio tasks
copy the ambient context at creation, so ``asyncio.wait_for`` and
``gather`` fan-outs inherit the right parent for free).  Across the TCP
wire the context travels explicitly: a client sends the ``trace``
payload field (``trace_id``, ``span_id``, ``sampled``) and the frontend's
:meth:`Tracer.extract` re-parents from it.

Determinism contract: span/trace ids come from a seeded RNG, and start/end
times are read from the injectable :class:`~repro.chaos.clock.Clock` —
never from the wall clock — so a scenario replayed on a
:class:`~repro.chaos.clock.VirtualClock` with the same seed exports a
byte-identical JSONL span tree, and chaos invariants can assert on traces.

Head-based sampling: the keep/drop decision is made per trace, but spans
buffer until their local root ends — a trace whose outcome turns out bad
(any ``FAILED``/``DEGRADED``/``SHED`` span) is *always* kept, whatever the
sample rate, so the traces that matter for debugging never sample away.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from ..chaos.clock import Clock, MonotonicClock

__all__ = [
    "SPAN_TAXONOMY",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "Span",
    "SpanContext",
    "Tracer",
    "render_spans",
    "slowest_path",
]

STATUS_OK = "OK"
STATUS_FAILED = "FAILED"
STATUS_DEGRADED = "DEGRADED"
STATUS_SHED = "SHED"

#: Spans a :class:`Tracer` buffers per trace; further spans are counted in
#: ``spans_dropped`` instead.
MAX_SPANS_PER_TRACE = 4096

#: Every span name the serving tier emits, root-to-leaf — the taxonomy the
#: observability runbook documents and the docs lint pins.
SPAN_TAXONOMY = (
    "frontend.request",   # TCP frontend root (re-parents from the wire)
    "router.route",       # sharded router root per request
    "router.attempt",     # one full replica pass under the retry policy
    "replica.call",       # one replica service tried within a pass
    "service.submit",     # inside one ValidationService (cache, admission)
    "worker.execute",     # the request's share of its micro-batch
    "store.read",         # the batch group's strategy run over the store
    "store.apply",        # one mutation batch applied to one store copy
)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: enough to parent children."""

    trace_id: str
    span_id: str
    sampled: bool = True


class Span:
    """One timed operation in a trace tree.

    Mutable while open (call sites set ``status`` and ``attributes``);
    closed by :meth:`Tracer.end_span` (or the ``span()`` context manager),
    which stamps ``end_s`` from the tracer's clock.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "target",
        "start_s",
        "end_s",
        "status",
        "attributes",
        "seq",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        target: str,
        start_s: float,
        seq: int,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.target = target
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = STATUS_OK
        self.attributes: Dict[str, Any] = {}
        self.seq = seq

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_s(self) -> float:
        """Elapsed clock time; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "target": self.target,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, target={self.target!r}, status={self.status!r}, "
            f"trace={self.trace_id[:8]}, span={self.span_id[:8]})"
        )


_BAD_STATUSES = frozenset({STATUS_FAILED, STATUS_DEGRADED, STATUS_SHED})


class Tracer:
    """Creates, propagates, buffers, and exports spans.

    Parameters
    ----------
    clock:
        Time source for span start/end stamps.  Pass the fleet's
        :class:`~repro.chaos.clock.VirtualClock` for deterministic trees.
    seed:
        Seeds the trace/span id stream (and the sampling draw) — two
        tracers with the same seed over the same call sequence mint
        identical ids.
    sample_rate:
        Head-sampling probability in [0, 1].  Decided per trace at root
        start; traces containing any ``FAILED``/``DEGRADED``/``SHED`` span
        are kept regardless (the decision is deferred to root end, spans
        buffer in the meantime).
    capacity:
        Committed traces retained (oldest evicted beyond it).

    Each trace buffers at most ``MAX_SPANS_PER_TRACE`` spans: pathological
    requests (retry storms, huge batches, stragglers re-tracing a committed
    trace) count further spans in :attr:`spans_dropped` instead of
    buffering them, so a soak run's memory is bounded by
    ``capacity * MAX_SPANS_PER_TRACE``.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        seed: int = 0,
        sample_rate: float = 1.0,
        capacity: int = 512,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock or MonotonicClock()
        self.sample_rate = sample_rate
        self.capacity = capacity
        self._id_rng = random.Random(seed)
        # A separate stream for sampling draws: the id sequence (and so
        # byte-identical trees) must not depend on the sample rate.
        self._sample_rng = random.Random(seed ^ 0x5EEDED)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        # Holds the ambient *Span* (not its SpanContext): minting a frozen
        # SpanContext per span showed up in the tracing-overhead floor, so
        # the context object is only built on demand (inject/propagation).
        self._current: "contextvars.ContextVar[Optional[Span]]" = (
            contextvars.ContextVar(f"repro-trace-{id(self):x}", default=None)
        )
        # Open traces: every span buffered until the local root ends.
        self._active: Dict[str, List[Span]] = {}
        self._local_root: Dict[str, str] = {}
        self._head_sampled: Dict[str, bool] = {}
        # Committed traces, insertion-ordered, bounded by ``capacity``.
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()
        #: Traces dropped by head sampling (all-OK, sampled out).
        self.sampled_out = 0
        #: Spans refused because their trace hit ``MAX_SPANS_PER_TRACE``.
        self.spans_dropped = 0

    # ------------------------------------------------------------- ids/context

    def _new_id(self) -> str:
        return f"{self._id_rng.getrandbits(64):016x}"

    def _append_bounded(self, spans: List[Span], span: Span) -> None:
        """Append under the per-trace cap; count the span as dropped
        otherwise (the span object still closes normally, it just never
        exports).  Caller holds the lock."""
        if len(spans) >= MAX_SPANS_PER_TRACE:
            self.spans_dropped += 1
        else:
            spans.append(span)

    @staticmethod
    def extract(carrier: Optional[Mapping[str, Any]]) -> Optional[SpanContext]:
        """Re-hydrate a :class:`SpanContext` from a wire payload.

        Returns ``None`` for a missing/malformed carrier — an untraced
        request stays untraced, it never errors.
        """
        if not isinstance(carrier, Mapping):
            return None
        trace_id = carrier.get("trace_id")
        span_id = carrier.get("span_id")
        if not (isinstance(trace_id, str) and isinstance(span_id, str)):
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        return SpanContext(trace_id, span_id, bool(carrier.get("sampled", True)))

    # ------------------------------------------------------------- span lifecycle

    def start_span(
        self,
        name: str,
        target: str = "",
        parent: Optional[Union[Span, SpanContext]] = None,
    ) -> Span:
        """Open a span; parents to ``parent`` or the ambient context.

        Does **not** switch the ambient context — use :meth:`span` for
        that; ``start_span``/``end_span`` are the manual pair for spans
        whose lifetime does not nest lexically (per-batch-item worker
        spans resolved by a shared worker task).
        """
        if parent is None:
            parent = self._current.get()
        # Resolve without minting a SpanContext — this is the hot path the
        # tracing-overhead floor measures.
        if parent is None:
            parent_trace = parent_span = None
            parent_sampled = True
        else:
            parent_trace = parent.trace_id
            parent_span = parent.span_id
            parent_sampled = parent.sampled if isinstance(parent, SpanContext) else True
        now = self.clock.now()
        with self._lock:
            if parent_trace is None:
                trace_id = self._new_id()
                span = Span(trace_id, self._new_id(), None, name, target, now, next(self._seq))
                self._active[trace_id] = [span]
                self._local_root[trace_id] = span.span_id
                self._head_sampled[trace_id] = (
                    True
                    if self.sample_rate >= 1.0
                    else self._sample_rng.random() < self.sample_rate
                )
            else:
                trace_id = parent_trace
                span = Span(
                    trace_id, self._new_id(), parent_span, name, target, now, next(self._seq)
                )
                active = self._active.get(trace_id)
                if active is not None:
                    self._append_bounded(active, span)
                elif trace_id not in self._traces:
                    # A remote parent (wire context): this span anchors the
                    # trace's local subtree and commits it when it ends.
                    self._active[trace_id] = [span]
                    self._local_root[trace_id] = span.span_id
                    self._head_sampled[trace_id] = parent_sampled
                else:
                    # The local root already committed (a straggler ending
                    # after its root, re-traced): append to the committed
                    # trace so nothing is silently lost.
                    self._append_bounded(self._traces[trace_id], span)
        return span

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span (idempotent); commits the trace at its local root."""
        if status is not None:
            span.status = status
        if span.end_s is None:
            span.end_s = self.clock.now()
        with self._lock:
            if self._local_root.get(span.trace_id) == span.span_id:
                self._commit(span.trace_id)

    def _commit(self, trace_id: str) -> None:
        spans = self._active.pop(trace_id, [])
        self._local_root.pop(trace_id, None)
        sampled = self._head_sampled.pop(trace_id, True)
        if not spans:
            return
        keep = sampled or any(span.status in _BAD_STATUSES for span in spans)
        if not keep:
            self.sampled_out += 1
            return
        self._traces[trace_id] = spans
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)

    def span(
        self,
        name: str,
        target: str = "",
        parent: Optional[Union[Span, SpanContext]] = None,
    ) -> "_SpanScope":
        """Open a span, make it the ambient context, close it on exit.

        An exception escaping the block marks the span ``FAILED`` (keeping
        any status the block set explicitly) with the error recorded, then
        propagates — cancellation included, so a span abandoned by
        ``asyncio.wait_for`` still closes and still exports.

        (A ``__slots__`` class rather than ``@contextmanager``: the
        generator machinery alone cost a third of the span hot path the
        tracing-overhead benchmark floor bounds.)
        """
        return _SpanScope(self, self.start_span(name, target, parent))

    def record_span(
        self,
        name: str,
        target: str,
        parent: Union[Span, SpanContext],
        start_s: float,
        end_s: float,
        **attributes: Any,
    ) -> Span:
        """Add an already-measured child span (shared-work attribution:
        one strategy-group run recorded under each batch item it served)."""
        if isinstance(parent, Span):
            parent = parent.context
        with self._lock:
            span = Span(
                parent.trace_id,
                self._new_id(),
                parent.span_id,
                name,
                target,
                start_s,
                next(self._seq),
            )
            span.end_s = end_s
            span.attributes.update(attributes)
            if parent.trace_id in self._active:
                self._append_bounded(self._active[parent.trace_id], span)
            elif parent.trace_id in self._traces:
                self._append_bounded(self._traces[parent.trace_id], span)
            # A parent in neither map was sampled out: drop silently.
        return span

    # ------------------------------------------------------------- access

    def trace_ids(self) -> List[str]:
        """Committed trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def spans(self, trace_id: str) -> List[Span]:
        """The committed spans of one trace, creation order."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def traces(self) -> "OrderedDict[str, List[Span]]":
        """Every committed trace (shallow copy), commit order."""
        with self._lock:
            return OrderedDict((key, list(value)) for key, value in self._traces.items())

    def slowest_trace(self) -> Tuple[str, List[Span]]:
        """``(trace_id, spans)`` of the committed trace whose root span ran
        longest — the earliest committed on a tie, ``("", [])`` when
        nothing is committed."""
        worst: Tuple[str, List[Span]] = ("", [])
        worst_duration = -1.0
        for trace_id, spans in self.traces().items():
            duration = max(
                (span.duration_s for span in spans if span.parent_id is None),
                default=0.0,
            )
            if duration > worst_duration:
                worst_duration = duration
                worst = (trace_id, spans)
        return worst

    # ------------------------------------------------------------- export

    def export_jsonl(self, sink: Union[str, TextIO]) -> int:
        """Write every committed span as one JSON object per line.

        Lines are ordered by trace commit order then span creation order;
        keys are sorted — with a seeded tracer on a virtual clock the
        output is byte-identical across runs.  Returns the span count.
        ``sink`` is a path or an open text file.

        Streams one line at a time: exporting a full ring at capacity
        never builds a second whole-buffer string in memory.
        """
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        count = 0
        for spans in self.traces().values():
            for span in sorted(spans, key=lambda span: span.seq):
                sink.write(
                    json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
                )
                sink.write("\n")
                count += 1
        return count

    def render_tree(self, trace_id: str) -> str:
        """One committed trace as an indented ASCII tree."""
        return render_spans(self.spans(trace_id))


class _SpanScope:
    """The context manager behind :meth:`Tracer.span` (hot-path shaped)."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._current.reset(self._token)
        span = self._span
        if exc_type is not None and span.status == STATUS_OK:
            span.status = STATUS_FAILED
            span.attributes.setdefault("error", exc_type.__name__)
        self._tracer.end_span(span)
        return False


def _format_attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    inner = " ".join(
        f"{key}={span.attributes[key]}" for key in sorted(span.attributes)
    )
    return f"  {{{inner}}}"


def render_spans(spans: Sequence[Span]) -> str:
    """Render one trace's spans as an ASCII tree with durations/attributes.

    Spans whose parent is not in the set (the remote side of a wire hop,
    or a sampled-away parent) render as additional roots, so a partial
    trace still renders instead of erroring.
    """
    if not spans:
        return "(empty trace)"
    ordered = sorted(spans, key=lambda span: span.seq)
    by_id = {span.span_id: span for span in ordered}
    children: Dict[Optional[str], List[Span]] = {}
    roots: List[Span] = []
    for span in ordered:
        if span.parent_id is None or span.parent_id not in by_id:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)

    lines = [
        f"trace {ordered[0].trace_id} · {len(ordered)} span"
        f"{'s' if len(ordered) != 1 else ''}"
    ]

    def emit(span: Span, prefix: str, is_last: bool) -> None:
        connector = "└─" if is_last else "├─"
        duration = f"{span.duration_s * 1000:.2f}ms" if span.end_s is not None else "open"
        lines.append(
            f"{prefix}{connector} {span.name} [{span.target}] {duration} "
            f"{span.status}{_format_attributes(span)}"
        )
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span.span_id, [])
        for index, child in enumerate(kids):
            emit(child, child_prefix, index == len(kids) - 1)

    for index, root in enumerate(roots):
        emit(root, "", index == len(roots) - 1)
    return "\n".join(lines)


def slowest_path(spans: Sequence[Span]) -> str:
    """Root-to-leaf span names along the slowest child at every level.

    The chaos run table's ``slowest_path`` column: where one trace's
    latency actually went, as ``frontend.request>router.route>…``.
    Empty string for an empty span list.
    """
    if not spans:
        return ""
    ordered = sorted(spans, key=lambda span: span.seq)
    by_id = {span.span_id: span for span in ordered}
    children: Dict[str, List[Span]] = {}
    roots: List[Span] = []
    for span in ordered:
        if span.parent_id is None or span.parent_id not in by_id:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    if not roots:
        return ""
    node = max(roots, key=lambda span: (span.duration_s, -span.seq))
    path = [node.name]
    while True:
        kids = children.get(node.span_id)
        if not kids:
            break
        node = max(kids, key=lambda span: (span.duration_s, -span.seq))
        path.append(node.name)
    return ">".join(path)
