"""Helpers only the tests use: the strict exposition parser and its inverse,
a read schedule with ingest batches spliced in, and probes into a load
report, a router and a metrics scraper; and the list of tuple-backed
records the record census and the docs lint both check.

Import as ``from support import ...``; pytest puts ``tests/`` on the path.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datasets.base import FactDataset
from repro.llm import CallRecord, LLMResponse, UsageSummary
from repro.obs.registry import _format_value
from repro.service.loadgen import IngestRequest, WorkItem, build_workload
from repro.service.server import RequestOutcome, ServiceResponse
from repro.store import Mutation

#: The per-request records built as ``typing.NamedTuple``s, in the order
#: ``docs/architecture.md`` lists them.
TUPLE_RECORDS = (ServiceResponse, LLMResponse, CallRecord)

_HELP_LINE = re.compile(r"^# HELP (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<help>.*)$")
_TYPE_LINE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<kind>counter|gauge|histogram)$"
)
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)"
    r"(?: # \{trace_id=\"(?P<trace>[0-9a-f]+)\"\} (?P<observed>[0-9eE+.\-]+))?$"
)


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse Prometheus-style text back into ``{name: {kind, samples}}``.

    Strict: every non-comment line must be ``name{labels} value`` with the
    name's ``# TYPE`` declared first, and any malformed line raises
    :class:`ValueError`.

    Each family dict carries ``kind``, ``samples`` (``(name, labels, value)``
    triples), plus everything :func:`reexpose` needs to rebuild the text
    byte-for-byte: ``help`` (``""`` when absent) and ``exemplars`` (one entry
    per sample: ``None`` or the ``(trace_id, observed value)`` pair).
    """
    families: Dict[str, Dict[str, object]] = {}
    helps: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            match = _HELP_LINE.match(line)
            if match is None:
                raise ValueError(f"line {lineno}: malformed HELP line {line!r}")
            helps[match.group("name")] = match.group("help")
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_LINE.match(line)
            if match is None:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            families[match.group("name")] = {
                "kind": match.group("kind"),
                "help": helps.get(match.group("name"), ""),
                "samples": [],
                "exemplars": [],
            }
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        if base not in families:
            raise ValueError(f"line {lineno}: sample {name!r} before its TYPE line")
        families[base]["samples"].append(
            (name, match.group("labels") or "", float(match.group("value")))
        )
        families[base]["exemplars"].append(
            (match.group("trace"), float(match.group("observed")))
            if match.group("trace") is not None
            else None
        )
    return families


def _reexpose_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return _format_value(value)


def reexpose(families: Mapping[str, Mapping[str, object]]) -> str:
    """Render :func:`parse_exposition` output back to exposition text.

    For any text ``render_exposition`` produces,
    ``reexpose(parse_exposition(text)) == text`` byte-for-byte.
    """
    lines: List[str] = []
    for base in sorted(families):
        family = families[base]
        help_text = str(family.get("help", ""))
        if help_text:
            lines.append(f"# HELP {base} {help_text}")
        lines.append(f"# TYPE {base} {family['kind']}")
        samples = family["samples"]
        exemplars = family.get("exemplars") or [None] * len(samples)
        for (name, labels, value), exemplar in zip(samples, exemplars):
            line = f"{name}{labels} {_reexpose_value(value)}"
            if exemplar is not None:
                trace_id, observed = exemplar
                line += f' # {{trace_id="{trace_id}"}} {_reexpose_value(observed)}'
            lines.append(line)
    return "\n".join(lines) + "\n"


def build_mixed_workload(
    datasets: Sequence[FactDataset],
    methods: Sequence[str],
    models: Sequence[str],
    total_requests: int,
    ingest_batches: Sequence[Sequence[Mutation]],
    seed: int = 0,
    method_weights: Optional[Mapping[str, float]] = None,
) -> List[WorkItem]:
    """A read schedule with ingest batches spliced in at deterministic spots.

    The reads come from ``build_workload`` (same seed, same mix); the ``k``
    ingest batches land at evenly spaced positions ``(i + 1) * total /
    (k + 1)``, so the load alternates read phases with writes.
    """
    reads = build_workload(
        datasets, methods, models, total_requests, seed=seed, method_weights=method_weights
    )
    schedule: List[WorkItem] = list(reads)
    for position, batch in enumerate(ingest_batches):
        index = (position + 1) * total_requests // (len(ingest_batches) + 1)
        # Each earlier insertion shifted the tail by one; offset by the
        # number of batches already spliced in.
        schedule.insert(min(index + position, len(schedule)), IngestRequest(tuple(batch)))
    return schedule


def calls_of(telemetry, model: Optional[str] = None, task: Optional[str] = None) -> List[CallRecord]:
    """A telemetry collector's records, filtered by model and task."""
    return [
        record
        for record in telemetry.records()
        if (model is None or record.model == model) and (task is None or record.task == task)
    ]


def usage_of(telemetry, model: Optional[str] = None, task: Optional[str] = None) -> UsageSummary:
    """The usage summary of :func:`calls_of`."""
    return UsageSummary.from_records(calls_of(telemetry, model, task))


def epochs_served(report) -> List[int]:
    """The distinct store epochs a load report's reads were answered at."""
    return sorted({
        response.epoch
        for response in report.responses
        if response.outcome is RequestOutcome.COMPLETED
    })


def verdicts_at(report, epoch: int) -> Dict[Tuple[str, str, str, str], str]:
    """A load report's verdict table restricted to the reads answered at
    one store epoch."""
    table: Dict[Tuple[str, str, str, str], str] = {}
    for request, response in zip(report.requests, report.responses):
        if isinstance(request, IngestRequest) or response.result is None:
            continue
        if response.epoch == epoch:
            key = (request.method, request.model, request.fact.dataset, request.fact.fact_id)
            table[key] = response.result.verdict.value
    return table


def mark_unhealthy(router, shard_index: int, replica_index: int) -> None:
    """Take one replica out of a router's rotation by hand, as a failed
    probe would: a later probe re-admits it if it still answers."""
    health = router.health[shard_index][replica_index]
    health.healthy = False
    health.marked_unhealthy_at = router.clock.now()


def session_vector(router, session: str) -> Dict[int, int]:
    """A session token's last-write epochs by shard (empty if unseen)."""
    return dict(router._sessions.get(session, {}))


def series_keys(scraper) -> List[str]:
    """Every series key a scraper has materialised, sorted."""
    return sorted(scraper._series)


def last_value(scraper, name: str, labels: Optional[Mapping[str, str]] = None) -> float:
    """The latest sample of every series matching ``name``/``labels``, summed."""
    total = 0.0
    for series in scraper.match(name, labels):
        points = series.points()
        if points:
            total += points[-1].value
    return total
