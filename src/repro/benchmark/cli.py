"""Command-line interface: tables/figures plus the online serving scenario.

Usage (after ``pip install -e .``)::

    python -m repro.benchmark.cli --experiment table5 --max-facts 60
    python -m repro.benchmark.cli --experiment all --scale 0.05 --output results.txt

    # Online serving: a TCP fact-validation server and its load generator.
    python -m repro.benchmark.cli serve --port 8765 --methods dka,giv-z
    python -m repro.benchmark.cli loadgen --requests 500 --concurrency 32

    # Sharded serving tier: N shard workers behind a scatter-gather router.
    python -m repro.benchmark.cli serve --shards 4 --methods dka
    python -m repro.benchmark.cli loadgen --shards 4 --requests 500

    # Replicated shards: R workers per shard, read fan-out + failover.
    python -m repro.benchmark.cli serve --shards 2 --replicas 3
    python -m repro.benchmark.cli loadgen --shards 2 --replicas 3 --requests 500

    # Versioned knowledge store: stream mutations in, compact the log.
    python -m repro.benchmark.cli ingest --store store.seg --mutations ops.jsonl
    python -m repro.benchmark.cli compact --store store.seg
    python -m repro.benchmark.cli convert --store store.seg --output export.jsonl

    # Chaos: run a declarative fault-injection scenario matrix.
    python -m repro.benchmark.cli chaos benchmarks/scenarios/smoke.yaml --csv run.csv

    # Observability: a traced load run — metrics exposition, span trees, events.
    python -m repro.benchmark.cli obs --shards 2 --replicas 2 --requests 200
    python -m repro.benchmark.cli obs --sample-rate 0.1 --trace-jsonl spans.jsonl

    # SLOs and alerting: the deterministic fleet dashboard and status payload.
    python -m repro.benchmark.cli obs top --shards 2 --replicas 2 --frames 6
    python -m repro.benchmark.cli obs top --once --kill shard:0/replica:1
    python -m repro.benchmark.cli obs slo --shards 2 --replicas 2 --requests 120

Each experiment prints the corresponding table/figure in the same text
format the ``benchmarks/`` harness uses, so the CLI is the quickest way to
reproduce a single result without running pytest.  ``serve`` exposes the
:mod:`repro.service` subsystem over newline-delimited JSON; ``loadgen``
drives an in-process fleet closed-loop and prints the latency/throughput
report (the muBench-style deploy-and-measure pair).  Both build a
``--shards`` x ``--replicas`` router; the default 1x1 fleet is the single
node.  ``ingest`` replays a
persisted :mod:`repro.store` segment, applies a batch of mutations from
a plain JSONL file, and writes the grown segment back; ``compact``
collapses a store's history into one canonical batch at the current
epoch; ``convert`` exports a segment as JSONL or imports a JSONL log as a
segment, whichever its input calls for.  ``chaos``
loads a YAML scenario (traffic shapes x fleet topologies x fault
schedules), runs every cell of the matrix against a fresh fleet, checks
the scenario's invariants, and prints the aggregated run table — exit
code 1 when any invariant fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Optional, TextIO

from .config import ExperimentConfig
from .experiments import EXPERIMENTS
from .runner import BenchmarkRunner

__all__ = [
    "build_parser",
    "build_service_parser",
    "run_experiment",
    "main",
    "EXPERIMENTS",
    "SERVICE_COMMANDS",
]

#: Subcommands dispatched to the online-serving / store path instead of
#: the table/figure renderers.
SERVICE_COMMANDS = ("serve", "loadgen", "ingest", "compact", "convert", "chaos", "obs")


# --------------------------------------------------------------- online serving


def _csv(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def build_service_parser() -> argparse.ArgumentParser:
    """Parser for the ``serve`` / ``loadgen`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-factcheck",
        description="Online fact-validation serving over the simulated substrate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--scale", type=float, default=0.03, help="Dataset scale (default 0.03).")
        sub.add_argument("--max-facts", type=int, default=40, help="Facts per dataset (0 = no cap).")
        sub.add_argument("--world-scale", type=float, default=0.2, help="Synthetic world scale.")
        sub.add_argument("--seed", type=int, default=7, help="Master seed.")
        sub.add_argument("--datasets", type=_csv, default=("factbench",), help="Comma-separated datasets.")
        sub.add_argument("--methods", type=_csv, default=("dka", "giv-z"), help="Comma-separated methods.")
        sub.add_argument(
            "--models", type=_csv, default=("gemma2:9b", "qwen2.5:7b"), help="Comma-separated models."
        )
        sub.add_argument("--max-batch-size", type=int, default=16, help="Micro-batch upper bound.")
        sub.add_argument("--queue-depth", type=int, default=256, help="Admission-control bound.")
        sub.add_argument(
            "--shards",
            type=int,
            default=1,
            help=(
                "Partition serving across N shard workers routed by consistent "
                "hash of the subject entity (1 with --replicas 1 = the 1x1 "
                "fleet, a single node)."
            ),
        )
        sub.add_argument(
            "--replicas",
            type=int,
            default=1,
            help=(
                "Replica workers per shard: reads fan out across the group "
                "(queue-depth-aware balancing) and a raising/stalling replica "
                "fails over to its siblings (1 = unreplicated)."
            ),
        )
        sub.add_argument(
            "--request-timeout",
            type=float,
            default=0.0,
            help=(
                "Seconds before a stalled replica request is abandoned — "
                "failed over to a sibling when one exists, an explicit FAILED "
                "outcome otherwise (0 = no timeout)."
            ),
        )
        sub.add_argument(
            "--time-scale",
            type=float,
            default=0.005,
            help="Real seconds slept per simulated backend second (0 = no sleeping).",
        )
        sub.add_argument("--no-cache", action="store_true", help="Disable the verdict cache.")

    serve = commands.add_parser("serve", help="Run the TCP JSON-lines validation server.")
    add_common(serve)
    serve.add_argument("--host", default="127.0.0.1", help="Bind address.")
    serve.add_argument("--port", type=int, default=8765, help="TCP port (0 = ephemeral).")
    serve.add_argument(
        "--max-requests",
        type=int,
        default=0,
        help="Stop after handling N requests (0 = serve until interrupted).",
    )

    loadgen = commands.add_parser("loadgen", help="Closed-loop load run against an in-process service.")
    add_common(loadgen)
    loadgen.add_argument("--requests", type=int, default=500, help="Total requests to issue.")
    loadgen.add_argument("--concurrency", type=int, default=16, help="Closed-loop virtual clients.")

    ingest = commands.add_parser(
        "ingest", help="Apply a mutations file to a persisted versioned knowledge store."
    )
    ingest.add_argument("--store", required=True, help="Store segment file; created when absent.")
    ingest.add_argument(
        "--mutations", required=True,
        help="Plain JSONL mutations file: one add_triple/remove_triple/add_document op per line.",
    )
    ingest.add_argument(
        "--output", default=None, help="Write the grown store here instead of back to --store."
    )
    ingest.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "Shard count of the store: 1 = the single file --store, N >= 2 = "
            "N per-shard segment files --store.shard0 .. --store.shardN-1."
        ),
    )

    compact = commands.add_parser(
        "compact", help="Collapse a store's history into one canonical batch."
    )
    compact.add_argument("--store", required=True, help="Store segment file to compact.")
    compact.add_argument(
        "--output", default=None, help="Write the compacted store here instead of back to --store."
    )

    convert = commands.add_parser(
        "convert",
        help=(
            "Export a store segment as a JSONL log, or import a JSONL log as a "
            "segment: the direction follows from what --store is (state digest "
            "is identical either way)."
        ),
    )
    convert.add_argument(
        "--store", required=True, help="Segment file to export, or JSONL log to import."
    )
    convert.add_argument("--output", required=True, help="Path for the converted file.")

    chaos = commands.add_parser(
        "chaos", help="Run a declarative chaos scenario matrix and check its invariants."
    )
    chaos.add_argument(
        "scenario",
        help="YAML scenario file (see docs/operations.md, 'Chaos runbook').",
    )
    chaos.add_argument("--scale", type=float, default=0.03, help="Dataset scale (default 0.03).")
    chaos.add_argument("--max-facts", type=int, default=40, help="Facts per dataset (0 = no cap).")
    chaos.add_argument("--world-scale", type=float, default=0.2, help="Synthetic world scale.")
    chaos.add_argument(
        "--csv", default=None, help="Also write the run table (with timings) as CSV here."
    )
    chaos.add_argument(
        "--deterministic-csv",
        default=None,
        help=(
            "Also write the deterministic columns only (no timings) as CSV "
            "here — byte-identical for the same scenario + seed, so CI can "
            "diff two runs."
        ),
    )
    chaos.add_argument(
        "--drain-seed",
        type=int,
        default=None,
        help=(
            "Override the geo drain scheduler's shard-order seed (default: the "
            "scenario's geo.drain_seed).  CI runs geo scenarios under two seeds "
            "and diffs the deterministic columns: convergence must not depend "
            "on drain ordering."
        ),
    )

    obs = commands.add_parser(
        "obs",
        help=(
            "Traced closed-loop load run: unified metrics exposition, the "
            "slowest request's span tree, and the fleet event log."
        ),
    )
    obs.add_argument(
        "mode",
        nargs="?",
        choices=("load", "top", "slo"),
        default="load",
        help=(
            "load (default): the traced closed-loop run with the full "
            "printout; top: deterministic fleet-dashboard frames on a "
            "seeded virtual clock; slo: the SLO monitor's status payload "
            "as JSON after the same seeded run."
        ),
    )
    add_common(obs)
    obs.add_argument("--requests", type=int, default=200, help="Total requests to issue.")
    obs.add_argument("--concurrency", type=int, default=16, help="Closed-loop virtual clients.")
    obs.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help=(
            "Head-sampling probability in [0, 1]; traces with any "
            "FAILED/DEGRADED/SHED span are always kept."
        ),
    )
    obs.add_argument(
        "--trace-jsonl",
        default=None,
        help="Export every committed span as JSONL here (one object per line).",
    )
    obs.add_argument(
        "--refresh",
        type=float,
        default=0.5,
        help="top/slo: virtual seconds the clock advances between frames.",
    )
    obs.add_argument(
        "--frames",
        type=int,
        default=6,
        help="top/slo: dashboard frames to run (the workload is split across them).",
    )
    obs.add_argument(
        "--once",
        action="store_true",
        help="top: print only the final frame (what the CI render smoke diffs).",
    )
    obs.add_argument(
        "--kill",
        default=None,
        metavar="shard:I/replica:J",
        help=(
            "top/slo: kill one replica before the first frame so the burn-rate "
            "alerts have something to page about (deterministic: the gauge is "
            "up from t=0)."
        ),
    )
    return parser


def _validate_names(methods, models, datasets, what: str = "") -> None:
    """Fail fast on typos (or empty lists) before any substrate is built."""
    from ..llm.profiles import ALL_PROFILES
    from .runner import KNOWN_DATASETS, KNOWN_METHODS

    for name, values, known in (
        ("method", methods, list(KNOWN_METHODS)),
        ("model", models, sorted(ALL_PROFILES)),
        ("dataset", datasets, list(KNOWN_DATASETS)),
    ):
        if not values:
            raise SystemExit(f"--{name}s must name at least one entry")
        unknown = [value for value in values if value not in known]
        if unknown:
            raise SystemExit(
                f"{what}unknown {name}(s) {unknown}; choose from {known}"
            )


def _experiment_config(args, methods, datasets, models, seed: int) -> ExperimentConfig:
    """The serving subcommands' :class:`ExperimentConfig`: the shared scale
    flags from ``args``, the grid axes and seed from the caller."""
    return ExperimentConfig(
        scale=args.scale,
        max_facts_per_dataset=args.max_facts or None,
        world_scale=args.world_scale,
        methods=tuple(methods),
        datasets=tuple(datasets),
        models=tuple(models),
        include_commercial_in_grid=False,
        seed=seed,
    )


def _service_setup(args, time_scale: Optional[float] = None):
    """Build the (runner, router, datasets) triple the serving subcommands
    share: a :class:`~repro.service.ShardedValidationService` of
    ``--shards`` x ``--replicas`` workers (the default 1x1 fleet is the
    single node).  ``time_scale`` overrides ``--time-scale``."""
    from ..service import ServiceConfig, ShardedValidationService

    _validate_names(args.methods, args.models, args.datasets)
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    if not math.isfinite(args.request_timeout) or args.request_timeout < 0:
        raise SystemExit("--request-timeout must be a finite number of seconds >= 0")
    config = _experiment_config(
        args, args.methods, args.datasets, args.models, args.seed
    )
    runner = BenchmarkRunner(config)
    router = ShardedValidationService.from_runner(
        runner,
        args.shards,
        ServiceConfig(
            max_batch_size=args.max_batch_size,
            queue_depth=args.queue_depth,
            enable_cache=not args.no_cache,
            time_scale=args.time_scale if time_scale is None else time_scale,
        ),
        request_timeout_s=args.request_timeout or None,
        replicas=args.replicas,
    )
    datasets = {name: runner.dataset(name) for name in config.datasets}
    return runner, router, datasets


def _run_serve(args, stream: TextIO) -> int:
    from ..service import TCPValidationFrontend

    _, router, datasets = _service_setup(args)

    async def serve() -> None:
        async with router:
            async with TCPValidationFrontend(
                router,
                datasets,
                args.host,
                args.port,
                allowed_methods=args.methods,
                allowed_models=args.models,
            ) as frontend:
                stream.write(
                    f"serving {sorted(datasets)} on {frontend.host}:{frontend.port} "
                    f"(methods {','.join(args.methods)}; models "
                    f"{','.join(args.models)}; {args.shards}x{args.replicas} fleet)\n"
                )
                if hasattr(stream, "flush"):
                    stream.flush()
                if args.max_requests > 0:
                    while frontend.requests_handled < args.max_requests:
                        await asyncio.sleep(0.02)
                else:
                    await frontend.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    _write_fleet_tables(router, stream)
    return 0


def _write_fleet_tables(router, stream: TextIO) -> None:
    """The fleet snapshot and per-shard tables, plus per-replica health
    when the shards are replicated."""
    stream.write(router.metrics.snapshot().format_table() + "\n")
    stream.write("\n" + router.metrics.format_shard_table() + "\n")
    if router.num_replicas > 1:
        stream.write("\n" + router.metrics.format_replica_table() + "\n")


def _run_ingest(args, stream: TextIO) -> int:
    """Apply a mutations file to the fleet of ``--shards`` saved under
    ``--store`` (:meth:`ShardedStore.load`, which refuses files of another
    shard count) and save it, one line per file written."""
    from ..store import (
        CorruptSegmentError,
        ShardedStore,
        VersionedKnowledgeStore,
        read_mutations_jsonl,
    )

    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    try:
        fleet = ShardedStore.load(args.store, args.shards)
    except FileNotFoundError:
        fleet = ShardedStore(
            [VersionedKnowledgeStore(name=f"store-shard{i}") for i in range(args.shards)]
        )
        stream.write(f"{args.store} not found; starting an empty store\n")
    except (OSError, ValueError, CorruptSegmentError) as exc:
        raise SystemExit(f"cannot read store log: {exc}")
    else:
        stream.write(
            f"loaded {args.store}: epochs {list(fleet.epoch_vector)}, "
            f"{fleet.total_triples} triples, {fleet.total_documents} documents\n"
        )
    try:
        mutations = read_mutations_jsonl(args.mutations)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read mutations: {exc}")
    if not mutations:
        raise SystemExit(f"{args.mutations} contains no mutations")
    try:
        report = fleet.apply(mutations)
    except ValueError as exc:
        raise SystemExit(f"mutation batch rejected: {exc}")
    for index, shard_report in report.shard_reports:
        stream.write(
            f"shard {index} -> epoch {shard_report.epoch}: "
            f"+{shard_report.triples_added} triples, "
            f"-{shard_report.triples_removed} triples, "
            f"+{shard_report.documents_added} documents\n"
        )
    # Graph + corpus digests only (what `convert` prints per file): hashing
    # the BM25 index would force a full index build just for a log line.
    paths = fleet.save(args.output or args.store)
    digests = fleet.state_digests(include_index=False)
    for shard, path, digest in zip(fleet.shards, paths, digests):
        stream.write(
            f"saved {path}: epoch {shard.epoch}, {len(shard.log)} log records, "
            f"state digest {digest[:16]}\n"
        )
    return 0


def _run_compact(args, stream: TextIO) -> int:
    from ..store import CorruptSegmentError, VersionedKnowledgeStore

    try:
        store = VersionedKnowledgeStore.load(args.store)
    except (OSError, ValueError, CorruptSegmentError) as exc:
        raise SystemExit(f"cannot read store log: {exc}")
    before = len(store.log)
    dropped = store.compact()
    target = args.output or args.store
    store.save(target)
    stream.write(
        f"compacted {args.store}: {before} -> {len(store.log)} records "
        f"({dropped} dropped), epoch {store.epoch} "
        f"(snapshot floor {store.log.floor_epoch})\n"
    )
    stream.write(f"saved to {target}\n")
    return 0


def _replay_jsonl(path: str):
    """A store rebuilt from a JSONL export: ``MutationLog.load`` +
    ``replay``.  An empty file would parse as an empty log; it is not one."""
    import os

    from ..store import MutationLog, VersionedKnowledgeStore

    if not os.path.getsize(path):
        raise ValueError(f"{path}: empty file")
    return VersionedKnowledgeStore.replay(MutationLog.load(path))


def _run_convert(args, stream: TextIO) -> int:
    """Export a segment as JSONL, or import a JSONL log as a segment —
    whichever ``--store`` calls for — proving digest parity."""
    from ..store import CorruptSegmentError, VersionedKnowledgeStore

    try:
        store, target = VersionedKnowledgeStore.load(args.store), "jsonl"
    except CorruptSegmentError as not_a_segment:
        try:
            store, target = _replay_jsonl(args.store), "segment"
        except ValueError as not_jsonl:
            raise SystemExit(
                f"cannot read store log: {not_a_segment}; "
                f"nor does it parse as a JSONL log: {not_jsonl}"
            )
    except OSError as exc:
        raise SystemExit(f"cannot read store log: {exc}")
    digest = store.state_digest(include_index=False)
    try:
        # An export decodes every record block the load left unread.
        store.save(args.output, format=target)
    except CorruptSegmentError as exc:
        raise SystemExit(f"cannot read store log: {exc}")
    reload = VersionedKnowledgeStore.load if target == "segment" else _replay_jsonl
    if reload(args.output).state_digest(include_index=False) != digest:
        raise SystemExit(
            f"digest mismatch after conversion: {args.output} does not "
            f"reproduce {args.store}"
        )
    stream.write(
        f"converted {args.store} -> {args.output} ({target}): "
        f"epoch {store.epoch}, {len(store.log)} log records\n"
    )
    stream.write(f"state digest {digest[:16]} (verified identical)\n")
    return 0


def _run_loadgen(args, stream: TextIO) -> int:
    from ..service import LoadGenerator, build_workload

    _, router, datasets = _service_setup(args)
    workload = build_workload(
        list(datasets.values()), args.methods, args.models, args.requests, seed=args.seed
    )
    report = LoadGenerator(router, workload, concurrency=args.concurrency).run_sync()
    stream.write(report.format_table("Closed-loop load run") + "\n\n")
    _write_fleet_tables(router, stream)
    return 0


def _run_chaos(args, stream: TextIO) -> int:
    """Load a scenario, run its matrix, print the run table.

    Returns 1 (without raising) when any cell violates an invariant, so
    CI can gate on the exit code while still getting the full table.
    """
    from ..chaos import ScenarioError, ScenarioRunner, load_scenario

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        raise SystemExit(f"invalid scenario: {exc}")
    _validate_names(
        scenario.methods, scenario.models, [scenario.dataset], what="scenario names "
    )
    runner = BenchmarkRunner(
        _experiment_config(
            args, scenario.methods, [scenario.dataset], scenario.models, scenario.seed
        )
    )
    stream.write(
        f"running scenario {scenario.name!r}: {scenario.cell_count} cells "
        f"({len(scenario.topologies)} topologies x {len(scenario.traffics)} "
        f"traffic shapes x {len(scenario.fault_cases)} fault cases + references)\n\n"
    )
    table = ScenarioRunner(runner, scenario, drain_seed=args.drain_seed).run()
    stream.write(table.markdown() + "\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(table.csv(include_timings=True))
        stream.write(f"run table written to {args.csv}\n")
    if args.deterministic_csv:
        with open(args.deterministic_csv, "w", encoding="utf-8") as handle:
            handle.write(table.csv(include_timings=False))
        stream.write(f"deterministic run table written to {args.deterministic_csv}\n")
    return 0 if table.ok else 1


def _parse_kill_target(raw: str):
    """``shard:I/replica:J`` -> ``(I, J)``; SystemExit on anything else."""
    from ..chaos import parse_replica_target

    target = parse_replica_target(raw)
    if target is None:
        raise SystemExit(f"--kill must look like shard:0/replica:1, got {raw!r}")
    return target


def _run_obs_dashboard(args, stream: TextIO) -> int:
    """``obs top`` / ``obs slo``: the deterministic fleet dashboard.

    The seeded workload runs against a fresh fleet on a
    :class:`~repro.chaos.clock.VirtualClock` with backend sleeps disabled
    (``time_scale`` forced to 0): each frame submits its slice of the
    schedule sequentially, advances the virtual clock by ``--refresh``,
    scrapes + evaluates the SLOs, and renders one ``obs top`` frame.
    Every rendered value is count- or virtual-clock-derived, so the same
    seed reproduces the output byte-for-byte — the CI render smoke runs
    ``obs top --once`` twice and diffs.
    """
    from ..chaos.clock import VirtualClock
    from ..obs import (
        MetricsScraper,
        Observability,
        SLOMonitor,
        fleet_slos,
        render_dashboard,
    )
    from ..service import build_workload

    _, router, datasets = _service_setup(args, time_scale=0.0)  # no backend sleeps
    if args.refresh <= 0:
        raise SystemExit("--refresh must be > 0")
    if args.frames < 1:
        raise SystemExit("--frames must be >= 1")
    kill_target = _parse_kill_target(args.kill) if args.kill else None
    if kill_target is not None and (
        kill_target[0] >= args.shards or kill_target[1] >= args.replicas
    ):
        raise SystemExit(
            f"--kill {args.kill} is outside the {args.shards}x{args.replicas} fleet"
        )
    schedule = build_workload(
        list(datasets.values()), args.methods, args.models, args.requests, seed=args.seed
    )
    clock = VirtualClock()
    obs = Observability.for_clock(
        clock, seed=args.seed, sample_rate=args.sample_rate, trace_capacity=4096
    )
    router.set_observability(obs)
    monitor = SLOMonitor(
        MetricsScraper(
            router.metrics.collect_families,
            clock=clock,
            interval_s=args.refresh,
        ),
        fleet_slos(args.shards, args.replicas),
        events=obs.events,
    )
    title = f"{args.datasets[0]} {args.shards}x{args.replicas}"
    per_frame = -(-len(schedule) // args.frames)  # ceil division

    async def go():
        frames = []
        async with router:
            if kill_target is not None:
                await router.kill_replica(*kill_target)
            for frame in range(args.frames):
                for request in schedule[frame * per_frame : (frame + 1) * per_frame]:
                    await router.submit(request)
                await clock.run_for(args.refresh)
                monitor.tick()
                frames.append(
                    render_dashboard(
                        monitor,
                        fleet=router.metrics,
                        events=obs.events,
                        now_s=clock.now(),
                        title=title,
                    )
                )
        return frames

    frames = asyncio.run(go())
    if args.mode == "slo":
        stream.write(
            json.dumps(monitor.status_payload(), indent=2, sort_keys=True) + "\n"
        )
        return 0
    if args.once:
        stream.write(frames[-1] + "\n")
    else:
        stream.write("\n\n".join(frames) + "\n")
    return 0


def _run_obs(args, stream: TextIO) -> int:
    """A traced load run: the observability PR's one-stop CLI view.

    Prints the load report, the unified-registry snapshot and its
    Prometheus-style exposition (exemplar trace ids included), the slowest
    request's span tree, the head-sampling tally, and the fleet event log;
    optionally exports every committed span as JSONL.
    """
    from ..obs import Observability, render_spans
    from ..service import LoadGenerator, build_workload

    if not 0.0 <= args.sample_rate <= 1.0:
        raise SystemExit("--sample-rate must be within [0, 1]")
    if args.mode in ("top", "slo"):
        return _run_obs_dashboard(args, stream)
    _, router, datasets = _service_setup(args)
    obs = Observability.for_clock(
        seed=args.seed, sample_rate=args.sample_rate, trace_capacity=4096
    )
    router.set_observability(obs)
    workload = build_workload(
        list(datasets.values()), args.methods, args.models, args.requests, seed=args.seed
    )
    report = LoadGenerator(router, workload, concurrency=args.concurrency).run_sync()
    stream.write(report.format_table("Traced load run") + "\n\n")
    stream.write(router.metrics.snapshot().format_table() + "\n\n")
    title = "Metrics exposition"
    stream.write(f"{title}\n{'-' * len(title)}\n")
    stream.write(router.metrics.exposition() + "\n")

    tracer = obs.tracer
    _, worst_spans = tracer.slowest_trace()
    if worst_spans:
        title = "Slowest trace"
        stream.write(f"{title}\n{'-' * len(title)}\n")
        stream.write(render_spans(worst_spans) + "\n\n")
    stream.write(
        f"traces committed: {len(tracer.trace_ids())}; "
        f"head-sampled away: {tracer.sampled_out}\n"
    )
    if len(obs.events):
        stream.write("\n" + obs.events.format_table() + "\n")
    if args.trace_jsonl:
        count = tracer.export_jsonl(args.trace_jsonl)
        stream.write(f"\n{count} spans written to {args.trace_jsonl}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-factcheck",
        description="Regenerate the FactCheck paper's tables and figures on the simulated substrate.",
        epilog=(
            "Online serving subcommands (own flags; see `serve --help` / "
            "`loadgen --help`): `serve` runs the TCP JSON-lines validation "
            "server, `loadgen` drives an in-process service closed-loop."
        ),
    )
    parser.add_argument(
        "--experiment",
        default="table5",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="Which table/figure to regenerate (default: table5).",
    )
    parser.add_argument("--scale", type=float, default=0.05, help="Dataset scale relative to the paper (default 0.05).")
    parser.add_argument("--max-facts", type=int, default=60, help="Cap on facts per dataset (default 60; 0 = no cap).")
    parser.add_argument("--world-scale", type=float, default=0.3, help="Synthetic world population scale.")
    parser.add_argument("--documents-per-fact", type=int, default=14, help="Average corpus documents per fact.")
    parser.add_argument("--seed", type=int, default=7, help="Master seed.")
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        help=(
            "Pre-run the FULL configured method x dataset x model grid over "
            "N worker processes before rendering (default 1 = serial; "
            "verdicts are identical).  Worth it for grid-wide experiments "
            "(table5/table8/all); single-slice experiments run less work "
            "without it."
        ),
    )
    parser.add_argument("--output", default=None, help="Optional file to write the rendered output to.")
    return parser


def run_experiment(name: str, runner: BenchmarkRunner) -> str:
    """Render one experiment (or all of them) to text."""
    if name == "all":
        return "\n\n".join(experiment.render(runner) for experiment in EXPERIMENTS.values())
    try:
        experiment = EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(f"Unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}") from exc
    return experiment.render(runner)


def main(argv: Optional[list] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    stream = stream or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SERVICE_COMMANDS:
        service_args = build_service_parser().parse_args(argv)
        if service_args.command == "serve":
            return _run_serve(service_args, stream)
        if service_args.command == "ingest":
            return _run_ingest(service_args, stream)
        if service_args.command == "compact":
            return _run_compact(service_args, stream)
        if service_args.command == "convert":
            return _run_convert(service_args, stream)
        if service_args.command == "chaos":
            return _run_chaos(service_args, stream)
        if service_args.command == "obs":
            return _run_obs(service_args, stream)
        return _run_loadgen(service_args, stream)
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        scale=args.scale,
        max_facts_per_dataset=args.max_facts or None,
        world_scale=args.world_scale,
        documents_per_fact=args.documents_per_fact,
        seed=args.seed,
    )
    runner = BenchmarkRunner(config)
    if args.parallel > 1:
        # Populate the grid cache concurrently; the renderers then only hit
        # cached cells (deterministic — verdicts match a serial run).
        runner.run_grid(parallel=args.parallel)
    rendered = run_experiment(args.experiment, runner)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    stream.write(rendered + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
