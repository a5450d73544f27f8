"""Constants and metric tables of the end-to-end benchmark.

Everything a run's size depends on lives here and never changes with the
commit under test: a later PR is judged by these numbers, so a PR that
claims a gain may not edit this directory (see ``README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# ----------------------------------------------------------------- substrate

#: ``ExperimentConfig`` keyword arguments shared by the four serving workloads.
SUBSTRATE = dict(
    scale=0.05,
    max_facts_per_dataset=60,
    world_scale=0.2,
    datasets=("factbench",),
    seed=11,
)
DATASET = "factbench"
MODELS = ("gemma2:9b", "qwen2.5:7b")
NUM_SHARDS = 2
NUM_REPLICAS = 2
MAX_BATCH_SIZE = 8
QUEUE_DEPTH = 4096

#: Fewest timed repetitions per run; more are added while ``--seconds`` lasts.
MIN_ROUNDS = 3
#: The tail percentile of client latencies, and the one the open loop's SLO
#: is set on: the highest that keeps ten samples beyond it on every workload
#: with enough samples to have a tail (225 at the lowest open-loop step), and
#: the highest whose value follows the box's speed instead of its stalls.
TAIL_PERCENTILE = 95
#: Served verdicts re-judged offline per run (the parity check).
PARITY_SAMPLE = 48


@dataclass(frozen=True)
class Sizes:
    """Per-round sizes; ``quick`` shrinks them for the smoke test."""

    facts: int = 60
    hot_reads: int = 20_000
    hot_slice: int = 5_000
    hot_clients: int = 16
    cold_reads: int = 4_000
    cold_slice: int = 1_000
    cold_clients: int = 16
    cold_cache_capacity: int = 32
    backend_rates: Tuple[int, ...] = (300, 600, 900, 1350)
    backend_step_s: float = 0.75
    backend_time_scale: float = 0.05
    backend_slo_ms: float = 150.0
    backend_reference_step: int = 1
    mixed_items: int = 800
    mixed_slice: int = 160
    mixed_clients: int = 8
    mixed_write_every: int = 16
    mixed_batch: int = 8
    mixed_drain_interval_s: float = 0.005
    store_mutations: int = 12_000
    store_epochs: int = 600
    store_saves: int = 3
    store_loads: int = 3
    store_snapshots: int = 10
    store_more_batches: int = 50
    wire_requests: int = 20_000
    obs_spans: int = 100_000
    obs_reads: int = 10_000
    probe_batches: int = 100


FULL = Sizes()
QUICK = Sizes(
    facts=16,
    hot_reads=1_200,
    hot_slice=1_200,
    cold_reads=400,
    cold_slice=400,
    backend_rates=(100, 200, 300, 400),
    backend_step_s=0.15,
    backend_time_scale=0.01,
    mixed_items=96,
    mixed_slice=96,
    store_mutations=400,
    store_epochs=40,
    store_saves=2,
    store_loads=2,
    store_snapshots=4,
    store_more_batches=4,
    wire_requests=100,
    obs_spans=2_000,
    obs_reads=200,
    probe_batches=6,
)

# ----------------------------------------------------------------- workloads

WORKLOADS: Dict[str, str] = {
    "hot_reads": (
        "closed loop over 240 coordinates that fit the verdict cache: router, "
        "cache and metrics bookkeeping do almost all the work"
    ),
    "cold_reads": (
        "same fleet and clients with a working set larger than the cache: "
        "strategy runs and batching own the time, the router share is small"
    ),
    "backend_bound": (
        "open-loop arrival steps with simulated backend sleeps and the cache "
        "off: only batching, queueing and replica selection can move it"
    ),
    "mixed_rw": (
        "reads beside 8-mutation ingests with one durable edge queue: epoch "
        "bumps invalidate the cache, quiesce stalls reads, writes ship and fsync"
    ),
    "store_lifecycle": (
        "one client, no timers: save, cold load, historical snapshots, more "
        "batches, compact in the default format; serving changes must not move it"
    ),
}

# ------------------------------------------------------------------- metrics


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``bound`` is the relative worsening of the median that counts as a
    regression; ``0.0`` means any worsening does (counts and step labels).
    ``workloads`` lists where it applies (``None`` = all five).
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: Optional[Tuple[str, ...]] = None

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


_SERVING = ("hot_reads", "cold_reads", "backend_bound", "mixed_rw")
_CLOSED = ("hot_reads", "cold_reads", "mixed_rw")

#: The metrics every workload reports and the driver bounds
#: (``BENCHMARK.json`` ``end_to_end``).  On ``store_lifecycle`` a *read* is
#: one durable-state read: a cold ``load`` or a historical ``snapshot``,
#: each followed by a lookup; an *op* is one mutation saved or replayed.
DRIVER_E2E: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("read_ops_per_s", "1/s", "higher", 0.20),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_p95_ms", "ms", "lower", 0.25),
    Metric("cpu_us_per_op", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: The metrics only some workloads have.  The driver's schema wants every
#: ``end_to_end`` metric on every workload, so these ride in the full JSON
#: document (``compare.py`` bounds them) and are mirrored, unbounded, as
#: ``client.*`` / ``store.*`` per-layer metrics of the traced run.
WORKLOAD_E2E: Tuple[Metric, ...] = (
    Metric("failed_share", "ratio", "lower", 0.0, _SERVING),
    Metric("slo_rate_rps", "1/s", "higher", 0.0, ("backend_bound",)),
    Metric("write_ops_per_s", "batches/s", "higher", 0.20, ("mixed_rw",)),
    Metric("write_p50_ms", "ms", "lower", 0.25, ("mixed_rw",)),
    Metric("write_p95_ms", "ms", "lower", 0.25, ("mixed_rw",)),
    Metric("cold_start_s", "s", "lower", 0.20, ("store_lifecycle",)),
    Metric("snapshot_ms", "ms", "lower", 0.25, ("store_lifecycle",)),
    Metric("save_s", "s", "lower", 0.25, ("store_lifecycle",)),
    Metric(
        "disk_bytes_per_user_byte", "bytes/byte", "lower", 0.01,
        ("mixed_rw", "store_lifecycle"),
    ),
)

ALL_E2E: Tuple[Metric, ...] = DRIVER_E2E + WORKLOAD_E2E


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metrics it should move."""

    name: str
    unit: str
    better: str
    moves: str


PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("service.router.self_us_per_read", "us", "lower",
                "read_p50_ms, cpu_us_per_op, read_ops_per_s (hot_reads; small on cold_reads; none on backend_bound)"),
    LayerMetric("service.router.self_ms_per_write", "ms", "lower",
                "write_p50_ms, write_ops_per_s (mixed_rw)"),
    LayerMetric("service.router.replica_spread", "ratio", "lower",
                "read_ops_per_s, read_p95_ms (backend_bound)"),
    LayerMetric("service.router.failovers", "count", "lower", "failed_share (0 expected)"),
    LayerMetric("service.router.retries", "count", "lower", "failed_share (0 expected)"),
    LayerMetric("service.router.session_fallbacks", "count", "lower",
                "read_p50_ms (mixed_rw: reads forced off the edge)"),
    LayerMetric("service.router.edge_read_share", "ratio", "higher", "read_p50_ms (mixed_rw)"),
    LayerMetric("service.server.queue_wait_us_p50", "us", "lower",
                "read_p95_ms (cold_reads, backend_bound)"),
    LayerMetric("service.server.queue_wait_us_p99", "us", "lower",
                "read_p95_ms (cold_reads, backend_bound)"),
    LayerMetric("service.server.mean_batch_size", "count", "higher",
                "read_ops_per_s (backend_bound, cold_reads)"),
    LayerMetric("service.server.self_us_per_read", "us", "lower",
                "cpu_us_per_op (hot_reads, cold_reads)"),
    LayerMetric("service.server.apply_ms_per_write", "ms", "lower",
                "write_p50_ms; read_p95_ms (mixed_rw: reads pause while it runs)"),
    LayerMetric("service.server.shed", "count", "lower", "failed_share"),
    LayerMetric("service.cache.hit_rate", "ratio", "higher",
                "read_ops_per_s (hot_reads ~0.99, cold_reads ~0.2, mixed_rw falls with each epoch bump)"),
    LayerMetric("service.cache.size", "count", "higher", "read_ops_per_s"),
    LayerMetric("validation.busy_us_per_fact.dka", "us", "lower",
                "read_p50_ms, cpu_us_per_op (cold_reads; none on hot_reads)"),
    LayerMetric("validation.busy_us_per_fact.giv-z", "us", "lower",
                "read_p50_ms, cpu_us_per_op (cold_reads)"),
    LayerMetric("validation.busy_us_per_fact.rag", "us", "lower",
                "read_p50_ms, cpu_us_per_op (cold_reads, mixed_rw)"),
    LayerMetric("validation.facts_judged", "count", "lower", "cpu_us_per_op (cold_reads)"),
    LayerMetric("store.store.apply_ms_per_batch", "ms", "lower", "write_p50_ms (mixed_rw)"),
    LayerMetric("store.store.state_digest_ms", "ms", "lower",
                "write_p50_ms, write_p95_ms (mixed_rw: paid per ingest, grows with the store)"),
    LayerMetric("store.store.replay_mutations_per_s", "1/s", "higher",
                "cold_start_s, read_p95_ms (store_lifecycle)"),
    LayerMetric("store.store.compact_s", "s", "lower",
                "cpu_us_per_op, disk_bytes_per_user_byte (store_lifecycle)"),
    LayerMetric("store.sharding.group_apply_ms", "ms", "lower", "write_p50_ms (mixed_rw)"),
    LayerMetric("store.sharding.route_us_per_mutation", "us", "lower", "write_p50_ms (mixed_rw)"),
    LayerMetric("store.segment.save_s", "s", "lower", "save_s (store_lifecycle, once segment is the default)"),
    LayerMetric("store.segment.load_s", "s", "lower", "cold_start_s (store_lifecycle, once segment is the default)"),
    LayerMetric("store.segment.bytes_per_user_byte", "bytes/byte", "lower",
                "disk_bytes_per_user_byte (store_lifecycle)"),
    LayerMetric("store.segment.page_cache_hit_rate", "ratio", "higher", "snapshot_ms (store_lifecycle)"),
    LayerMetric("store.geosync.enqueue_ms", "ms", "lower", "write_p50_ms (mixed_rw; includes the fsync)"),
    LayerMetric("store.geosync.drain_batches_per_s", "1/s", "higher",
                "read_p95_ms (mixed_rw: drain ticks share the loop)"),
    LayerMetric("store.geosync.queue_bytes_per_user_byte", "bytes/byte", "lower",
                "disk_bytes_per_user_byte (mixed_rw)"),
    LayerMetric("store.geosync.staleness_p95_epochs", "epochs", "lower",
                "none: guard on visible staleness (mixed_rw)"),
    LayerMetric("service.frontend.wire_us_per_op", "us", "lower",
                "none yet: evidence for the parked binary-wire item"),
    LayerMetric("obs.span_us", "us", "lower", "none with tracing off: the observer's budget"),
    LayerMetric("obs.exposition_ms", "ms", "lower", "none with tracing off: the observer's budget"),
    LayerMetric("obs.tracer_on_cpu_ratio", "ratio", "lower", "none with tracing off: the observer's budget"),
    LayerMetric("bench.trace_overhead_ratio", "ratio", "lower", "honesty of the instrument"),
    LayerMetric("bench.gen_late_p99_ms", "ms", "lower", "honesty of the instrument (backend_bound)"),
    # Unbounded mirrors of the workload-specific end-to-end metrics, taken
    # from the untraced repetition of the traced run.
    LayerMetric("client.slo_rate_rps", "1/s", "higher", "mirror (backend_bound)"),
    LayerMetric("client.write_ops_per_s", "batches/s", "higher", "mirror (mixed_rw)"),
    LayerMetric("client.write_p50_ms", "ms", "lower", "mirror (mixed_rw)"),
    LayerMetric("client.write_p95_ms", "ms", "lower", "mirror (mixed_rw)"),
    LayerMetric("client.cold_start_s", "s", "lower", "mirror (store_lifecycle)"),
    LayerMetric("client.snapshot_ms", "ms", "lower", "mirror (store_lifecycle)"),
    LayerMetric("client.save_s", "s", "lower", "mirror (store_lifecycle)"),
    LayerMetric("client.disk_bytes_per_user_byte", "bytes/byte", "lower",
                "mirror (mixed_rw, store_lifecycle)"),
)
