"""Online validation service: micro-batching, caching, admission control.

The ROADMAP's north star is a production-scale system serving heavy
fact-validation traffic; this package is the serving layer over the
offline substrates:

* :mod:`repro.service.server` — the asyncio :class:`ValidationService`,
  the replica worker behind the router: single-fact requests coalesce
  into micro-batches per ``(method, model)`` strategy worker, with a
  bounded in-flight budget that sheds overload with an explicit
  ``REJECTED`` outcome;
* :mod:`repro.service.cache` — the sharded :class:`VerdictCache` keyed on
  (fact, method, model) with hit/miss telemetry;
* :mod:`repro.service.metrics` — :class:`ServiceMetrics` /
  :class:`MetricsSnapshot` (p50/p95/p99 latency, throughput, queue depth,
  cache hit rate, shed count), every number read from the worker's
  :class:`~repro.obs.registry.MetricsRegistry`;
* :mod:`repro.service.frontend` — a newline-delimited-JSON TCP front-end;
* :mod:`repro.service.loadgen` — the closed-loop :class:`LoadGenerator`
  harness with a deterministic arrival mix, including a mixed read/write
  mode (:class:`IngestRequest` items in the schedule apply mutation
  batches through the router's ``apply_mutations``);
* :mod:`repro.service.policy` — :class:`RetryPolicy`: bounded retry
  budgets with jittered exponential backoff and deadline propagation.
  With a policy attached, the router retries a fully-faulted shard pass
  (on its injectable clock), and after the budget is spent serves the
  last known good verdict as a stale, epoch-tagged ``DEGRADED`` response
  instead of ``FAILED`` — graceful degradation under injected failure
  (see :mod:`repro.chaos`);
* :mod:`repro.service.router` — :class:`ShardedValidationService`: the
  one front door (a single node is the 1x1 fleet), routing reads and
  writes to N logical shards — each a
  **replica group** of R :class:`ValidationService` workers over
  log-shipped byte-identical store copies — by consistent hash of the
  subject entity.  Single-fact reads fan out across each group behind a
  queue-depth-aware balancer; a raising/stalling/killed replica is marked
  unhealthy and its traffic fails over to siblings (health probes
  re-admit it), so only a whole-shard outage surfaces as an explicit
  ``FAILED`` outcome.  Multi-fact batches scatter-gather with a
  deterministic merge, and :class:`RouterMetrics` reads every replica's
  and edge copy's registry, plus the router's own, into one
  :class:`MetricsSnapshot` and one fleet exposition.

With a :class:`~repro.store.ShardedStore` attached (for one node,
``ShardedStore([runner.versioned_store(dataset)])``), the router ingests
live updates: each applied batch advances the owning shards' epochs, and
because verdict-cache keys carry the epoch, stale verdicts invalidate
automatically.

Quickstart::

    from repro.benchmark import BenchmarkRunner, ExperimentConfig
    from repro.service import (
        LoadGenerator, ServiceConfig, ShardedValidationService, build_workload,
    )

    runner = BenchmarkRunner(ExperimentConfig(datasets=("factbench",)))
    router = ShardedValidationService.from_runner(
        runner, 1, ServiceConfig(max_batch_size=16)
    )
    workload = build_workload([runner.dataset("factbench")], ["dka"], ["gemma2:9b"], 200)
    report = LoadGenerator(router, workload, concurrency=16).run_sync()
    print(report.format_table())
"""

from .cache import CacheStats, VerdictCache, verdict_cache_key
from .config import ServiceConfig
from .frontend import TCPValidationFrontend
from .loadgen import (
    IngestRequest,
    LoadGenerator,
    LoadReport,
    build_workload,
)
from .metrics import SERVICE_METRIC_NAMES, MetricsSnapshot, ServiceMetrics, percentile
from .policy import RetryPolicy
from .router import (
    ROUTER_METRIC_NAMES,
    ReplicaHealth,
    RouterMetrics,
    ShardedValidationService,
)
from .server import (
    RequestOutcome,
    ServiceRequest,
    ServiceResponse,
    StrategyProvider,
    UnknownStrategyError,
    ValidationService,
)

__all__ = [
    "CacheStats",
    "IngestRequest",
    "ROUTER_METRIC_NAMES",
    "SERVICE_METRIC_NAMES",
    "LoadGenerator",
    "LoadReport",
    "MetricsSnapshot",
    "ReplicaHealth",
    "RequestOutcome",
    "RetryPolicy",
    "RouterMetrics",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceRequest",
    "ServiceResponse",
    "ShardedValidationService",
    "StrategyProvider",
    "TCPValidationFrontend",
    "UnknownStrategyError",
    "ValidationService",
    "VerdictCache",
    "build_workload",
    "percentile",
    "verdict_cache_key",
]
