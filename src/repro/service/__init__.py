"""Online validation service: micro-batching, caching, admission control.

The ROADMAP's north star is a production-scale system serving heavy
fact-validation traffic; this package is the serving layer over the
offline substrates:

* :mod:`repro.service.server` — the asyncio :class:`ValidationService`,
  the replica worker: single-fact requests coalesce into micro-batches
  per ``(method, model)`` strategy worker, with a bounded in-flight
  budget that sheds overload with an explicit ``REJECTED`` outcome;
* :mod:`repro.service.cache` — the :class:`VerdictCache` keyed on
  (epoch, fact, method, model) with hit/miss telemetry;
* :mod:`repro.service.metrics` — :class:`ServiceMetrics` /
  :class:`MetricsSnapshot`, every number read from the worker's
  :class:`~repro.obs.registry.MetricsRegistry`;
* :mod:`repro.service.frontend` — a newline-delimited-JSON TCP front-end;
* :mod:`repro.service.loadgen` — the closed-loop :class:`LoadGenerator`
  with deterministic read (and :class:`IngestRequest` write) schedules;
* :mod:`repro.service.policy` — :class:`RetryPolicy`: retry budgets,
  jittered exponential backoff and deadline propagation;
* :mod:`repro.service.router` — :class:`ShardedValidationService`: the
  one front door (a single node is the 1x1 fleet), routing reads and
  writes to N logical shards, each a **replica group** of R
  :class:`ValidationService` workers over byte-identical store copies,
  plus :class:`RouterMetrics`, one snapshot and exposition for the fleet;
* :mod:`repro.service.balancer`, :mod:`repro.service.attempts` and
  :mod:`repro.service.geo` — the router's replica selection and health,
  its failover/retry/degradation passes, and its geo edge tier.

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
from .balancer import ReplicaHealth
from .router import ROUTER_METRIC_NAMES, RouterMetrics, ShardedValidationService
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
