"""Runs one workload: set-up, timed repetitions, medians, checks.

A *run* is set-up (untimed, reported as ``setup_s``) plus at least
``spec.MIN_ROUNDS`` repetitions of the timed phase, each on a freshly built
fleet; repetitions are added while the timed total is short of
``--seconds``.  Every end-to-end metric is the median over the repetitions.
With ``trace`` the run is instead one plain repetition followed by one
traced repetition of the same inputs plus the layer probes.
"""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import statistics
import time
from typing import Dict, List, Optional

from . import layers, spec
from .calibration import ONCE_BASKETS, slowness
from .harness import peak_rss_mb
from .workloads import WORKLOADS, Round


def _environment() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version()}


def _merge_checks(rounds: List[Round]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    for round_ in rounds:
        for name, ok in round_.checks.items():
            checks[name] = checks.get(name, True) and bool(ok)
    return checks


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    quick: bool = False,
    imports=(0.0, 1.0),
    scratch: str,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """One run of one workload; returns its JSON document."""
    sizes = spec.QUICK if quick else spec.FULL
    os.makedirs(scratch, exist_ok=True)
    import_s, import_slowness = imports  # paid by the caller, before us
    before = asyncio.run(slowness(ONCE_BASKETS))
    started = time.perf_counter()
    workload = WORKLOADS[name](sizes, seed, scratch, quick)
    workload.prepare()
    if not quick:
        # The set-up heap is static from here on; freezing it keeps a full
        # collection from walking it at an arbitrary point of a timed phase.
        # (The smoke size reports no timing worth protecting, and runs
        # inside a test process whose collector is not ours to change.)
        gc.collect()
        gc.freeze()
    substrate_s = time.perf_counter() - started
    substrate_slowness = (before + asyncio.run(slowness(ONCE_BASKETS))) / 2
    once_s = import_s / import_slowness + substrate_s / substrate_slowness

    rounds: List[Round] = []
    layer_values: layers.Layers = {}
    if trace:
        rounds.append(workload.run_round())
        recorder = layers.SpanRecorder()
        traced = workload.run_round(recorder)
        layer_values = _layers(name, rounds[0], traced)
        if trace_dir is not None:
            recorder.write_jsonl(os.path.join(trace_dir, f"trace_{name}.jsonl"))
        checked = [rounds[0], traced]
    else:
        min_rounds = 1 if quick else spec.MIN_ROUNDS
        timed = 0.0
        while len(rounds) < min_rounds or timed + timed / len(rounds) / 2 < seconds:
            rounds.append(workload.run_round())
            timed += rounds[-1].timed_s
        checked = rounds

    metrics: Dict[str, Dict[str, object]] = {}
    for metric in spec.ALL_E2E:
        if not metric.applies(name):
            continue
        if metric.name == "setup_s":
            # Paid once (imports, substrate) + paid per repetition (fleet
            # build, warm-up), each at reference speed like the timed phase.
            values = [once_s + r.setup_s / r.slowness for r in rounds]
        elif metric.name == "peak_rss_mb":
            values = [peak_rss_mb()]
        else:
            values = [r.metrics[metric.name] for r in rounds]
        entry: Dict[str, object] = {
            "value": statistics.median(values), "unit": metric.unit, "rounds": values,
        }
        if metric.name in rounds[0].samples:
            entry["samples_per_round"] = rounds[0].samples[metric.name]
        if metric.name == "setup_s":
            entry["raw_rounds"] = [import_s + substrate_s + r.setup_s for r in rounds]
        elif metric.name in rounds[0].raw:
            entry["raw_rounds"] = [r.raw[metric.name] for r in rounds]
        if "raw_rounds" in entry:
            # As the clock read it, before the reference-speed scaling.
            entry["raw_value"] = statistics.median(entry["raw_rounds"])
        metrics[metric.name] = entry

    checks = _merge_checks(checked)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "traced": trace,
        "rounds": len(rounds),
        "timed_s": sum(r.timed_s for r in rounds),
        "slowness_rounds": [r.slowness for r in rounds],
        "setup_parts_s": {"imports": import_s, "substrate_and_schedule": substrate_s,
                          "fleet_and_warm_up_median": statistics.median(r.setup_s for r in rounds)},
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "correct": all(checks.values()),
        "checks": checks,
        "conditions": workload.conditions(),
        "metrics": metrics,
        "layers": layer_values,
        "detail": checked[-1].detail,
        "sizes": {k: v for k, v in vars(sizes).items()},
        "env": _environment(),
    }


def _layers(name: str, plain: Round, traced: Round) -> layers.Layers:
    """Every per-layer name: measured where this workload crosses the
    layer, ``None`` where it does not."""
    values: layers.Layers = {metric.name: None for metric in spec.PER_LAYER}
    values.update(plain.layers)
    values.update(traced.layers)
    values["bench.trace_overhead_ratio"] = (
        plain.metrics["read_ops_per_s"] / traced.metrics["read_ops_per_s"]
    )
    for metric in spec.WORKLOAD_E2E:
        mirror = f"client.{metric.name}"
        if mirror in values and metric.name in plain.metrics:
            values[mirror] = plain.metrics[metric.name]
    return values


def contract_line(document: Dict[str, object]) -> Dict[str, object]:
    """The one JSON object the driver reads from the last stdout line.

    Untraced: every ``end_to_end`` metric.  Traced: every ``per_layer``
    metric, ``0.0`` standing for "this workload does not cross that layer"
    (the full document above it says ``null``).
    """
    if document["traced"]:
        units = {metric.name: metric.unit for metric in spec.PER_LAYER}
        metrics = {
            name: {"value": float(document["layers"].get(name) or 0.0), "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            metric.name: {
                "value": document["metrics"][metric.name]["value"], "unit": metric.unit
            }
            for metric in spec.DRIVER_E2E
        }
    return {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }
