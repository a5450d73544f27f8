#!/usr/bin/env python3
"""Compare two sets of runs, or report one set's run-to-run spread.

``compare.py A.json B.json`` (A is the base)
    one row per workload x end-to-end metric with both medians, the ratio
    B / A **and its base**, the metric's bound, and a verdict:

    ``ok``          B's median is no worse than A's by more than the bound;
    ``regressed``   it is worse by more than the bound;
    ``unresolved``  a side's run-to-run spread is wider than the bound and
                    the two sides' samples interleave, so neither can be said.

``compare.py A.json``
    one row per workload x end-to-end metric with the median over A's runs,
    their quartiles and the spread (interquartile distance / median) beside
    the bound; needs a set of several runs (``run.py --runs 10``).

A and B are sets written by ``run.py`` (``out/set_N.json``).  Exit status 1
when any row is ``regressed`` or ``unresolved``, or any spread exceeds its
bound.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2ebench.spec import ALL_E2E, Metric  # noqa: E402  (no program import needed)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, the quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def _run_spread(entry: Dict[str, object]) -> float:
    """Run-to-run spread of a metric, as a share of its median.

    Over several runs it is their quartile spread.  Over one run it is
    estimated from the run's ``n`` repetitions, whose median the run
    reports: their interquartile distance (robustly, twice the median
    absolute deviation — one stalled repetition must not decide it) times
    1.25 / sqrt(n), the interquartile distance of a sample median.
    """
    values: List[float] = entry["samples"]
    if entry["samples_are"] == "runs":
        return quartile_spread(values)
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    deviation = statistics.median(abs(value - median) for value in values)
    return 2.0 * deviation * 1.25 / math.sqrt(len(values)) / abs(median)


def _worsening(metric: Metric, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if base == 0:
        worse = other > 0 if metric.better == "lower" else other < 0
        return float("inf") if worse else 0.0
    change = (other - base) / abs(base)
    return change if metric.better == "lower" else -change


def summarise(result: Dict[str, object]) -> Dict[str, object]:
    """A set, one entry per workload x end-to-end metric: the median over
    its samples (the runs' values; a single run's repetitions), the samples,
    their quartiles and the sample count behind each percentile."""
    workloads: Dict[str, object] = {}
    for name, documents in result["workloads"].items():
        metrics: Dict[str, object] = {}
        for metric in ALL_E2E:
            entries = [document["metrics"].get(metric.name) for document in documents]
            if None in entries:
                continue
            several = len(entries) > 1
            values = (
                [entry["value"] for entry in entries] if several else list(entries[0]["rounds"])
            )
            summary: Dict[str, object] = {
                "value": statistics.median(values),
                "unit": metric.unit,
                "samples": values,
                "samples_are": "runs" if several else "repetitions",
            }
            if len(values) > 1:
                quartiles = statistics.quantiles(values, n=4)
                summary["q1"], summary["q3"] = quartiles[0], quartiles[2]
            if "samples_per_round" in entries[0]:
                summary["latencies_per_repetition"] = entries[0]["samples_per_round"]
            metrics[metric.name] = summary
        workloads[name] = {
            "metrics": metrics,
            "repetitions_per_run": [document["rounds"] for document in documents],
            "checks": sorted(
                {check for document in documents for check in document["checks"]}
            ),
            "conditions_not_met": sorted(
                {
                    name
                    for document in documents
                    for name, met in document["conditions"].items()
                    if not met
                }
            ),
        }
        traced = result.get("traced", {}).get(name)
        if traced is not None:
            workloads[name]["layers"] = traced["layers"]
            workloads[name]["ownership"] = traced["detail"].get("ownership")
    first = next(iter(result["workloads"].values()))[0]
    return {
        "seed": result["seed"],
        "seconds": result["seconds"],
        "runs": result["runs"],
        "correct": result["correct"],
        "env": first["env"],
        "sizes": first["sizes"],
        "workloads": workloads,
    }


def verdict(metric: Metric, base: Dict[str, object], other: Dict[str, object]) -> str:
    worse = _worsening(metric, base["value"], other["value"])
    spread = max(_run_spread(base), _run_spread(other))
    apart = (
        max(other["samples"]) < min(base["samples"])
        or min(other["samples"]) > max(base["samples"])
    )
    if metric.bound > 0 and spread > metric.bound and not apart:
        return "unresolved"
    return "regressed" if worse > metric.bound else "ok"


def _cells(result: Dict[str, object]):
    """``(workload, metric, entry)`` for every cell of a summarised set."""
    for name, workload in summarise(result)["workloads"].items():
        for metric in ALL_E2E:
            if metric.name in workload["metrics"]:
                yield name, metric, workload["metrics"][metric.name]


def compare_rows(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    others = {(name, metric.name): entry for name, metric, entry in _cells(b)}
    out = []
    for name, metric, base in _cells(a):
        other = others.get((name, metric.name))
        if other is None:
            continue
        out.append(
            {
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": base["value"], "b": other["value"],
                "ratio_b_over_a": other["value"] / base["value"] if base["value"] else None,
                "bound": metric.bound, "verdict": verdict(metric, base, other),
            }
        )
    return out


def spread_rows(a: Dict[str, object]) -> List[Dict[str, object]]:
    out = []
    for name, metric, entry in _cells(a):
        if entry["samples_are"] != "runs":
            raise SystemExit("compare.py: a spread report needs a set of several runs (--runs)")
        spread = quartile_spread(entry["samples"])
        if metric.bound > 0:
            within = spread <= metric.bound
        else:  # counts and step labels: any run that differs is a spread
            within = min(entry["samples"]) == max(entry["samples"])
        out.append(
            {
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "median": entry["value"], "q1": entry["q1"], "q3": entry["q3"],
                "runs": len(entry["samples"]), "spread": spread, "bound": metric.bound,
                "verdict": "ok" if within else "wide",
            }
        )
    return out


def _label(row: Dict[str, object]) -> str:
    return f"{row['workload']:16s} {row['metric'] + ' [' + row['unit'] + ']':38s}"


def render_compare(table: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':16s} {'metric':38s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s} "
             f"{'bound':>6s}  verdict"]
    for row in table:
        ratio = f"{row['ratio_b_over_a']:.3f}" if row["ratio_b_over_a"] is not None else "-"
        lines.append(f"{_label(row)} {row['a']:14.4f} {row['b']:14.4f} {ratio:>8s} "
                     f"{row['bound']:6.2f}  {row['verdict']}")
    return "\n".join(lines)


def render_spread(table: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':16s} {'metric':38s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
             f"{'runs':>4s} {'spread':>7s} {'bound':>6s}  verdict"]
    for row in table:
        lines.append(f"{_label(row)} {row['median']:14.4f} {row['q1']:14.4f} {row['q3']:14.4f} "
                     f"{row['runs']:4d} {row['spread']:7.3f} {row['bound']:6.2f}  {row['verdict']}")
    return "\n".join(lines)


def _load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        table = spread_rows(_load(argv[0]))
        print(render_spread(table))
        print(f"{len(table)} rows (spread = (q3 - q1) / median over the runs of {argv[0]})")
    elif len(argv) == 2:
        table = compare_rows(_load(argv[0]), _load(argv[1]))
        print(render_compare(table))
        print(f"{len(table)} rows (ratios are B/A with A = {argv[0]})")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    bad = [row for row in table if row["verdict"] != "ok"]
    print(f"{len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
