#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, measured from outside.

Two ways in:

``python3 benchmarks/e2e/run.py --seed N``
    runs every workload, each in a fresh interpreter, one at a time, and
    prints one JSON document with every metric by name and unit
    (``--trace`` adds the traced pass, ``--runs 10`` runs each workload on
    ten seeds and reports the run-to-run spread, ``--sets 2`` runs two sets
    and compares them, ``--quick`` is the ~1 % smoke size, in-process).

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    runs one workload in this interpreter and ends with the one-line JSON
    object of ``BENCHMARK.json``'s contract.

Exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def _import_benchmark():
    """Import the harness (and through it the program) from this checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"run.py: no program to measure under {src}")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from e2ebench import driver, spec

    return driver, spec


def _timed_import():
    """Import the program and time it: seconds as the clock read them and
    the box's slowness around them (``calibration`` is stdlib-only, so it
    can run before the program is imported)."""
    sys.path.insert(0, HERE)
    from e2ebench.calibration import ONCE_BASKETS, slowness

    before = asyncio.run(slowness(ONCE_BASKETS))
    started = time.perf_counter()
    _import_benchmark()
    seconds = time.perf_counter() - started
    return seconds, (before + asyncio.run(slowness(ONCE_BASKETS))) / 2


def _benchmark_json() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args, imports=(0.0, 1.0)) -> Dict[str, object]:
    driver, _ = _import_benchmark()
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    try:
        return driver.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            trace=bool(args.trace),
            quick=args.quick,
            imports=imports,
            scratch=scratch,
            trace_dir=OUT if args.trace else None,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_in_fresh_interpreter(args, name: str, seed: int, traced: int) -> Dict[str, object]:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(traced),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"run.py: {name} produced no document (exit {done.returncode})")
    return json.loads(lines[-2])


def run_set(args, names: List[str]) -> Dict[str, object]:
    """Every workload ``--runs`` times, run ``k`` on seed ``--seed + k``
    (plus, with ``--trace``, once traced on ``--seed``), one at a time."""
    workloads: Dict[str, List[object]] = {}
    traced: Dict[str, object] = {}
    for name in names:
        plan = [(seed, 0) for seed in range(args.seed, args.seed + args.runs)]
        if args.trace:
            plan.append((args.seed, 1))
        for seed, trace in plan:
            if args.quick:
                single = argparse.Namespace(
                    **{**vars(args), "workload": name, "seed": seed, "trace": trace}
                )
                document = run_one(single)
            else:
                document = _run_in_fresh_interpreter(args, name, seed, trace)
            if trace:
                traced[name] = document
            else:
                workloads.setdefault(name, []).append(document)
    documents = [d for runs in workloads.values() for d in runs] + list(traced.values())
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "correct": all(document["correct"] for document in documents),
        "workloads": workloads,
        "traced": traced,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="~1 %% size, one repetition")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs of each workload in a set, each on another seed")
    parser.add_argument("--sets", type=int, default=1, help="full sets to run and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(_benchmark_json()["run_seconds"])

    if args.workload is not None:
        # Only a fresh interpreter pays (and so can report) the import cost.
        imports = _timed_import() if argv is None else (0.0, 1.0)
        driver, spec = _import_benchmark()
        if args.workload not in spec.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; have {sorted(spec.WORKLOADS)}")
        document = run_one(args, imports)
        print(json.dumps(document))
        print(json.dumps(driver.contract_line(document)))
        return 0 if document["correct"] else 1

    sys.path.insert(0, HERE)
    import compare  # and through it the spec; neither imports the program
    from e2ebench import spec

    sets = [run_set(args, list(spec.WORKLOADS)) for _ in range(args.sets)]
    os.makedirs(OUT, exist_ok=True)
    paths = []
    for number, result in enumerate(sets, start=1):
        paths.append(os.path.join(OUT, f"set_{number}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    summaries = [compare.summarise(result) for result in sets]
    print(json.dumps(summaries[0] if args.sets == 1 else {"sets": summaries}, indent=1))
    status = 0 if all(result["correct"] for result in sets) else 1
    if args.runs > 1:
        status = max(status, compare.main(paths[:1]))
    for path in paths[1:]:
        status = max(status, compare.main([paths[0], path]))
    return status


if __name__ == "__main__":
    sys.exit(main())
