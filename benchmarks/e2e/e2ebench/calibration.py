"""Machine-speed calibration: a fixed basket of kernels timed beside the work.

The sandbox this benchmark runs in is a shared 2-core VM whose speed wanders
by tens of percent for minutes at a time (a fixed pure-Python loop does),
and process CPU time wanders with it.  A run lasts seconds, so its median
would mostly report which regime it fell into.  The harness therefore times
a small fixed basket of kernels — none of them touches the program under
test — before and after every *slice* of timed work, and reports the slice's
times at *reference speed*: multiplied by ``nominal / measured`` basket
time.  Raw times are kept beside them in the JSON document.

The basket mixes what the program's hot paths are made of (byte-code
arithmetic, event-loop round trips, frozen-dataclass and LRU traffic, JSON
and set work); its members respond differently to a noisy neighbour, and
their geometric mean tracked all five workloads better than any one alone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import threading
import time
from collections import OrderedDict
from typing import Dict

#: Seconds each kernel takes on the reference box when it is quiet; the
#: scale is 1.0 there.  Constants of the instrument, not of the program.
NOMINAL_S: Dict[str, float] = {
    "arith": 0.0096,
    "loop": 0.0084,
    "objects": 0.0084,
    "json": 0.0083,
}

#: Basket passes on each side of a stretch that is paid (so measured) once
#: per run: the imports and the substrate build, the bulk of ``setup_s``.
ONCE_BASKETS = 3

_KEYS = [f"key-{index}" for index in range(50_000)]
_TABLE = {key: (index, str(index)) for index, key in enumerate(_KEYS)}


def _arith(count: int = 140_000) -> float:
    started = time.perf_counter()
    total = 0
    for index in range(count):
        total += index * index % 7
    return time.perf_counter() - started


async def _loop(count: int = 1_400) -> float:
    """Event-loop round trips: a future resolved by ``call_soon``."""
    started = time.perf_counter()
    loop = asyncio.get_running_loop()
    for index in range(count):
        future = loop.create_future()
        loop.call_soon(future.set_result, _TABLE[_KEYS[index * 7919 % len(_KEYS)]])
        await future
    return time.perf_counter() - started


@dataclasses.dataclass(frozen=True)
class _Record:
    number: int
    name: str
    pair: tuple = ()
    seconds: float = 0.0
    extra: object = None


_LRU = OrderedDict(((key, index % 7, "m"), _Record(index, key)) for index, key in enumerate(_KEYS[:4096]))
_LRU_KEYS = list(_LRU)
_LOCK = threading.Lock()


async def _leaf(index: int) -> _Record:
    with _LOCK:
        key = _LRU_KEYS[index * 31 % len(_LRU_KEYS)]
        hit = _LRU[key]
        _LRU.move_to_end(key)
    started = time.perf_counter()
    return dataclasses.replace(hit, seconds=time.perf_counter() - started, pair=(index, index + 1))


async def _objects(count: int = 1_550) -> float:
    """Nested coroutines that never suspend, a locked LRU, frozen records."""
    started = time.perf_counter()
    kept = []
    for index in range(count):
        record = await _leaf(index)
        kept.append(dataclasses.replace(record, extra=record.pair))
        if len(kept) > 256:
            kept.clear()
    return time.perf_counter() - started


def _json(count: int = 1_650) -> float:
    started = time.perf_counter()
    record = {"op": "add_triple", "subject": "BenchSubject123", "predicate": "benchRel5",
              "object": "BenchObject99887", "epoch": 0}
    seen = set()
    for index in range(count):
        record["epoch"] = index
        decoded = json.loads(json.dumps(record))
        triple = (decoded["subject"], decoded["predicate"], index % 500)
        if triple in seen:
            seen.discard(triple)
        else:
            seen.add(triple)
    return time.perf_counter() - started


async def slowness(baskets: int = 1) -> float:
    """How slow the box is right now: the geometric mean of each kernel's
    measured over nominal time (1.0 = the quiet reference box), over
    ``baskets`` passes of the basket (more where one long stretch of work,
    such as the imports, is scaled by the two readings around it)."""
    logs = []
    for _ in range(baskets):
        measured = {
            "arith": _arith(),
            "loop": await _loop(),
            "objects": await _objects(),
            "json": _json(),
        }
        logs += [math.log(measured[name] / NOMINAL_S[name]) for name in measured]
    return math.exp(sum(logs) / len(logs))
