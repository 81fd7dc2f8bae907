"""CPU-speed calibration of host times.

On a shared host the speed one process gets can shift by a factor of two
for seconds to minutes at a time, which no number of repeats inside a run
averages away. So every timed interval (one op, one fresh-interpreter call)
is bracketed by two runs of a fixed pure-Python loop that does the same
kinds of interpreter work as the simulator (building many small frozen
dataclasses and frozensets, dict lookups, float math, string formatting)
over a working set of a few MB, and is scaled by ``NOMINAL_S`` over the
mean of the two loop times. Times are thus seconds at the speed at which
the loop takes ``NOMINAL_S``; the raw host times are kept in the run
record. This tracks the speed only while the intervals stay short (about a
second) next to the shifts, which is why the benchmark's ops are sized to
last well under two seconds. The loop uses nothing from ``behaviorfit``,
so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.06
ROWS = 15000


@dataclass(frozen=True)
class _Row:
    t: int
    figures: frozenset
    value: float
    tags: tuple


def _loop() -> int:
    pool = [frozenset(range(i % 97, i % 97 + 6)) for i in range(512)]
    rows = [_Row(i, pool[(31 * i) % 512] | pool[i % 512], 0.5 * i, (str(i), "x")) for i in range(ROWS)]
    seen: dict[frozenset, int] = {}
    acc = 0.0
    for row in rows:
        seen[row.figures] = seen.get(row.figures, 0) + 1
        acc += row.value / (1 + len(row.figures))
    text = "\n".join(f"{row.t},{row.value!r},{';'.join(row.tags)}" for row in rows)
    return len(seen) + len(text) + int(acc)


def loop_seconds() -> float:
    """Host time of one run of the calibration loop. It runs once untimed
    first, so that the memory it needs is mapped, and the cyclic garbage
    collector is off, so that the heap around it does not change its work."""
    gc.disable()
    try:
        _loop()
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(times: list[float], loops: list[float]) -> list[float]:
    """Host ``times`` in calibrated seconds; ``times[i]`` was measured between
    ``loops[i]`` and ``loops[i + 1]``."""
    return [t * 2 * NOMINAL_S / (loops[i] + loops[i + 1]) for i, t in enumerate(times)]
