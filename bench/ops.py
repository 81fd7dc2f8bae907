"""The timed op loop, run in a process of its own so that its peak memory
is that of the ops alone.

Closed loop, one client: each op is one ``behaviorfit.cli.main(argv)``
call and starts only after the previous one has returned and its output
has been checked. Reads a JSON spec on standard input and prints one JSON
object with each op's host time and verdict, the calibration loop times
that bracket the ops (see ``calibrate.py``), and the process's peak memory.

The calibration loop holds more memory at once than some ops do, so the
peak is read after one untimed pass over the ops and before the first
loop. The loop runs in this process all the same: on a shared host a loop
in another process does not track the speed this one gets.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import loop_seconds

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space. ``ru_maxrss``
    would also count the parent's, which the child inherits across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(main, op: dict, after_op=None) -> tuple[float, bool]:
    """Host time of one op and whether it passed the output check.

    ``after_op(out)`` runs between the op and its check; the self-test uses
    it to corrupt an output.
    """
    out = Path(op["out"])
    out.unlink(missing_ok=True)
    gc.collect()
    t0 = perf_counter()
    try:
        rc = main(op["argv"])
    except (Exception, SystemExit):  # a crashed op is a failed op
        traceback.print_exc()
        rc = None
    elapsed = perf_counter() - t0
    if after_op is not None:
        after_op(out)
    return elapsed, rc == 0 and out.is_file() and digest(out) == op["sha256"]


def run_ops(ops: list[dict], seconds: float) -> dict:
    """Run each of ``ops`` (each with ``argv``, ``out`` and the ``sha256`` of
    the expected output) once untimed, then cycle over them, timed, until
    ``seconds`` have passed and each op ran once more."""
    from behaviorfit.cli import main

    for op in ops:  # also the warm-up: lazy set-up happens before timing
        run_op(main, op)
    peak = peak_rss_kb()
    times, loops, ok = [], [], []
    start = perf_counter()
    while len(times) < len(ops) or perf_counter() - start < seconds:
        loops.append(loop_seconds())
        elapsed, passed = run_op(main, ops[len(times) % len(ops)])
        times.append(elapsed)
        ok.append(passed)
    loops.append(loop_seconds())
    return {"times": times, "loops": loops, "ok": ok, "peak_rss_kb": peak}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.load(sys.stdin)
    print(json.dumps(run_ops(spec["ops"], spec["seconds"])))
