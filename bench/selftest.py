"""Self-test of the benchmark's own checks, at tiny sizes.

For each workload it shows that the ops pass the output check, that a
mutated output row is counted as a failed op, that the invariant check
rejects broken rows, and that the traced reference rows equal
``run_scenario``'s. It also shows that two ``PYTHONHASHSEED`` values give
byte-identical scenario files and op outputs. Run it with
``python3 bench/run.py --self-test``; it exits non-zero on any failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

TINY_HORIZON = 120
TINY_SEEDS_PER_OP = 3


def mutate_row(path: Path) -> None:
    """Change one digit in the middle line of an output file."""
    lines = path.read_bytes().split(b"\n")
    i = len(lines) // 2
    while not re.search(rb"\d", lines[i]):
        i += 1
    lines[i] = re.sub(rb"\d", lambda m: b"1" if m.group() != b"1" else b"2", lines[i], count=1)
    path.write_bytes(b"\n".join(lines))


def _tiny_inputs(run, workload, seed: int, work: str):
    seeds_per_op = TINY_SEEDS_PER_OP if workload.verb == "sweep" else None
    return run.Inputs(workload, seed, run.WORK / work / workload.name, TINY_HORIZON, seeds_per_op)


def probe(seed: int) -> dict:
    """sha256 of each tiny workload's scenario file and op outputs."""
    import run
    from ops import digest, run_ops
    from workloads import WORKLOADS

    digests = {}
    for workload in WORKLOADS.values():
        inputs = _tiny_inputs(run, workload, seed, f"probe-{os.environ.get('PYTHONHASHSEED')}")
        ops, _ = inputs.expected_ops()
        done = run_ops(ops, 0)
        digests[workload.name] = {
            "scenario": hashlib.sha256(inputs.scenario.read_bytes()).hexdigest(),
            "outputs": [digest(out) for out in inputs.outs],
            "ok": done["ok"],
        }
    return digests


def main() -> int:
    import run
    from behaviorfit.cli import main as cli_main
    from ops import run_op, run_ops
    from reference import expected_output, invariant_violations
    from workloads import WORKLOADS

    errors = []

    def expect(condition: bool, what: str) -> None:
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            errors.append(what)

    for workload in WORKLOADS.values():
        inputs = _tiny_inputs(run, workload, 7, "selftest")
        ops, problems = inputs.expected_ops()
        expect(not problems, f"{workload.name}: reference outputs keep the invariants")

        _, reports = expected_output(workload, inputs.scenario, inputs.seeds[0])
        rows = list(reports[0].rows)
        broken = {
            "a nan fit": rows[:1] + [dataclasses.replace(rows[1], fit=float("nan"))] + rows[2:],
            "a fit above 1": rows[:1] + [dataclasses.replace(rows[1], fit=1.5)] + rows[2:],
            "a falling cum_cost": rows[:-1] + [dataclasses.replace(rows[-1], cum_cost=-1.0)],
            "a missing row": rows[:-1],
        }
        for what, bad_rows in broken.items():
            bad = dataclasses.replace(reports[0], rows=tuple(bad_rows))
            expect(bool(invariant_violations(bad, inputs.horizon)), f"{workload.name}: invariants catch {what}")

        done = run_ops(ops, 0)
        expect(all(done["ok"]), f"{workload.name}: every op passes the output check")
        ok = [run_op(cli_main, op, after_op=mutate_row)[1] for op in ops]
        failed_frac = ok.count(False) / len(ok)
        expect(failed_frac == 1.0, f"{workload.name}: a mutated output row counts as failed (failed_frac={failed_frac})")

        outcome = run.traced_run(inputs, 0)
        expect(
            not outcome["problems"] and outcome["failed"] == 0,
            f"{workload.name}: traced reference rows equal run_scenario rows and outputs match",
        )

    probes = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode == 0, f"hash probe under PYTHONHASHSEED={hash_seed} runs")
        probes.append(json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None)
    expect(
        probes[0] is not None and probes[0] == probes[1],
        "scenario files and op outputs are byte-identical under two PYTHONHASHSEED values",
    )
    print(f"self-test: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    print(json.dumps(probe(seed=7)))
