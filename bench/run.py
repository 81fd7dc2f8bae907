"""Benchmark of the behaviorfit command-line verbs.

Run from the repository root:

    python3 bench/run.py --workload controller-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test
    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

``--trace 0`` times closed-loop ``behaviorfit.cli.main`` calls (one client,
one thread, in a child process) and reports the end-to-end metrics of
``BENCHMARK.json``. ``--trace 1`` replays the same ops through the traced
reference evaluator and reports the per-layer metrics. Either way every
op's output is checked against the reference evaluator's bytes. The last
line of standard output is the result; the same record, with the run's
metadata and raw samples, is appended to ``bench/results/runs.jsonl``.
See ``bench/README.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NoReturn

from calibrate import loop_seconds, scaled
from workloads import WORKLOADS, op_argv, op_seeds, scenario_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
SETUP_REPEATS = 11
IMPORT_REPEATS = 5

# Reference-evaluator spans, one per layer function; each gets a ``.self_s``
# metric (calibrated seconds per traced op).
LAYER_SPANS = (
    "scenario.load_scenario",
    "scenario.validate_scenario",
    "environment.generate_trace",
    "environment.behavior_at",
    "metrics.supply",
    "metrics.fit",
    "controller.predict",
    "controller.plan_adaptation",
    "controller.apply_actions",
    "controller.tick_cost",
    "controller.step",
    "sensors.awareness_mode",
    "sensors.select_sensors",
    "simulate.loop",
    "simulate.render_csv",
    "simulate.render_json",
)
# Spans that also get a ``.calls`` metric (calls per traced op).
COUNTED_SPANS = (
    "scenario.validate_scenario",
    "environment.behavior_at",
    "metrics.supply",
    "controller.predict",
    "controller.plan_adaptation",
    "controller.apply_actions",
    "sensors.select_sensors",
)
# The names ``behaviorfit.cli`` calls into the layers below it by, and the
# span each gets in a traced CLI op.
CLI_CALLS = {
    "load_scenario": "scenario.load_scenario",
    "run_scenario": "simulate.run_scenario",
    "render_csv": "simulate.render_csv",
    "render_json": "simulate.render_json",
}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU. The
    calibration loops around a fresh-interpreter call run in this process
    while the call runs in a child; on a shared host the CPUs' speeds shift
    apart, so a loop measures the speed a child gets only on the same CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


def setup_seconds(scenario: Path) -> tuple[list[float], list[float], bool]:
    """Wall times of fresh-interpreter ``validate`` calls, the calibration
    loops around them, and whether every call passed."""
    times, loops, ok = [], [loop_seconds()], True
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = fresh_python(["-m", "behaviorfit.cli", "validate", "--scenario", str(scenario)])
        times.append(perf_counter() - t0)
        loops.append(loop_seconds())
        ok = ok and proc.returncode == 0 and proc.stdout == f"{scenario}: ok\n"
    return times, loops, ok


def import_seconds() -> tuple[list[float], list[float]]:
    """Times of ``import behaviorfit.cli`` in fresh interpreters, and the
    calibration loops around them."""
    code = (
        "import time; t = time.perf_counter(); import behaviorfit.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    times, loops = [], [loop_seconds()]
    for _ in range(IMPORT_REPEATS):
        proc = fresh_python(["-c", code])
        loops.append(loop_seconds())
        if proc.returncode != 0:
            fail(f"importing behaviorfit failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times, loops


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Inputs:
    """The scenario file and the distinct ops of one run, written under ``work``."""

    def __init__(
        self, workload, seed: int, work: Path, horizon: int | None = None, seeds_per_op: int | None = None
    ):
        self.workload = workload
        self.horizon = workload.horizon if horizon is None else horizon
        work.mkdir(parents=True, exist_ok=True)
        work = work.relative_to(ROOT)
        self.scenario = work / f"{workload.name}.scenario"
        self.scenario.write_text(scenario_text(workload, seed, horizon))
        self.seeds = [op_seeds(workload, seed, k, seeds_per_op) for k in range(workload.inputs)]
        self.outs = [work / f"out{k}" for k in range(workload.inputs)]
        self.argvs = [op_argv(workload, self.scenario, s, o) for s, o in zip(self.seeds, self.outs)]
        self.ticks = self.horizon * len(self.seeds[0])

    def violations(self, expected: bytes, reports) -> list[str]:
        """Broken invariants of an expected output and the reports it came from."""
        from reference import invariant_violations

        problems = [p for r in reports for p in invariant_violations(r, self.horizon)]
        if re.search(rb"(?i)\bnan\b", expected):
            problems.append("output contains nan")
        return problems

    def expected_ops(self) -> tuple[list[dict], list[str]]:
        """The ops for ``ops.run_ops``, each with the sha256 of the output the
        reference evaluator expects, and the broken invariants of those outputs."""
        from reference import expected_output

        ops, problems = [], []
        for seeds, argv, out in zip(self.seeds, self.argvs, self.outs):
            expected, reports = expected_output(self.workload, self.scenario, seeds)
            problems += self.violations(expected, reports)
            ops.append({"argv": argv, "out": str(out), "sha256": hashlib.sha256(expected).hexdigest()})
        return ops, problems


def timed_run(inputs: Inputs, seconds: float) -> dict:
    # set-up first: forking a parent that holds the reference rows would
    # slow every fresh interpreter and the loops after it
    setup, setup_loops, setup_ok = setup_seconds(inputs.scenario)
    ops, problems = inputs.expected_ops()
    if not setup_ok:
        problems.append("validate of the workload scenario failed")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "ops.py")], cwd=ROOT, input=json.dumps({"ops": ops, "seconds": seconds}),
        capture_output=True, text=True, timeout=seconds + 100,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"op runner exited with {proc.returncode}")
    done = json.loads(proc.stdout.splitlines()[-1])
    times = scaled(done["times"], done["loops"])
    return {
        "problems": problems,
        "attempted": len(times),
        "failed": done["ok"].count(False),
        "values": {
            "ticks_per_s": inputs.ticks * len(times) / sum(times),
            "op_s.p50": statistics.median(times),
            "setup_s": statistics.median(scaled(setup, setup_loops)),
            "peak_rss_mb": done["peak_rss_kb"] / 1024,
        },
        "samples": {"ticks_per_s": len(times), "op_s.p50": len(times), "setup_s": len(setup), "peak_rss_mb": 1},
        "raw": {"op_s": done["times"], "op_loops_s": done["loops"], "setup_s": setup, "setup_loops_s": setup_loops},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class NoteTally:
    """Counters folded from the reference evaluator's notes after each traced
    op, so that the noted objects need not outlive the op. Distinct inputs
    are counted per op, so a distinct ratio does not depend on how many ops
    a run holds."""

    def __init__(self):
        self.count: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.distinct: Counter[str] = Counter()

    def fold(self, notes: dict[str, list]) -> None:
        for name, values in notes.items():
            self.count[name] += len(values)
            if name == "controller.plan_adaptation":  # (behavior, borrowed, prediction)
                self.distinct[name] += len({(b, frozenset(lent.items()), p) for b, lent, p in values})
            elif name in ("metrics.supply", "sensors.select_sensors"):
                self.distinct[name] += len(set(values))
            else:
                self.total[name] += sum(values)
        notes.clear()

    def distinct_ratio(self, name: str) -> float:
        """Distinct inputs within each op over calls, summed over ops."""
        return _ratio(self.distinct[name], self.count[name])


def layer_values(tracer, tally: NoteTally, ops: int, scale: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans and notes of ``ops`` traced ops;
    ``scale[i]`` turns op ``i``'s host seconds into calibrated seconds."""
    ref_self: dict[str, float] = {}
    cli_self: dict[str, float] = {}
    for (op, name), host_s in tracer.self_times().items():
        index, _, kind = op.partition(".")
        totals = cli_self if kind == "cli" else ref_self
        totals[name] = totals.get(name, 0.0) + host_s * scale[int(index)]
    calls: dict[str, int] = {}
    for (op, name), count in tracer.counts().items():
        if op.endswith(".ref"):
            calls[name] = calls.get(name, 0) + count
    values = {f"{name}.self_s": ref_self.get(name, 0.0) / ops for name in LAYER_SPANS}
    values.update({f"{name}.calls": calls.get(name, 0) / ops for name in COUNTED_SPANS})
    values.update({
        "environment.segments": tally.total["environment.segments"] / ops,
        "metrics.supply.distinct_ratio": tally.distinct_ratio("metrics.supply"),
        "controller.plan_adaptation.kept_ratio": _ratio(
            tally.total["controller.plan_adaptation.kept"], tally.count["controller.plan_adaptation"]
        ),
        "controller.plan_adaptation.distinct_ratio": tally.distinct_ratio("controller.plan_adaptation"),
        "sensors.select_sensors.distinct_ratio": tally.distinct_ratio("sensors.select_sensors"),
        "sensors.select_sensors.chosen_per_call": _ratio(
            tally.total["sensors.select_sensors.chosen"], tally.count["sensors.select_sensors"]
        ),
        "cli.main.self_s": cli_self.get("cli.main", 0.0) / ops,
    })
    return values


def traced_run(inputs: Inputs, seconds: float) -> dict:
    import behaviorfit.cli as cli
    from reference import Tracer, expected_output

    import_times, import_loops = import_seconds()  # before the spans fill the heap
    tracer, tally = Tracer(), NoteTally()
    seen: list = []  # the reports run_scenario returned inside the CLI op

    def traced(attr, fn):
        def call(*args, **kwargs):
            result = tracer.call(CLI_CALLS[attr], fn, *args, **kwargs)
            if attr == "run_scenario":
                seen.append(result)
            return result
        return call

    originals = {attr: getattr(cli, attr) for attr in CLI_CALLS}
    problems, failed, loops, ref_s, cli_s, n = [], 0, [], 0.0, 0.0, 0
    start = perf_counter()
    while n < len(inputs.argvs) or perf_counter() - start < seconds:
        k = n % len(inputs.argvs)
        loops.append(loop_seconds())
        tracer.begin_op(f"{n}.ref")
        t0 = perf_counter()
        expected, reports = expected_output(inputs.workload, inputs.scenario, inputs.seeds[k], tracer)
        ref_s += perf_counter() - t0
        tally.fold(tracer.notes)
        problems += inputs.violations(expected, reports)

        tracer.begin_op(f"{n}.cli")
        seen.clear()
        out = inputs.outs[k]
        out.unlink(missing_ok=True)
        for attr, fn in originals.items():
            setattr(cli, attr, traced(attr, fn))
        try:
            t0 = perf_counter()
            rc = tracer.call("cli.main", cli.main, inputs.argvs[k])
            cli_s += perf_counter() - t0
        finally:
            for attr, fn in originals.items():
                setattr(cli, attr, fn)
        if seen != reports:
            problems.append(f"op {n}: run_scenario rows differ from the reference rows")
        if rc != 0 or seen != reports or not out.is_file() or out.read_bytes() != expected:
            failed += 1
        n += 1
    loops.append(loop_seconds())

    values = layer_values(tracer, tally, n, scaled([1.0] * n, loops))
    values["process.import_s"] = statistics.median(scaled(import_times, import_loops))
    values["trace.overhead_frac"] = ref_s / cli_s - 1
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{inputs.workload.name}.csv")
    samples = {name: n for name in values}
    samples["process.import_s"] = len(import_times)
    return {
        "problems": problems,
        "attempted": n,
        "failed": failed,
        "values": values,
        "samples": samples,
        "raw": {"import_s": import_times, "import_loops_s": import_loops, "op_loops_s": loops},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark's own checks")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "behaviorfit" / "__init__.py").is_file():
        fail(f"no behaviorfit sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    pin_to_one_cpu()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    inputs = Inputs(WORKLOADS[args.workload], args.seed, WORK / args.workload)
    outcome = (traced_run if args.trace else timed_run)(inputs, args.seconds)
    for problem in outcome["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    values = outcome["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    result = {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "failed_frac": result["failed"] / result["attempted"],
        **result,
        "problems": outcome["problems"],
        "samples": outcome["samples"],
        "raw": outcome["raw"],
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
