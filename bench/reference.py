"""Plain per-tick reference evaluator, with optional span tracing.

It replays a scenario the way ``simulate.run_scenario`` does, but calls
each layer's public functions itself, one call per tick, so that a span
can be recorded around every call into a layer. A controller run calls
``Controller.step`` itself, and a traced one records the calls the
controller module makes into the layers by swapping the names it calls
them by. Its rows must equal ``run_scenario``'s and its rendered bytes are
the expected output of the benchmark's ops.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from operator import sub
from time import perf_counter

import behaviorfit.controller as controller_module
from behaviorfit.controller import Controller, SystemState, format_action, tick_cost
from behaviorfit.behavior import Behavior
from behaviorfit.metrics import NEG_INFINITY, fit, supply
from behaviorfit.scenario import ScenarioError, load_scenario, validate_scenario
from behaviorfit.sensors import awareness_mode, select_sensors
from behaviorfit.simulate import RunReport, RunSummary, TickRow, render_csv, render_json, scenario_trace


class NoTracer:
    """Calls straight through; used when only the output is wanted."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()

    def note(self, name, value):
        pass


class Tracer:
    """Keeps every span in memory, column by column (a traced run holds about
    a million): name, start, end, parent span index (-1 for a root) and op.

    ``begin_op`` labels the spans that follow. ``note`` keeps a per-layer
    value (an input key or an outcome) for the counters derived after the
    op, so no hashing happens inside a span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.ops: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.notes: dict[str, list] = defaultdict(list)
        self._name_ids: dict[str, int] = {}
        self._stack = [-1]

    def begin_op(self, label: str) -> None:
        self.ops.append(label)

    def _open(self, name: str) -> int:
        index = len(self.start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(len(self.ops) - 1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def note(self, name, value):
        self.notes[name].append(value)

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time per (op label, span name): each span's duration minus the
        durations of its direct children."""
        durations = array("d", map(sub, self.end, self.start))
        child = array("d", bytes(8 * len(durations)))
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                child[parent] += duration
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for name, op, duration, children in zip(self.name, self.op, durations, child):
            totals[self.ops[op], self.names[name]] += duration - children
        return totals

    def counts(self) -> dict[tuple[str, str], int]:
        """Number of spans per (op label, span name)."""
        totals: dict[tuple[str, str], int] = defaultdict(int)
        for name, op in zip(self.name, self.op):
            totals[self.ops[op], self.names[name]] += 1
        return totals

    def write(self, path) -> None:
        """One CSV line per span; times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_us,end_us,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.op)
            ):
                f.write(f"{i},{self.names[name]},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                        f"{parent},{self.ops[op]}\n")


def _summary(rows: list[TickRow]) -> RunSummary:
    finite = [row.fit for row in rows if row.fit != NEG_INFINITY]
    return RunSummary(
        ticks=len(rows),
        mean_finite_fit=math.fsum(finite) / len(finite) if finite else 0.0,
        neg_inf_ticks=len(rows) - len(finite),
        total_cost=rows[-1].cum_cost if rows else 0.0,
    )


def _static_rows(scenario, trace, tr) -> list[TickRow]:
    state = SystemState(scenario.initial_behavior)
    cost = tr.call("controller.tick_cost", tick_cost, state, scenario.costs)
    with_mode = bool(scenario.sensors or scenario.critical)
    rows = []
    for t in range(trace.horizon):
        env = tr.call("environment.behavior_at", trace.behavior_at, t)
        tr.note("metrics.supply", (state.behavior, env))
        report = tr.call("metrics.supply", supply, state.behavior, env)
        value = tr.call("metrics.fit", fit, report, scenario.variant)
        mode = None
        if with_mode:
            mode = tr.call("sensors.awareness_mode", awareness_mode, env.figures, scenario.critical).level
        rows.append(TickRow(t, env, state.behavior, report, value, (), cost, cost * (t + 1), mode))
    return rows


# The names ``Controller.step``, and ``plan_adaptation`` beneath it, call
# the layers by, and the span each call gets in a traced replay.
CONTROLLER_CALLS = {
    "predict": "controller.predict",
    "plan_adaptation": "controller.plan_adaptation",
    "apply_actions": "controller.apply_actions",
    "tick_cost": "controller.tick_cost",
    "supply": "metrics.supply",
    "fit": "metrics.fit",
}


def _traced(tr, name, fn):
    span = CONTROLLER_CALLS[name]
    if name == "plan_adaptation":
        def call(*args, **kwargs):
            state, prediction = args[:2]
            tr.note(span, (state.behavior, state.borrowed, prediction))
            actions = tr.call(span, fn, *args, **kwargs)
            tr.note("controller.plan_adaptation.kept", bool(actions))
            return actions
    elif name == "supply":
        def call(*args, **kwargs):
            tr.note(span, args[:2])
            return tr.call(span, fn, *args, **kwargs)
    else:
        def call(*args, **kwargs):
            return tr.call(span, fn, *args, **kwargs)
    return call


@contextmanager
def traced_controller(tr):
    """Route the calls ``behaviorfit.controller`` makes into the layers
    through ``tr``, by swapping the names it calls them by."""
    if isinstance(tr, NoTracer):
        yield
        return
    originals = {name: getattr(controller_module, name) for name in CONTROLLER_CALLS}
    for name, fn in originals.items():
        setattr(controller_module, name, _traced(tr, name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(controller_module, name, fn)


def _controller_rows(scenario, trace, weight, tr) -> list[TickRow]:
    controller = Controller(scenario.capability, scenario.costs, scenario.predictor, weight, scenario.variant)
    with_mode = bool(scenario.critical)
    state = SystemState(scenario.initial_behavior)
    rows = []
    with traced_controller(tr):
        for t in range(trace.horizon):
            env = tr.call("environment.behavior_at", trace.behavior_at, t)
            result = tr.call("controller.step", controller.step, state, env, oracle_next=env)
            mode = None
            if with_mode:
                mode = tr.call("sensors.awareness_mode", awareness_mode, env.figures, scenario.critical).level
            rows.append(
                TickRow(
                    t, env, result.state.behavior, result.supply, result.fit,
                    tuple(format_action(a) for a in result.actions),
                    result.state.cum_cost - state.cum_cost, result.state.cum_cost, mode,
                )
            )
            state = result.state
    return rows


def _sensor_rows(scenario, trace, tr) -> list[TickRow]:
    by_id = {sensor.id: sensor for sensor in scenario.sensors}
    cum = 0.0
    rows = []
    for t in range(trace.horizon):
        env = tr.call("environment.behavior_at", trace.behavior_at, t)
        active = env.figures
        mode = tr.call("sensors.awareness_mode", awareness_mode, active, scenario.critical)
        tr.note("sensors.select_sensors", active)
        chosen = sorted(
            tr.call("sensors.select_sensors", select_sensors, active, scenario.sensors, mode, scenario.critical)
        )
        tr.note("sensors.select_sensors.chosen", len(chosen))
        covered: frozenset[str] = frozenset()
        for sensor_id in chosen:
            covered |= by_id[sensor_id].coverage
        system = Behavior(env.klass, figures=covered)
        cost = sum(by_id[sensor_id].energy_cost for sensor_id in chosen)
        cum += cost
        tr.note("metrics.supply", (system, env))
        report = tr.call("metrics.supply", supply, system, env)
        value = tr.call("metrics.fit", fit, report, scenario.variant)
        rows.append(
            TickRow(
                t, env, system, report, value,
                tuple(f"activate:{sensor_id}" for sensor_id in chosen),
                cost, cum, mode.level,
            )
        )
    return rows


def replay(scenario, seed: int, tr=NoTracer()) -> RunReport:
    """One run of ``scenario`` on trace ``seed``, tick by tick."""
    violations = tr.call("scenario.validate_scenario", validate_scenario, scenario)
    if violations:
        raise ScenarioError("scenario is invalid:\n" + "\n".join(violations))
    trace = tr.call("environment.generate_trace", scenario_trace, scenario, seed)
    tr.note("environment.segments", len(trace.segments))
    with tr.span("simulate.loop"):
        if scenario.sensors:
            rows = _sensor_rows(scenario, trace, tr)
        elif scenario.predictor is not None:
            rows = _controller_rows(scenario, trace, scenario.weight, tr)
        else:
            rows = _static_rows(scenario, trace, tr)
        return RunReport(scenario.name, tuple(rows), _summary(rows))


def sweep_line(seed: int, summary: RunSummary) -> str:
    return f"{seed},{summary.mean_finite_fit!r},{summary.neg_inf_ticks},{summary.total_cost!r}"


def expected_output(workload, path, seeds, tr=NoTracer()) -> tuple[bytes, list[RunReport]]:
    """What the op on scenario ``path`` over ``seeds`` must write, and the
    reports it is built from."""
    scenario = tr.call("scenario.load_scenario", load_scenario, path)
    reports = [replay(scenario, seed, tr) for seed in seeds]
    if workload.verb == "sweep":
        lines = ["seed,mean_finite_fit,neg_inf_ticks,total_cost"]
        lines += [sweep_line(seed, r.summary) for seed, r in zip(seeds, reports)]
        text = "\n".join(lines) + "\n"
    elif workload.fmt == "json":
        text = tr.call("simulate.render_json", render_json, reports[0])
    else:
        text = tr.call("simulate.render_csv", render_csv, reports[0])
    return text.encode(), reports


def invariant_violations(report: RunReport, horizon: int) -> list[str]:
    """The properties every run must have, whatever its exact bytes."""
    problems = []
    if len(report.rows) != horizon:
        problems.append(f"{len(report.rows)} rows, expected {horizon}")
    last = -math.inf
    for row in report.rows:
        numbers = (row.supply.value, row.fit, row.cost, row.cum_cost, row.mode or 0.0)
        if any(math.isnan(x) for x in numbers):
            problems.append(f"t={row.t}: nan")
        if not (row.fit == NEG_INFINITY or 0.0 < row.fit <= 1.0):
            problems.append(f"t={row.t}: fit {row.fit!r} outside (0, 1] and not -inf")
        if row.cum_cost < last:
            problems.append(f"t={row.t}: cum_cost fell from {last!r} to {row.cum_cost!r}")
        last = row.cum_cost
    return problems
