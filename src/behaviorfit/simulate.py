"""Scenario simulation loop and CSV/JSON reporting.

``run_scenario`` walks the trace's segments, works out the awareness mode
once per segment, and calls ``run_segment(segment, mode, level)`` once per
segment, which emits the segment's ``TickRow``s itself. There is one
segment function per kind of run, a closure built once per run. A static
system and greedy sensor selection face one environment behavior for a
whole segment, so they score, select and price it once and repeat the
same objects on every tick; a sensor run builds its ``greedy_cover`` once
and asks it once per segment. The MAPE-K controller steps until its
predictor's window is one run of the segment's behavior and a step leaves
the state as it was; every later tick of the segment repeats that step's
row. The controller scores a tick again only when the system behavior or
the observation changes, so a step that keeps the last step's behavior
within a segment returns that step's supply and fit objects too.

CSV columns, in order:
``t,env_behavior,sys_behavior,supply_kind,supply,fit,actions,cost,cum_cost,mode``.
Behaviors use the textual grammar, negative infinity is written ``-inf``,
the actions cell joins action tokens with ``;`` and mode is empty unless
the scenario defines sensors or critical figures. JSON rows carry the same
keys in the same order.

The renderers format a row's behaviors, supply, fit, actions and mode once
per run of consecutive rows that share those objects, which every segment's
repeated rows do, and write only ``t``, ``cost`` and ``cum_cost`` per row.
``render_json`` writes the text ``json.dumps(..., indent=2)`` would.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator

from .behavior import Behavior, BehaviorClass, format_behavior
from .controller import Controller, SystemState, format_action, tick_cost
from .environment import EnvironmentTrace, fig2_trace, generate_trace
from .metrics import NEG_INFINITY, SupplyReport, fit, supply
from .scenario import Scenario, ScenarioError, validate_scenario
from .sensors import awareness_mode, greedy_cover, required_coverage

__all__ = [
    "CSV_COLUMNS",
    "RunReport",
    "RunSummary",
    "TickRow",
    "fig2_scenario",
    "render_csv",
    "render_json",
    "run_scenario",
    "scenario_trace",
]

CSV_COLUMNS = (
    "t",
    "env_behavior",
    "sys_behavior",
    "supply_kind",
    "supply",
    "fit",
    "actions",
    "cost",
    "cum_cost",
    "mode",
)


@dataclass(frozen=True)
class TickRow:
    t: int
    env_behavior: Behavior
    sys_behavior: Behavior
    supply: SupplyReport
    fit: float
    actions: tuple[str, ...]
    cost: float
    cum_cost: float
    mode: float | None


@dataclass(frozen=True)
class RunSummary:
    ticks: int
    mean_finite_fit: float
    neg_inf_ticks: int
    total_cost: float


@dataclass(frozen=True)
class RunReport:
    name: str
    rows: tuple[TickRow, ...]
    summary: RunSummary


def fig2_scenario() -> Scenario:
    """The worked-example scenario: a static system over figures 1-4
    facing the five-segment demonstration trace."""
    return Scenario(
        name="fig2",
        universe=frozenset("12345"),
        trace=fig2_trace(),
        initial_behavior=Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset("1234")),
    )


def _summarize(rows: list[TickRow]) -> RunSummary:
    finite = [row.fit for row in rows if row.fit != NEG_INFINITY]
    return RunSummary(
        ticks=len(rows),
        mean_finite_fit=math.fsum(finite) / len(finite) if finite else 0.0,
        neg_inf_ticks=len(rows) - len(finite),
        total_cost=rows[-1].cum_cost,
    )


def scenario_trace(scenario: Scenario, seed: int | None = None) -> EnvironmentTrace:
    """The trace a run would use: the fixed one, which refuses a seed, or
    the generated one with the seed override applied."""
    spec = scenario.turbulence
    if spec is None and seed is not None:
        raise ScenarioError(f"seed {seed}: only a scenario with a turbulence spec takes a seed")
    if scenario.trace is not None:
        return scenario.trace
    if spec is None:
        raise ScenarioError("scenario has neither a trace nor a turbulence spec")
    if seed is not None:
        spec = replace(spec, seed=seed)
    return generate_trace(spec, scenario.universe)


def run_scenario(scenario: Scenario) -> RunReport:
    """Simulate one scenario, one row per tick; deterministic for a fixed seed.

    Raises ScenarioError if the scenario is invalid or its total cost
    overflows.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError("scenario is invalid:\n" + "\n".join(violations))
    trace = scenario_trace(scenario)
    if scenario.sensors:
        run_segment = _sensor_segment(scenario)
    elif scenario.predictor is not None:
        run_segment = _controller_segment(scenario)
    else:
        run_segment = _static_segment(scenario)
    with_mode = bool(scenario.sensors or scenario.critical)
    rows = []
    for segment in trace.segments:
        mode = awareness_mode(segment.behavior.figures, scenario.critical) if with_mode else None
        rows.extend(run_segment(segment, mode, mode.level if mode is not None else None))
    summary = _summarize(rows)
    # costs are non-negative and cum_cost never falls, so a finite total
    # means every row's cost and cum_cost is finite too
    if not math.isfinite(summary.total_cost):
        raise ScenarioError("costs: the run's total cost overflows to infinity")
    return RunReport(scenario.name, tuple(rows), summary)


def _static_segment(scenario: Scenario) -> Callable[..., list[TickRow]]:
    behavior, variant = scenario.initial_behavior, scenario.variant
    cost = tick_cost(SystemState(behavior), scenario.costs)

    def run_segment(segment, mode, level):
        env = segment.behavior
        report = supply(behavior, env)
        value = fit(report, variant)
        return [
            TickRow(t, env, behavior, report, value, (), cost, cost * (t + 1), level)
            for t in range(segment.start, segment.end)
        ]

    return run_segment


def _controller_segment(scenario: Scenario) -> Callable[..., Iterator[TickRow]]:
    controller = Controller(
        scenario.capability, scenario.costs, scenario.predictor, scenario.weight, scenario.variant
    )
    state = SystemState(scenario.initial_behavior)
    window = controller.predictor.window

    def run_segment(segment, mode, level):
        nonlocal state
        env = segment.behavior
        ticks = iter(range(segment.start, segment.end))
        for t in ticks:
            before = state.cum_cost
            result = controller.step(state, env)
            state = result.state
            actions = tuple(format_action(a) for a in result.actions)
            yield TickRow(
                t, env, state.behavior, result.supply, result.fit, actions,
                state.cum_cost - before, state.cum_cost, level,
            )
            if t - segment.start >= window and not actions:
                break
        else:
            return
        # From tick ``window`` on the history holds only ``env``, so the
        # prediction is fixed; once a step is idle, every later step of the
        # segment would be the same idle step and would add the same cost.
        cost = tick_cost(state, scenario.costs)
        cum = state.cum_cost
        for t in ticks:
            before, cum = cum, cum + cost
            yield TickRow(t, env, state.behavior, result.supply, result.fit, (), cum - before, cum, level)
        state = replace(state, cum_cost=cum)

    return run_segment


def _sensor_segment(scenario: Scenario) -> Callable[..., Iterator[TickRow]]:
    by_id = {sensor.id: sensor for sensor in scenario.sensors}
    cover = greedy_cover(scenario.sensors)
    variant = scenario.variant
    cum = 0.0

    def run_segment(segment, mode, level):
        nonlocal cum
        env = segment.behavior
        chosen = sorted(cover(required_coverage(env.figures, scenario.critical, mode)))
        # The sensed behavior mirrors the environment's class: the network
        # tracks the situation, its scope is whatever the sensors cover.
        system = Behavior(env.klass, figures=frozenset().union(*(by_id[i].coverage for i in chosen)))
        cost = sum(by_id[i].energy_cost for i in chosen)
        report = supply(system, env)
        value = fit(report, variant)
        actions = tuple(f"activate:{i}" for i in chosen)
        for t in range(segment.start, segment.end):
            cum += cost
            yield TickRow(t, env, system, report, value, actions, cost, cum, level)

    return run_segment


def _runs(rows: tuple[TickRow, ...]) -> Iterator[list[TickRow]]:
    """Runs of consecutive rows whose behaviors, supply, fit, actions and
    mode are the same objects, so what a renderer makes of them holds for
    the whole run."""
    for _, run in groupby(rows, lambda row: (
        id(row.env_behavior), id(row.sys_behavior), id(row.supply), id(row.fit), id(row.actions), id(row.mode)
    )):
        yield list(run)


def render_csv(report: RunReport) -> str:
    # behavior cells carry commas, so fields are quoted the standard way;
    # csv writes floats as their repr and None as an empty cell
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for run in _runs(report.rows):
        first = run[0]
        shared = (format_behavior(first.env_behavior), format_behavior(first.sys_behavior),
                  first.supply.kind.value, first.supply.value, first.fit, ";".join(first.actions))
        writer.writerows((row.t, *shared, row.cost, row.cum_cost, first.mode) for row in run)
    return buffer.getvalue()


def _json_value(value: str | int | float | None) -> str:
    """A scalar as ``json.dumps`` writes it; a non-finite float, which it
    would write as ``Infinity`` or ``NaN``, is refused."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot write {value!r} as a JSON number")
        return float.__repr__(value)
    return int.__repr__(value)


def render_json(report: RunReport) -> str:
    """The report as ``json.dumps(..., indent=2)`` writes its name, summary
    and rows (each row's keys in ``CSV_COLUMNS`` order, a fit of negative
    infinity as ``"-inf"``), plus a newline."""
    summary = ",\n".join(f'    "{key}": {_json_value(value)}' for key, value in asdict(report.summary).items())
    rows = []
    for run in _runs(report.rows):
        first = run[0]
        tokens = ",\n".join(f"        {_json_value(token)}" for token in first.actions)
        actions = f"[\n{tokens}\n      ]" if tokens else "[]"
        fit_value = "-inf" if first.fit == NEG_INFINITY else first.fit
        middle = (
            f',\n      "env_behavior": {_json_value(format_behavior(first.env_behavior))}'
            f',\n      "sys_behavior": {_json_value(format_behavior(first.sys_behavior))}'
            f',\n      "supply_kind": {_json_value(first.supply.kind.value)}'
            f',\n      "supply": {_json_value(first.supply.value)}'
            f',\n      "fit": {_json_value(fit_value)}'
            f',\n      "actions": {actions}'
            ',\n      "cost": '
        )
        tail = f',\n      "mode": {_json_value(first.mode)}\n    }}'
        rows.extend(
            f'    {{\n      "t": {row.t}{middle}{_json_value(row.cost)}'
            f',\n      "cum_cost": {_json_value(row.cum_cost)}{tail}'
            for row in run
        )
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return f'{{\n  "name": {_json_value(report.name)},\n  "summary": {{\n{summary}\n  }},\n  "rows": {body}\n}}\n'
