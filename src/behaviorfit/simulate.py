"""Scenario simulation loop and CSV/JSON reporting.

``run_scenario`` walks the trace's segments, works out the awareness mode
once per segment, and calls ``run_segment(segment, mode)`` once per
segment for each of its ticks' ``(sys_behavior, supply, fit, actions,
cost, cum_cost)``. There is one segment function per kind of run, a
closure built once per run. A static system and greedy sensor selection
face one environment behavior for a whole segment, so they score, select
and price it once and repeat the same objects on every tick; the MAPE-K
controller still steps once per tick.

CSV columns, in order:
``t,env_behavior,sys_behavior,supply_kind,supply,fit,actions,cost,cum_cost,mode``.
Behaviors use the textual grammar, negative infinity is written ``-inf``,
the actions cell joins action tokens with ``;`` and mode is empty unless
the scenario defines sensors or critical figures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterator

from .behavior import Behavior, BehaviorClass, format_behavior
from .controller import Controller, SystemState, format_action, tick_cost
from .environment import EnvironmentTrace, fig2_trace, generate_trace
from .metrics import NEG_INFINITY, FitVariant, SupplyReport, fit, supply
from .scenario import Scenario, ScenarioError, validate_scenario
from .sensors import awareness_mode, select_sensors

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
        total_cost=rows[-1].cum_cost if rows else 0.0,
    )


def scenario_trace(scenario: Scenario, seed: int | None = None) -> EnvironmentTrace:
    """The trace a run would use: the fixed one, or the generated one
    (with the seed override applied)."""
    if scenario.trace is not None:
        return scenario.trace
    spec = scenario.turbulence
    if spec is None:
        raise ScenarioError("scenario has neither a trace nor a turbulence spec")
    if seed is not None:
        spec = replace(spec, seed=seed)
    return generate_trace(spec, scenario.universe)


def run_scenario(
    scenario: Scenario,
    *,
    seed: int | None = None,
    variant: FitVariant | None = None,
    weight: float | None = None,
) -> RunReport:
    """Simulate one scenario, one row per tick; deterministic for a fixed seed.

    ``seed``, ``variant`` and ``weight`` override the scenario's values
    (the seed only applies to generated traces) and are validated with
    them. Raises ScenarioError if the scenario is invalid or its total
    cost overflows.
    """
    scenario = replace(
        scenario,
        variant=scenario.variant if variant is None else variant,
        weight=scenario.weight if weight is None else weight,
    )
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError("scenario is invalid:\n" + "\n".join(violations))
    trace = scenario_trace(scenario, seed)
    if scenario.sensors:
        run_segment = _sensor_segment(scenario)
    elif scenario.predictor is not None:
        run_segment = _controller_segment(scenario)
    else:
        run_segment = _static_segment(scenario)
    with_mode = bool(scenario.sensors or scenario.critical)
    rows = []
    for segment in trace.segments:
        env = segment.behavior
        mode = awareness_mode(env.figures, scenario.critical) if with_mode else None
        level = mode.level if mode is not None else None
        for t, values in enumerate(run_segment(segment, mode), segment.start):
            rows.append(TickRow(t, env, *values, level))
    summary = _summarize(rows)
    # costs are non-negative and cum_cost never falls, so a finite total
    # means every row's cost and cum_cost is finite too
    if not math.isfinite(summary.total_cost):
        raise ScenarioError("costs: the run's total cost overflows to infinity")
    return RunReport(scenario.name, tuple(rows), summary)


def _static_segment(scenario: Scenario) -> Callable[..., Iterator[tuple]]:
    behavior, variant = scenario.initial_behavior, scenario.variant
    cost = tick_cost(SystemState(behavior), scenario.costs)

    def run_segment(segment, mode):
        report = supply(behavior, segment.behavior)
        value = fit(report, variant)
        for t in range(segment.start, segment.end):
            yield behavior, report, value, (), cost, cost * (t + 1)

    return run_segment


def _controller_segment(scenario: Scenario) -> Callable[..., Iterator[tuple]]:
    controller = Controller(
        scenario.capability, scenario.costs, scenario.predictor, scenario.weight, scenario.variant
    )
    state = SystemState(scenario.initial_behavior)

    def run_segment(segment, mode):
        nonlocal state
        env = segment.behavior
        for _ in range(segment.duration):
            before = state.cum_cost
            result = controller.step(state, env)
            state = result.state
            actions = tuple(format_action(a) for a in result.actions)
            yield state.behavior, result.supply, result.fit, actions, state.cum_cost - before, state.cum_cost

    return run_segment


def _sensor_segment(scenario: Scenario) -> Callable[..., Iterator[tuple]]:
    by_id = {sensor.id: sensor for sensor in scenario.sensors}
    variant = scenario.variant
    cum = 0.0

    def run_segment(segment, mode):
        nonlocal cum
        env = segment.behavior
        chosen = sorted(select_sensors(env.figures, scenario.sensors, mode, scenario.critical))
        # The sensed behavior mirrors the environment's class: the network
        # tracks the situation, its scope is whatever the sensors cover.
        system = Behavior(env.klass, figures=frozenset().union(*(by_id[i].coverage for i in chosen)))
        cost = sum(by_id[i].energy_cost for i in chosen)
        report = supply(system, env)
        value = fit(report, variant)
        actions = tuple(f"activate:{i}" for i in chosen)
        for _ in range(segment.duration):
            cum += cost
            yield system, report, value, actions, cost, cum

    return run_segment


def _row_fields(row: TickRow, fit_value: float | str, actions: str | list[str]) -> tuple:
    """The row's values in ``CSV_COLUMNS`` order, with the fit and the
    actions already in the renderer's form."""
    return (row.t, format_behavior(row.env_behavior), format_behavior(row.sys_behavior),
            row.supply.kind.value, row.supply.value, fit_value, actions, row.cost, row.cum_cost, row.mode)


def render_csv(report: RunReport) -> str:
    # behavior cells carry commas, so fields are quoted the standard way;
    # csv writes floats as their repr and None as an empty cell
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_row_fields(row, row.fit, ";".join(row.actions)) for row in report.rows)
    return buffer.getvalue()


def render_json(report: RunReport) -> str:
    payload = {
        "name": report.name,
        "summary": asdict(report.summary),
        "rows": [
            dict(zip(CSV_COLUMNS, _row_fields(
                row, "-inf" if row.fit == NEG_INFINITY else row.fit, list(row.actions)
            )))
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
