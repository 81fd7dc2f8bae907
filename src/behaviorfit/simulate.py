"""Scenario simulation loop and CSV/JSON reporting.

``run_scenario`` walks the trace's segments, works out the awareness mode
once per segment, and calls ``tick(t, env, mode)`` for each tick's
``(sys_behavior, supply, fit, actions, cost, cum_cost)``. There is one tick
function per kind of run, a closure built once per run: a static system,
the MAPE-K controller, or greedy sensor selection.

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
from dataclasses import asdict, dataclass
from typing import Callable

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
        spec = spec.with_seed(seed)
    return generate_trace(spec, scenario.universe)


def run_scenario(
    scenario: Scenario,
    *,
    seed: int | None = None,
    variant: FitVariant | None = None,
    weight: float | None = None,
) -> RunReport:
    """Simulate one scenario tick by tick; deterministic for a fixed seed.

    ``seed``, ``variant`` and ``weight`` override the scenario's values
    (the seed only applies to generated traces).
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError("scenario is invalid:\n" + "\n".join(violations))
    variant = variant if variant is not None else scenario.variant
    weight = weight if weight is not None else scenario.weight
    trace = scenario_trace(scenario, seed)
    if scenario.sensors:
        tick = _sensor_tick(scenario, variant)
    elif scenario.predictor is not None:
        tick = _controller_tick(scenario, variant, weight)
    else:
        tick = _static_tick(scenario, variant)
    with_mode = bool(scenario.sensors or scenario.critical)
    rows = []
    for segment in trace.segments:
        env = segment.behavior
        mode = awareness_mode(env.figures, scenario.critical) if with_mode else None
        level = mode.level if mode is not None else None
        for t in range(segment.start, segment.end):
            rows.append(TickRow(t, env, *tick(t, env, mode), level))
    return RunReport(scenario.name, tuple(rows), _summarize(rows))


def _static_tick(scenario: Scenario, variant: FitVariant) -> Callable[..., tuple]:
    behavior = scenario.initial_behavior
    cost = tick_cost(SystemState(behavior), scenario.costs)

    def tick(t, env, mode):
        report = supply(behavior, env)
        return behavior, report, fit(report, variant), (), cost, cost * (t + 1)

    return tick


def _controller_tick(scenario: Scenario, variant: FitVariant, weight: float) -> Callable[..., tuple]:
    controller = Controller(scenario.capability, scenario.costs, scenario.predictor, weight, variant)
    state = SystemState(scenario.initial_behavior)

    def tick(t, env, mode):
        nonlocal state
        before = state.cum_cost
        result = controller.step(state, env, oracle_next=env)
        state = result.state
        actions = tuple(format_action(a) for a in result.actions)
        return state.behavior, result.supply, result.fit, actions, state.cum_cost - before, state.cum_cost

    return tick


def _sensor_tick(scenario: Scenario, variant: FitVariant) -> Callable[..., tuple]:
    by_id = {sensor.id: sensor for sensor in scenario.sensors}
    cum = 0.0

    def tick(t, env, mode):
        nonlocal cum
        chosen = sorted(select_sensors(env.figures, scenario.sensors, mode, scenario.critical))
        # The sensed behavior mirrors the environment's class: the network
        # tracks the situation, its scope is whatever the sensors cover.
        system = Behavior(env.klass, figures=frozenset().union(*(by_id[i].coverage for i in chosen)))
        cost = sum(by_id[i].energy_cost for i in chosen)
        cum += cost
        report = supply(system, env)
        return system, report, fit(report, variant), tuple(f"activate:{i}" for i in chosen), cost, cum

    return tick


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
