"""Scenario simulation loop and CSV/JSON reporting.

``run_scenario`` works out each segment's situation, ``(segment, mode,
level)`` with the awareness mode, once, and hands the situations to the
generator for its kind of run, which yields the segment's runs: whole
stretches of ticks whose rows are the same but for ``t``, ``cost`` and
``cum_cost``. A static system and greedy sensor selection face one
environment behavior for a whole segment, so they score, select and price
it once and yield the segment as one run of one repeated cost; a static
run works out its ``cum_cost``s when read, so a sweep builds no per-tick
cost. A sensor run builds its ``greedy_cover`` once and asks it once per
distinct requirement: it keeps each answer's sensed figures, cost and
actions for the rest of the run, while the sensed behavior, supply and
fit stay per segment. The MAPE-K controller steps only the ticks where
its prediction can change: after each step it takes the ticks that would
repeat an idle step of the state in one go (``Controller.repeats``). A
step that acts is a one-tick run; an idle step and the ticks that repeat
it are priced as one stretch of the segment's idle run.

The summary is worked out from the runs. ``RunReport.rows`` builds a
``TickRow`` from its run each time it is read and keeps none, so a sweep,
which reads only summaries, and the renderers build none.

CSV columns, in order:
``t,env_behavior,sys_behavior,supply_kind,supply,fit,actions,cost,cum_cost,mode``.
Behaviors use the textual grammar, negative infinity is written ``-inf``,
the actions cell joins action tokens with ``;`` and mode is empty unless
the scenario defines sensors or critical figures. JSON rows carry the same
keys in the same order.

Both renderers share one walk over the runs: each format writes a run's
behaviors, supply, fit, actions and mode once, and only ``t``, ``cost``
and ``cum_cost`` per tick, as their ``repr``; JSON checks once per run
that no cost is a non-finite float. The walk yields the text one row at
a time, so the CLI writes it to its destination row by row and never
holds the whole output; ``render_csv`` and ``render_json`` join the same
chunks.
``render_json`` writes the text ``json.dumps(..., indent=2)`` would.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import mul, sub
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from .behavior import Behavior, format_behavior
from .controller import Controller, SystemState, format_action, tick_cost
from .metrics import NEG_INFINITY, SupplyReport, fit, supply
from .scenario import Scenario, ScenarioError, scenario_trace, validate_scenario
from .sensors import awareness_mode, greedy_cover, required_coverage

__all__ = [
    "CSV_COLUMNS",
    "RunReport",
    "RunSummary",
    "TickRow",
    "render_csv",
    "render_json",
    "run_scenario",
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


class _Run(NamedTuple):
    """A whole stretch of ticks ``start``, ``start + 1``, ... of a segment
    that share the behaviors, supply, fit, actions and mode; the sequences
    ``costs`` and ``cum_costs`` hold tick ``start + k``'s at ``k``. A static
    run's ``cum_costs`` are ``_Multiples``, worked out when read."""

    start: int
    env: Behavior
    sys: Behavior
    supply: SupplyReport
    fit: float
    actions: tuple[str, ...]
    mode: float | None
    costs: Sequence[float]
    cum_costs: Sequence[float]

    def row(self, k: int) -> TickRow:
        return TickRow(self.start + k, self.env, self.sys, self.supply, self.fit, self.actions,
                       self.costs[k], self.cum_costs[k], self.mode)


class _Multiples(Sequence):
    """``cost * k`` for each ``k`` of the range ``ks``, worked out when read."""

    def __init__(self, cost: float, ks: range):
        self.cost, self.ks = cost, ks

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, index: int) -> float:
        return self.cost * self.ks[index]

    def __iter__(self) -> Iterator[float]:
        return map(mul, repeat(self.cost), self.ks)


class _Rows(Sequence):
    """The read-only sequence of ``TickRow``s that ``runs`` expand to, each
    built from its run when read and none kept. The rows share the runs'
    objects. ``==`` and ``hash`` are those of the tuple of rows."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[_Run, ...]):
        self.runs = runs

    def __len__(self) -> int:
        return sum(len(run.costs) for run in self.runs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        k = range(len(self))[index]
        for run in self.runs:
            if k < len(run.costs):
                return run.row(k)
            k -= len(run.costs)

    def __iter__(self) -> Iterator[TickRow]:
        for run in self.runs:
            for t, cost, cum in zip(count(run.start), run.costs, run.cum_costs):
                yield TickRow(t, run.env, run.sys, run.supply, run.fit, run.actions, cost, cum, run.mode)

    def __reversed__(self) -> Iterator[TickRow]:
        for run in reversed(self.runs):
            yield from map(run.row, reversed(range(len(run.costs))))

    def __eq__(self, other):
        return tuple(self).__eq__(tuple(other) if isinstance(other, _Rows) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class RunReport:
    """A run's name, its rows and its summary.

    ``rows`` is a read-only sequence of ``TickRow``s, kept as runs, that
    compares and hashes as their tuple and builds a row each time it is read.
    Rows given as a sequence (or any iterable) are kept as one-tick runs,
    and read back as equal, new ``TickRow``s."""

    name: str
    rows: Sequence[TickRow]
    summary: RunSummary

    def __post_init__(self):
        if not isinstance(self.rows, _Rows):
            object.__setattr__(self, "rows", _Rows(tuple(
                _Run(row.t, row.env_behavior, row.sys_behavior, row.supply, row.fit, row.actions, row.mode,
                     (row.cost,), (row.cum_cost,))
                for row in self.rows
            )))


def _summary(runs: tuple[_Run, ...]) -> RunSummary:
    """The summary of the rows ``runs`` expand to. The mean is exactly
    rounded, so it does not depend on how the fits are grouped."""
    finite = [run for run in runs if run.fit != NEG_INFINITY]
    ticks = sum(len(run.costs) for run in runs)
    finite_ticks = sum(len(run.costs) for run in finite)
    fits = chain.from_iterable(repeat(run.fit, len(run.costs)) for run in finite)
    return RunSummary(
        ticks=ticks,
        mean_finite_fit=math.fsum(fits) / finite_ticks if finite_ticks else 0.0,
        neg_inf_ticks=ticks - finite_ticks,
        total_cost=runs[-1].cum_costs[-1],
    )


def run_scenario(scenario: Scenario) -> RunReport:
    """Simulate one scenario, one row per tick; deterministic for a fixed seed.

    Raises ScenarioError if the scenario is invalid or its total cost
    overflows.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError("scenario is invalid:\n" + "\n".join(violations))
    with_mode = bool(scenario.sensors or scenario.critical)
    # the monitor stage every kind of run shares: each segment's awareness
    # mode, worked out once, just before the segment's runs
    situations = (
        (segment, mode, mode.level if mode is not None else None)
        for segment in scenario_trace(scenario).segments
        for mode in [awareness_mode(segment.behavior.figures, scenario.critical) if with_mode else None]
    )
    if scenario.sensors:
        kind = _sensor_runs
    elif scenario.predictor is not None:
        kind = _controller_runs
    else:
        kind = _static_runs
    runs = tuple(kind(scenario, situations))
    summary = _summary(runs)
    # costs are non-negative and cum_cost never falls, so a finite total
    # means every row's cost and cum_cost is finite too
    if not math.isfinite(summary.total_cost):
        raise ScenarioError("costs: the run's total cost overflows to infinity")
    return RunReport(scenario.name, _Rows(runs), summary)


def _static_runs(scenario: Scenario, situations: Iterator[tuple]) -> Iterator[_Run]:
    behavior, variant = scenario.initial_behavior, scenario.variant
    cost = tick_cost(SystemState(behavior), scenario.costs)
    for segment, mode, level in situations:
        env = segment.behavior
        report = supply(behavior, env)
        yield _Run(segment.start, env, behavior, report, fit(report, variant), (), level,
                   (cost,) * segment.duration, _Multiples(cost, range(segment.start + 1, segment.end + 1)))


def _controller_runs(scenario: Scenario, situations: Iterator[tuple]) -> Iterator[_Run]:
    controller = Controller(
        scenario.capability, scenario.costs, scenario.predictor, scenario.weight, scenario.variant
    )
    state = SystemState(scenario.initial_behavior)
    for segment, mode, level in situations:
        env = segment.behavior
        runs = []
        t = segment.start
        while t < segment.end:
            result = controller.step(state, env)
            n = 1 + controller.repeats(segment.end - t - 1)
            if result.actions:
                runs.append(_Run(t, env, result.state.behavior, result.supply, result.fit,
                                 tuple(map(format_action, result.actions)), level,
                                 [result.state.cum_cost - state.cum_cost], [result.state.cum_cost]))
                state, t, n = result.state, t + 1, n - 1
            # the other ticks keep the state and the observation: one stretch of the idle run
            if n:
                if not runs or runs[-1].actions:
                    runs.append(_Run(t, env, state.behavior, result.supply, result.fit, (), level, [], []))
                cums = tuple(accumulate(repeat(tick_cost(state, scenario.costs), n), initial=state.cum_cost))
                runs[-1].costs.extend(map(sub, cums[1:], cums))
                runs[-1].cum_costs.extend(cums[1:])
                state = SystemState(state.behavior, state.borrowed, cums[-1])
                t += n
        yield from runs


def _sensor_runs(scenario: Scenario, situations: Iterator[tuple]) -> Iterator[_Run]:
    by_id = {sensor.id: sensor for sensor in scenario.sensors}
    cover = greedy_cover(scenario.sensors)
    variant = scenario.variant
    # requirement -> (sensed figures, cost, actions), each selected once per run
    selections = {}
    cum = 0.0
    for segment, mode, level in situations:
        env = segment.behavior
        required = required_coverage(env.figures, scenario.critical, mode)
        selection = selections.get(required)
        if selection is None:
            chosen = sorted(cover(required))
            selection = selections[required] = (
                frozenset().union(*(by_id[i].coverage for i in chosen)),
                sum(by_id[i].energy_cost for i in chosen),
                tuple(f"activate:{i}" for i in chosen),
            )
        sensed, cost, actions = selection
        # The sensed behavior mirrors the environment's class: the network
        # tracks the situation, its scope is whatever the sensors cover.
        system = Behavior(env.klass, figures=sensed)
        report = supply(system, env)
        # cum += cost on every tick
        cums = tuple(islice(accumulate(repeat(cost, segment.duration), initial=cum), 1, None))
        cum = cums[-1]
        yield _Run(segment.start, env, system, report, fit(report, variant), actions, level,
                   (cost,) * segment.duration, cums)


def _row_texts(report: RunReport, shared: Callable) -> Iterator[str]:
    """Each row's text, one row at a time. ``shared(run)`` gives, once per
    run, the text before ``t``, before ``cost``, before ``cum_cost`` and
    after it; the two costs are written as their ``repr``. A cost that is
    the same object as the row before's is not written again."""
    last, cost_text = object(), ""
    for run in report.rows.runs:
        before_t, before_cost, before_cum, after = shared(run)
        for t, cost, cum in zip(count(run.start), run.costs, run.cum_costs):
            if cost is not last:
                last, cost_text = cost, repr(cost)
            yield f"{before_t}{t}{before_cost}{cost_text}{before_cum}{cum!r}{after}"


def _csv_chunks(report: RunReport) -> Iterator[str]:
    """The CSV text: the header, then one chunk per row."""
    # behavior cells carry commas, so the shared cells are quoted the
    # standard way, and csv writes floats as their repr. writerow returns
    # what write returns: the line. With lineterminator="" csv would not
    # quote a cell that holds "\n", so the line's "\n" is cut off instead.
    cells = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

    def shared(run):
        line = cells((format_behavior(run.env), format_behavior(run.sys), run.supply.kind.value,
                      run.supply.value, run.fit, ";".join(run.actions)))
        return "", f",{line[:-1]},", ",", ",\n" if run.mode is None else f",{run.mode!r}\n"

    yield ",".join(CSV_COLUMNS) + "\n"
    yield from _row_texts(report, shared)


def render_csv(report: RunReport) -> str:
    return "".join(_csv_chunks(report))


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


def _json_shared(run: _Run) -> tuple[str, str, str, str]:
    tokens = ",\n        ".join(map(encode_basestring_ascii, run.actions))
    actions = f"[\n        {tokens}\n      ]" if run.actions else "[]"
    fit_value = "-inf" if run.fit == NEG_INFINITY else run.fit
    texts = (
        '    {\n      "t": ',
        f',\n      "env_behavior": {_json_value(format_behavior(run.env))}'
        f',\n      "sys_behavior": {_json_value(format_behavior(run.sys))}'
        f',\n      "supply_kind": {_json_value(run.supply.kind.value)}'
        f',\n      "supply": {_json_value(run.supply.value)}'
        f',\n      "fit": {_json_value(fit_value)}'
        f',\n      "actions": {actions},\n      "cost": ',
        ',\n      "cum_cost": ',
        f',\n      "mode": {_json_value(run.mode)}\n    }}',
    )
    # x - x is 0 for an int of any size and for a finite float, and NaN for
    # any other float: one check per run lets each row write its costs as repr
    if any(map(sub, run.costs, run.costs)) or any(map(sub, run.cum_costs, run.cum_costs)):
        for cost, cum in zip(run.costs, run.cum_costs):
            _json_value(cost), _json_value(cum)
    return texts


def _json_chunks(report: RunReport) -> Iterator[str]:
    """The JSON text: the name and summary, then one chunk per row, each
    after its separator, then the tail."""
    summary = ",\n".join(f'    "{key}": {_json_value(value)}' for key, value in asdict(report.summary).items())
    yield f'{{\n  "name": {_json_value(report.name)},\n  "summary": {{\n{summary}\n  }},\n  "rows": '
    sep = "[\n"
    for text in _row_texts(report, _json_shared):
        yield sep + text
        sep = ",\n"
    yield "[]\n}\n" if sep == "[\n" else "\n  ]\n}\n"


def render_json(report: RunReport) -> str:
    """The report as ``json.dumps(..., indent=2)`` writes its name, summary
    and rows (each row's keys in ``CSV_COLUMNS`` order, a fit of negative
    infinity as ``"-inf"``), plus a newline."""
    return "".join(_json_chunks(report))
