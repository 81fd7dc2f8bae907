"""``run_scenario`` against the benchmark's per-tick reference evaluator.

``bench/reference.py`` replays a scenario one call per tick through each
layer's public functions. Its reports, and the CSV and JSON rendered from
them, must equal ``run_scenario``'s for every sample scenario, for the
benchmark's workloads, for generated static, controller and sensor
scenarios with short segments, and for generated controller scenarios
with long ones, so per-segment work in the loop, and the controller's
repeat of its idle step, is checked here. The program's CSV and JSON
must also equal, byte for byte, what a copy of the renderers frozen in
this file makes of the reference's report.
"""

import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behaviorfit import (
    SAFETY_THRESHOLD,
    BehaviorClass,
    load_scenario,
    parse_scenario,
    render_csv,
    render_json,
    run_scenario,
    scenario_trace,
)
from conftest import bench_module

ROOT = Path(__file__).resolve().parents[1]

replay = bench_module("reference").replay
workloads = bench_module("workloads")


# The CSV and JSON renderers and the behavior grammar as they stood when
# they were frozen here, so a rewrite of the program's renderers is checked
# against bytes that the program does not make itself.
FROZEN_COLUMNS = (
    "t", "env_behavior", "sys_behavior", "supply_kind", "supply", "fit", "actions", "cost", "cum_cost", "mode",
)
FROZEN_CLASS_TOKENS = {1: "ran", 2: "pur", 3: "rea", 4: "pro", 5: "soc"}


def _frozen_behavior(behavior) -> str:
    token = FROZEN_CLASS_TOKENS[behavior.klass]
    if behavior.figures is not None:
        return token + "{" + ",".join(sorted(behavior.figures)) + "}"
    if behavior.arity is not None:
        return f"{token}^{behavior.arity}"
    return token


def _frozen_fields(row, fit_value, actions) -> tuple:
    return (row.t, _frozen_behavior(row.env_behavior), _frozen_behavior(row.sys_behavior),
            row.supply.kind.value, row.supply.value, fit_value, actions, row.cost, row.cum_cost, row.mode)


def _frozen_csv(report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FROZEN_COLUMNS)
    writer.writerows(_frozen_fields(row, row.fit, ";".join(row.actions)) for row in report.rows)
    return buffer.getvalue()


def _frozen_json(report) -> str:
    s = report.summary
    payload = {
        "name": report.name,
        "summary": {
            "ticks": s.ticks,
            "mean_finite_fit": s.mean_finite_fit,
            "neg_inf_ticks": s.neg_inf_ticks,
            "total_cost": s.total_cost,
        },
        "rows": [
            dict(zip(FROZEN_COLUMNS, _frozen_fields(
                row, "-inf" if row.fit == -math.inf else row.fit, list(row.actions)
            )))
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _check(scenario, seed: int) -> None:
    expected = replay(scenario, seed)
    report = run_scenario(replace(scenario, trace=scenario_trace(scenario, seed), turbulence=None))
    assert report == expected
    assert render_csv(report) == render_csv(expected)
    assert render_json(report) == render_json(expected)
    assert render_csv(report) == _frozen_csv(expected)
    assert render_json(report) == _frozen_json(expected)


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.scenario")), ids=lambda p: p.stem)
def test_sample_scenarios_match_the_reference(path):
    scenario = load_scenario(path)
    _check(scenario, scenario.turbulence.seed if scenario.turbulence else None)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workloads_match_the_reference(name, seed):
    text = workloads.scenario_text(workloads.WORKLOADS[name], seed, horizon=300)
    _check(parse_scenario(text, name=name), seed)


FIGURES = ("1", "2", "3", "4", "5")
CLASS_TOKENS = ("ran", "pur", "rea", "pro", "soc")
figure_sets = st.frozensets(st.sampled_from(FIGURES))


def _braced(figures) -> str:
    return "{" + ",".join(sorted(figures)) + "}"


@st.composite
def short_segment_scenarios(draw) -> str:
    """Static, controller or sensor scenario text whose segments last 1-3
    ticks on average. Two to four of the five figures are critical, so
    figure flips carry the awareness mode across ``SAFETY_THRESHOLD``
    between segments; a sensor run also has ``idle``, which covers only
    non-critical figures, so an energy-saving segment may choose no sensor
    at all. A controller run draws any predictor, a class ceiling, up to
    two lending peers, costs and a cost weight."""
    critical = draw(st.frozensets(st.sampled_from(FIGURES), min_size=2, max_size=4))
    lines = [
        "universe = " + ",".join(FIGURES),
        f"turbulence.seed = {draw(st.integers(0, 2**32))}",
        f"turbulence.horizon = {draw(st.integers(3, 40))}",
        f"turbulence.mean_segment_len = {draw(st.integers(1, 3))}",
        f"turbulence.class_walk = {draw(st.floats(0.0, 1.0))!r}",
        f"turbulence.figure_flip = {draw(st.floats(0.2, 0.8))!r}",
        "critical = " + _braced(critical),
        "fit.variant = " + draw(st.sampled_from(["linear", "quadratic"])),
    ]
    kind = draw(st.sampled_from(["static", "controller", "sensors"]))
    if kind == "sensors":
        lines.append("system.behavior = pur{}")
        lines.append(f"sensors.idle = {_braced(set(FIGURES) - critical)} 1.0")
        for i in range(draw(st.integers(1, 3))):
            coverage = draw(st.frozensets(st.sampled_from(FIGURES), min_size=1))
            lines.append(f"sensors.s{i} = {_braced(coverage)} {draw(st.floats(0.1, 5.0))!r}")
    else:
        behavior = draw(st.sampled_from(CLASS_TOKENS)) + _braced(draw(figure_sets))
        lines.append(f"system.behavior = {behavior}")
        lines.append(f"costs.figure = {draw(st.floats(0.0, 2.0))!r}")
    if kind == "controller":
        lines += _controller_lines(draw, max_window=6, rates=st.floats(0.0, 2.0), peers=range(0, 3))
    return "\n".join(lines) + "\n"


def _controller_lines(draw, max_window: int, rates, peers: range) -> list[str]:
    """Any predictor (``majority`` up to ``max_window``), a cost weight, the
    borrow, class and switch rates, a class ceiling and a number of lending
    peers in ``peers``."""
    predictor = draw(st.sampled_from(["oracle", "persistence", "majority"]))
    if predictor == "majority":
        predictor += f":{draw(st.integers(1, max_window))}"
    lines = [f"controller.predictor = {predictor}", f"controller.weight = {draw(st.floats(0.0, 1.0))!r}"]
    for cost in ("borrow", "class", "switch"):
        lines.append(f"costs.{cost} = {draw(rates)!r}")
    lines.append("capability.figures = " + _braced(draw(figure_sets)))
    lines.append("capability.max_class = " + draw(st.sampled_from(CLASS_TOKENS)))
    ids = st.lists(st.sampled_from(["a", "b", "c"]), min_size=peers.start, max_size=peers.stop - 1, unique=True)
    for peer in draw(ids):
        lines.append(f"peers.{peer}.figures = " + _braced(draw(figure_sets)))
    return lines


@st.composite
def long_segment_scenarios(draw) -> str:
    """Controller scenario text whose segments last 4-12 ticks on average,
    so a ``majority`` window of up to 8 fills inside a segment and the run
    repeats its idle step; figure, borrow and switch costs are non-zero, so
    every repeated tick adds to ``cum_cost``."""
    rates = st.floats(0.01, 2.0)
    mean_segment_len = draw(st.integers(4, 12))
    lines = [
        "universe = " + ",".join(FIGURES),
        f"turbulence.seed = {draw(st.integers(0, 2**32))}",
        f"turbulence.horizon = {draw(st.integers(mean_segment_len, 80))}",
        f"turbulence.mean_segment_len = {mean_segment_len}",
        f"turbulence.class_walk = {draw(st.floats(0.0, 1.0))!r}",
        f"turbulence.figure_flip = {draw(st.floats(0.2, 0.8))!r}",
        "fit.variant = " + draw(st.sampled_from(["linear", "quadratic"])),
        "system.behavior = " + draw(st.sampled_from(CLASS_TOKENS)) + _braced(draw(figure_sets)),
        f"costs.figure = {draw(rates)!r}",
    ]
    if draw(st.booleans()):
        lines.append("critical = " + _braced(draw(st.frozensets(st.sampled_from(FIGURES), min_size=1))))
    lines += _controller_lines(draw, max_window=8, rates=rates, peers=range(1, 4))
    return "\n".join(lines) + "\n"


# A sensor run that meets both branches of ``required_coverage``:
# safety-first segments that also need ``idle``, energy-saving segments
# that need only ``s0``, and energy-saving segments that need no sensor.
CROSSING_SENSORS = """universe = 1,2,3,4,5
turbulence.seed = 2
turbulence.horizon = 20
turbulence.mean_segment_len = 2
turbulence.figure_flip = 0.5
critical = {1,2,3}
system.behavior = pur{}
sensors.idle = {4,5} 1.0
sensors.s0 = {1,2,3} 2.5
"""


def test_the_pinned_example_meets_both_modes_and_idle_segments():
    rows = run_scenario(parse_scenario(CROSSING_SENSORS)).rows
    safety = [row for row in rows if row.mode >= SAFETY_THRESHOLD]
    saving = [row for row in rows if row.mode < SAFETY_THRESHOLD]
    assert any("activate:idle" in row.actions for row in safety)
    assert any(row.actions == ("activate:s0",) for row in saving)
    assert any(row.actions == () and row.cost == 0 for row in saving)


# A controller run that enables, disables, borrows from ``a`` and returns
# to it, and meets an environment class above its ``rea`` ceiling.
CEILED_BORROWER = """universe = 1,2,3,4,5
turbulence.seed = 3
turbulence.horizon = 20
turbulence.mean_segment_len = 2
turbulence.class_walk = 0.5
turbulence.figure_flip = 0.5
critical = {1,2}
system.behavior = pur{1,2}
controller.predictor = majority:2
controller.weight = 0.1
costs.borrow = 0.2
costs.switch = 0.05
capability.figures = 1,2,3
capability.max_class = rea
peers.a.figures = 4,5
peers.b.figures = 5
"""


def test_the_pinned_controller_example_borrows_returns_and_meets_its_ceiling():
    rows = run_scenario(parse_scenario(CEILED_BORROWER)).rows
    kinds = {token.split(":")[0] for row in rows for token in row.actions}
    assert kinds == {"enable", "disable", "borrow", "return", "class"}
    assert any(token.startswith("borrow:a:") for row in rows for token in row.actions)
    assert max(row.env_behavior.klass for row in rows) > BehaviorClass.REACTIVE
    assert max(row.sys_behavior.klass for row in rows) == BehaviorClass.REACTIVE


@settings(max_examples=200, deadline=None)
@given(short_segment_scenarios())
@example(CROSSING_SENSORS)
@example(CEILED_BORROWER)
def test_short_segment_runs_match_the_reference(text):
    scenario = parse_scenario(text)
    _check(scenario, scenario.turbulence.seed)


# A controller run with a ``majority:2`` window (W = 2) in which a segment
# idles at tick W - 1, acts at tick W and then repeats its idle step at
# tick W + 1 for the rest of the segment: at tick W - 1 the window holds
# the old and the new behavior, whose tied figures all stay in the vote.
WINDOW_ACTOR = """universe = 1,2,3,4,5
turbulence.seed = 12
turbulence.horizon = 60
turbulence.mean_segment_len = 10
turbulence.class_walk = 0.3
turbulence.figure_flip = 0.4
system.behavior = pur{1,2,3}
controller.predictor = majority:2
controller.weight = 0.1
costs.figure = 0.1
costs.borrow = 0.3
costs.class = 0.05
costs.switch = 0.2
capability.figures = 1,2,3,4
capability.max_class = pro
peers.a.figures = 5
"""


def test_the_pinned_long_segment_example_acts_at_its_window_and_then_repeats():
    scenario = parse_scenario(WINDOW_ACTOR)
    rows = run_scenario(scenario).rows
    window = scenario.predictor.window
    acting = [
        segment for segment in scenario_trace(scenario).segments
        if segment.duration > window + 2
        and not rows[segment.start + window - 1].actions
        and rows[segment.start + window].actions
        and not any(row.actions for row in rows[segment.start + window + 1:segment.end])
    ]
    assert acting
    assert any(token.startswith("borrow:a:") for row in rows for token in row.actions)


@settings(max_examples=200, deadline=None)
@given(long_segment_scenarios())
@example(WINDOW_ACTOR)
def test_long_segment_runs_match_the_reference(text):
    scenario = parse_scenario(text)
    _check(scenario, scenario.turbulence.seed)
