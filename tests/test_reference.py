"""``run_scenario`` against the benchmark's per-tick reference evaluator.

``bench/reference.py`` replays a scenario one call per tick through each
layer's public functions. Its reports, and the CSV and JSON rendered from
them, must equal ``run_scenario``'s for every sample scenario, for the
benchmark's workloads, for generated static, controller and sensor
scenarios with short segments, and for generated controller scenarios
with long ones, so per-segment work in the loop, and the controller's
repeat of its idle step, is checked here. The program's CSV and JSON
must also equal, byte for byte, what the copy of the renderers frozen in
``conftest.py`` makes of the reference's report.

Two metamorphic relations check the program against itself, with no
reference, on the same generated scenarios and on the sample scenarios:
splitting a segment in two leaves the CSV as it was, and scaling every
cost by a power of two scales every row's costs by it and changes nothing
else.
"""

from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from behaviorfit import (
    SAFETY_THRESHOLD,
    BehaviorClass,
    EnvironmentTrace,
    Segment,
    load_scenario,
    parse_scenario,
    render_csv,
    render_json,
    run_scenario,
    scenario_trace,
)
from conftest import bench_module, frozen_csv, frozen_json

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = sorted((ROOT / "scenarios").glob("*.scenario"))

replay = bench_module("reference").replay
workloads = bench_module("workloads")


def _check(scenario, seed: int) -> None:
    expected = replay(scenario, seed)
    report = run_scenario(replace(scenario, trace=scenario_trace(scenario, seed), turbulence=None))
    assert report == expected
    assert render_csv(report) == render_csv(expected)
    assert render_json(report) == render_json(expected)
    assert render_csv(report) == frozen_csv(expected)
    assert render_json(report) == frozen_json(expected)


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
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


generated_scenarios = st.one_of(short_segment_scenarios(), long_segment_scenarios()).map(parse_scenario)


def _pinned(scenario):
    """``scenario`` with the trace it draws pinned, so a relation can
    transform the trace itself."""
    return replace(scenario, trace=scenario_trace(scenario), turbulence=None)


def _split(scenario, cut: int):
    """``scenario`` with each segment of two or more ticks split in two
    segments of the same behavior; ``cut`` picks where."""
    segments = []
    for segment in scenario.trace.segments:
        if segment.duration < 2:
            segments.append(segment)
            continue
        first = 1 + cut % (segment.duration - 1)
        segments.append(Segment(segment.start, first, segment.behavior))
        segments.append(Segment(segment.start + first, segment.duration - first, segment.behavior))
    return replace(scenario, trace=EnvironmentTrace(tuple(segments), scenario.trace.universe))


def _check_split(scenario, cut: int) -> None:
    scenario = _pinned(scenario)
    assert render_csv(run_scenario(_split(scenario, cut))) == render_csv(run_scenario(scenario))


def _check_scaled_costs(scenario, k: int) -> None:
    """Every cost rate and sensor energy times 2**k and the weight over
    2**k: the same rows but for ``cost`` and ``cum_cost``, which are
    exactly 2**k times theirs. Scaling by a power of two commutes with
    rounding while nothing overflows or falls to a subnormal."""
    scale = 2.0**k
    scenario = _pinned(scenario)
    assume(scenario.weight / scale * scale == scenario.weight)
    costs = scenario.costs
    scaled = replace(
        scenario,
        costs=replace(costs, **{f.name: getattr(costs, f.name) * scale for f in fields(costs)}),
        sensors=tuple(replace(sensor, energy_cost=sensor.energy_cost * scale) for sensor in scenario.sensors),
        weight=scenario.weight / scale,
    )
    report, scaled_report = run_scenario(scenario), run_scenario(scaled)
    assert scaled_report.rows == tuple(
        replace(row, cost=row.cost * scale, cum_cost=row.cum_cost * scale) for row in report.rows
    )
    assert scaled_report.summary == replace(report.summary, total_cost=report.summary.total_cost * scale)


@settings(max_examples=100, deadline=None)
@given(generated_scenarios, st.integers(0, 2**16))
def test_splitting_a_segment_leaves_the_csv_as_it_was(scenario, cut):
    _check_split(scenario, cut)


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
@settings(max_examples=5, deadline=None)
@given(cut=st.integers(0, 2**16))
def test_splitting_a_sample_segment_leaves_the_csv_as_it_was(path, cut):
    _check_split(load_scenario(path), cut)


@settings(max_examples=100, deadline=None)
@given(generated_scenarios, st.integers(1, 10))
def test_costs_times_a_power_of_two_scale_only_the_costs(scenario, k):
    _check_scaled_costs(scenario, k)


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
@settings(max_examples=5, deadline=None)
@given(k=st.integers(1, 10))
@example(k=3)
def test_sample_costs_times_a_power_of_two_scale_only_the_costs(path, k):
    _check_scaled_costs(load_scenario(path), k)
