"""``run_scenario`` against the benchmark's per-tick reference evaluator.

``bench/reference.py`` replays a scenario one call per tick through each
layer's public functions. Its reports, and the CSV and JSON rendered from
them, must equal ``run_scenario``'s for every sample scenario, for the
benchmark's workloads and for generated static, controller and sensor
scenarios with short segments, so per-segment work in the loop is checked
here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behaviorfit import SAFETY_THRESHOLD, BehaviorClass, load_scenario, parse_scenario, render_csv, render_json, run_scenario

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay = _bench_module("reference").replay
workloads = _bench_module("workloads")


def _check(scenario, seed: int) -> None:
    expected = replay(scenario, seed)
    report = run_scenario(scenario, seed=seed)
    assert report == expected
    assert render_csv(report) == render_csv(expected)
    assert render_json(report) == render_json(expected)


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.scenario")), ids=lambda p: p.stem)
def test_sample_scenarios_match_the_reference(path):
    scenario = load_scenario(path)
    _check(scenario, scenario.turbulence.seed if scenario.turbulence else 0)


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
        predictor = draw(st.sampled_from(["oracle", "persistence", "majority"]))
        if predictor == "majority":
            predictor += f":{draw(st.integers(1, 6))}"
        lines.append(f"controller.predictor = {predictor}")
        lines.append(f"controller.weight = {draw(st.floats(0.0, 1.0))!r}")
        for cost in ("borrow", "class", "switch"):
            lines.append(f"costs.{cost} = {draw(st.floats(0.0, 2.0))!r}")
        lines.append("capability.figures = " + _braced(draw(figure_sets)))
        lines.append("capability.max_class = " + draw(st.sampled_from(CLASS_TOKENS)))
        for peer in draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=2, unique=True)):
            lines.append(f"peers.{peer}.figures = " + _braced(draw(figure_sets)))
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
