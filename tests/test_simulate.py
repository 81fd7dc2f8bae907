import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import behaviorfit.simulate
from behaviorfit import (
    NEG_INFINITY,
    CSV_COLUMNS,
    Capability,
    Controller,
    FitVariant,
    Oracle,
    Persistence,
    RunReport,
    RunSummary,
    ScenarioError,
    SupplyKind,
    SupplyReport,
    TickRow,
    fig2_scenario,
    load_scenario,
    parse_scenario,
    render_csv,
    render_json,
    run_scenario,
    scenario_trace,
)
from conftest import behaviors, frozen_csv, frozen_json

LN3 = math.log(3)

SENSOR_SCENARIO = """
universe = 1,2,3,4,5
trace.file = fig2.trace
system.behavior = pur{}
sensors.m1 = {1,2} 1.0
sensors.m2 = {3,4} 1.0
sensors.m3 = {4,5} 1.0
critical = {4,5}
"""

FIG2_TRACE_TEXT = """universe: 1,2,3,4,5
0 10 pur{1,2,3,4}
10 10 pur{1,4}
20 10 pur{4}
30 10 pur{1,2,3,4}
40 10 pur{1,2,3,4,5}
"""


class TestStaticRun:
    def test_fig2_reproduction(self):
        report = run_scenario(fig2_scenario())
        kinds = [report.rows[t].supply.kind for t in (0, 10, 20, 30, 40)]
        assert kinds == [
            SupplyKind.PERFECT,
            SupplyKind.OVERSUPPLY,
            SupplyKind.OVERSUPPLY,
            SupplyKind.PERFECT,
            SupplyKind.UNDERSUPPLY,
        ]
        fits = [report.rows[t].fit for t in (0, 10, 20, 30, 40)]
        assert fits[0] == 1.0 and fits[3] == 1.0
        assert fits[1] == pytest.approx(1 / (1 + 2 * LN3), abs=1e-12)
        assert fits[2] == pytest.approx(1 / (1 + 3 * LN3), abs=1e-12)
        assert fits[4] == NEG_INFINITY
        assert fits[2] < fits[1] < 1

    def test_row_count_is_horizon(self):
        report = run_scenario(fig2_scenario())
        assert len(report.rows) == 50
        assert report.summary.ticks == 50

    def test_summary_excludes_neg_inf(self):
        report = run_scenario(fig2_scenario())
        assert report.summary.neg_inf_ticks == 10
        finite = [r.fit for r in report.rows if r.fit != NEG_INFINITY]
        assert report.summary.mean_finite_fit == pytest.approx(sum(finite) / len(finite))

    def test_quadratic_override(self):
        report = run_scenario(replace(fig2_scenario(), variant=FitVariant.QUADRATIC))
        assert report.rows[10].fit == pytest.approx(1 / (1 + (2 * LN3) ** 2), abs=1e-12)

    def test_invalid_scenario_raises_with_violations(self):
        scenario = fig2_scenario()
        scenario.universe = frozenset("123")
        with pytest.raises(ScenarioError, match="trace:"):
            run_scenario(scenario)

    def test_a_fixed_trace_refuses_a_seed(self):
        # the seed would be ignored, so naming one is an error, not a no-op
        canary = load_scenario(Path(__file__).parent.parent / "scenarios" / "canary.scenario")
        with pytest.raises(ScenarioError, match="seed 11: .*turbulence spec"):
            scenario_trace(canary, 11)

    def test_scenario_trace_needs_a_trace_or_a_turbulence_spec(self):
        with pytest.raises(ScenarioError, match="neither a trace nor a turbulence spec"):
            scenario_trace(replace(fig2_scenario(), trace=None))


class TestCostOverflow:
    def test_static_cost_overflow_is_a_scenario_error(self):
        scenario = parse_scenario(
            "universe = 1,2\nturbulence.seed = 1\nturbulence.horizon = 10\n"
            "system.behavior = pur{1,2}\ncosts.figure = 1e308\n"
        )
        with pytest.raises(ScenarioError, match="costs"):
            run_scenario(scenario)

    def test_sensor_costs_summing_past_the_float_range(self):
        text = (
            "universe = 1\nturbulence.seed = 3\nturbulence.figure_flip = 0\n"
            "turbulence.mean_segment_len = 1\nturbulence.horizon = {}\n"
            "system.behavior = pur{{}}\nsensors.a = {{1}} 1e308\ncritical = {{1}}\n"
        )
        assert run_scenario(parse_scenario(text.format(1))).summary.total_cost == 1e308
        with pytest.raises(ScenarioError, match="costs"):
            run_scenario(parse_scenario(text.format(2)))


class TestControllerRun:
    def test_oracle_with_full_capability_is_perfect(self):
        scenario = fig2_scenario()
        scenario.predictor = Oracle()
        scenario.capability = Capability(frozenset("12345"))
        report = run_scenario(scenario)
        assert all(row.fit == 1.0 for row in report.rows)

    def test_persistence_emits_adaptation_actions(self):
        scenario = fig2_scenario()
        scenario.predictor = Persistence()
        scenario.capability = Capability(frozenset("12345"))
        report = run_scenario(scenario)
        assert report.rows[11].actions == ("disable:2", "disable:3")
        assert report.rows[41].actions == ("enable:5",)


class TestSensorRun:
    def make(self, tmp_path):
        (tmp_path / "fig2.trace").write_text(FIG2_TRACE_TEXT)
        (tmp_path / "s.scenario").write_text(SENSOR_SCENARIO)
        from behaviorfit import load_scenario

        return load_scenario(tmp_path / "s.scenario")

    def test_covering_selection_never_undersupplies(self, tmp_path):
        report = run_scenario(self.make(tmp_path))
        for row in report.rows:
            covered = row.sys_behavior.figures
            if row.env_behavior.figures <= covered:
                assert row.supply.value >= 0

    def test_mode_tracks_critical_activity(self, tmp_path):
        report = run_scenario(self.make(tmp_path))
        assert report.rows[0].mode == 0.5  # figure 4 active, of critical {4,5}
        assert report.rows[40].mode == 1.0  # both 4 and 5 active

    def test_energy_cost_accrues(self, tmp_path):
        report = run_scenario(self.make(tmp_path))
        assert report.rows[0].cost > 0
        assert report.summary.total_cost == pytest.approx(
            sum(row.cost for row in report.rows)
        )

    def test_actions_name_activated_sensors(self, tmp_path):
        report = run_scenario(self.make(tmp_path))
        assert all(a.startswith("activate:") for row in report.rows for a in row.actions)

    def test_full_coverage_never_undersupplies_on_turbulent_env(self):
        # the sensed behavior tracks the environment class, so full figure
        # coverage keeps supply non-negative whatever the turbulence does
        scenario = parse_scenario(
            "universe = 1,2,3\n"
            "turbulence.seed = 17\n"
            "turbulence.class_walk = 0.4\n"
            "turbulence.figure_flip = 0.4\n"
            "turbulence.horizon = 60\n"
            "system.behavior = pur{}\n"
            "sensors.all = {1,2,3} 1.0\n"
        )
        report = run_scenario(scenario)
        for row in report.rows:
            if row.env_behavior.figures <= row.sys_behavior.figures:
                assert row.supply.value >= 0


class TestPerSegmentEvaluation:
    """A static or sensor run faces one environment behavior for a whole
    segment, so it scores and selects once per segment, not once per tick."""

    TEXT = (
        "universe = 1,2,3\nturbulence.seed = 7\nturbulence.mean_segment_len = 4\n"
        "turbulence.horizon = 200\n"
    )
    STATIC = "system.behavior = pur{1,2}\n"
    SENSORS = "sensors.a = {1,2} 1.0\nsensors.b = {3} 2.0\ncritical = {3}\n"

    @pytest.mark.parametrize("kind", ["static", "sensors"])
    def test_one_supply_and_selection_call_per_segment(self, monkeypatch, kind):
        calls = Counter()

        def counting(name, wrap=lambda result: result):
            original = getattr(behaviorfit.simulate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return wrap(original(*args, **kwargs))

            monkeypatch.setattr(behaviorfit.simulate, name, wrapper)

        def counting_cover(cover):
            def select(required):
                calls["cover"] += 1
                return cover(required)

            return select

        counting("supply")
        # a sensor run builds its cover once and selects with it per segment
        counting("greedy_cover", counting_cover)
        scenario = parse_scenario(self.TEXT + (self.SENSORS if kind == "sensors" else self.STATIC))
        segments = scenario_trace(scenario).segments
        report = run_scenario(scenario)
        assert len(report.rows) == 200 > len(segments) > 1
        assert calls["supply"] == len(segments)
        assert calls["greedy_cover"] == (1 if kind == "sensors" else 0)
        assert calls["cover"] == (len(segments) if kind == "sensors" else 0)
        # every tick of a segment carries the segment's one report
        for segment in segments:
            assert len({id(row.supply) for row in report.rows[segment.start:segment.end]}) == 1


class TestControllerSegments:
    """A controller run steps until its predictor's window holds only the
    segment's behavior and a step is idle, then repeats that step's row."""

    TEXT = (
        "universe = 1,2,3,4\nturbulence.seed = {seed}\nturbulence.class_walk = 0.3\n"
        "turbulence.figure_flip = 0.3\nturbulence.mean_segment_len = 8\nturbulence.horizon = 300\n"
        "system.behavior = pur{{1,2}}\ncontroller.predictor = {predictor}\ncontroller.weight = 0.05\n"
        "costs.figure = 0.1\ncosts.borrow = 0.2\ncosts.switch = 0.1\ncapability.figures = 1,2,3\n"
        "capability.max_class = pro\npeers.a.figures = 4\ncritical = {{1}}\n"
    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("predictor, window", [("persistence", 1), ("oracle", 0), ("majority:3", 3)])
    def test_at_most_window_plus_two_steps_per_segment(self, monkeypatch, predictor, window, seed):
        # the run works out the awareness mode once per segment, before its
        # first step, so the calls split the steps by segment
        calls = []

        def counting(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(Controller, "step", "step")
        counting(behaviorfit.simulate, "awareness_mode", "segment")
        scenario = parse_scenario(self.TEXT.format(seed=seed, predictor=predictor))
        segments = scenario_trace(scenario).segments
        rows = run_scenario(scenario).rows
        steps = []
        for label in calls:
            if label == "segment":
                steps.append(0)
            else:
                steps[-1] += 1
        assert len(steps) == len(segments) > 1
        skipped = 0
        for segment, n in zip(segments, steps):
            assert n <= min(segment.duration, window + 2)
            if n < segment.duration:
                # the last step was idle and every later row repeats it
                skipped += segment.duration - n
                idle = rows[segment.start + n - 1]
                for row in rows[segment.start + n - 1:segment.end]:
                    assert row.actions == ()
                    assert (row.sys_behavior, row.supply, row.fit) == (idle.sys_behavior, idle.supply, idle.fit)
        assert skipped > len(rows) // 3


class TestRendering:
    def test_csv_header_and_shape(self):
        text = render_csv(run_scenario(fig2_scenario()))
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 51
        assert all(line.count(",") >= len(CSV_COLUMNS) - 1 for line in lines[1:])

    def test_csv_neg_inf_token(self):
        import csv as csv_mod
        import io

        text = render_csv(run_scenario(fig2_scenario()))
        rows = list(csv_mod.reader(io.StringIO(text)))
        assert rows[46][CSV_COLUMNS.index("fit")] == "-inf"
        assert rows[46][CSV_COLUMNS.index("env_behavior")] == "pur{1,2,3,4,5}"

    def test_csv_deterministic(self):
        a = render_csv(run_scenario(fig2_scenario()))
        b = render_csv(run_scenario(fig2_scenario()))
        assert a == b

    def test_json_round_trips(self):
        payload = json.loads(render_json(run_scenario(fig2_scenario())))
        assert payload["name"] == "fig2"
        assert payload["summary"]["neg_inf_ticks"] == 10
        assert payload["rows"][40]["fit"] == "-inf"
        assert payload["rows"][0]["fit"] == 1.0

    def test_generated_trace_seed_override(self):
        scenario = parse_scenario(
            "universe = 1,2\nturbulence.seed = 1\nsystem.behavior = pur{1}\n"
        )
        def seeded(seed):
            return replace(scenario, turbulence=replace(scenario.turbulence, seed=seed))

        r1 = render_csv(run_scenario(seeded(100)))
        r2 = render_csv(run_scenario(seeded(100)))
        r3 = render_csv(run_scenario(seeded(101)))
        assert r1 == r2
        assert r1 != r3


# Text that JSON escapes or CSV quotes: a quote, a backslash, a newline, a
# comma and a semicolon, non-ASCII and astral characters.
AWKWARD = ('say "hi"', "back\\slash", "two\nlines", "a,b;c", "café", "\U0001d11e clef", "")
texts = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6))
# an int 0 next to floats, and floats whose repr has an exponent
numbers = st.one_of(
    st.sampled_from([0, 0.0, 1e-07, 1e16, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
)


def _twin(value):
    """An object equal in value to ``value`` that is not the same object."""
    if isinstance(value, float):
        return float(repr(value))
    if isinstance(value, tuple):
        return tuple(list(value))
    return value if value is None else replace(value)


@st.composite
def hand_built_reports(draw) -> RunReport:
    """A report of up to five runs of rows: one to four ticks per run, whose
    rows share one set of objects or carry equal twins of them, with any
    costs."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        value = draw(numbers)
        if value == 0:
            kind = SupplyKind.PERFECT
        elif value > 0:
            kind = SupplyKind.OVERSUPPLY
        else:
            kind = draw(st.sampled_from([SupplyKind.UNDERSUPPLY, SupplyKind.INCOMPARABLE]))
        shared = (
            draw(behaviors(figures=AWKWARD)),
            draw(behaviors(figures=AWKWARD)),
            SupplyReport(value, kind),
            draw(st.one_of(st.just(NEG_INFINITY), st.floats(allow_nan=False, allow_infinity=False))),
            tuple(draw(st.lists(texts, max_size=3))),
            draw(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))),
        )
        twins = draw(st.booleans())
        for k in range(draw(st.integers(1, 4))):
            env, sys_behavior, report, fit_value, actions, mode = map(_twin, shared) if twins and k else shared
            rows.append(TickRow(
                len(rows), env, sys_behavior, report, fit_value, actions, draw(numbers), draw(numbers), mode
            ))
    summary = RunSummary(len(rows), draw(numbers), draw(st.integers(0, len(rows))), draw(numbers))
    return RunReport(draw(texts), tuple(rows), summary)


@settings(max_examples=300, deadline=None)
@given(hand_built_reports())
def test_renderers_write_what_the_frozen_renderers_write(report):
    assert render_csv(report) == frozen_csv(report)
    assert render_json(report) == frozen_json(report)


@pytest.mark.parametrize("field", ["fit", "cost", "cum_cost", "mode"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_json_refuses_a_number_it_would_write_as_infinity_or_nan(field, value):
    report = run_scenario(fig2_scenario())
    row = replace(report.rows[0], **{field: value})
    with pytest.raises(ValueError, match="as a JSON number"):
        render_json(replace(report, rows=(row,)))
