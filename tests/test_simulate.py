import json
import math
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from itertools import accumulate, groupby, repeat
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import behaviorfit.cli
import behaviorfit.simulate
from behaviorfit import (
    NEG_INFINITY,
    CSV_COLUMNS,
    Capability,
    Controller,
    CostModel,
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
    format_behavior,
    load_scenario,
    parse_scenario,
    parse_trace,
    render_csv,
    render_json,
    run_scenario,
    scenario_trace,
)
from behaviorfit.simulate import _Multiples, _Rows, _Run, _summary
from conftest import behaviors, frozen_csv, frozen_json, frozen_summary
from test_golden import CONTROLLER, PREDICTORS, ROOT

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

    def test_a_long_segment_keeps_no_cumulative_cost_per_tick(self):
        # the run's costs are one float repeated, 8 bytes a tick; a tuple of
        # cumulative costs would add a pointer and a float per tick
        ticks = 200_000
        trace = parse_trace(f"universe: 1,2,3,4,5\n0 {ticks} pur{{1,2,3,4}}\n")
        scenario = replace(fig2_scenario(), trace=trace, costs=CostModel(figure_cost=0.1))
        tracemalloc.start()
        try:
            report = run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ticks < 16
        # reading one row builds that row, not the rows before it
        tracemalloc.start()
        try:
            last = report.rows[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        cost = 0.1 * 4
        assert report.summary.total_cost == last.cum_cost == cost * ticks


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

    def test_without_critical_figures_no_sensor_is_activated(self, tmp_path):
        # the awareness level is 0, and energy-saving mode covers only the
        # active critical figures, of which there are none
        report = run_scenario(replace(self.make(tmp_path), critical=frozenset()))
        assert all(row.env_behavior.figures for row in report.rows)
        assert {
            (format_behavior(row.sys_behavior), row.supply.kind, row.actions, row.cost, row.fit, row.mode)
            for row in report.rows
        } == {("pur{}", SupplyKind.UNDERSUPPLY, (), 0, NEG_INFINITY, 0.0)}
        assert report.summary.total_cost == 0

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
    """A controller run steps a tick only where its prediction can change:
    after each step, the ticks that would repeat an idle step of the state
    it returned are taken at once, and their rows repeat that idle row."""

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
        # first step, so the calls split the steps by segment; each step
        # takes one tick and each stretch of repeats the ticks it returns
        calls = []

        def recording(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((label, result))
                return result

            monkeypatch.setattr(owner, name, wrapper)

        recording(Controller, "step", "step")
        recording(Controller, "repeats", "repeats")
        recording(behaviorfit.simulate, "awareness_mode", "segment")
        scenario = parse_scenario(self.TEXT.format(seed=seed, predictor=predictor))
        segments = scenario_trace(scenario).segments
        rows = run_scenario(scenario).rows
        steps, t, skipped, last = [], 0, 0, None
        for label, result in calls:
            if label == "segment":
                assert t == segments[len(steps)].start
                steps.append(0)
            elif label == "step":
                steps[-1] += 1
                t, last = t + 1, result
            else:
                # every repeated tick repeats the idle row of the state the
                # step before it returned
                for row in rows[t:t + result]:
                    assert row.actions == ()
                    assert (row.sys_behavior, row.supply, row.fit) == (
                        last.state.behavior, last.supply, last.fit,
                    )
                t, skipped = t + result, skipped + result
        assert t == len(rows) == segments[-1].end
        assert len(steps) == len(segments) > 1
        for segment, n in zip(segments, steps):
            assert n <= min(segment.duration, window + 2)
        assert skipped > len(rows) // 2


class TestWholeRuns:
    """A run is a whole stretch of ticks within one segment whose rows are
    equal but for ``t``, ``cost`` and ``cum_cost``: a controller's
    consecutive idle steps and the idle tail that repeats them are one run."""

    SCENARIOS = {
        **{f"golden-{label}": CONTROLLER.format(predictor=predictor) for label, predictor in PREDICTORS.items()},
        "canary": None,
    }

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_runs_are_the_groups_of_equal_rows_within_segments(self, name):
        text = self.SCENARIOS[name]
        scenario = parse_scenario(text) if text else load_scenario(ROOT / "scenarios" / "canary.scenario")
        report = run_scenario(scenario)
        segments = scenario_trace(scenario).segments
        runs = report.rows.runs
        segment_of = [
            next(k for k, segment in enumerate(segments) if segment.start <= run.start < segment.end)
            for run in runs
        ]
        for run, k in zip(runs, segment_of):
            assert run.start + len(run.costs) <= segments[k].end
        idle_pairs = [
            (a.start, b.start)
            for a, b, ka, kb in zip(runs, runs[1:], segment_of, segment_of[1:])
            if ka == kb and not a.actions and not b.actions
        ]
        assert idle_pairs == []

        def shared(row):
            return (row.env_behavior, row.sys_behavior, row.supply, row.fit, row.actions, row.mode)

        groups = sum(len(list(groupby(report.rows[s.start:s.end], key=shared))) for s in segments)
        assert len(runs) == groups
        # the scenario has idle stretches longer than one tick to merge
        assert len(runs) < len(report.rows) - len(segments)


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
def supplies(draw) -> SupplyReport:
    value = draw(numbers)
    if value == 0:
        kind = SupplyKind.PERFECT
    elif value > 0:
        kind = SupplyKind.OVERSUPPLY
    else:
        kind = draw(st.sampled_from([SupplyKind.UNDERSUPPLY, SupplyKind.INCOMPARABLE]))
    return SupplyReport(value, kind)


@st.composite
def hand_built_reports(draw) -> RunReport:
    """A report of up to five runs of rows: one to four ticks per run, whose
    rows share one set of objects or carry equal twins of them, with any
    costs."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        shared = (
            draw(behaviors(figures=AWKWARD)),
            draw(behaviors(figures=AWKWARD)),
            draw(supplies()),
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


class TestLazyRows:
    """A run keeps its ticks as runs; only reading ``RunReport.rows`` builds
    ``TickRow``s, so a sweep and the renderers build none."""

    TEXT = "universe = 1,2,3\nturbulence.seed = 5\nturbulence.mean_segment_len = 6\nturbulence.horizon = 120\n"
    KINDS = {
        "static": "system.behavior = pur{1,2}\n",
        "sensors": "system.behavior = pur{}\nsensors.a = {1,2} 0.1\nsensors.b = {3} 0.2\ncritical = {3}\n",
        "controller": (
            "system.behavior = pur{1,2}\ncontroller.predictor = majority:3\ncontroller.weight = 0.05\n"
            "costs.figure = 0.1\ncapability.figures = 1,2,3\n"
        ),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_and_run_build_no_row_until_one_is_read(self, monkeypatch, tmp_path, kind):
        built = []
        init = TickRow.__init__

        def counting_init(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(TickRow, "__init__", counting_init)
        reports = []
        run = behaviorfit.cli.run_scenario

        def keeping_run(scenario):
            reports.append(run(scenario))
            return reports[-1]

        monkeypatch.setattr(behaviorfit.cli, "run_scenario", keeping_run)
        path = tmp_path / "s.scenario"
        path.write_text(self.TEXT + self.KINDS[kind])
        out = str(tmp_path / "out")
        for argv in (
            ["sweep", "--scenario", str(path), "--seeds", "1..5", "--out", out],
            ["run", "--scenario", str(path), "--format", "csv", "--out", out],
            ["run", "--scenario", str(path), "--format", "json", "--out", out],
        ):
            assert behaviorfit.cli.main(argv) == 0
            assert built == [], argv
        assert len(reports) == 7 and len(reports[-1].rows) == 120
        assert built == []
        # reading a row builds that row alone, and none is kept
        assert reports[-1].rows[0].t == 0
        assert built == [0]
        assert reports[-1].rows[-1].t == 119
        assert built == [0, 119]


# Pools of objects that the runs of one drawn report pick from, so that
# consecutive runs share some of their objects and not others.
_pools = st.fixed_dictionaries({
    "env": st.lists(behaviors(), min_size=1, max_size=3),
    "sys": st.lists(behaviors(), min_size=1, max_size=3),
    "supply": st.lists(supplies(), min_size=1, max_size=3),
    "fit": st.lists(
        st.one_of(st.just(NEG_INFINITY), st.floats(0, 1, exclude_min=True)), min_size=1, max_size=3
    ),
    "actions": st.lists(st.lists(texts, max_size=2).map(tuple), min_size=1, max_size=3),
    "mode": st.lists(st.one_of(st.none(), st.floats(0, 1)), min_size=1, max_size=3),
})
# an int 0, as a sensor segment with no chosen sensor costs, and noisy floats
_costs = st.one_of(st.just(0), st.sampled_from([0.1, 0.2, 0.3, 1e-07]), st.floats(0, 10))


@st.composite
def drawn_runs(draw) -> tuple[_Run, ...]:
    """One to six contiguous runs of one to four ticks each, many of one
    tick, at a fixed cost per run with the cumulative cost added up tick
    by tick, or, as a static run has it, worked out as ``cost * (t + 1)``
    when read."""
    pools = draw(_pools)
    runs, start, cum = [], 0, 0.0
    for _ in range(draw(st.integers(1, 6))):
        shared = [draw(st.sampled_from(pools[field])) for field in ("env", "sys", "supply", "fit", "actions", "mode")]
        n = draw(st.sampled_from([1, 1, 2, 3, 4]))
        cost = draw(_costs)
        if draw(st.booleans()):
            cums = _Multiples(cost, range(start + 1, start + n + 1))
        else:
            cums = tuple(accumulate(repeat(cost, n), initial=cum))[1:]
        runs.append(_Run(start, *shared, (cost,) * n, cums))
        start, cum = start + n, cums[-1]
    return tuple(runs)


def _expanded(runs) -> tuple[TickRow, ...]:
    return tuple(
        TickRow(run.start + k, run.env, run.sys, run.supply, run.fit, run.actions,
                run.costs[k], run.cum_costs[k], run.mode)
        for run in runs
        for k in range(len(run.costs))
    )


@settings(max_examples=300, deadline=None)
@given(drawn_runs())
def test_rows_read_as_the_tuple_of_their_expanded_rows(runs):
    view, rows = _Rows(runs), _expanded(runs)
    assert len(view) == len(rows)
    assert view == rows and rows == view
    assert not view != rows and not rows != view
    assert view != list(rows) and list(rows) != view
    assert hash(view) == hash(rows)
    from_rows = RunReport("r", rows, _summary(runs)).rows
    assert view == _Rows(runs) and view == from_rows and from_rows == view
    n = len(rows)
    for index in (0, n - 1, n // 2, -1, -n):
        assert view[index] == rows[index]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            view[index]
    for part in (slice(1, -1), slice(None, None, 2), slice(n, None)):
        assert type(view[part]) is tuple and view[part] == rows[part]
    assert list(view) == list(rows) and list(reversed(view)) == list(reversed(rows))
    # the rows carry the runs' own objects; a static run's cum_cost is
    # worked out anew on each read, to the same bits
    for built, row in zip(view, rows):
        assert all(getattr(built, name) is getattr(row, name) for name in (
            "env_behavior", "sys_behavior", "supply", "fit", "actions", "cost", "mode"
        ))
        assert _bits([built.cum_cost]) == _bits([row.cum_cost])


def _bits(values) -> list:
    return [(type(value), repr(value)) for value in values]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 2**53), st.integers(0, 6))
@example(5e-324, 0, 3)
@example(1.7976931348623157e308, 0, 2)
@example(0.1, 2**53 - 3, 3)
def test_multiples_are_the_products_a_map_would_make(cost, start, n):
    ks = range(start + 1, start + n + 1)
    lazy, products = _Multiples(cost, ks), tuple(map(mul, repeat(cost), ks))
    hexes = list(map(float.hex, products))
    assert len(lazy) == n
    assert list(map(float.hex, lazy)) == hexes
    # every index from -n, through [-1], to n - 1
    assert [float.hex(lazy[k]) for k in range(-n, n)] == hexes + hexes
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            lazy[index]


@settings(max_examples=300, deadline=None)
@given(drawn_runs())
def test_a_report_of_runs_is_the_report_of_its_rows(runs):
    rows = _expanded(runs)
    summary = _summary(runs)
    assert _bits(astuple(summary)) == _bits(frozen_summary(rows))
    report = RunReport("r", _Rows(runs), summary)
    # the renderers walk the runs; the frozen ones read the rows
    assert render_csv(report) == frozen_csv(report)
    assert render_json(report) == frozen_json(report)
    from_rows = RunReport("r", rows, summary)
    # a report built from rows keeps each row as a one-tick run
    assert [tuple(run) for run in from_rows.rows.runs] == [
        (row.t, row.env_behavior, row.sys_behavior, row.supply, row.fit, row.actions, row.mode,
         (row.cost,), (row.cum_cost,))
        for row in rows
    ]
    assert all(type(run) is _Run for run in from_rows.rows.runs)
    assert report == from_rows and from_rows == report and hash(report) == hash(from_rows)
    assert replace(report, rows=tuple(report.rows)) == report
    assert replace(from_rows, rows=list(rows)) == report
    assert render_csv(from_rows) == render_csv(report)
    assert render_json(from_rows) == render_json(report)
    assert RunReport("r", rows[:-1], summary) != report
