from pathlib import Path

import pytest

from behaviorfit import (
    Behavior,
    BehaviorClass,
    EnvironmentTrace,
    Segment,
    SplitMix64,
    TurbulenceSpec,
    fig2_trace,
    format_trace,
    generate_trace,
    parse_trace,
    parse_behavior as b,
)

DATA = Path(__file__).parent / "data"
UNIVERSE = frozenset("12345")


class TestTraceStructure:
    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="contiguous"):
            EnvironmentTrace(
                (Segment(0, 5, b("pur{1}")), Segment(6, 5, b("pur{1}"))), frozenset("1")
            )

    def test_rejects_figures_outside_universe(self):
        with pytest.raises(ValueError, match="outside universe"):
            EnvironmentTrace((Segment(0, 5, b("pur{9}")),), frozenset("1"))

    def test_rejects_unscoped_environment_behavior(self):
        with pytest.raises(ValueError, match="name their figures"):
            Segment(0, 5, b("pur"))

    def test_stores_a_tuple_and_a_frozenset(self):
        trace = EnvironmentTrace([Segment(0, 2, b("pur{1}"))], {"1", "2"})
        assert type(trace.segments) is tuple and trace.segments == (Segment(0, 2, b("pur{1}")),)
        assert type(trace.universe) is frozenset and trace.universe == frozenset("12")

    def test_behavior_at(self):
        trace = EnvironmentTrace(
            (Segment(0, 2, b("pur{1}")), Segment(2, 3, b("pur{2}"))), frozenset("12")
        )
        assert [trace.behavior_at(t) for t in range(5)] == [b("pur{1}")] * 2 + [b("pur{2}")] * 3

    def test_behavior_at_out_of_range(self):
        trace = EnvironmentTrace((Segment(0, 2, b("pur{1}")),), frozenset("1"))
        with pytest.raises(IndexError):
            trace.behavior_at(2)
        with pytest.raises(IndexError):
            trace.behavior_at(-1)


class TestFig2Trace:
    def test_segment_figures(self):
        trace = fig2_trace()
        sets = [sorted(seg.behavior.figures) for seg in trace.segments]
        assert sets == [
            ["1", "2", "3", "4"],
            ["1", "4"],
            ["4"],
            ["1", "2", "3", "4"],
            ["1", "2", "3", "4", "5"],
        ]

    def test_first_and_fourth_segments_match(self):
        trace = fig2_trace()
        assert trace.segments[0].behavior == trace.segments[3].behavior

    def test_all_purposeful_ten_ticks_each(self):
        trace = fig2_trace()
        assert all(seg.behavior.klass is BehaviorClass.PURPOSEFUL for seg in trace.segments)
        assert all(seg.duration == 10 for seg in trace.segments)
        assert trace.horizon == 50


class TestSplitMix64:
    def test_known_first_outputs(self):
        # reference values for seed 1234567 from the published recurrence
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_unit_interval(self):
        rng = SplitMix64(7)
        samples = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in samples)


class TestGenerateTrace:
    def test_deterministic(self):
        spec = TurbulenceSpec(seed=42)
        assert generate_trace(spec, UNIVERSE) == generate_trace(spec, UNIVERSE)

    def test_degenerate_probabilities_give_constant_trace(self):
        spec = TurbulenceSpec(seed=9, class_walk=0.0, figure_flip=0.0)
        trace = generate_trace(spec, UNIVERSE)
        first = trace.segments[0].behavior
        assert all(seg.behavior == first for seg in trace.segments)

    def test_total_on_horizon(self):
        trace = generate_trace(TurbulenceSpec(seed=3, horizon=57), UNIVERSE)
        assert trace.horizon == 57
        for t in range(57):
            trace.behavior_at(t)

    def test_figures_within_universe(self):
        trace = generate_trace(TurbulenceSpec(seed=11, figure_flip=0.5), UNIVERSE)
        assert all(seg.behavior.figures <= UNIVERSE for seg in trace.segments)

    def test_golden_seed_42(self):
        golden = (DATA / "golden_trace_seed42.txt").read_text()
        assert format_trace(generate_trace(TurbulenceSpec(seed=42), UNIVERSE)) == golden

    @pytest.mark.parametrize("mean, draws", [(1, 17), (2, 14)])
    def test_draw_order(self, monkeypatch, mean, draws):
        # one draw per figure for the initial set, then per segment one for
        # the length (none at mean 1), one for the class walk and one per
        # figure for flips; the walk never moves, so draws no direction
        calls = []
        random = SplitMix64.random
        monkeypatch.setattr(SplitMix64, "random", lambda rng: calls.append(1) or random(rng))
        spec = TurbulenceSpec(seed=3, class_walk=0, figure_flip=0, mean_segment_len=mean, horizon=5)
        segments = len(generate_trace(spec, frozenset("ab")).segments)
        assert len(calls) == draws == 2 + segments * (3 + (mean > 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TurbulenceSpec(seed=1, class_walk=1.5)
        with pytest.raises(ValueError):
            TurbulenceSpec(seed=1, mean_segment_len=50, horizon=10)


class TestTraceText:
    def test_round_trip(self):
        trace = generate_trace(TurbulenceSpec(seed=5), UNIVERSE)
        assert parse_trace(format_trace(trace)) == trace

    def test_parse_with_comments(self):
        text = "# a trace\nuniverse: 1,2\n0 2 pur{1}\n\n2 1 pur{1,2}\n"
        trace = parse_trace(text)
        assert trace.universe == frozenset("12")
        assert trace.horizon == 3

    def test_missing_header(self):
        with pytest.raises(ValueError, match="universe header"):
            parse_trace("0 2 pur{1}\n")

    def test_bad_segment_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace("universe: 1\n0 pur{1}\n")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("universe: 1,2 3\n0 5 pur{1}\n", "line 1: bad figure token '2 3'"),
            ("universe: 1,,2\n0 5 pur{1}\n", "line 1: bad figure token ''"),
            ("universe: 1\n\n# c\n0 5 pur{a b}\n", "line 4: bad figure token 'a b'"),
            ("universe: 1\n0 0 pur{1}\n", "line 2: segment duration"),
            ("universe: 1\n0 x pur{1}\n", "line 2: invalid literal for int"),
            ("universe: 1\n0 5 pur^2\n", "line 2: environment behaviors must name"),
            ("universe: 1\nuniverse: 1\n", "line 2: duplicate universe header"),
            # checks over the whole trace name the segment's line too
            ("universe: 1\n0 5 pur{1}\n6 5 pur{1}\n", "line 3: segments must be contiguous from 0; expected start 5"),
            ("universe: 1\n# c\n1 5 pur{1}\n", "line 3: segments must be contiguous from 0; expected start 0"),
            ("universe: 1\n0 5 pur{1,2}\n", r"line 2: segment at 0 references figures outside universe: \['2'\]"),
        ],
    )
    def test_errors_name_the_trace_line(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_trace(text)

    def test_universe_header_takes_braces(self):
        assert parse_trace("universe: {1,2}\n0 1 pur{}\n").universe == frozenset("12")
