import itertools
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import behaviorfit.environment
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
from behaviorfit.environment import _LANES, _below

DATA = Path(__file__).parent / "data"
UNIVERSE = frozenset("12345")


# The scalar generator and trace draw as they were before the lane-parallel
# stream, kept verbatim as the reference the program must match draw for draw.
class _FrozenSplitMix64:
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / (1 << 53)


def _frozen_geometric(rng: _FrozenSplitMix64, mean: int) -> int:
    if mean <= 1:
        return 1
    p = 1.0 / mean
    u = rng.random()
    return int(math.floor(math.log1p(-u) / math.log1p(-p))) + 1


def _frozen_generate_trace(spec: TurbulenceSpec, universe: frozenset[str]) -> EnvironmentTrace:
    universe = frozenset(universe)
    rng = _FrozenSplitMix64(spec.seed)
    ordered = sorted(universe)
    figures = {f for f in ordered if rng.random() < 0.5}
    klass = BehaviorClass.PURPOSEFUL
    segments = []
    t = 0
    while t < spec.horizon:
        length = min(_frozen_geometric(rng, spec.mean_segment_len), spec.horizon - t)
        behavior = Behavior(klass, figures=frozenset(figures))
        segments.append(Segment(t, length, behavior))
        t += length
        if rng.random() < spec.class_walk:
            delta = -1 if rng.random() < 0.5 else 1
            klass = BehaviorClass(min(BehaviorClass.SOCIAL, max(BehaviorClass.RANDOM, klass + delta)))
        for f in ordered:
            if rng.random() < spec.figure_flip:
                figures.symmetric_difference_update({f})
    return EnvironmentTrace(tuple(segments), universe)


_seeds = st.one_of(st.sampled_from([-(2**70), -3, -1, 0, 1, 2**64 - 1, 2**64, 2**64 + 7, 2**130]), st.integers())
_probabilities = st.one_of(
    st.sampled_from([0.0, 5e-324, 2**-53, math.nextafter(0.5, 0), 0.5, math.nextafter(1, 0), 1.0]),
    st.floats(0.0, 1.0),
)


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

    @settings(max_examples=200, deadline=None)
    @given(_seeds, st.integers(1, 3 * _LANES + 1))
    @example(2**64 + 5, 3 * _LANES + 1)
    def test_the_block_stream_is_the_scalar_recurrence(self, seed, n):
        # 3 * _LANES + 1 draws cross two block boundaries into a fourth block
        frozen, rng = _FrozenSplitMix64(seed), SplitMix64(seed)
        expected = [frozen.next_u64() for _ in range(n)]
        assert [rng.next_u64() for _ in range(n)] == expected
        assert SplitMix64(seed).random() == (expected[0] >> 11) / 2**53

    @settings(max_examples=300, deadline=None)
    @given(_probabilities, st.integers(0, 2**64 - 1), st.sampled_from([-1, 0, 1, None]))
    def test_below_is_the_exact_threshold_of_random(self, p, z, near):
        # z is drawn at random, or next to the threshold (or at 2^64 - 1 for None)
        threshold = _below(p)
        if near is None:
            z = 2**64 - 1
        elif 0 <= threshold + near < 2**64:
            z = threshold + near
        assert (z < threshold) == ((z >> 11) / 2**53 < p)

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2**-53, math.nextafter(0.5, 0), 0.5, math.nextafter(1, 0), 1.0])
    def test_below_at_the_edges(self, p):
        threshold = _below(p)
        for z in (0, threshold - 1, threshold, threshold + 1, 2**64 - 1):
            if 0 <= z < 2**64:
                assert (z < threshold) == ((z >> 11) / 2**53 < p)


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

    @settings(max_examples=300, deadline=None)
    @given(
        _seeds,
        st.integers(0, 12),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        st.integers(1, 50),
        st.data(),
    )
    def test_the_same_traces_as_the_scalar_draw(self, seed, n, class_walk, figure_flip, mean, data):
        horizon = data.draw(st.integers(mean, 400))
        spec = TurbulenceSpec(seed, class_walk, figure_flip, mean, horizon)
        universe = frozenset(f"x{i}" for i in range(n))
        trace, expected = generate_trace(spec, universe), _frozen_generate_trace(spec, universe)
        assert trace == expected
        # == alone cannot tell a frozenset of figures from a set; hash can
        assert hash(trace) == hash(expected)
        assert format_trace(trace) == format_trace(expected)
        assert parse_trace(format_trace(trace)) == trace

    @staticmethod
    def _counted_draws(monkeypatch, spec):
        """Generate a trace over {a, b}, counting the draws it takes from
        its stream; returns (draws, segments)."""
        calls = []
        draws = behaviorfit.environment._draws
        monkeypatch.setattr(
            behaviorfit.environment, "_draws", lambda seed: (calls.append(1) or z for z in draws(seed))
        )
        segments = len(generate_trace(spec, frozenset("ab")).segments)
        return len(calls), segments

    @pytest.mark.parametrize("knob, figures, k", [("class_walk", "", 0), ("figure_flip", "a", 2)])
    def test_a_draw_on_its_threshold_does_not_fire(self, knob, figures, k):
        # at mean 1 the k-th draw tests ``knob`` (draws: one per figure, then
        # the walk, then one flip per figure; the other knob is 0). A draw
        # that is a multiple of 2^11 spells a probability whose threshold it
        # is exactly, and random() < p is false there
        def kth(seed):
            rng = _FrozenSplitMix64(seed)
            return [rng.next_u64() for _ in range(k + 1)][k]

        seed = next(s for s in itertools.count() if kth(s) % 2**11 == 0)
        p = kth(seed) / 2**64
        assert _below(p) == kth(seed)
        spec = TurbulenceSpec(seed, **{"class_walk": 0.0, "figure_flip": 0.0, knob: p}, mean_segment_len=1, horizon=2)
        assert generate_trace(spec, frozenset(figures)) == _frozen_generate_trace(spec, frozenset(figures))

    @pytest.mark.parametrize("mean, draws", [(1, 17), (2, 14)])
    def test_draw_order(self, monkeypatch, mean, draws):
        # one draw per figure for the initial set, then per segment one for
        # the length (none at mean 1), one for the class walk and one per
        # figure for flips; the walk never moves, so draws no direction
        spec = TurbulenceSpec(seed=3, class_walk=0, figure_flip=0, mean_segment_len=mean, horizon=5)
        calls, segments = self._counted_draws(monkeypatch, spec)
        assert calls == draws == 2 + segments * (3 + (mean > 1))

    @pytest.mark.parametrize("mean, draws", [(1, 22), (2, 12)])
    def test_draw_order_with_a_walk_step_every_segment(self, monkeypatch, mean, draws):
        # as above, plus the direction the walk takes after every segment
        spec = TurbulenceSpec(seed=3, class_walk=1, figure_flip=0, mean_segment_len=mean, horizon=5)
        calls, segments = self._counted_draws(monkeypatch, spec)
        assert calls == draws == 2 + segments * (4 + (mean > 1))

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
