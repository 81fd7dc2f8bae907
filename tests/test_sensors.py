import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behaviorfit import (
    OperativeMode,
    SensorNode,
    awareness_mode,
    required_coverage,
    select_sensors,
)


def brute_force_min_energy(sensors, required):
    """Cheapest feasible subset by exhaustive enumeration, or None."""
    best = None
    for r in range(len(sensors) + 1):
        for combo in itertools.combinations(sensors, r):
            covered = frozenset().union(*(s.coverage for s in combo)) if combo else frozenset()
            if required <= covered:
                energy = sum(s.energy_cost for s in combo)
                if best is None or energy < best:
                    best = energy
    return best


class TestAwarenessMode:
    def test_nothing_critical_active(self):
        assert awareness_mode(frozenset("12"), frozenset("45")).level == 0.0

    def test_all_critical_active(self):
        assert awareness_mode(frozenset("1245"), frozenset("45")).level == 1.0

    def test_half(self):
        assert awareness_mode(frozenset("14"), frozenset("45")).level == 0.5

    def test_empty_critical_set(self):
        assert awareness_mode(frozenset("1"), frozenset()).level == 0.0

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            OperativeMode(1.5)


class TestRequiredCoverage:
    def test_safety_first_covers_everything(self):
        got = required_coverage(frozenset("123"), frozenset("3"), OperativeMode(1.0))
        assert got == frozenset("123")

    def test_energy_first_covers_active_critical_only(self):
        got = required_coverage(frozenset("123"), frozenset("34"), OperativeMode(0.0))
        assert got == frozenset("3")


class TestSelectSensors:
    A = SensorNode("A", frozenset("12"), 1.0)
    B = SensorNode("B", frozenset("23"), 1.0)
    C = SensorNode("C", frozenset("123"), 1.0)

    def test_single_sensor_beats_pairs(self):
        # brute force over all 8 subsets confirms C alone is optimal
        assert brute_force_min_energy([self.A, self.B, self.C], frozenset("13")) == 1.0
        assert select_sensors(frozenset("13"), [self.A, self.B, self.C], OperativeMode(1.0)) == {"C"}

    def test_nothing_active(self):
        assert select_sensors(frozenset(), [self.A, self.B, self.C], OperativeMode(1.0)) == set()

    def test_uncoverable_figure_best_effort(self):
        assert select_sensors(frozenset("5"), [self.A, self.B], OperativeMode(1.0)) == set()

    def test_partial_coverage_when_one_figure_unreachable(self):
        got = select_sensors(frozenset("15"), [self.A], OperativeMode(1.0))
        assert got == {"A"}

    def test_tie_breaks_to_lower_id(self):
        s1 = SensorNode("a", frozenset("1"), 1.0)
        s2 = SensorNode("b", frozenset("1"), 1.0)
        assert select_sensors(frozenset("1"), [s2, s1], OperativeMode(1.0)) == {"a"}

    def test_cheaper_ratio_wins(self):
        wide = SensorNode("wide", frozenset("123"), 6.0)
        narrow = SensorNode("narrow", frozenset("1"), 1.0)
        got = select_sensors(frozenset("1"), [wide, narrow], OperativeMode(1.0))
        assert got == {"narrow"}

    def test_energy_first_ignores_noncritical(self):
        sensors = [self.A, self.B, self.C]
        got = select_sensors(frozenset("12"), sensors, OperativeMode(0.0), critical=frozenset("2"))
        covered = frozenset().union(*(s.coverage for s in sensors if s.id in got))
        assert "2" in covered

    def test_greedy_against_brute_force_small_inventories(self):
        rng = random.Random(77)
        figures = "abcdef"
        for _ in range(60):
            sensors = []
            for i in range(rng.randint(1, 9)):
                size = rng.randint(1, 4)
                coverage = frozenset(rng.sample(figures, size))
                sensors.append(SensorNode(f"s{i:02d}", coverage, rng.uniform(0.5, 3.0)))
            active = frozenset(f for f in figures if rng.random() < 0.5)
            chosen = select_sensors(active, sensors, OperativeMode(1.0))
            by_id = {s.id: s for s in sensors}
            covered = frozenset().union(
                *(by_id[i].coverage for i in chosen)
            ) if chosen else frozenset()
            opt = brute_force_min_energy(sensors, active)
            if opt is None:
                assert not active <= covered or not active
                continue
            assert active <= covered
            greedy_energy = sum(by_id[i].energy_cost for i in chosen)
            d = max(len(s.coverage) for s in sensors)
            assert greedy_energy <= (1 + math.log(d)) * opt + 1e-9


FIGURES = "abcdef"
figure_sets = st.frozensets(st.sampled_from(FIGURES))


@st.composite
def inventories(draw) -> list[SensorNode]:
    # few distinct costs, so equal gain/cost ratios and the id tie-break occur
    coverages = st.frozensets(st.sampled_from(FIGURES), min_size=1)
    costs = st.sampled_from((0.5, 1.0, 1.5, 3.0))
    return [SensorNode(f"s{i}", draw(coverages), draw(costs)) for i in range(draw(st.integers(1, 6)))]


@settings(max_examples=300, deadline=None)
@given(figure_sets, figure_sets, st.floats(0.0, 1.0), inventories(), st.data())
def test_widening_a_sensor_never_leaves_more_figures_uncovered(active, critical, level, sensors, data):
    mode = OperativeMode(level)
    required = required_coverage(active, critical, mode)

    def uncovered(nodes: list[SensorNode]) -> frozenset[str]:
        chosen = select_sensors(active, nodes, mode, critical)
        covered = frozenset().union(*(s.coverage for s in nodes if s.id in chosen))
        # greedy leaves uncovered only what no sensor covers
        assert required - covered == required - frozenset().union(*(s.coverage for s in nodes))
        return required - covered

    i = data.draw(st.integers(0, len(sensors) - 1))
    wider = replace(sensors[i], coverage=sensors[i].coverage | data.draw(figure_sets))
    widened = [*sensors[:i], wider, *sensors[i + 1:]]
    assert uncovered(widened) <= uncovered(sensors)


class TestSensorNode:
    def test_rejects_empty_coverage(self):
        with pytest.raises(ValueError):
            SensorNode("x", frozenset(), 1.0)

    def test_rejects_free_sensors(self):
        with pytest.raises(ValueError):
            SensorNode("x", frozenset("1"), 0.0)

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_rejects_non_finite_energy_cost(self, cost):
        with pytest.raises(ValueError, match="expected a finite positive energy cost"):
            SensorNode("x", frozenset("1"), cost)


def _greedy_with_chosen_skip(active, sensors, mode, critical):
    """``select_sensors`` as it was first written, which also skipped a
    sensor once chosen."""
    remaining = set(required_coverage(active, critical, mode))
    chosen = set()
    candidates = sorted(sensors, key=lambda s: s.id)
    while remaining:
        best = None
        best_gain = 0
        for sensor in candidates:
            if sensor.id in chosen:
                continue
            gain = len(sensor.coverage & remaining)
            if gain == 0:
                continue
            if best is None or gain * best.energy_cost > best_gain * sensor.energy_cost:
                best, best_gain = sensor, gain
        if best is None:
            break
        chosen.add(best.id)
        remaining -= best.coverage
    return chosen


_FIGS = "abcdef"
# Few distinct costs, so gain-per-energy ties between sensors are common.
_inventories = st.lists(
    st.tuples(st.frozensets(st.sampled_from(_FIGS), min_size=1), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
    max_size=8,
).map(lambda specs: [SensorNode(f"s{i}", cov, cost) for i, (cov, cost) in enumerate(specs)])


@settings(max_examples=300, deadline=None)
@given(
    st.frozensets(st.sampled_from(_FIGS)),
    _inventories,
    st.floats(0.0, 1.0),
    st.frozensets(st.sampled_from(_FIGS)),
)
@example(frozenset("ab"), [SensorNode("s1", "ab", 2.0), SensorNode("s0", "a", 1.0)], 1.0, frozenset())
def test_greedy_matches_the_loop_with_a_chosen_skip(active, sensors, level, critical):
    mode = OperativeMode(level)
    expected = _greedy_with_chosen_skip(active, sensors, mode, critical)
    assert select_sensors(active, sensors, mode, critical) == expected
