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
    greedy_cover,
    required_coverage,
    select_sensors,
)


def _union(sensors) -> frozenset[str]:
    return frozenset().union(*(s.coverage for s in sensors))


def exact_min_cost(sensors, required) -> float:
    """Energy of the cheapest set of sensors that covers every figure of
    ``required`` that some sensor covers, found by trying every subset."""
    assert len(sensors) <= 12, "2**n subsets"
    reachable = required & _union(sensors)
    return min(
        sum(s.energy_cost for s in combo)
        for r in range(len(sensors) + 1)
        for combo in itertools.combinations(sensors, r)
        if reachable <= _union(combo)
    )


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
        assert exact_min_cost([self.A, self.B, self.C], frozenset("13")) == 1.0
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
            covered = _union(by_id[i] for i in chosen)
            assert active & covered == active & _union(sensors)
            opt = exact_min_cost(sensors, active)
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


def _frozen_select_sensors(active, sensors, mode, critical=()):
    """``select_sensors`` as it was before ``greedy_cover``, a scan over
    frozensets that sorts the inventory on every call; the cover's
    reference."""
    remaining = set(required_coverage(active, critical, mode))
    chosen: set[str] = set()
    candidates = sorted(sensors, key=lambda s: s.id)
    while remaining:
        best = None
        best_gain = 0
        for sensor in candidates:
            gain = len(sensor.coverage & remaining)
            if gain == 0:
                continue
            # gain/cost > best_gain/best.cost, compared without division
            if best is None or gain * best.energy_cost > best_gain * sensor.energy_cost:
                best, best_gain = sensor, gain
        if best is None:
            break
        chosen.add(best.id)
        remaining -= best.coverage
    return chosen


_COVERED = "abcdef"
_ASKED = _COVERED + "xy"  # no sensor covers x or y
# Products of these with small gains round (3 * 0.1 > 0.3), so ratio ties
# and near-ties between sensors are common.
_COSTS = (0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 1.0, 1.5, 2.0)
_asked = st.frozensets(st.sampled_from(_ASKED))


@st.composite
def shuffled_inventories(draw, max_size: int = 10) -> list[SensorNode]:
    """Up to ``max_size`` sensors, listed out of id order ("s10" sorts
    before "s9"), sharing coverages drawn from a small pool."""
    numbers = draw(st.lists(st.integers(0, 99), unique=True, max_size=max_size))
    pool = draw(st.lists(st.frozensets(st.sampled_from(_COVERED), min_size=1), min_size=1, max_size=max_size))
    return [SensorNode(f"s{n}", draw(st.sampled_from(pool)), draw(st.sampled_from(_COSTS))) for n in numbers]


@settings(max_examples=400, deadline=None)
@given(shuffled_inventories(), st.lists(st.tuples(_asked, st.floats(0.0, 1.0), _asked), max_size=8))
@example([], [(frozenset("ax"), 1.0, frozenset())])
@example(
    [SensorNode("s9", "ab", 0.2), SensorNode("s10", "a", 0.1), SensorNode("s2", "b", 0.1)],
    [(frozenset("ab"), 1.0, frozenset()), (frozenset("ab"), 1.0, frozenset())],
)
@example([SensorNode("s1", "ab", 2.0), SensorNode("s0", "a", 1.0)], [(frozenset("ab"), 1.0, frozenset())])
def test_one_cover_answers_a_run_of_situations_as_the_frozen_scan(sensors, situations):
    cover = greedy_cover(sensors)
    answers = []
    for active, level, critical in situations:
        mode = OperativeMode(level)
        answer = cover(required_coverage(active, critical, mode))
        assert answer == _frozen_select_sensors(active, sensors, mode, critical)
        assert select_sensors(active, sensors, mode, critical) == answer
        answers.append(answer)
    # each answer is the caller's own set
    assert len({id(answer) for answer in answers}) == len(answers)


@settings(max_examples=150, deadline=None)
@given(shuffled_inventories(max_size=12), _asked)
def test_greedy_covers_the_reachable_requirement_within_h_d_of_the_optimum(sensors, required):
    chosen = greedy_cover(sensors)(required)
    assert required & _union(s for s in sensors if s.id in chosen) == required & _union(sensors)
    # Chvatal 1979: greedy pays at most H(d) times the cheapest cover, d the
    # largest number of required figures one sensor covers
    d = max((len(s.coverage & required) for s in sensors), default=0)
    h_d = sum(1 / k for k in range(1, d + 1))
    greedy_cost = sum(s.energy_cost for s in sensors if s.id in chosen)
    assert greedy_cost <= h_d * exact_min_cost(sensors, required) * (1 + 1e-9)


@settings(max_examples=400, deadline=None)
@given(shuffled_inventories(), _asked, st.data())
def test_ties_go_to_the_lower_id(sensors, required, data):
    answer = greedy_cover(sensors)(required)
    assert greedy_cover(data.draw(st.permutations(sensors)))(required) == answer
    if sensors:
        # "s5~" sorts after "s5" (and after "s50"), so it is the higher id
        original = data.draw(st.sampled_from(sensors))
        twin = replace(original, id=original.id + "~")
        with_twin = greedy_cover([*sensors, twin])(required)
        assert twin.id not in with_twin
        assert with_twin == answer
