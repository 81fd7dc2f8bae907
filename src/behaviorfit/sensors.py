"""Operative-mode sensor selection for a network of simple sensing nodes.

An awareness level derived from how many critical figures are currently
active picks the operating point between energy-saving-first and
safety-first; a greedy weighted set cover then activates the cheapest
sensors that reach the required coverage. ``greedy_cover`` builds that
cover once per inventory, with each sensor's coverage as an ``int`` mask,
and a run asks it once per distinct requirement; ``select_sensors`` is
the one-shot form of the same cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "SAFETY_THRESHOLD",
    "OperativeMode",
    "SensorNode",
    "awareness_mode",
    "greedy_cover",
    "required_coverage",
    "select_sensors",
]

SAFETY_THRESHOLD = 0.5


@dataclass(frozen=True)
class SensorNode:
    id: str
    coverage: frozenset[str]
    energy_cost: float

    def __post_init__(self):
        object.__setattr__(self, "coverage", frozenset(self.coverage))
        if not self.coverage:
            raise ValueError(f"sensor {self.id!r} covers no figures")
        if not 0 < self.energy_cost < math.inf:
            raise ValueError(f"expected a finite positive energy cost for sensor {self.id!r}")


@dataclass(frozen=True)
class OperativeMode:
    """Operating point in [0, 1]: 0 is energy-saving-first, 1 is safety-first."""

    level: float

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"mode level must be in [0, 1], got {self.level}")


def awareness_mode(active: Iterable[str], critical: Iterable[str]) -> OperativeMode:
    """Criticality of the current situation: the fraction of critical
    figures that are active."""
    active, critical = frozenset(active), frozenset(critical)
    return OperativeMode(len(active & critical) / max(1, len(critical)))


def required_coverage(
    active: Iterable[str], critical: Iterable[str], mode: OperativeMode
) -> frozenset[str]:
    """Figures the selection must cover: everything active in safety-first
    operation, only the active critical ones when saving energy."""
    active = frozenset(active)
    if mode.level >= SAFETY_THRESHOLD:
        return active
    return active & frozenset(critical)


def greedy_cover(sensors: Sequence[SensorNode]) -> Callable[[Iterable[str]], set[str]]:
    """Greedy weighted set cover over ``sensors``, built once for many
    requirements: returns a function from the required figures to a fresh
    set of the ids of the sensors to activate.

    Each round picks the sensor with the best newly-covered-figures-per-
    energy ratio (ties to the lower id) until the requirement is met. Its
    cost is at most H(d) times the cheapest cover's, where d is the largest
    number of required figures one sensor covers (Chvatal 1979). Figures
    that no sensor covers are dropped up front, so the result covers every
    coverable required figure (best effort). Sensor ids must be unique, as
    ``validate_scenario`` demands.

    The figures are numbered once and each coverage is an ``int`` mask, so
    a round costs one ``&`` and one ``bit_count`` per sensor; a sensor whose
    gain has reached 0 can never gain again and leaves later rounds.
    """
    figures = frozenset().union(*(s.coverage for s in sensors))
    bit = {figure: 1 << i for i, figure in enumerate(figures)}
    entries = [
        (s.id, sum(map(bit.__getitem__, s.coverage)), s.energy_cost)
        for s in sorted(sensors, key=lambda s: s.id)
    ]

    def cover(required: Iterable[str]) -> set[str]:
        remaining = 0
        for figure in required:
            remaining |= bit.get(figure, 0)
        chosen: set[str] = set()
        live = entries
        while remaining:
            # the first sensor with a gain wins against (0, 1.0)
            best_gain, best_cost = 0, 1.0
            still = []
            for entry in live:
                sensor_id, mask, cost = entry
                gain = (mask & remaining).bit_count()
                if gain:
                    still.append(entry)
                    # gain/cost > best_gain/best_cost, compared without division
                    if gain * best_cost > best_gain * cost:
                        best_id, best_mask, best_gain, best_cost = sensor_id, mask, gain, cost
            chosen.add(best_id)
            remaining &= ~best_mask
            live = still
        return chosen

    return cover


def select_sensors(
    active: Iterable[str],
    sensors: Sequence[SensorNode],
    mode: OperativeMode,
    critical: Iterable[str] = (),
) -> set[str]:
    """Ids of the sensors to activate for one situation: ``greedy_cover``
    of the figures ``required_coverage`` asks for. A run that selects many
    times builds the cover once instead."""
    return greedy_cover(sensors)(required_coverage(active, critical, mode))
