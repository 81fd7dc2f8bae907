"""Operative-mode sensor selection for a network of simple sensing nodes.

An awareness level derived from how many critical figures are currently
active picks the operating point between energy-saving-first and
safety-first; a greedy weighted set cover then activates the cheapest
sensors that reach the required coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SAFETY_THRESHOLD",
    "OperativeMode",
    "SensorNode",
    "awareness_mode",
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


def select_sensors(
    active: Iterable[str],
    sensors: Sequence[SensorNode],
    mode: OperativeMode,
    critical: Iterable[str] = (),
) -> set[str]:
    """Ids of the sensors to activate.

    Greedy weighted set cover: repeatedly pick the sensor with the best
    newly-covered-figures-per-energy ratio (ties to the lower id) until
    the required coverage is met or no sensor can still contribute. The
    result covers the requirement whenever any subset of sensors does;
    unreachable figures are left uncovered (best effort). Sensor ids must
    be unique, as ``validate_scenario`` demands: a chosen sensor is skipped
    only because its coverage has left the requirement.
    """
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
