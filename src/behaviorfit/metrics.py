"""Supply and system-environment fit.

Supply is the signed behavioral distance between a system and its
environment at an instant; fit maps supply to (0, 1] with 1 for a perfect
match and negative infinity for any shortfall.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .behavior import Behavior, _exponents, _weighted, precedes

__all__ = [
    "NEG_INFINITY",
    "FitVariant",
    "SupplyKind",
    "SupplyReport",
    "cost_adjusted_fit",
    "fit",
    "supply",
]

NEG_INFINITY = float("-inf")


class SupplyKind(Enum):
    PERFECT = "perfect"
    OVERSUPPLY = "oversupply"
    UNDERSUPPLY = "undersupply"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class SupplyReport:
    """Signed supply value plus its classification.

    value > 0 iff oversupply, value = 0 iff perfect, value < 0 for
    undersupply and for incomparable pairs.
    """

    value: float
    kind: SupplyKind

    def __post_init__(self):
        if self.kind is SupplyKind.PERFECT:
            consistent = self.value == 0
        elif self.kind is SupplyKind.OVERSUPPLY:
            consistent = self.value > 0
        else:
            consistent = self.value < 0
        if not consistent:
            raise ValueError(f"supply value {self.value} inconsistent with kind {self.kind.value}")


class FitVariant(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


def supply(system: Behavior, environment: Behavior) -> SupplyReport:
    """Supply of a system relative to its environment.

    Positive distance when the system behavior strictly exceeds the
    environment's, negative when it falls strictly short, zero when they
    match. Incomparable pairs are reported with their own kind but count
    as a shortfall (negative value): some environmental figures are not
    covered.

    Reports are immutable values, shared: the report for each distinct
    difference between the two behaviors (see ``godel_number``) and kind
    is built, and checked by its constructor, once.
    """
    if system == environment:
        kind = SupplyKind.PERFECT
    elif precedes(environment, system):
        kind = SupplyKind.OVERSUPPLY
    elif precedes(system, environment):
        kind = SupplyKind.UNDERSUPPLY
    else:
        kind = SupplyKind.INCOMPARABLE
    return _report(_exponents(system, environment), kind)


@cache
def _report(exponents: tuple[int, int, int], kind: SupplyKind) -> SupplyReport:
    # a perfect pair differs by nothing, so d is 0.0
    d = _weighted(exponents)
    return SupplyReport(d if kind in (SupplyKind.PERFECT, SupplyKind.OVERSUPPLY) else -d, kind)


def fit(report: SupplyReport, variant: FitVariant = FitVariant.LINEAR) -> float:
    """System-environment fit: 1 at perfect supply, decreasing with
    oversupply, negative infinity on any shortfall.

    The quadratic variant divides by 1 + supply squared instead of
    1 + supply.
    """
    s = report.value
    if s < 0:
        return NEG_INFINITY
    if variant is FitVariant.QUADRATIC:
        return 1.0 / (1.0 + s * s)
    return 1.0 / (1.0 + s)


def cost_adjusted_fit(fit_value: float, cost: float, weight: float) -> float:
    """Fit minus a linear cost penalty; negative infinity propagates."""
    if fit_value == NEG_INFINITY:
        return NEG_INFINITY
    return fit_value - weight * cost
