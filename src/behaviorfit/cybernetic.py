"""Cybernetic classes: the five-organ behavior tuple of an adaptive system.

The organs follow the MAPE-K loop: monitor, analyze, plan, execute,
knowledge. Any organ may be absent. Textual form is a parenthesized
5-tuple of behavior terms, ``none`` for an absent organ, e.g.
``(pur, pro^1, pur, pur, none)``.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from enum import Enum

from .behavior import Behavior, BehaviorClass, BehaviorSyntaxError, format_behavior, parse_behavior, precedes

__all__ = [
    "ORGAN_NAMES",
    "CyberneticClass",
    "Dominance",
    "compare_organs",
    "dominates",
    "format_class",
    "organ_relation",
    "parse_class",
]

ORGAN_NAMES = ("monitor", "analyze", "plan", "execute", "knowledge")


@dataclass(frozen=True)
class CyberneticClass:
    """Behaviors of the five adaptation organs; None marks an absent organ."""

    monitor: Behavior | None = None
    analyze: Behavior | None = None
    plan: Behavior | None = None
    execute: Behavior | None = None
    knowledge: Behavior | None = None

    def organs(self) -> tuple[Behavior | None, ...]:
        return (self.monitor, self.analyze, self.plan, self.execute, self.knowledge)

    def __str__(self) -> str:
        return format_class(self)


class Dominance(Enum):
    FIRST = "first"
    SECOND = "second"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def organ_relation(o1: Behavior | None, o2: Behavior | None) -> str:
    """Compare two organ slots: 'lt', 'eq', 'gt' or 'incomparable'.

    An absent organ is strictly below any present behavior and equal only
    to an absent one.
    """
    if o1 == o2:
        return "eq"
    if o1 is None:
        return "lt"
    if o2 is None:
        return "gt"
    if precedes(o1, o2):
        return "lt"
    if precedes(o2, o1):
        return "gt"
    return "incomparable"


def compare_organs(c1: CyberneticClass, c2: CyberneticClass) -> dict[str, str]:
    """Per-organ relations between two classes, keyed by organ name."""
    return {
        name: organ_relation(o1, o2)
        for name, o1, o2 in zip(ORGAN_NAMES, c1.organs(), c2.organs())
    }


def dominates(c1: CyberneticClass, c2: CyberneticClass) -> Dominance:
    """Organ-wise (product order) comparison of two cybernetic classes.

    SECOND means every organ of ``c2`` is at least the matching organ of
    ``c1`` with at least one strictly above; FIRST is the mirror image;
    EQUAL means all organs equal; anything else is INCOMPARABLE.
    """
    relations = set(compare_organs(c1, c2).values())
    if "incomparable" in relations or {"lt", "gt"} <= relations:
        return Dominance.INCOMPARABLE
    if "lt" in relations:
        return Dominance.SECOND
    if "gt" in relations:
        return Dominance.FIRST
    return Dominance.EQUAL


def parse_class(text: str) -> CyberneticClass:
    """Parse a 5-tuple such as ``(pur, pro^1, pur, pur, none)``.

    Monitor and execute organs are normally purposeful; other classes in
    those slots are accepted with a warning.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise BehaviorSyntaxError(f"class tuple must be parenthesized: {text!r}")
    # top-level commas only: a comma inside a figure set has a '}' ahead of any '{'
    parts = re.split(r",(?![^{}]*})", s[1:-1])
    if len(parts) != len(ORGAN_NAMES):
        raise BehaviorSyntaxError(
            f"class tuple needs {len(ORGAN_NAMES)} organs, got {len(parts)}: {text!r}"
        )
    organs: list[Behavior | None] = []
    for name, part in zip(ORGAN_NAMES, parts):
        term = part.strip()
        if term == "none":
            organs.append(None)
            continue
        try:
            organs.append(parse_behavior(term))
        except BehaviorSyntaxError as exc:
            raise BehaviorSyntaxError(f"organ {name}: {exc}") from None
    for name, organ in zip(("monitor", "execute"), (organs[0], organs[3])):
        if organ is not None and organ.klass is not BehaviorClass.PURPOSEFUL:
            warnings.warn(
                f"{name} organ is {format_behavior(organ)!r}; monitor and execute "
                "organs are normally purposeful",
                stacklevel=2,
            )
    return CyberneticClass(*organs)


def format_class(c: CyberneticClass) -> str:
    """Canonical text for a class tuple; round-trips through parse_class."""
    terms = (format_behavior(o) if o is not None else "none" for o in c.organs())
    return "(" + ", ".join(terms) + ")"
