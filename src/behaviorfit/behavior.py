"""Behaviors, their strict partial order, and the behavior metric.

A behavior is one of five classes (random, purposeful, reactive, proactive,
social) plus an optional scope: either an explicit set of named context
figures, or a bare figure count (arity) when the figures are not named.

Textual grammar, used by config files and the CLI::

    ran | pur | rea | pro | soc        bare class
    pur{speed,luminosity}              class with named figures
    pro^2                              class with an arity

A figure is a token of ``[A-Za-z0-9_.-]+``. Whitespace around figures is
ignored; blank items (``pur{1,}``) and unknown class tokens are errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "Behavior",
    "BehaviorClass",
    "BehaviorSyntaxError",
    "class_rank",
    "comparable",
    "distance",
    "format_behavior",
    "godel_number",
    "parse_behavior",
    "parse_figures",
    "precedes",
]

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LN5 = math.log(5.0)


class BehaviorClass(IntEnum):
    """The five behavior classes. Each member is its rank, so classes
    compare and subtract as integers."""

    RANDOM = 1
    PURPOSEFUL = 2
    REACTIVE = 3
    PROACTIVE = 4
    SOCIAL = 5


# A class's token is the first three letters of its name: ran, pur, rea, pro, soc.
_CLASS_TOKEN = {cls: cls.name[:3].lower() for cls in BehaviorClass}
_TOKEN_CLASS = {token: cls for cls, token in _CLASS_TOKEN.items()}

_FIGURE_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class BehaviorSyntaxError(ValueError):
    """Raised when a behavior (or class tuple) term does not parse."""


@dataclass(frozen=True)
class Behavior:
    """A behavior class with an optional scope.

    At most one of ``figures`` and ``arity`` may be given. ``figures``
    names the context figures the behavior considers; ``arity`` only
    counts them. A behavior with neither is unscoped.
    """

    klass: BehaviorClass
    figures: frozenset[str] | None = None
    arity: int | None = None

    def __post_init__(self):
        if not isinstance(self.klass, BehaviorClass):
            raise TypeError(f"klass must be a BehaviorClass, got {self.klass!r}")
        if self.figures is not None and self.arity is not None:
            raise ValueError("a behavior cannot carry both a figure set and an arity")
        if self.arity is not None and self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.figures is not None and not isinstance(self.figures, frozenset):
            object.__setattr__(self, "figures", frozenset(self.figures))

    @property
    def effective_order(self) -> int | None:
        """Number of context figures in scope, or None if the scope is silent."""
        if self.arity is not None:
            return self.arity
        if self.figures is not None:
            return len(self.figures)
        return None

    def __str__(self) -> str:
        return format_behavior(self)


def class_rank(value: Behavior | BehaviorClass) -> int:
    """Rank of a behavior class, 1 (random) through 5 (social)."""
    return int(value.klass if isinstance(value, Behavior) else value)


def precedes(b1: Behavior, b2: Behavior) -> bool:
    """Strict partial order: is ``b1`` a strictly weaker behavior than ``b2``?

    Holds iff any of:

    1. the class of ``b1`` ranks strictly below the class of ``b2``;
    2. same class, both scopes name their figures, and ``b1``'s set is a
       proper subset of ``b2``'s;
    3. both proactive with defined figure counts (an arity, or the size of
       a named set) and ``b1``'s count is strictly smaller.
    """
    if b1.klass is not b2.klass:
        return b1.klass < b2.klass
    if b1.figures is not None and b2.figures is not None and b1.figures < b2.figures:
        return True
    if b1.klass is BehaviorClass.PROACTIVE:
        n, m = b1.effective_order, b2.effective_order
        if n is not None and m is not None and n < m:
            return True
    return False


def comparable(b1: Behavior, b2: Behavior) -> bool:
    """True iff the two behaviors are equal or ordered either way."""
    return b1 == b2 or precedes(b1, b2) or precedes(b2, b1)


def _exponents(b1: Behavior, b2: Behavior) -> tuple[int, int, int]:
    # Named-figure axis: symmetric difference between sets; a named set
    # against a set-less scope counts its size plus one, so distinct scopes
    # never collapse to distance zero (pur{} stays apart from bare pur).
    if b1.figures is not None and b2.figures is not None:
        figs = len(b1.figures ^ b2.figures)
    elif b1.figures is not None:
        figs = len(b1.figures) + 1
    elif b2.figures is not None:
        figs = len(b2.figures) + 1
    else:
        figs = 0
    # Arity axis: declared counts only; named sets live on the figure axis.
    arity = abs((b1.arity or 0) - (b2.arity or 0))
    return abs(b1.klass - b2.klass), figs, arity


def distance(b1: Behavior, b2: Behavior) -> float:
    """Metric distance between two behaviors.

    Three independent difference counts are weighted by the logarithms of
    the first three primes: class-rank difference times ln 2, named-figure
    difference times ln 3, declared-arity difference times ln 5. Each count
    is an L1-style difference on its own axis, so symmetry and the triangle
    inequality hold, and the distance is zero exactly for equal behaviors.
    ``exp(distance)`` is the integer 2^a * 3^b * 5^c (see godel_number).
    """
    a, b, c = _exponents(b1, b2)
    return a * LN2 + b * LN3 + c * LN5


def godel_number(b1: Behavior, b2: Behavior) -> int:
    """Integer encoding of the pair's differences, 2^a * 3^b * 5^c."""
    a, b, c = _exponents(b1, b2)
    return 2**a * 3**b * 5**c


def parse_behavior(text: str) -> Behavior:
    """Parse a behavior term such as ``pur``, ``pro^2`` or ``pur{1,4}``."""
    s = text.strip()
    token, rest = s[:3], s[3:].strip()
    klass = _TOKEN_CLASS.get(token)
    if klass is None:
        raise BehaviorSyntaxError(f"unknown behavior class in {text!r}")
    if not rest:
        return Behavior(klass)
    if rest.startswith("^"):
        digits = rest[1:].strip()
        if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
            raise BehaviorSyntaxError(f"bad arity in {text!r}")
        return Behavior(klass, arity=int(digits))
    if rest.startswith("{") and rest.endswith("}"):
        return Behavior(klass, figures=parse_figures(rest))
    raise BehaviorSyntaxError(f"malformed behavior term {text!r}")


def parse_figures(text: str) -> frozenset[str]:
    """Parse a figure set such as ``1,4`` or ``{1,4}``: braces are optional,
    and an empty string or ``{}`` is the empty set."""
    inner = text.strip()
    if inner.startswith("{") and inner.endswith("}"):
        inner = inner[1:-1].strip()
    if not inner:
        return frozenset()
    figures = [raw.strip() for raw in inner.split(",")]
    for fig in figures:
        if not _FIGURE_RE.match(fig):
            raise BehaviorSyntaxError(f"bad figure token {fig!r} in {text.strip()!r}")
    return frozenset(figures)


def format_behavior(b: Behavior) -> str:
    """Canonical text for a behavior; round-trips through parse_behavior."""
    token = _CLASS_TOKEN[b.klass]
    if b.figures is not None:
        return token + "{" + ",".join(sorted(b.figures)) + "}"
    if b.arity is not None:
        return f"{token}^{b.arity}"
    return token
