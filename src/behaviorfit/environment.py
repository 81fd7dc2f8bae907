"""Environment turbulence: piecewise-constant behavior traces over ticks.

A trace is a contiguous sequence of segments starting at tick 0, each
holding the environment behavior for its duration. Environment behaviors
always name the figures they affect (a figure set, possibly empty).

A trace, segment or behavior built by hand is checked by its constructor.
``generate_trace`` and ``parse_trace`` check once, as they build:
generated values are valid by construction and each parsed line is
checked as it is read, so both build their objects through ``_built``,
which runs no ``__post_init__``.

Trace text format, ingested and emitted by the CLI::

    # comment
    universe: 1,2,3,4,5
    0 10 pur{1,2,3,4}
    10 10 pur{1,4}
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from itertools import chain, count
from operator import attrgetter
from typing import Iterator

from .behavior import Behavior, BehaviorClass, _ascii_number, format_behavior, parse_behavior, parse_figures

__all__ = [
    "EnvironmentTrace",
    "Segment",
    "SplitMix64",
    "TurbulenceSpec",
    "fig2_trace",
    "format_trace",
    "generate_trace",
    "parse_trace",
]


@dataclass(frozen=True)
class Segment:
    start: int
    duration: int
    behavior: Behavior

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ValueError(f"segment duration must be >= 1, got {self.duration}")
        if self.behavior.figures is None:
            raise ValueError("environment behaviors must name their figures")

    @property
    def end(self) -> int:
        return self.start + self.duration


def _built(cls, **fields):
    """A ``cls`` holding ``fields``, built without its ``__post_init__``
    checks: only for values already known to pass them."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _check_next_segment(seg: Segment, expected: int, universe: frozenset[str]) -> None:
    """Raise ValueError unless ``seg`` starts at ``expected`` and names only
    figures of ``universe``."""
    if seg.start != expected:
        raise ValueError(f"segments must be contiguous from 0; expected start {expected}, got {seg.start}")
    if not seg.behavior.figures <= universe:
        extra = sorted(seg.behavior.figures - universe)
        raise ValueError(f"segment at {seg.start} references figures outside universe: {extra}")


_NO_SEGMENTS = "trace needs at least one segment"


@dataclass(frozen=True)
class EnvironmentTrace:
    """Contiguous, non-overlapping segments from tick 0, over a figure universe."""

    segments: tuple[Segment, ...]
    universe: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "universe", frozenset(self.universe))
        if not self.segments:
            raise ValueError(_NO_SEGMENTS)
        expected = 0
        for seg in self.segments:
            _check_next_segment(seg, expected, self.universe)
            expected = seg.end

    @property
    def horizon(self) -> int:
        return self.segments[-1].end

    def behavior_at(self, t: int) -> Behavior:
        """Environment behavior at tick ``t``; raises IndexError out of range."""
        if not 0 <= t < self.horizon:
            raise IndexError(f"tick {t} outside trace range [0, {self.horizon})")
        i = bisect.bisect_right(self.segments, t, key=attrgetter("start")) - 1
        return self.segments[i].behavior


def fig2_trace() -> EnvironmentTrace:
    """The worked five-segment example trace, the one
    ``scenarios/fig2.trace`` holds: purposeful behavior, ten ticks per
    segment, on the universe {1,...,5}."""
    return parse_trace(
        "universe: 1,2,3,4,5\n"
        "0 10 pur{1,2,3,4}\n"
        "10 10 pur{1,4}\n"
        "20 10 pur{4}\n"
        "30 10 pur{1,2,3,4}\n"
        "40 10 pur{1,2,3,4,5}\n"
    )


_LANES = 256
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
# lane i of a block is bits [128 i, 128 i + 64) of one int; the upper 64
# bits of every lane stay zero, so no carry and no 64 x 64-bit product
# reaches the next lane
_ONES = sum(1 << (128 * i) for i in range(_LANES))
_LANE_MASK = _MASK * _ONES
_STEPS = sum((((i + 1) * _GAMMA) & _MASK) << (128 * i) for i in range(_LANES))
_UNPACK = struct.Struct("<" + "Q8x" * _LANES).unpack


def _block(state: int) -> tuple[int, ...]:
    """The next ``_LANES`` outputs of the generator whose state is
    ``state`` mod 2^64."""
    z = ((state & _MASK) * _ONES + _STEPS) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    # the last shift leaves the next lane's low bits in a lane's upper 64
    # bits, which the unpack skips
    return _UNPACK((z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))


def _draws(seed: int) -> Iterator[int]:
    """The endless stream of 64-bit outputs for ``seed``, taken mod 2^64."""
    return chain.from_iterable(map(_block, count(seed, _LANES * _GAMMA)))


class SplitMix64:
    """Tiny portable RNG so generated traces are bit-stable everywhere.

    State advances by the 64-bit recurrence
    ``s += 0x9E3779B97F4A7C15``; each output mixes the new state with
    ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64). The outputs
    are computed ``_LANES`` at a time, one lane per state, in one packed
    int and unpacked little-endian, so they are the recurrence's numbers
    on every platform. ``generate_trace`` draws segment lengths by ``random``.
    """

    def __init__(self, seed: int):
        self.next_u64 = _draws(seed).__next__

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / (1 << 53)


@dataclass(frozen=True)
class TurbulenceSpec:
    """Knobs for the seeded trace generator."""

    seed: int
    class_walk: float = 0.2
    figure_flip: float = 0.15
    mean_segment_len: int = 10
    horizon: int = 100

    def __post_init__(self):
        if not 0.0 <= self.class_walk <= 1.0:
            raise ValueError(f"class_walk must be in [0, 1], got {self.class_walk}")
        if not 0.0 <= self.figure_flip <= 1.0:
            raise ValueError(f"figure_flip must be in [0, 1], got {self.figure_flip}")
        if self.mean_segment_len < 1:
            raise ValueError(f"mean_segment_len must be >= 1, got {self.mean_segment_len}")
        if self.horizon < self.mean_segment_len:
            raise ValueError("horizon must be at least mean_segment_len")


def _below(p: float) -> int:
    """The draws ``z`` with ``SplitMix64.random() < p`` are exactly the
    ``z < _below(p)``: ``(z >> 11) / 2**53`` and ``p * 2**53`` are exact,
    and an integer is below a real number iff it is below its ceiling."""
    return math.ceil(p * (1 << 53)) << 11


def generate_trace(spec: TurbulenceSpec, universe: frozenset[str]) -> EnvironmentTrace:
    """Deterministic turbulence trace for the given seed and universe.

    Draw order is fixed: first one uniform per figure (lexicographic
    order, inclusion at probability one half) for the initial set; then
    per segment one ``SplitMix64.random`` uniform for the length
    (geometric with the configured mean, truncated at the horizon; none at
    mean 1, where every segment lasts one tick), one uniform for the lazy
    class walk (and one more for its +/-1 direction, clamped to the class
    range), and one uniform per figure for membership flips. The first
    segment starts purposeful. A draw other than the length's is tested
    against a probability as an exact integer threshold on the 64-bit
    output.
    """
    universe = frozenset(universe)
    rng = SplitMix64(spec.seed)
    draw, uniform = rng.next_u64, rng.random
    ordered = sorted(universe)
    half, walk, flip = _below(0.5), _below(spec.class_walk), _below(spec.figure_flip)
    figures = {f for f in ordered if draw() < half}
    mean, horizon = spec.mean_segment_len, spec.horizon
    log_q = math.log1p(-1.0 / mean) if mean > 1 else None
    klass = BehaviorClass.PURPOSEFUL
    segments = []
    t = 0
    while t < horizon:
        if log_q is None:
            length = 1
        else:
            length = min(math.floor(math.log1p(-uniform()) / log_q) + 1, horizon - t)
        behavior = _built(Behavior, klass=klass, figures=frozenset(figures), arity=None)
        segments.append(_built(Segment, start=t, duration=length, behavior=behavior))
        t += length
        if draw() < walk:
            delta = -1 if draw() < half else 1
            klass = BehaviorClass(min(BehaviorClass.SOCIAL, max(BehaviorClass.RANDOM, klass + delta)))
        figures.symmetric_difference_update([f for f in ordered if draw() < flip])
    return _built(EnvironmentTrace, segments=tuple(segments), universe=universe)


def parse_trace(text: str) -> EnvironmentTrace:
    """Parse the line-oriented trace format (see module docstring); an
    error in a line, a gap or a figure outside the header included, names
    that line."""
    universe: frozenset[str] | None = None
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("universe:"):
                if universe is not None:
                    raise ValueError("duplicate universe header")
                universe = parse_figures(line.removeprefix("universe:"))
            elif universe is None:
                raise ValueError("universe header must come first")
            else:
                fields = line.split(None, 2)
                if len(fields) != 3:
                    raise ValueError(f"expected 'start duration behavior', got {raw!r}")
                start, duration = (_ascii_number(n, int) for n in fields[:2])
                segment = Segment(start, duration, parse_behavior(fields[2]))
                _check_next_segment(segment, segments[-1].end if segments else 0, universe)
                segments.append(segment)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if universe is None:
        raise ValueError("trace text has no universe header")
    if not segments:
        raise ValueError(_NO_SEGMENTS)
    return _built(EnvironmentTrace, segments=tuple(segments), universe=universe)


def format_trace(trace: EnvironmentTrace) -> str:
    """Canonical trace text; round-trips through parse_trace."""
    lines = ["universe: " + ",".join(sorted(trace.universe))]
    lines.extend(
        f"{seg.start} {seg.duration} {format_behavior(seg.behavior)}" for seg in trace.segments
    )
    return "\n".join(lines) + "\n"
