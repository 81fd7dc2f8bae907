"""Scenario files: parsing, validation and the trace a scenario runs on.

The settings a scenario holds for its controller (``Capability``,
``CostModel`` and the predictors), ``scenario_trace`` and the worked
example ``fig2_scenario`` are defined here, so parsing, checking and
tracing a scenario load no controller and no simulator.

A scenario is a line-oriented ``key = value`` file describing one
simulation run. ``#`` starts a comment. Example::

    name = canary
    universe = 1,2,3,4,5
    turbulence.seed = 42
    turbulence.class_walk = 0
    turbulence.figure_flip = 0.1
    turbulence.mean_segment_len = 10
    turbulence.horizon = 100
    system.behavior = pur{1,2,3,4}
    controller.predictor = persistence
    controller.weight = 0.1
    costs.figure = 0.01
    costs.switch = 0.5
    capability.figures = 1,2,3,4
    capability.max_class = soc
    peers.canary.figures = 5

A fixed trace can be given instead of turbulence (``trace.file = path``,
resolved relative to the scenario file). Sensor scenarios replace the
controller keys with ``sensors.<id> = {figs} cost`` lines and an optional
``critical = {figs}`` set; a scenario may use a controller or sensors,
not both. The ``capability.*`` and ``peers.*`` keys and a non-zero
``controller.weight``, ``costs.borrow`` or ``costs.switch`` need
``controller.predictor``; sensors take no ``costs.*`` and no
``system.behavior`` but the unset ``pur{}``.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar, Mapping, get_type_hints

from .behavior import (
    _FIGURE_RE, _TOKEN_CLASS, _ascii_number, Behavior, BehaviorClass, parse_behavior, parse_figures,
)
from .environment import EnvironmentTrace, TurbulenceSpec, fig2_trace, generate_trace, parse_trace
from .metrics import FitVariant
from .sensors import SensorNode

__all__ = [
    "Capability",
    "CostModel",
    "Oracle",
    "Persistence",
    "Predictor",
    "Scenario",
    "ScenarioError",
    "WindowMajority",
    "fig2_scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_trace",
    "validate_scenario",
]


class ScenarioError(ValueError):
    """Raised for malformed scenario input or failed validation."""


@dataclass(frozen=True)
class Capability:
    """What a system can do: locally acquirable figures, a class ceiling,
    and per-peer borrowable figure sets."""

    universe: frozenset[str]
    max_class: BehaviorClass = BehaviorClass.SOCIAL
    peer_figures: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "universe", frozenset(self.universe))
        object.__setattr__(
            self, "peer_figures", {p: frozenset(figs) for p, figs in self.peer_figures.items()}
        )


@dataclass(frozen=True)
class CostModel:
    """Per-tick operating rates plus a one-off charge per adaptation action."""

    figure_cost: float = 0.0
    borrow_cost: float = 0.0
    class_cost: float = 0.0
    switch_cost: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"expected a finite non-negative {f.name}")


@dataclass(frozen=True)
class Persistence:
    """Predict that the last observed behavior continues."""

    window: ClassVar[int] = 1


@dataclass(frozen=True)
class WindowMajority:
    """Per-figure majority vote and modal class over the last ``window``
    observations. A tied figure is included; a tied class falls to the
    most recent observation holding the top count."""

    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class Oracle:
    """Perfect one-tick lookahead; only available in simulation."""

    window: ClassVar[int] = 0


Predictor = Persistence | WindowMajority | Oracle


_UNSET_BEHAVIOR = Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset())
_CONTROLLER_ONLY = "only a controller reads it; set controller.predictor"


@dataclass
class Scenario:
    """One simulation run."""

    name: str
    universe: frozenset[str]
    trace: EnvironmentTrace | None = None
    turbulence: TurbulenceSpec | None = None
    initial_behavior: Behavior = _UNSET_BEHAVIOR
    predictor: Predictor | None = None
    weight: float = 0.0
    capability: Capability | None = None
    costs: CostModel = field(default_factory=CostModel)
    variant: FitVariant = FitVariant.LINEAR
    sensors: tuple[SensorNode, ...] = ()
    critical: frozenset[str] = frozenset()


def _id(value: str) -> str:
    """A sensor or peer id, which follows the figure token rule."""
    if not _FIGURE_RE.match(value):
        raise ValueError(f"bad id {value!r}")
    return value


def _parse_predictor(value: str) -> Predictor:
    if value == "persistence":
        return Persistence()
    if value == "oracle":
        return Oracle()
    if value.startswith("majority:"):
        window = value.split(":", 1)[1]
        if not (window.isascii() and window.isdigit()):
            raise ValueError(f"majority window must be an integer, got {window!r}")
        return WindowMajority(int(window))
    raise ValueError(f"unknown predictor {value!r}")


_TURBULENCE_KEYS = {f"turbulence.{knob}": kind for knob, kind in get_type_hints(TurbulenceSpec).items()}


def parse_scenario(text: str, base_dir: str | Path = ".", name: str = "scenario") -> Scenario:
    """Parse and validate scenario text; raises ScenarioError naming line and key."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)

    turbulence: dict[str, float | int] = {}
    capability: dict = {}  # Capability's keyword arguments; its universe defaults to the scenario's
    scenario = Scenario(name=name, universe=frozenset())

    for key, (lineno, value) in entries.items():
        try:
            if key == "name":
                scenario.name = value
            elif key == "universe":
                scenario.universe = parse_figures(value)
            elif key == "trace.file":
                scenario.trace = parse_trace(_read_utf8(Path(base_dir) / value))
            elif key in _TURBULENCE_KEYS:
                turbulence[key.removeprefix("turbulence.")] = _ascii_number(value, _TURBULENCE_KEYS[key])
            elif key == "system.behavior":
                scenario.initial_behavior = parse_behavior(value)
            elif key == "controller.predictor":
                scenario.predictor = _parse_predictor(value)
            elif key == "controller.weight":
                scenario.weight = _ascii_number(value)
            elif key.startswith("costs."):
                cost = key.removeprefix("costs.") + "_cost"
                if cost not in {f.name for f in fields(CostModel)}:
                    raise ValueError(f"unknown cost {key!r}")
                scenario.costs = replace(scenario.costs, **{cost: _ascii_number(value)})
            elif key == "capability.figures":
                capability["universe"] = parse_figures(value)
            elif key == "capability.max_class":
                if value not in _TOKEN_CLASS:
                    raise ValueError(f"unknown behavior class {value!r}")
                capability["max_class"] = _TOKEN_CLASS[value]
            elif key.startswith("peers.") and key.endswith(".figures"):
                peer = _id(key[len("peers."):-len(".figures")])
                capability.setdefault("peer_figures", {})[peer] = parse_figures(value)
            elif key.startswith("sensors."):
                parts = value.rsplit(None, 1)
                if len(parts) != 2:
                    raise ValueError("expected '{figures} cost'")
                sensor_id = _id(key.removeprefix("sensors."))
                sensor = SensorNode(sensor_id, parse_figures(parts[0]), _ascii_number(parts[1]))
                scenario.sensors += (sensor,)
            elif key == "critical":
                scenario.critical = parse_figures(value)
            elif key == "fit.variant":
                scenario.variant = FitVariant(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except (ValueError, OSError) as exc:
            raise ScenarioError(f"line {lineno}: {key}: {exc}") from None

    if turbulence:
        try:
            if "seed" not in turbulence:
                raise ValueError("turbulence needs a seed")
            scenario.turbulence = TurbulenceSpec(**turbulence)  # type: ignore[arg-type]
        except ValueError as exc:
            # a rule's message starts with its field; the horizon rule is about
            # mean_segment_len if the horizon is a default, a missing seed about
            # the first turbulence key
            field = str(exc).split()[0]
            if field not in turbulence:
                field = "mean_segment_len" if field == "horizon" else next(iter(turbulence))
            lineno = entries[f"turbulence.{field}"][0]
            raise ScenarioError(f"line {lineno}: turbulence: {exc}") from None

    if scenario.predictor is not None:
        scenario.capability = Capability(**{"universe": scenario.universe, **capability})

    def with_line(violation: str) -> str:
        named = violation.split(":", 1)[0]  # a key, or else the prefix of the keys under it
        under = (n for key, (n, _) in entries.items() if key.startswith(named + "."))
        lineno = entries[named][0] if named in entries else next(under, None)
        return f"line {lineno}: {violation}" if lineno else violation

    violations = [
        f"{key}: {_CONTROLLER_ONLY}"
        for key in entries
        if scenario.predictor is None and key.startswith(("capability.", "peers."))
    ] + validate_scenario(scenario)
    if violations:
        raise ScenarioError("\n".join(map(with_line, violations)))
    return scenario


def _read_utf8(path: Path) -> str:
    """A file's text; a byte that is not UTF-8 is a ScenarioError naming its
    line, numbered as the parsers' ``splitlines`` numbers it. A leading
    byte-order mark is skipped."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())  # "." stands in for the bad byte
        raise ScenarioError(f"line {lineno}: not UTF-8 text") from None


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(_read_utf8(path), base_dir=path.parent, name=path.stem)


def validate_scenario(s: Scenario) -> list[str]:
    """Cross-checks over a scenario; each violation names field and rule.

    Field-local invariants (finite costs, probability ranges and so on) are
    enforced when the objects are built; this covers the plain ``weight``,
    figure references and the rules tying the pieces together.
    """
    violations = []

    def inside_universe(key: str, figures: frozenset[str]) -> None:
        if not figures <= s.universe:
            violations.append(f"{key}: figures {sorted(figures - s.universe)} outside universe")

    if not s.universe:
        violations.append("universe: must not be empty")
    if (s.trace is None) == (s.turbulence is None):
        violations.append("trace: exactly one of a trace and a turbulence spec must be given")
    if s.trace is not None:
        inside_universe("trace", s.trace.universe)
    if s.sensors and s.initial_behavior != _UNSET_BEHAVIOR:
        violations.append("system.behavior: a sensor run's behavior is what its active sensors cover")
    if s.initial_behavior.figures is None:
        violations.append("system.behavior: must name its figures")
    else:
        inside_universe("system.behavior", s.initial_behavior.figures)
    if s.capability is not None:
        inside_universe("capability.figures", s.capability.universe)
        for peer, figs in sorted(s.capability.peer_figures.items()):
            inside_universe(f"peers.{peer}.figures", figs)
    seen_ids: set[str] = set()
    for sensor in s.sensors:
        if sensor.id in seen_ids:
            violations.append(f"sensors.{sensor.id}: duplicate sensor id")
        seen_ids.add(sensor.id)
        inside_universe(f"sensors.{sensor.id}", sensor.coverage)
    inside_universe("critical", s.critical)
    if s.predictor is not None and s.capability is None:
        violations.append("controller.predictor: a controller needs a capability")
    if s.capability is not None and s.predictor is None:
        violations.append(f"capability: {_CONTROLLER_ONLY}")
    if s.predictor is not None and s.sensors:
        violations.append("controller.predictor: a controller and a sensor inventory are mutually exclusive")
    if not 0 <= s.weight < math.inf:
        violations.append("controller.weight: must be finite and non-negative")
    elif s.weight and s.predictor is None:
        violations.append(f"controller.weight: {_CONTROLLER_ONLY}")
    if s.sensors and s.costs != CostModel():
        violations.append("costs: a sensor run prices only its sensors' energy")
    elif s.predictor is None and not s.sensors:
        # a static system never borrows or acts
        for key, cost in (("borrow", s.costs.borrow_cost), ("switch", s.costs.switch_cost)):
            if cost:
                violations.append(f"costs.{key}: {_CONTROLLER_ONLY}")
    return violations


def fig2_scenario() -> Scenario:
    """The worked-example scenario: a static system over figures 1-4
    facing the five-segment demonstration trace."""
    return Scenario(
        name="fig2",
        universe=frozenset("12345"),
        trace=fig2_trace(),
        initial_behavior=Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset("1234")),
    )


def scenario_trace(scenario: Scenario, seed: int | None = None) -> EnvironmentTrace:
    """The trace a run would use: the fixed one, which refuses a seed, or
    the generated one with the seed override applied."""
    spec = scenario.turbulence
    if spec is None and seed is not None:
        raise ScenarioError(f"seed {seed}: only a scenario with a turbulence spec takes a seed")
    if scenario.trace is not None:
        return scenario.trace
    if spec is None:
        raise ScenarioError("scenario has neither a trace nor a turbulence spec")
    if seed is not None:
        spec = replace(spec, seed=seed)
    return generate_trace(spec, scenario.universe)
