"""Scenario files: parsing and validation.

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
    system.class = (pur, pro^1, pur, pur, none)
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
not both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .behavior import _TOKEN_CLASS, Behavior, BehaviorClass, BehaviorSyntaxError, parse_behavior
from .controller import Capability, CostModel, Oracle, Persistence, Predictor, WindowMajority
from .cybernetic import CyberneticClass, parse_class
from .environment import EnvironmentTrace, TurbulenceSpec, parse_trace
from .metrics import FitVariant
from .sensors import SensorNode

__all__ = ["Scenario", "ScenarioError", "finite_number", "load_scenario", "parse_scenario", "validate_scenario"]


class ScenarioError(ValueError):
    """Raised for malformed scenario input or failed validation."""


@dataclass
class Scenario:
    """One simulation run. ``cybernetic_class`` is parsed and checked, but
    no run reads it: it describes the system's organs and drives nothing."""

    name: str
    universe: frozenset[str]
    trace: EnvironmentTrace | None = None
    turbulence: TurbulenceSpec | None = None
    initial_behavior: Behavior = field(
        default_factory=lambda: Behavior(BehaviorClass.PURPOSEFUL, figures=frozenset())
    )
    cybernetic_class: CyberneticClass | None = None
    predictor: Predictor | None = None
    weight: float = 0.0
    capability: Capability | None = None
    costs: CostModel = field(default_factory=CostModel)
    variant: FitVariant = FitVariant.LINEAR
    sensors: tuple[SensorNode, ...] = ()
    critical: frozenset[str] = frozenset()


def finite_number(value: str) -> float:
    """``float(value)``, refusing NaN and the infinities."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _figure_list(value: str) -> frozenset[str]:
    inner = value.strip()
    if inner.startswith("{") and inner.endswith("}"):
        inner = inner[1:-1]
    tokens = [tok.strip() for tok in inner.split(",")]
    return frozenset(tok for tok in tokens if tok)


def _parse_predictor(value: str) -> Predictor:
    if value == "persistence":
        return Persistence()
    if value == "oracle":
        return Oracle()
    if value.startswith("majority:"):
        window = value.split(":", 1)[1]
        if not window.isdigit():
            raise ValueError(f"majority window must be an integer, got {window!r}")
        return WindowMajority(int(window))
    raise ValueError(f"unknown predictor {value!r}")


_COST_KEYS = {"figure": "figure_cost", "borrow": "borrow_cost", "class": "class_cost", "switch": "switch_cost"}


def parse_scenario(text: str, base_dir: str | Path = ".", name: str = "scenario") -> Scenario:
    """Parse scenario text; raises ScenarioError naming line and key."""
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

    turbulence_keys: dict[str, tuple[int, str]] = {}
    costs_kwargs: dict[str, float] = {}
    peers: dict[str, frozenset[str]] = {}
    sensors: list[SensorNode] = []
    capability_figures: frozenset[str] | None = None
    max_class = BehaviorClass.SOCIAL
    scenario = Scenario(name=name, universe=frozenset())
    have_capability_keys = False

    for key, (lineno, value) in entries.items():
        try:
            if key == "name":
                scenario.name = value
            elif key == "universe":
                scenario.universe = _figure_list(value)
            elif key == "trace.file":
                path = Path(base_dir) / value
                scenario.trace = parse_trace(path.read_text())
            elif key.startswith("turbulence."):
                turbulence_keys[key.removeprefix("turbulence.")] = (lineno, value)
            elif key == "system.behavior":
                scenario.initial_behavior = parse_behavior(value)
            elif key == "system.class":
                scenario.cybernetic_class = parse_class(value)
            elif key == "controller.predictor":
                scenario.predictor = _parse_predictor(value)
            elif key == "controller.weight":
                scenario.weight = finite_number(value)
            elif key.startswith("costs."):
                cost = _COST_KEYS.get(key.removeprefix("costs."))
                if cost is None:
                    raise ValueError(f"unknown cost {key!r}")
                costs_kwargs[cost] = finite_number(value)
                if costs_kwargs[cost] < 0:
                    raise ValueError("costs must be non-negative")
            elif key == "capability.figures":
                capability_figures = _figure_list(value)
                have_capability_keys = True
            elif key == "capability.max_class":
                if value not in _TOKEN_CLASS:
                    raise ValueError(f"unknown behavior class {value!r}")
                max_class = _TOKEN_CLASS[value]
                have_capability_keys = True
            elif key.startswith("peers.") and key.endswith(".figures"):
                peer = key[len("peers."):-len(".figures")]
                if not peer:
                    raise ValueError("empty peer id")
                peers[peer] = _figure_list(value)
                have_capability_keys = True
            elif key.startswith("sensors."):
                sensor_id = key.removeprefix("sensors.")
                parts = value.rsplit(None, 1)
                if len(parts) != 2:
                    raise ValueError("expected '{figures} cost'")
                sensors.append(SensorNode(sensor_id, _figure_list(parts[0]), finite_number(parts[1])))
            elif key == "critical":
                scenario.critical = _figure_list(value)
            elif key == "fit.variant":
                scenario.variant = FitVariant(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ScenarioError:
            raise
        except (ValueError, OSError, BehaviorSyntaxError) as exc:
            raise ScenarioError(f"line {lineno}: {key}: {exc}") from None

    if turbulence_keys:
        lineno = min(ln for ln, _ in turbulence_keys.values())
        kwargs: dict[str, float | int] = {}
        try:
            for name_, (ln, value) in turbulence_keys.items():
                lineno = ln
                if name_ in ("seed", "mean_segment_len", "horizon"):
                    kwargs[name_] = int(value)
                elif name_ in ("class_walk", "figure_flip"):
                    kwargs[name_] = finite_number(value)
                else:
                    raise ValueError(f"unknown key 'turbulence.{name_}'")
            if "seed" not in kwargs:
                raise ValueError("turbulence needs a seed")
            scenario.turbulence = TurbulenceSpec(**kwargs)  # type: ignore[arg-type]
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: turbulence: {exc}") from None

    scenario.costs = CostModel(**costs_kwargs)
    scenario.sensors = tuple(sensors)
    if scenario.predictor is not None or have_capability_keys:
        figures = capability_figures if capability_figures is not None else scenario.universe
        scenario.capability = Capability(figures, max_class, peers)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), base_dir=path.parent, name=path.stem)


def validate_scenario(s: Scenario) -> list[str]:
    """Cross-checks over a scenario; each violation names field and rule.

    Field-local invariants (positive costs, probability ranges and so on)
    are enforced when the objects are built; this covers figure references
    and the rules tying the pieces together.
    """
    violations = []
    if not s.universe:
        violations.append("universe: must not be empty")
    if (s.trace is None) == (s.turbulence is None):
        violations.append("trace: exactly one of a trace and a turbulence spec must be given")
    if s.trace is not None and not s.trace.universe <= s.universe:
        extra = sorted(s.trace.universe - s.universe)
        violations.append(f"trace: universe figures {extra} outside scenario universe")
    if s.initial_behavior.figures is None:
        violations.append("system.behavior: must name its figures")
    elif not s.initial_behavior.figures <= s.universe:
        extra = sorted(s.initial_behavior.figures - s.universe)
        violations.append(f"system.behavior: figures {extra} outside universe")
    if s.capability is not None:
        if not s.capability.universe <= s.universe:
            extra = sorted(s.capability.universe - s.universe)
            violations.append(f"capability.figures: figures {extra} outside universe")
        for peer, figs in sorted(s.capability.peer_figures.items()):
            if not figs <= s.universe:
                extra = sorted(figs - s.universe)
                violations.append(f"peers.{peer}.figures: figures {extra} outside universe")
    seen_ids: set[str] = set()
    for sensor in s.sensors:
        if sensor.id in seen_ids:
            violations.append(f"sensors.{sensor.id}: duplicate sensor id")
        seen_ids.add(sensor.id)
        if not sensor.coverage <= s.universe:
            extra = sorted(sensor.coverage - s.universe)
            violations.append(f"sensors.{sensor.id}: coverage figures {extra} outside universe")
    if not s.critical <= s.universe:
        extra = sorted(s.critical - s.universe)
        violations.append(f"critical: figures {extra} outside universe")
    if s.predictor is not None and s.sensors:
        violations.append("controller.predictor: a controller and a sensor inventory are mutually exclusive")
    if s.weight < 0:
        violations.append("controller.weight: must be non-negative")
    return violations
