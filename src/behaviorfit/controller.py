"""Adaptation controller: predictors, greedy planning, and the per-tick loop.

The controller tracks the environment behaviors it has observed, predicts
the next one, and adapts the system behavior toward the prediction within
its capability bounds, borrowing figures from peers when it cannot acquire
them locally. A plan is executed only when it strictly improves the
cost-adjusted fit against the prediction.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import ClassVar, Mapping, Sequence

from .behavior import Behavior, BehaviorClass
from .metrics import FitVariant, SupplyReport, cost_adjusted_fit, fit, supply

__all__ = [
    "AdaptationAction",
    "BorrowFigure",
    "Capability",
    "Controller",
    "CostModel",
    "DisableFigure",
    "EnableFigure",
    "Oracle",
    "Persistence",
    "Predictor",
    "ReturnFigure",
    "SetClass",
    "StepResult",
    "SystemState",
    "WindowMajority",
    "apply_actions",
    "format_action",
    "plan_adaptation",
    "predict",
    "tick_cost",
]


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
        for name in ("figure_cost", "borrow_cost", "class_cost", "switch_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SystemState:
    """System behavior plus which of its figures are borrowed from whom."""

    behavior: Behavior
    borrowed: Mapping[str, frozenset[str]] = field(default_factory=dict)
    cum_cost: float = 0.0

    def __post_init__(self):
        if self.behavior.figures is None:
            raise ValueError("system behavior must name its figures")
        borrowed = {p: frozenset(figs) for p, figs in self.borrowed.items() if figs}
        object.__setattr__(self, "borrowed", borrowed)
        stray = self.borrowed_figures - self.behavior.figures
        if stray:
            raise ValueError(f"borrowed figures missing from behavior scope: {sorted(stray)}")

    @property
    def borrowed_figures(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for figs in self.borrowed.values():
            out |= figs
        return out

    @property
    def local_figures(self) -> frozenset[str]:
        return self.behavior.figures - self.borrowed_figures


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


def predict(
    predictor: Predictor, history: Sequence[Behavior], oracle_next: Behavior | None = None
) -> Behavior:
    """Predicted next environment behavior from past observations, oldest first."""
    if isinstance(predictor, Oracle):
        if oracle_next is None:
            raise ValueError("oracle predictor needs oracle_next")
        return oracle_next
    if not history:
        raise ValueError("cannot predict from an empty history")
    if isinstance(predictor, Persistence):
        return history[-1]
    window = list(history)[-predictor.window:]
    votes: Counter[str] = Counter()
    for obs in window:
        votes.update(obs.figures or ())
    figures = frozenset(f for f, n in votes.items() if 2 * n >= len(window))
    class_counts = Counter(obs.klass for obs in window)
    top = max(class_counts.values())
    klass = next(obs.klass for obs in reversed(window) if class_counts[obs.klass] == top)
    return Behavior(klass, figures=figures)


@dataclass(frozen=True)
class EnableFigure:
    figure: str


@dataclass(frozen=True)
class DisableFigure:
    figure: str


@dataclass(frozen=True)
class BorrowFigure:
    peer: str
    figure: str


@dataclass(frozen=True)
class ReturnFigure:
    peer: str
    figure: str


@dataclass(frozen=True)
class SetClass:
    klass: BehaviorClass


AdaptationAction = EnableFigure | DisableFigure | BorrowFigure | ReturnFigure | SetClass


def format_action(action: AdaptationAction) -> str:
    if isinstance(action, EnableFigure):
        return f"enable:{action.figure}"
    if isinstance(action, DisableFigure):
        return f"disable:{action.figure}"
    if isinstance(action, BorrowFigure):
        return f"borrow:{action.peer}:{action.figure}"
    if isinstance(action, ReturnFigure):
        return f"return:{action.peer}:{action.figure}"
    return f"class:{action.klass.name.lower()}"


def tick_cost(state: SystemState, costs: CostModel) -> float:
    """Operating cost of holding the state for one tick."""
    return (
        costs.figure_cost * len(state.local_figures)
        + costs.borrow_cost * len(state.borrowed_figures)
        + costs.class_cost * state.behavior.klass
    )


def apply_actions(
    state: SystemState, actions: list[AdaptationAction], capability: Capability
) -> SystemState:
    """New state after applying the actions atomically; cum_cost unchanged."""
    local = set(state.local_figures)
    borrowed = {p: set(figs) for p, figs in state.borrowed.items()}
    klass = state.behavior.klass
    for action in actions:
        if isinstance(action, EnableFigure):
            if action.figure not in capability.universe:
                raise ValueError(f"figure {action.figure!r} not locally acquirable")
            local.add(action.figure)
        elif isinstance(action, DisableFigure):
            local.discard(action.figure)
        elif isinstance(action, BorrowFigure):
            if action.figure not in capability.peer_figures.get(action.peer, frozenset()):
                raise ValueError(f"peer {action.peer!r} does not lend figure {action.figure!r}")
            borrowed.setdefault(action.peer, set()).add(action.figure)
        elif isinstance(action, ReturnFigure):
            borrowed.get(action.peer, set()).discard(action.figure)
        else:
            klass = action.klass
    figures = set(local)
    for figs in borrowed.values():
        figures |= figs
    return SystemState(
        Behavior(klass, figures=frozenset(figures)),
        {p: frozenset(figs) for p, figs in borrowed.items() if figs},
        state.cum_cost,
    )


def plan_adaptation(
    state: SystemState,
    predicted: Behavior,
    capability: Capability,
    costs: CostModel,
    weight: float,
    variant: FitVariant = FitVariant.LINEAR,
) -> list[AdaptationAction]:
    """Greedy plan toward the predicted behavior, or an empty plan.

    Missing predicted figures are restored first, locally when possible
    and otherwise from the first lending peer in id order; surplus figures
    are then dropped (returned if borrowed) and the class is moved to the
    predicted class, capped by the capability ceiling. The plan is kept
    only if its cost-adjusted fit against the prediction strictly beats
    doing nothing.
    """
    if predicted.figures is None:
        raise ValueError("prediction must name its figures")
    current = state.behavior.figures
    target = predicted.figures
    actions: list[AdaptationAction] = []
    for fig in sorted(target - current):
        if fig in capability.universe:
            actions.append(EnableFigure(fig))
            continue
        lenders = sorted(p for p, figs in capability.peer_figures.items() if fig in figs)
        if lenders:
            actions.append(BorrowFigure(lenders[0], fig))
    borrowed_by_figure = {
        fig: peer for peer, figs in sorted(state.borrowed.items()) for fig in figs
    }
    for fig in sorted(current - target):
        peer = borrowed_by_figure.get(fig)
        if peer is not None:
            actions.append(ReturnFigure(peer, fig))
        else:
            actions.append(DisableFigure(fig))
    target_class = min(predicted.klass, capability.max_class)
    if target_class is not state.behavior.klass:
        actions.append(SetClass(target_class))
    if not actions:
        return []
    post = apply_actions(state, actions, capability)
    idle = cost_adjusted_fit(
        fit(supply(state.behavior, predicted), variant), tick_cost(state, costs), weight
    )
    acted = cost_adjusted_fit(
        fit(supply(post.behavior, predicted), variant),
        tick_cost(post, costs) + costs.switch_cost * len(actions),
        weight,
    )
    return actions if acted > idle else []


@dataclass(frozen=True)
class StepResult:
    state: SystemState
    supply: SupplyReport
    fit: float
    actions: tuple[AdaptationAction, ...]


class Controller:
    """Drives one system through the adaptation loop, one call per tick.

    The plan for a tick is made from the predictor's ``window`` latest
    observations, the only ones ``history`` keeps (the oracle predictor,
    whose window is 0, instead peeks at the incoming behavior), its
    actions apply atomically and are charged to the new state, the state
    is then scored against the just-observed environment, and finally the
    observation joins the history for the next tick. It logs nothing.
    """

    def __init__(
        self,
        capability: Capability,
        costs: CostModel | None = None,
        predictor: Predictor | None = None,
        weight: float = 0.0,
        variant: FitVariant = FitVariant.LINEAR,
    ):
        self.capability = capability
        self.costs = costs if costs is not None else CostModel()
        self.predictor = predictor if predictor is not None else Persistence()
        self.weight = weight
        self.variant = variant
        self.history: deque[Behavior] = deque(maxlen=self.predictor.window)

    def step(
        self, state: SystemState, observed_env: Behavior, oracle_next: Behavior | None = None
    ) -> StepResult:
        actions: list[AdaptationAction] = []
        if self.history or not self.predictor.window:
            prediction = predict(self.predictor, self.history, oracle_next or observed_env)
            actions = plan_adaptation(
                state, prediction, self.capability, self.costs, self.weight, self.variant
            )
        new_state = apply_actions(state, actions, self.capability)
        cost = tick_cost(new_state, self.costs) + self.costs.switch_cost * len(actions)
        new_state = replace(new_state, cum_cost=state.cum_cost + cost)
        report = supply(new_state.behavior, observed_env)
        fit_value = fit(report, self.variant)
        self.history.append(observed_env)
        return StepResult(new_state, report, fit_value, tuple(actions))
