"""Adaptation controller: prediction, greedy planning, and the per-tick loop.

The controller tracks the environment behaviors it has observed, predicts
the next one, and adapts the system behavior toward the prediction within
its capability bounds, borrowing figures from peers when it cannot acquire
them locally. A plan is executed only when it strictly improves the
cost-adjusted fit against the prediction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .behavior import Behavior, BehaviorClass
from .metrics import FitVariant, SupplyReport, cost_adjusted_fit, fit, supply
from .scenario import Capability, CostModel, Persistence, Predictor

__all__ = [
    "AdaptationAction",
    "BorrowFigure",
    "Controller",
    "DisableFigure",
    "EnableFigure",
    "ReturnFigure",
    "SetClass",
    "StepResult",
    "SystemState",
    "apply_actions",
    "format_action",
    "plan_adaptation",
    "predict",
    "tick_cost",
]


@dataclass(frozen=True)
class SystemState:
    """System behavior plus ``borrowed``, which maps each borrowed figure
    to the peer that lent it."""

    behavior: Behavior
    borrowed: Mapping[str, str] = field(default_factory=dict)
    cum_cost: float = 0.0

    def __post_init__(self):
        if self.behavior.figures is None:
            raise ValueError("system behavior must name its figures")
        object.__setattr__(self, "borrowed", dict(self.borrowed))
        stray = self.borrowed.keys() - self.behavior.figures
        if stray:
            raise ValueError(f"borrowed figures missing from behavior scope: {sorted(stray)}")

    @property
    def local_figures(self) -> frozenset[str]:
        return self.behavior.figures.difference(self.borrowed)


def predict(
    predictor: Predictor, runs: Sequence[tuple[Behavior, int]], oracle_next: Behavior | None = None
) -> Behavior:
    """Predicted next environment behavior from past observations, given
    as ``(behavior, ticks)`` runs, oldest first; only the newest
    ``predictor.window`` ticks are read. Persistence predicts the newest
    observation. In a majority vote a figure or class counts once per tick
    of each run that holds it, so the prediction always names its figures.

    The heaviest run (the newest of the heaviest) is the prediction if it
    holds a strict majority of the ticks and names its figures. Otherwise
    only the figures another run disputes with it can leave or join its
    set, and if none does and its class wins, it is still the prediction."""
    if not predictor.window:
        if oracle_next is None:
            raise ValueError("oracle predictor needs oracle_next")
        return oracle_next
    if not runs:
        raise ValueError("cannot predict from an empty history")
    if isinstance(predictor, Persistence):
        return runs[-1][0]
    # the newest runs holding ``predictor.window`` ticks, newest first
    window = []
    left = predictor.window
    for obs, n in reversed(runs):
        window.append((obs, min(n, left)))
        left -= n
        if left <= 0:
            break
    ticks = predictor.window - max(left, 0)
    base, heaviest = max(window, key=lambda run: run[1])
    if 2 * heaviest > ticks and base.figures is not None:
        return base
    base_figures = base.figures or frozenset()
    # ``away[f]``: ticks whose observation disagrees with ``base`` on f
    away: dict[str, int] = {}
    # counted newest first, so the first class with the top count is the most recent
    klasses: dict[BehaviorClass, int] = {}
    for obs, n in window:
        klasses[obs.klass] = klasses.get(obs.klass, 0) + n
        for f in base_figures.symmetric_difference(obs.figures or ()):
            away[f] = away.get(f, 0) + n
    # a figure is predicted iff 2 * votes >= ticks: one of base's leaves iff
    # 2 * away > ticks, and any other joins iff 2 * away >= ticks
    flipped = {f for f, n in away.items() if (2 * n > ticks if f in base_figures else 2 * n >= ticks)}
    klass = max(klasses, key=klasses.__getitem__)
    if not flipped and klass is base.klass and base.figures is not None:
        return base
    return Behavior(klass, figures=base_figures.symmetric_difference(flipped))


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
        costs.figure_cost * (len(state.behavior.figures) - len(state.borrowed))
        + costs.borrow_cost * len(state.borrowed)
        + costs.class_cost * state.behavior.klass
    )


def apply_actions(
    state: SystemState, actions: list[AdaptationAction], capability: Capability
) -> SystemState:
    """New state after applying the actions atomically; cum_cost unchanged."""
    local = set(state.local_figures)
    borrowed = dict(state.borrowed)
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
            borrowed[action.figure] = action.peer
        elif isinstance(action, ReturnFigure):
            if borrowed.get(action.figure) == action.peer:
                del borrowed[action.figure]
        else:
            klass = action.klass
    figures = frozenset(local).union(borrowed)
    return SystemState(Behavior(klass, figures=figures), borrowed, state.cum_cost)


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
        lender = min((p for p, figs in capability.peer_figures.items() if fig in figs), default=None)
        if lender is not None:
            actions.append(BorrowFigure(lender, fig))
    for fig in sorted(current - target):
        peer = state.borrowed.get(fig)
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

    ``history`` holds the window as ``[behavior, ticks]`` runs of equal
    consecutive observations, oldest first and at most ``window`` ticks in
    all: a repeated observation costs O(1), and after a step ``repeats``
    takes the whole stretch of ticks that would repeat an idle step at once.
    Those runs and the last step's prediction and observation, which
    ``repeats`` reads, are all a step remembers: every step plans and
    scores its tick afresh.
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
        self.history: deque[list] = deque()
        self._held = 0
        self._last: tuple = (None, None)

    def step(
        self, state: SystemState, observed_env: Behavior, oracle_next: Behavior | None = None
    ) -> StepResult:
        """One tick of the loop; raises ValueError, changing nothing, if the
        observation names no figures or a peer does not lend a held figure."""
        if observed_env.figures is None:
            raise ValueError("environment behaviors must name their figures")
        for figure, peer in state.borrowed.items():
            if figure not in self.capability.peer_figures.get(peer, ()):
                raise ValueError(f"peer {peer!r} does not lend figure {figure!r}")
        actions: list[AdaptationAction] = []
        if self.history or not self.predictor.window:
            prediction = predict(self.predictor, self.history, oracle_next or observed_env)
            self._last = (prediction, observed_env)
            actions = plan_adaptation(
                state, prediction, self.capability, self.costs, self.weight, self.variant
            )
        new_state = apply_actions(state, actions, self.capability) if actions else state
        cost = tick_cost(new_state, self.costs) + self.costs.switch_cost * len(actions)
        new_state = SystemState(new_state.behavior, new_state.borrowed, state.cum_cost + cost)
        report = supply(new_state.behavior, observed_env)
        self._observe(observed_env)
        return StepResult(new_state, report, fit(report, self.variant), tuple(actions))

    def repeats(self, limit: int) -> int:
        """Right after a step, how many of the next ``limit`` ticks facing
        its observation with no lookahead would repeat an idle step of the
        state it returned, observed at once: as the greedy plan is
        idempotent, those whose prediction is still the step's."""
        prediction, observed = self._last
        window, held, older = self.predictor.window, self._held, 0
        count = limit if not window and prediction is not None and prediction == observed else 0
        for k, (obs, n) in enumerate(self.history):
            if 2 * n > held:
                # the step's prediction holds while this run keeps a strict majority:
                # the newest run only grows; another shrinks once older runs are trimmed
                if obs == prediction:
                    count = limit if k == len(self.history) - 1 else next((
                        j for j in range(limit)
                        if 2 * (n - max(0, held + j - window - older)) <= min(held + j, window)
                    ), limit)
                break
            older += n
        if count:
            self._observe(observed, count)
        return count

    def _observe(self, behavior: Behavior, ticks: int = 1) -> None:
        """Add ``ticks`` ticks of ``behavior`` to the newest run, or start a
        run with them, and trim the oldest ticks beyond the window."""
        window, runs = self.predictor.window, self.history
        if not window:
            return
        if runs and runs[-1][0] == behavior:
            runs[-1][1] += ticks
        else:
            runs.append([behavior, ticks])
        self._held += ticks
        while self._held - runs[0][1] >= window:
            self._held -= runs.popleft()[1]
        if self._held > window:
            runs[0][1] -= self._held - window
            self._held = window
