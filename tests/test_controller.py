import math
from collections import Counter, deque
from dataclasses import replace
from itertools import chain, pairwise, repeat

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from behaviorfit import (
    Behavior,
    BehaviorClass,
    BorrowFigure,
    Capability,
    Controller,
    CostModel,
    DisableFigure,
    EnableFigure,
    FitVariant,
    Oracle,
    Persistence,
    ReturnFigure,
    Scenario,
    SetClass,
    StepResult,
    SystemState,
    TurbulenceSpec,
    WindowMajority,
    apply_actions,
    cost_adjusted_fit,
    fig2_trace,
    fit,
    format_action,
    generate_trace,
    parse_scenario,
    plan_adaptation,
    predict,
    run_scenario,
    scenario_trace,
    supply,
    tick_cost,
    parse_behavior as b,
)

from conftest import bench_module, runs_of

FULL_CAP = Capability(frozenset("12345"))


class TestPredict:
    def test_persistence(self):
        history = [b("pur{2}"), b("pur{1,4}")]
        assert predict(Persistence(), runs_of(history)) == b("pur{1,4}")

    def test_persistence_of_an_observation_naming_no_figures_is_its_class_with_none(self):
        # the one-tick vote names its figures; a controller never feeds it such an observation
        assert predict(Persistence(), runs_of([b("pur{1}"), b("rea")])) == b("rea{}")
        assert predict(Persistence(), runs_of([b("pro^2")])) == b("pro{}")

    def test_persistence_needs_history(self):
        with pytest.raises(ValueError, match="empty history"):
            predict(Persistence(), runs_of([]))

    def test_window_majority_votes_figures(self):
        history = [b("pur{1}"), b("pur{1,2}"), b("pur{1,2}")]
        assert predict(WindowMajority(3), runs_of(history)) == b("pur{1,2}")

    def test_window_majority_includes_ties(self):
        history = [b("pur{1}"), b("pur{2}")]
        assert predict(WindowMajority(2), runs_of(history)) == b("pur{1,2}")

    def test_window_majority_class_tie_is_most_recent(self):
        history = [b("rea{1}"), b("pur{1}"), b("rea{1}"), b("pur{1}")]
        assert predict(WindowMajority(4), runs_of(history)).klass is BehaviorClass.PURPOSEFUL

    def test_window_majority_without_a_strict_majority_votes_and_a_tie_joins(self):
        # two runs of two ticks: the heaviest run has no strict majority, so
        # the full vote runs and the older run's tied figure joins
        history = [b("pur{1}")] * 2 + [b("pur{2}")] * 2
        assert predict(WindowMajority(4), runs_of(history)) == b("pur{1,2}")

    def test_a_strict_majority_that_names_no_figures_is_not_the_prediction(self):
        # the unscoped run wins the class, but the prediction names figures
        history = [b("pur{1}")] + [b("rea")] * 2
        assert predict(WindowMajority(3), runs_of(history)) == b("rea{}")

    def test_window_shorter_history(self):
        history = [b("pur{1}")]
        assert predict(WindowMajority(5), runs_of(history)) == b("pur{1}")

    def test_any_sequence_of_observations(self):
        history = deque(runs_of([b("rea{1}"), b("pur{1}"), b("pur{2}")]))
        assert predict(WindowMajority(2), history) == b("pur{1,2}")
        assert predict(Persistence(), history) == b("pur{2}")

    def test_oracle_passthrough(self):
        nxt = b("pur{1,2,3,4,5}")
        assert predict(Oracle(), [], oracle_next=nxt) == nxt

    def test_oracle_needs_next(self):
        with pytest.raises(ValueError, match="oracle"):
            predict(Oracle(), runs_of([b("pur{1}")]))


class TestPlanAdaptation:
    def test_no_action_at_perfect_supply(self):
        state = SystemState(b("pur{1,2,3,4}"))
        assert plan_adaptation(state, b("pur{1,2,3,4}"), FULL_CAP, CostModel(), 0.0) == []

    def test_borrow_from_peer(self):
        state = SystemState(b("pur{1,2,3,4}"))
        cap = Capability(frozenset("1234"), peer_figures={"canary": frozenset("5")})
        plan = plan_adaptation(state, b("pur{1,2,3,4,5}"), cap, CostModel(), 0.0)
        assert plan == [BorrowFigure("canary", "5")]

    def test_drop_surplus(self):
        state = SystemState(b("pur{1,2,3,4}"))
        plan = plan_adaptation(state, b("pur{4}"), FULL_CAP, CostModel(), 0.0)
        assert plan == [DisableFigure("1"), DisableFigure("2"), DisableFigure("3")]

    def test_local_before_peers(self):
        state = SystemState(b("pur{1}"))
        cap = Capability(frozenset("12"), peer_figures={"p": frozenset("2")})
        plan = plan_adaptation(state, b("pur{1,2}"), cap, CostModel(), 0.0)
        assert plan == [EnableFigure("2")]

    def test_peer_tie_break_lexicographic(self):
        state = SystemState(b("pur{1}"))
        cap = Capability(
            frozenset("1"), peer_figures={"zeta": frozenset("2"), "alpha": frozenset("2")}
        )
        plan = plan_adaptation(state, b("pur{1,2}"), cap, CostModel(), 0.0)
        assert plan == [BorrowFigure("alpha", "2")]

    def test_returns_borrowed_surplus(self):
        state = SystemState(b("pur{1,5}"), borrowed={"5": "canary"})
        cap = Capability(frozenset("1"), peer_figures={"canary": frozenset("5")})
        plan = plan_adaptation(state, b("pur{1}"), cap, CostModel(), 0.0)
        assert plan == [ReturnFigure("canary", "5")]

    def test_class_raised_to_prediction(self):
        state = SystemState(b("pur{1}"))
        cap = Capability(frozenset("1"), max_class=BehaviorClass.REACTIVE)
        plan = plan_adaptation(state, b("rea{1}"), cap, CostModel(), 0.0)
        assert plan == [SetClass(BehaviorClass.REACTIVE)]

    def test_class_above_ceiling_cannot_help_so_no_plan(self):
        # raising to the ceiling still leaves the fit at -inf, so the
        # strict-improvement gate drops the plan
        state = SystemState(b("pur{1}"))
        cap = Capability(frozenset("1"), max_class=BehaviorClass.REACTIVE)
        assert plan_adaptation(state, b("soc{1}"), cap, CostModel(), 0.0) == []

    def test_unreachable_prediction_means_no_plan(self):
        state = SystemState(b("pur{1,2}"))
        cap = Capability(frozenset("12"))
        assert plan_adaptation(state, b("pur{1,2,9}"), cap, CostModel(), 0.0) == []

    def test_prediction_must_name_its_figures(self):
        with pytest.raises(ValueError, match="prediction must name its figures"):
            plan_adaptation(SystemState(b("pur{1}")), b("pur"), FULL_CAP, CostModel(), 0.0)

    def test_switch_cost_can_veto_a_trim(self):
        state = SystemState(b("pur{1,2,3,4}"))
        costs = CostModel(switch_cost=100.0)
        assert plan_adaptation(state, b("pur{4}"), FULL_CAP, costs, weight=1.0) == []
        # and with no weight the trim goes ahead
        assert plan_adaptation(state, b("pur{4}"), FULL_CAP, costs, weight=0.0) != []

    def test_emitted_plans_strictly_improve_adjusted_fit(self):
        state = SystemState(b("pur{1,3}"))
        costs = CostModel(figure_cost=0.2, switch_cost=0.1)
        predicted = b("pur{1,2}")
        plan = plan_adaptation(state, predicted, FULL_CAP, costs, weight=0.3)
        if plan:
            post = apply_actions(state, plan, FULL_CAP)
            before = cost_adjusted_fit(
                fit(supply(state.behavior, predicted)), tick_cost(state, costs), 0.3
            )
            after = cost_adjusted_fit(
                fit(supply(post.behavior, predicted)),
                tick_cost(post, costs) + costs.switch_cost * len(plan),
                0.3,
            )
            assert after > before


class TestCostModel:
    @pytest.mark.parametrize(
        "rates", [{"figure_cost": -1.0}, {"figure_cost": math.nan}, {"switch_cost": math.inf}],
        ids=["negative", "nan", "inf"],
    )
    def test_rates_must_be_finite_and_non_negative(self, rates):
        with pytest.raises(ValueError, match=f"expected a finite non-negative {next(iter(rates))}"):
            CostModel(**rates)


class TestApplyActions:
    def test_round_trip_state(self):
        state = SystemState(b("pur{1}"))
        cap = Capability(frozenset("12"), peer_figures={"p": frozenset("3")})
        actions = [EnableFigure("2"), BorrowFigure("p", "3"), SetClass(BehaviorClass.PROACTIVE)]
        out = apply_actions(state, actions, cap)
        assert out.behavior == b("pro{1,2,3}")
        assert out.borrowed == {"3": "p"}
        assert out.local_figures == frozenset("12")

    def test_rejects_unavailable_figure(self):
        with pytest.raises(ValueError, match="not locally acquirable"):
            apply_actions(SystemState(b("pur{}")), [EnableFigure("9")], FULL_CAP)

    def test_rejects_unknown_peer_figure(self):
        with pytest.raises(ValueError, match="does not lend"):
            apply_actions(SystemState(b("pur{}")), [BorrowFigure("p", "1")], FULL_CAP)


class TestSystemState:
    def test_requires_figure_scope(self):
        with pytest.raises(ValueError, match="name its figures"):
            SystemState(b("pur"))

    def test_borrowed_must_be_in_scope(self):
        with pytest.raises(ValueError, match="borrowed"):
            SystemState(b("pur{1}"), borrowed={"2": "p"})

    def test_local_is_scope_minus_borrowed(self):
        state = SystemState(b("pur{1,2}"), borrowed={"2": "p"})
        assert state.local_figures == frozenset("1")

    def test_a_peer_to_figures_mapping_is_refused(self):
        # ``borrowed`` maps figure -> lender, so a peer id is a stray figure
        with pytest.raises(ValueError, match=r"missing from behavior scope: \['canary'\]"):
            SystemState(b("pur{1,5}"), borrowed={"canary": frozenset("5")})


class TestControllerLoop:
    def run_on_trace(self, trace, predictor, start="pur{1,2,3,4}", costs=CostModel(), weight=0.0):
        controller = Controller(FULL_CAP, costs, predictor, weight)
        state = SystemState(b(start))
        results = []
        for t in range(trace.horizon):
            env = trace.behavior_at(t)
            result = controller.step(state, env, oracle_next=env)
            state = result.state
            results.append(result)
        return results

    def test_persistence_converges_in_one_step_on_constant_env(self):
        from behaviorfit import EnvironmentTrace, Segment

        trace = EnvironmentTrace((Segment(0, 6, b("pur{2,3}")),), frozenset("12345"))
        results = self.run_on_trace(trace, Persistence(), start="pur{1}")
        assert all(r.fit == 1.0 for r in results[1:])

    def test_persistence_lags_one_tick_per_boundary(self):
        results = self.run_on_trace(fig2_trace(), Persistence())
        not_perfect = [t for t, r in enumerate(results) if r.fit != 1.0]
        assert not_perfect == [10, 20, 30, 40]

    def test_oracle_has_no_lag(self):
        results = self.run_on_trace(fig2_trace(), Oracle())
        assert all(r.fit == 1.0 for r in results)

    def test_oracle_is_perfect_on_turbulent_traces(self):
        from behaviorfit import TurbulenceSpec, generate_trace

        for seed in (3, 14, 159):
            spec = TurbulenceSpec(seed=seed, class_walk=0.3, figure_flip=0.3, horizon=60)
            trace = generate_trace(spec, frozenset("12345"))
            results = self.run_on_trace(trace, Oracle(), start="pur{}")
            assert all(r.fit == 1.0 for r in results)

    def test_persistence_is_perfect_inside_segments(self):
        from behaviorfit import TurbulenceSpec, generate_trace

        spec = TurbulenceSpec(seed=8, class_walk=0.2, figure_flip=0.3, horizon=80)
        trace = generate_trace(spec, frozenset("12345"))
        results = self.run_on_trace(trace, Persistence(), start="pur{}")
        for t in range(1, trace.horizon):
            if trace.behavior_at(t) == trace.behavior_at(t - 1):
                assert results[t].fit == 1.0

    def test_empty_plan_leaves_state(self):
        controller = Controller(FULL_CAP)
        state = SystemState(b("pur{1}"))
        result = controller.step(state, b("pur{1}"))  # first tick, no history yet
        assert result.actions == ()
        assert result.state.behavior == state.behavior

    def test_cum_cost_non_decreasing(self):
        costs = CostModel(figure_cost=0.1, class_cost=0.05, switch_cost=0.2)
        results = self.run_on_trace(fig2_trace(), Persistence(), costs=costs, weight=0.01)
        cum = [r.state.cum_cost for r in results]
        assert all(a <= b_ for a, b_ in zip(cum, cum[1:]))

    def test_states_stay_within_capability(self):
        cap = Capability(frozenset("1234"), peer_figures={"canary": frozenset("5")})
        controller = Controller(cap, predictor=Persistence())
        state = SystemState(b("pur{1,2,3,4}"))
        for t in range(fig2_trace().horizon):
            env = fig2_trace().behavior_at(t)
            state = controller.step(state, env).state
            assert state.local_figures <= cap.universe
            for fig, peer in state.borrowed.items():
                assert fig in cap.peer_figures[peer]

    def test_borrowing_covers_the_missing_figure(self):
        cap = Capability(frozenset("1234"), peer_figures={"canary": frozenset("5")})
        controller = Controller(cap, predictor=Persistence())
        state = SystemState(b("pur{1,2,3,4}"))
        trace = fig2_trace()
        borrows = []
        for t in range(trace.horizon):
            result = controller.step(state, trace.behavior_at(t))
            state = result.state
            borrows.extend(a for a in result.actions if isinstance(a, BorrowFigure))
        assert BorrowFigure("canary", "5") in borrows

    def test_step_refuses_a_figure_its_peer_does_not_lend(self):
        # SystemState knows no peers, so it takes a peer -> figures mapping
        # whose peer id is a figure in scope; the controller refuses it
        cap = Capability(frozenset("1234"), peer_figures={"canary": frozenset("5")})
        env = b("pur{1,5}")
        with pytest.raises(ValueError, match=r"peer frozenset\(\{'1'\}\) does not lend figure '5'"):
            Controller(cap).step(SystemState(b("pur{1,5}"), {"5": frozenset("1")}), env)
        with pytest.raises(ValueError, match="peer 'other' does not lend figure '5'"):
            Controller(cap).step(SystemState(b("pur{1,5}"), {"5": "other"}), env)
        assert Controller(cap).step(SystemState(b("pur{1,5}"), {"5": "canary"}), env).fit == 1.0

    def test_action_tokens(self):
        assert format_action(EnableFigure("3")) == "enable:3"
        assert format_action(BorrowFigure("canary", "5")) == "borrow:canary:5"
        assert format_action(SetClass(BehaviorClass.PROACTIVE)) == "class:proactive"


def frozen_predict(predictor, history, oracle_next=None) -> Behavior:
    """``predict`` as it stood when the controller kept one observation per
    tick: it reads a sequence of observations, oldest first."""
    if not predictor.window:
        if oracle_next is None:
            raise ValueError("oracle predictor needs oracle_next")
        return oracle_next
    if not history:
        raise ValueError("cannot predict from an empty history")
    if isinstance(predictor, Persistence):
        return history[-1]
    window = list(history)[-predictor.window:]
    votes = Counter(f for obs in window for f in obs.figures or ())
    figures = frozenset(f for f, n in votes.items() if 2 * n >= len(window))
    klass = Counter(obs.klass for obs in reversed(window)).most_common(1)[0][0]
    return Behavior(klass, figures=figures)


def reference_step(state, history, env, capability, costs, predictor, weight, variant) -> StepResult:
    """Plain reference for one ``Controller.step`` from ``state``: it plans
    on every call, from every observation in ``history`` (through the
    per-tick ``frozen_predict``), recognises the oracle by its type and
    gives it the incoming behavior as lookahead; it scores every tick."""
    actions = []
    if history or isinstance(predictor, Oracle):
        prediction = frozen_predict(predictor, history, env)
        actions = plan_adaptation(state, prediction, capability, costs, weight, variant)
    post = apply_actions(state, actions, capability)
    cost = tick_cost(post, costs) + costs.switch_cost * len(actions)
    post = replace(post, cum_cost=state.cum_cost + cost)
    report = supply(post.behavior, env)
    return StepResult(post, report, fit(report, variant), tuple(actions))


def reference_steps(trace, start, capability, costs, predictor, weight, variant) -> list[StepResult]:
    """``reference_step`` on every tick, each from the state the one before
    returned, with every observation kept in a list."""
    state, history, results = start, [], []
    for t in range(trace.horizon):
        env = trace.behavior_at(t)
        results.append(reference_step(state, history, env, capability, costs, predictor, weight, variant))
        state = results[-1].state
        history.append(env)
    return results


FIGURES = frozenset("12345")
figure_sets = st.frozensets(st.sampled_from(sorted(FIGURES)))
rates = st.floats(0.0, 2.0)


@st.composite
def controller_runs(draw, max_segment_len=4, max_window=6, max_horizon=60):
    mean_segment_len = draw(st.integers(1, max_segment_len))
    spec = TurbulenceSpec(
        seed=draw(st.integers(0, 2**32)),
        class_walk=draw(st.floats(0.0, 1.0)),
        figure_flip=draw(st.floats(0.1, 0.9)),
        mean_segment_len=mean_segment_len,
        horizon=draw(st.integers(mean_segment_len, max_horizon)),
    )
    predictors = st.sampled_from([Persistence(), Oracle()]) | st.integers(1, max_window).map(WindowMajority)
    peers = draw(st.dictionaries(st.sampled_from(["a", "b", "c"]), figure_sets, max_size=3))
    capability = Capability(draw(figure_sets), draw(st.sampled_from(list(BehaviorClass))), peers)
    costs = CostModel(draw(rates), draw(rates), draw(rates), draw(rates))
    start = SystemState(Behavior(draw(st.sampled_from(list(BehaviorClass))), figures=draw(figure_sets)))
    return (
        generate_trace(spec, FIGURES), start, capability, costs, draw(predictors),
        draw(st.floats(0.0, 1.0)), draw(st.sampled_from(list(FitVariant))),
    )


def _ticks(runs) -> list[Behavior]:
    """The controller's runs expanded to one observation per tick."""
    return list(chain.from_iterable(repeat(obs, ticks) for obs, ticks in runs))


@settings(max_examples=300, deadline=None)
@given(controller_runs(), st.booleans())
def test_steps_match_the_full_history_reference(run, pass_lookahead):
    trace, start, capability, costs, predictor, weight, variant = run
    controller = Controller(capability, costs, predictor, weight, variant)
    state = start
    for t, expected in enumerate(reference_steps(*run)):
        env = trace.behavior_at(t)
        result = controller.step(state, env, oracle_next=env) if pass_lookahead else controller.step(state, env)
        assert result == expected
        assert len(_ticks(controller.history)) == min(t + 1, predictor.window)
        assert all(ticks > 0 for _, ticks in controller.history)
        assert all(older[0] != newer[0] for older, newer in pairwise(controller.history))
        state = result.state


@st.composite
def states(draw, capability: Capability) -> SystemState:
    """Any class, any local figures and any of the lent figures, each
    borrowed from one of the peers that lend it."""
    lenders = {}
    for peer, figs in sorted(capability.peer_figures.items()):
        for fig in figs:
            lenders.setdefault(fig, []).append(peer)
    borrowed = draw(st.fixed_dictionaries({}, optional={f: st.sampled_from(p) for f, p in lenders.items()}))
    figures = draw(figure_sets).union(borrowed)
    cum_cost = draw(st.floats(0.0, 100.0))
    return SystemState(Behavior(draw(st.sampled_from(list(BehaviorClass))), figures=figures), borrowed, cum_cost)


@settings(max_examples=300, deadline=None)
@given(controller_runs(), st.data())
def test_steps_from_states_it_did_not_return_match_the_reference(run, data):
    # Each tick steps from one of two fixed states or from the state the
    # last step returned, so the same prediction meets different states
    # and the controller's memory of its last idle plan must not carry over.
    trace, start, capability, costs, predictor, weight, variant = run
    controller = Controller(capability, costs, predictor, weight, variant)
    other = data.draw(states(capability))
    picks = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=trace.horizon, max_size=trace.horizon))
    history, state = [], start
    for t, pick in enumerate(picks):
        env = trace.behavior_at(t)
        state = (start, other, state)[pick]
        expected = reference_step(state, history, env, capability, costs, predictor, weight, variant)
        result = controller.step(state, env)
        assert result == expected
        history.append(env)
        state = result.state


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_the_greedy_plan_is_idempotent(data):
    # once a plan is applied, planning toward the same prediction again
    # finds nothing to do, so a controller whose prediction holds is idle
    capability = Capability(
        data.draw(figure_sets), data.draw(st.sampled_from(list(BehaviorClass))),
        data.draw(st.dictionaries(st.sampled_from(["a", "b", "c"]), figure_sets, max_size=3)),
    )
    state = data.draw(states(capability))
    predicted = Behavior(data.draw(st.sampled_from(list(BehaviorClass))), figures=data.draw(figure_sets))
    costs = CostModel(*(data.draw(rates) for _ in range(4)))
    weight, variant = data.draw(st.floats(0.0, 1.0)), data.draw(st.sampled_from(list(FitVariant)))
    actions = plan_adaptation(state, predicted, capability, costs, weight, variant)
    if actions:
        after = apply_actions(state, actions, capability)
        assert plan_adaptation(after, predicted, capability, costs, weight, variant) == []


def test_a_reassigned_weight_is_planned_with():
    # a switch cost too high for the weight vetoes the trim; once the
    # weight is cleared, the same state and prediction get a plan again
    controller = Controller(FULL_CAP, CostModel(switch_cost=100.0), Persistence(), weight=1.0)
    state = controller.step(SystemState(b("pur{1,2}")), b("pur{1}")).state
    result = controller.step(state, b("pur{1}"))
    assert result.actions == ()
    controller.weight = 0.0
    assert controller.step(result.state, b("pur{1}")).actions == (DisableFigure("2"),)


def test_a_reassigned_variant_is_scored_with():
    # a switch cost too high for the weight keeps an oversupplying state,
    # so two steps meet the same state and observation under two variants
    controller = Controller(FULL_CAP, CostModel(switch_cost=100.0), Persistence(), weight=1.0)
    env = b("pur{1}")
    linear = controller.step(controller.step(SystemState(b("pur{1,2,3}")), env).state, env)
    controller.variant = FitVariant.QUADRATIC
    quadratic = controller.step(linear.state, env)
    assert quadratic.actions == () and quadratic.state.behavior == linear.state.behavior
    assert linear.fit == fit(linear.supply, FitVariant.LINEAR)
    assert quadratic.fit == fit(linear.supply, FitVariant.QUADRATIC) != linear.fit


def test_an_idle_tick_keeps_an_equal_score_until_the_observation_changes():
    controller = Controller(FULL_CAP, predictor=Persistence())
    first = controller.step(SystemState(b("pur{1,2}")), b("pur{1,2}"))
    idle = controller.step(first.state, b("pur{1,2}"))
    assert idle.actions == ()
    assert idle.supply is first.supply and idle.fit == first.fit
    # persistence still predicts pur{1,2}, so this tick is idle too, but
    # it is scored against the new observation
    changed = controller.step(idle.state, b("pur{1}"))
    assert changed.actions == ()
    assert changed.supply is not idle.supply and changed.supply == supply(b("pur{1,2}"), b("pur{1}"))
    assert changed.fit == fit(changed.supply)


@pytest.mark.parametrize("predictor, window", [(Persistence(), 1), (Oracle(), 0), (WindowMajority(3), 3)])
def test_history_holds_only_the_predictor_window(predictor, window):
    controller = Controller(FULL_CAP, predictor=predictor)
    state = SystemState(b("pur{1}"))
    trace = fig2_trace()
    for t in range(trace.horizon):
        state = controller.step(state, trace.behavior_at(t)).state
    assert _ticks(controller.history) == [trace.behavior_at(t) for t in range(trace.horizon - window, trace.horizon)]


@pytest.mark.parametrize("predictor", [Persistence(), WindowMajority(2), Oracle()], ids=repr)
@pytest.mark.parametrize("observed", ["rea", "pro^2"])
def test_step_refuses_an_observation_that_names_no_figures(predictor, observed):
    # after the refusal the controller goes on exactly as a twin that never saw it
    controller, twin = Controller(FULL_CAP, predictor=predictor), Controller(FULL_CAP, predictor=predictor)
    state = controller.step(SystemState(b("pur{1}")), b("pur{1,2}")).state
    assert twin.step(SystemState(b("pur{1}")), b("pur{1,2}")).state == state
    with pytest.raises(ValueError, match="^environment behaviors must name their figures$"):
        controller.step(state, b(observed))
    assert controller.step(state, b("pur{1,2}")) == twin.step(state, b("pur{1,2}"))
    assert controller.repeats(10) == twin.repeats(10)
    assert controller.history == twin.history


# Three classes and three figures, so windows often tie on both.
_tied_observations = st.builds(
    Behavior,
    st.sampled_from([BehaviorClass.PURPOSEFUL, BehaviorClass.REACTIVE, BehaviorClass.PROACTIVE]),
    figures=st.frozensets(st.sampled_from("123")),
)


# Histories with runs of repeated observations, up to 24 ticks, so windows
# of up to 8 ticks start inside a run, end inside one or hold just one.
_tied_histories = st.lists(st.tuples(_tied_observations, st.integers(1, 3)), min_size=1, max_size=8).map(
    lambda runs: [obs for obs, ticks in runs for _ in range(ticks)]
)


# Observations over eight figures, so the runs of a window share some
# figures and dispute others, plus an unscoped and an arity observation,
# which vote for no figure.
_observations = st.builds(
    Behavior,
    st.sampled_from([BehaviorClass.PURPOSEFUL, BehaviorClass.REACTIVE, BehaviorClass.PROACTIVE]),
    figures=st.frozensets(st.sampled_from("12345678")),
) | st.sampled_from([b("rea"), b("pro^2")])


@st.composite
def _disputed_histories(draw):
    """Runs drawn from a pool of up to four observations, so one object
    can hold two runs that are not adjacent."""
    pool = draw(st.lists(_observations, min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=8))
    return [obs for obs, ticks in runs for _ in range(ticks)]


_SHARED = b("pur{1,2,3,4,5,6}")


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from([Persistence()]) | st.integers(1, 8).map(WindowMajority),
    _tied_histories | _disputed_histories(),
)
@example(WindowMajority(3), [b("rea{1}"), b("pur{2}"), b("pur{2}"), b("rea{1,2}"), b("rea{1,2}")])
@example(WindowMajority(4), [b("pur{1}")] * 3 + [b("rea{2}")] * 2 + [b("pur{1}")] * 2)
# one object in two runs that are not adjacent
@example(WindowMajority(5), [_SHARED] * 2 + [b("pur{1,7}")] * 2 + [_SHARED])
# two runs tie for the most ticks, and a figure of the newer one is tied
@example(WindowMajority(4), [b("rea{1,2,3}")] * 2 + [b("pur{3,4,5}")] * 2)
# the heaviest run names no figures, and a majority names them all the same
@example(WindowMajority(3), [b("rea")] * 3)
@example(WindowMajority(4), [b("pur{1}")] + [b("rea")] * 3)
@example(WindowMajority(5), [b("pro{1,2}")] * 2 + [b("pro^2")] * 3)
# no run holds a strict majority of an even window, and a tied figure joins
@example(WindowMajority(4), [b("pur{1}")] * 2 + [b("pur{2}")] * 2)
# the run holding a strict majority names no figures
@example(WindowMajority(3), [b("pur{1}")] + [b("rea")] * 2)
@example(WindowMajority(2), [b("rea{1}"), b("pur{2}")])
@example(WindowMajority(4), [b("pro{1}"), b("rea{1,2}"), b("pur{2}"), b("rea{}"), b("pur{3}")])
def test_predict_over_runs_matches_the_per_tick_predict(predictor, history):
    # persistence is fed only observations that name their figures, as a controller feeds it
    assume(not isinstance(predictor, Persistence) or history[-1].figures is not None)
    expected = frozen_predict(predictor, history)
    assert predict(predictor, runs_of(history)) == expected
    assert predict(predictor, runs_of(history[-predictor.window:])) == expected


def _rows_and_reference_rows(scenario):
    """``run_scenario``'s rows (sys behavior, actions, supply, fit, cost,
    cum_cost) and ``reference_steps``' on the scenario's trace, tick by
    tick. The reference shares neither Controller nor predict with the
    program."""
    report = run_scenario(scenario)
    expected, before = [], 0.0
    for result in reference_steps(
        scenario_trace(scenario), SystemState(scenario.initial_behavior), scenario.capability,
        scenario.costs, scenario.predictor, scenario.weight, scenario.variant,
    ):
        cum = result.state.cum_cost
        expected.append((
            result.state.behavior, tuple(map(format_action, result.actions)), result.supply, result.fit,
            cum - before, cum,
        ))
        before = cum
    rows = [(row.sys_behavior, row.actions, row.supply, row.fit, row.cost, row.cum_cost)
            for row in report.rows]
    return rows, expected


def _controller_long(seed, horizon=None):
    """The benchmark's controller workload at trace seed ``seed``, with its
    trace fixed."""
    workloads = bench_module("workloads")
    scenario = parse_scenario(workloads.scenario_text(workloads.WORKLOADS["controller-long"], seed, horizon))
    return replace(scenario, trace=scenario_trace(scenario, seed), turbulence=None)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_controller_long_run_matches_the_reference_steps(seed):
    # the benchmark's controller workload, shortened: 32 figures,
    # majority:5 and two lenders
    scenario = _controller_long(seed, horizon=300)
    assert (len(scenario.universe), scenario.predictor, len(scenario.capability.peer_figures)) == (
        32, WindowMajority(5), 2,
    )
    rows, expected = _rows_and_reference_rows(scenario)
    assert rows == expected


@settings(max_examples=300, deadline=None)
@given(controller_runs(max_segment_len=12, max_window=8, max_horizon=120))
def test_a_run_matches_the_reference_steps(run):
    # Segments long against windows of up to 8, so a run holding a strict
    # majority of the window often sits behind the newest run while the
    # repeats are counted, and even windows tie.
    trace, start, capability, costs, predictor, weight, variant = run
    scenario = Scenario(
        "random", FIGURES, trace=trace, initial_behavior=start.behavior, predictor=predictor,
        weight=weight, capability=capability, costs=costs, variant=variant,
    )
    rows, expected = _rows_and_reference_rows(scenario)
    assert rows == expected


def test_a_controller_long_op_steps_at_most_1100_times(monkeypatch):
    # the first op input of the benchmark's controller workload at workload
    # seed 1 steps about 2400 of its 5000 ticks when every tick of a segment
    # is stepped until its window holds only the segment's behavior
    workloads = bench_module("workloads")
    steps = []
    step = Controller.step

    def counting(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(Controller, "step", counting)
    report = run_scenario(_controller_long(workloads.op_seeds(workloads.WORKLOADS["controller-long"], 1, 0)[0]))
    assert len(report.rows) == 5000
    assert len(steps) <= 1100


# ``SystemState.borrowed`` once mapped each peer to the set of figures it
# lent. The three functions below are the organs as they were written for
# that shape, on a (behavior, peer -> figures) pair instead of a state.

def _lent_figures(by_peer):
    return frozenset().union(*by_peer.values())


def _tick_cost_by_peer(behavior, by_peer, costs):
    lent = _lent_figures(by_peer)
    return (
        costs.figure_cost * len(behavior.figures - lent)
        + costs.borrow_cost * len(lent)
        + costs.class_cost * behavior.klass
    )


def _apply_actions_by_peer(behavior, by_peer, actions, capability):
    local = set(behavior.figures - _lent_figures(by_peer))
    borrowed = {p: set(figs) for p, figs in by_peer.items()}
    klass = behavior.klass
    for action in actions:
        if isinstance(action, EnableFigure):
            local.add(action.figure)
        elif isinstance(action, DisableFigure):
            local.discard(action.figure)
        elif isinstance(action, BorrowFigure):
            borrowed.setdefault(action.peer, set()).add(action.figure)
        elif isinstance(action, ReturnFigure):
            borrowed.get(action.peer, set()).discard(action.figure)
        else:
            klass = action.klass
    figures = frozenset(local).union(*borrowed.values())
    return Behavior(klass, figures=figures), {p: frozenset(f) for p, f in borrowed.items() if f}


def _plan_adaptation_by_peer(behavior, by_peer, predicted, capability, costs, weight, variant):
    current, target = behavior.figures, predicted.figures
    actions = []
    for fig in sorted(target - current):
        if fig in capability.universe:
            actions.append(EnableFigure(fig))
            continue
        lender = min((p for p, figs in capability.peer_figures.items() if fig in figs), default=None)
        if lender is not None:
            actions.append(BorrowFigure(lender, fig))
    borrowed_by_figure = {fig: peer for peer, figs in sorted(by_peer.items()) for fig in figs}
    for fig in sorted(current - target):
        peer = borrowed_by_figure.get(fig)
        actions.append(ReturnFigure(peer, fig) if peer is not None else DisableFigure(fig))
    target_class = min(predicted.klass, capability.max_class)
    if target_class is not behavior.klass:
        actions.append(SetClass(target_class))
    if not actions:
        return []
    post, post_by_peer = _apply_actions_by_peer(behavior, by_peer, actions, capability)
    idle = cost_adjusted_fit(
        fit(supply(behavior, predicted), variant), _tick_cost_by_peer(behavior, by_peer, costs), weight
    )
    acted = cost_adjusted_fit(
        fit(supply(post, predicted), variant),
        _tick_cost_by_peer(post, post_by_peer, costs) + costs.switch_cost * len(actions),
        weight,
    )
    return actions if acted > idle else []


def _by_peer(borrowed):
    """A figure -> lender mapping in the peer -> figures shape."""
    by_peer = {}
    for fig, peer in borrowed.items():
        by_peer.setdefault(peer, set()).add(fig)
    return {p: frozenset(figs) for p, figs in by_peer.items()}


_classes = st.sampled_from(list(BehaviorClass))


@st.composite
def borrowing_cases(draw):
    """A capability whose peers often lend the same figure, a state it can
    reach, a prediction, and a list of valid actions that, as a run's plans
    do, borrows only figures the state lacks and each from one lender."""
    peers = draw(st.dictionaries(st.sampled_from("abc"), st.frozensets(st.sampled_from("345")), max_size=3))
    capability = Capability(draw(figure_sets), draw(_classes), peers)
    state = draw(states(capability))
    predicted = Behavior(draw(_classes), figures=draw(figure_sets))
    lenders = sorted({(f, p) for p, figs in peers.items() for f in figs if f not in state.behavior.figures})
    borrows = [BorrowFigure(p, f) for f, p in draw(
        st.lists(st.sampled_from(lenders), unique_by=lambda lend: lend[0]) if lenders else st.just([])
    )]
    others = st.one_of(
        st.sampled_from(sorted(capability.universe)).map(EnableFigure) if capability.universe else st.nothing(),
        st.sampled_from(sorted(FIGURES)).map(DisableFigure),
        st.builds(ReturnFigure, st.sampled_from("abc"), st.sampled_from(sorted(FIGURES))),
        _classes.map(SetClass),
    )
    actions = draw(st.permutations(borrows + draw(st.lists(others, max_size=6))))
    costs = CostModel(draw(rates), draw(rates), draw(rates), draw(rates))
    return capability, state, predicted, actions, costs, draw(st.floats(0.0, 1.0)), draw(st.sampled_from(list(FitVariant)))


_two_lenders = Capability(frozenset("1"), peer_figures={"b": frozenset("5"), "a": frozenset("5")})


@settings(max_examples=300, deadline=None)
@given(borrowing_cases())
@example((  # a figure returned to a peer that did not lend it stays borrowed
    _two_lenders, SystemState(b("pur{1,5}"), {"5": "a"}), b("pur{1,5}"),
    [ReturnFigure("b", "5")], CostModel(borrow_cost=0.5), 0.0, FitVariant.LINEAR,
))
@example((  # two peers lend figure 5, and the lowest-id one lends it
    _two_lenders, SystemState(b("pur{1}")), b("pur{1,5}"),
    [BorrowFigure("a", "5")], CostModel(borrow_cost=0.5), 0.1, FitVariant.LINEAR,
))
def test_borrowing_matches_the_peer_to_figures_code(case):
    capability, state, predicted, actions, costs, weight, variant = case
    by_peer = _by_peer(state.borrowed)
    assert tick_cost(state, costs) == _tick_cost_by_peer(state.behavior, by_peer, costs)
    plan = plan_adaptation(state, predicted, capability, costs, weight, variant)
    assert plan == _plan_adaptation_by_peer(state.behavior, by_peer, predicted, capability, costs, weight, variant)
    for acts in (plan, actions):
        post = apply_actions(state, acts, capability)
        behavior, post_by_peer = _apply_actions_by_peer(state.behavior, by_peer, acts, capability)
        assert (post.behavior, _by_peer(post.borrowed)) == (behavior, post_by_peer)
        assert tick_cost(post, costs) == _tick_cost_by_peer(behavior, post_by_peer, costs)
