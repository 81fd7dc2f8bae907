from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
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
    plan_adaptation,
    predict,
    supply,
    tick_cost,
    parse_behavior as b,
)

FULL_CAP = Capability(frozenset("12345"))


class TestPredict:
    def test_persistence(self):
        history = [b("pur{2}"), b("pur{1,4}")]
        assert predict(Persistence(), history) == b("pur{1,4}")

    def test_persistence_needs_history(self):
        with pytest.raises(ValueError, match="empty history"):
            predict(Persistence(), [])

    def test_window_majority_votes_figures(self):
        history = [b("pur{1}"), b("pur{1,2}"), b("pur{1,2}")]
        assert predict(WindowMajority(3), history) == b("pur{1,2}")

    def test_window_majority_includes_ties(self):
        history = [b("pur{1}"), b("pur{2}")]
        assert predict(WindowMajority(2), history) == b("pur{1,2}")

    def test_window_majority_class_tie_is_most_recent(self):
        history = [b("rea{1}"), b("pur{1}"), b("rea{1}"), b("pur{1}")]
        assert predict(WindowMajority(4), history).klass is BehaviorClass.PURPOSEFUL

    def test_window_shorter_history(self):
        history = [b("pur{1}")]
        assert predict(WindowMajority(5), history) == b("pur{1}")

    def test_any_sequence_of_observations(self):
        history = deque([b("rea{1}"), b("pur{1}"), b("pur{2}")])
        assert predict(WindowMajority(2), history) == b("pur{1,2}")
        assert predict(Persistence(), history) == b("pur{2}")

    def test_oracle_passthrough(self):
        nxt = b("pur{1,2,3,4,5}")
        assert predict(Oracle(), [], oracle_next=nxt) == nxt

    def test_oracle_needs_next(self):
        with pytest.raises(ValueError, match="oracle"):
            predict(Oracle(), [b("pur{1}")])


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
        state = SystemState(b("pur{1,5}"), borrowed={"canary": frozenset("5")})
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


class TestApplyActions:
    def test_round_trip_state(self):
        state = SystemState(b("pur{1}"))
        cap = Capability(frozenset("12"), peer_figures={"p": frozenset("3")})
        actions = [EnableFigure("2"), BorrowFigure("p", "3"), SetClass(BehaviorClass.PROACTIVE)]
        out = apply_actions(state, actions, cap)
        assert out.behavior == b("pro{1,2,3}")
        assert out.borrowed == {"p": frozenset("3")}
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
            SystemState(b("pur{1}"), borrowed={"p": frozenset("2")})

    def test_local_is_scope_minus_borrowed(self):
        state = SystemState(b("pur{1,2}"), borrowed={"p": frozenset("2")})
        assert state.local_figures == frozenset("1")


class TestControllerLoop:
    def run_on_trace(self, trace, predictor, start="pur{1,2,3,4}", costs=None, weight=0.0):
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
            for peer, figs in state.borrowed.items():
                assert figs <= cap.peer_figures[peer]

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

    def test_action_tokens(self):
        assert format_action(EnableFigure("3")) == "enable:3"
        assert format_action(BorrowFigure("canary", "5")) == "borrow:canary:5"
        assert format_action(SetClass(BehaviorClass.PROACTIVE)) == "class:proactive"


def reference_steps(trace, start, capability, costs, predictor, weight, variant) -> list[StepResult]:
    """Plain per-tick reference for ``Controller.step``: every observation
    is kept in a list, the oracle is recognised by its type, and the
    oracle's lookahead is the incoming behavior."""
    state, history, results = start, [], []
    for t in range(trace.horizon):
        env = trace.behavior_at(t)
        actions = []
        if history or isinstance(predictor, Oracle):
            prediction = predict(predictor, history, env)
            if prediction.figures is not None:
                actions = plan_adaptation(state, prediction, capability, costs, weight, variant)
        post = apply_actions(state, actions, capability)
        cost = tick_cost(post, costs) + costs.switch_cost * len(actions)
        state = replace(post, cum_cost=state.cum_cost + cost)
        report = supply(state.behavior, env)
        results.append(StepResult(state, report, fit(report, variant), tuple(actions)))
        history.append(env)
    return results


FIGURES = frozenset("12345")
figure_sets = st.frozensets(st.sampled_from(sorted(FIGURES)))
rates = st.floats(0.0, 2.0)
predictors = st.sampled_from([Persistence(), Oracle()]) | st.integers(1, 6).map(WindowMajority)


@st.composite
def controller_runs(draw):
    mean_segment_len = draw(st.integers(1, 4))
    spec = TurbulenceSpec(
        seed=draw(st.integers(0, 2**32)),
        class_walk=draw(st.floats(0.0, 1.0)),
        figure_flip=draw(st.floats(0.1, 0.9)),
        mean_segment_len=mean_segment_len,
        horizon=draw(st.integers(mean_segment_len, 60)),
    )
    peers = draw(st.dictionaries(st.sampled_from(["a", "b", "c"]), figure_sets, max_size=3))
    capability = Capability(draw(figure_sets), draw(st.sampled_from(list(BehaviorClass))), peers)
    costs = CostModel(draw(rates), draw(rates), draw(rates), draw(rates))
    start = SystemState(Behavior(draw(st.sampled_from(list(BehaviorClass))), figures=draw(figure_sets)))
    return (
        generate_trace(spec, FIGURES), start, capability, costs, draw(predictors),
        draw(st.floats(0.0, 1.0)), draw(st.sampled_from(list(FitVariant))),
    )


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
        assert len(controller.history) == min(t + 1, predictor.window)
        state = result.state


@pytest.mark.parametrize("predictor, window", [(Persistence(), 1), (Oracle(), 0), (WindowMajority(3), 3)])
def test_history_holds_only_the_predictor_window(predictor, window):
    controller = Controller(FULL_CAP, predictor=predictor)
    state = SystemState(b("pur{1}"))
    trace = fig2_trace()
    for t in range(trace.horizon):
        state = controller.step(state, trace.behavior_at(t)).state
    assert list(controller.history) == [trace.behavior_at(t) for t in range(trace.horizon - window, trace.horizon)]
