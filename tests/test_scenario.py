import pytest

from behaviorfit import (
    BehaviorClass,
    Persistence,
    Scenario,
    ScenarioError,
    SensorNode,
    WindowMajority,
    fig2_scenario,
    fig2_trace,
    load_scenario,
    parse_scenario,
    validate_scenario,
    parse_behavior as b,
)

FULL = """
name = demo
universe = 1,2,3,4,5
turbulence.seed = 42
turbulence.class_walk = 0.1
turbulence.figure_flip = 0.2
turbulence.mean_segment_len = 5
turbulence.horizon = 40
system.behavior = pur{1,2,3,4}
system.class = (pur, pro^1, pur, pur, none)
controller.predictor = majority:3
controller.weight = 0.25
costs.figure = 0.01
costs.borrow = 0.02
costs.class = 0.005
costs.switch = 0.5
capability.figures = 1,2,3,4
capability.max_class = pro
peers.canary.figures = 5
fit.variant = quadratic
"""


class TestParse:
    def test_full_scenario(self):
        s = parse_scenario(FULL)
        assert s.name == "demo"
        assert s.universe == frozenset("12345")
        assert s.turbulence.seed == 42
        assert s.turbulence.horizon == 40
        assert s.initial_behavior == b("pur{1,2,3,4}")
        assert s.cybernetic_class.analyze == b("pro^1")
        assert s.predictor == WindowMajority(3)
        assert s.weight == 0.25
        assert s.costs.switch_cost == 0.5
        assert s.capability.universe == frozenset("1234")
        assert s.capability.max_class is BehaviorClass.PROACTIVE
        assert s.capability.peer_figures == {"canary": frozenset("5")}
        assert s.variant.value == "quadratic"
        assert validate_scenario(s) == []

    def test_sensors_and_critical(self):
        s = parse_scenario(
            "universe = 1,2,3\n"
            "turbulence.seed = 1\n"
            "sensors.m1 = {1,2} 1.5\n"
            "sensors.m2 = {3} 0.5\n"
            "critical = {3}\n"
        )
        assert s.sensors == (
            SensorNode("m1", frozenset("12"), 1.5),
            SensorNode("m2", frozenset("3"), 0.5),
        )
        assert s.critical == frozenset("3")

    def test_sensor_line_splits_on_any_whitespace(self):
        s = parse_scenario("sensors.m1 = {1, 2}\t1.5\nsensors.m2 = {3}  \t 0.5\n")
        assert s.sensors == (
            SensorNode("m1", frozenset("12"), 1.5),
            SensorNode("m2", frozenset("3"), 0.5),
        )

    def test_comments_and_blanks(self):
        s = parse_scenario("# hello\n\nuniverse = 1\nturbulence.seed = 3\n")
        assert s.universe == frozenset("1")

    def test_trace_file(self, tmp_path):
        (tmp_path / "short.trace").write_text("universe: 1,2\n0 4 pur{1}\n")
        (tmp_path / "s.scenario").write_text(
            "universe = 1,2\ntrace.file = short.trace\nsystem.behavior = pur{1}\n"
        )
        s = load_scenario(tmp_path / "s.scenario")
        assert s.name == "s"
        assert s.trace.horizon == 4
        assert validate_scenario(s) == []

    @pytest.mark.parametrize(
        "text,match",
        [
            ("universe 1,2\n", "key = value"),
            ("bogus = 1\n", "unknown key"),
            ("universe = 1\nuniverse = 2\n", "duplicate"),
            ("controller.predictor = psychic\n", "unknown predictor"),
            ("turbulence.class_walk = 2\n", "turbulence"),
            ("turbulence.horizon = 5\n", "seed"),
            ("costs.shipping = 1\n", "unknown cost"),
            ("costs.figure = -2\n", "non-negative"),
            ("system.behavior = zzz\n", "behavior"),
            ("sensors.m1 = {1,2}\n", "m1"),
            ("controller.predictor = majority:x\n", "majority"),
            ("costs.figure = inf\n", "costs.figure: expected a finite number"),
            ("controller.weight = nan\n", "controller.weight: expected a finite number"),
            ("sensors.x = {a} nan\n", "sensors.x: expected a finite number"),
            ("sensors.x = {a} -inf\n", "sensors.x: expected a finite number"),
        ],
    )
    def test_parse_errors_name_the_line(self, text, match):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario(text)
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(text)


class TestValidate:
    def test_fig2_scenario_is_clean(self):
        assert validate_scenario(fig2_scenario()) == []

    def test_needs_exactly_one_trace_source(self):
        s = fig2_scenario()
        s.turbulence = parse_scenario("universe = 1\nturbulence.seed = 1\n").turbulence
        assert any("exactly one" in v for v in validate_scenario(s))
        s2 = Scenario(name="none", universe=frozenset("1"), initial_behavior=b("pur{1}"))
        assert any("exactly one" in v for v in validate_scenario(s2))

    def test_sensor_figures_outside_universe(self):
        s = parse_scenario("universe = 1\nturbulence.seed = 1\nsensors.m1 = {1,9} 1.0\n")
        violations = validate_scenario(s)
        assert len(violations) == 1
        assert "sensors.m1" in violations[0] and "9" in violations[0]

    def test_system_behavior_must_name_figures(self):
        s = fig2_scenario()
        s.initial_behavior = b("pur^2")
        assert any("name its figures" in v for v in validate_scenario(s))

    def test_trace_universe_inside_scenario_universe(self):
        s = fig2_scenario()
        s.universe = frozenset("123")
        assert any(v.startswith("trace:") for v in validate_scenario(s))

    def test_controller_and_sensors_exclusive(self):
        s = parse_scenario(
            "universe = 1\nturbulence.seed = 1\n"
            "controller.predictor = persistence\nsensors.m1 = {1} 1.0\n"
        )
        assert any("mutually exclusive" in v for v in validate_scenario(s))

    def test_peer_figures_outside_universe(self):
        s = parse_scenario(
            "universe = 1\nturbulence.seed = 1\n"
            "controller.predictor = persistence\npeers.p.figures = 7\n"
        )
        assert any("peers.p" in v for v in validate_scenario(s))

    def test_capability_defaults_to_universe(self):
        s = parse_scenario(
            "universe = 1,2\nturbulence.seed = 1\ncontroller.predictor = persistence\n"
        )
        assert s.capability.universe == frozenset("12")
        assert s.predictor == Persistence()

    def test_fig2_trace_matches_demo_scenario(self):
        assert fig2_scenario().trace == fig2_trace()


class TestShippedScenarios:
    SCENARIOS = sorted((__import__("pathlib").Path(__file__).parent.parent / "scenarios").glob("*.scenario"))

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_loads_validates_and_runs(self, path):
        from behaviorfit import run_scenario

        scenario = load_scenario(path)
        assert validate_scenario(scenario) == []
        report = run_scenario(scenario)
        assert report.summary.ticks > 0

    def test_the_three_samples_are_present(self):
        assert [p.stem for p in self.SCENARIOS] == ["canary", "sensors", "static-fig2"]
