import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from behaviorfit import (
    BehaviorClass,
    Capability,
    CostModel,
    Persistence,
    Scenario,
    ScenarioError,
    SensorNode,
    WindowMajority,
    fig2_scenario,
    fig2_trace,
    format_trace,
    load_scenario,
    parse_scenario,
    run_scenario,
    validate_scenario,
    parse_behavior as b,
)
from behaviorfit.cli import main

SAMPLES = Path(__file__).parent.parent / "scenarios"

FULL = """
name = demo
universe = 1,2,3,4,5
turbulence.seed = 42
turbulence.class_walk = 0.1
turbulence.figure_flip = 0.2
turbulence.mean_segment_len = 5
turbulence.horizon = 40
system.behavior = pur{1,2,3,4}
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
        s = parse_scenario(
            "universe = 1,2,3\nturbulence.seed = 1\nsensors.m1 = {1, 2}\t1.5\nsensors.m2 = {3}  \t 0.5\n"
        )
        assert s.sensors == (
            SensorNode("m1", frozenset("12"), 1.5),
            SensorNode("m2", frozenset("3"), 0.5),
        )

    def test_ascii_numbers_keep_signs_decimals_and_exponents(self):
        s = parse_scenario(
            "universe = 1\nturbulence.seed = +12\nturbulence.class_walk = 5E-1\nturbulence.figure_flip = .25\n"
            "turbulence.mean_segment_len = 3\nturbulence.horizon = 30\nsystem.behavior = pur{1}\n"
            "controller.predictor = persistence\ncontroller.weight = 1e-1\ncosts.figure = +0.5\n"
        )
        assert (s.turbulence.seed, s.turbulence.class_walk, s.turbulence.figure_flip) == (12, 0.5, 0.25)
        assert (s.weight, s.costs.figure_cost) == (0.1, 0.5)
        sensors = parse_scenario("universe = 1\nturbulence.seed = 1\nsensors.a = {1} 2.5e0\n")
        assert sensors.sensors == (SensorNode("a", frozenset("1"), 2.5),)

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
            ("costs.figure = inf\n", "costs.figure: expected a finite non-negative figure_cost"),
            ("controller.weight = nan\n", "controller.weight: must be finite and non-negative"),
            ("sensors.x = {a} nan\n", "sensors.x: expected a finite positive energy cost for sensor 'x'"),
            ("sensors.x = {a} -inf\n", "sensors.x: expected a finite positive energy cost for sensor 'x'"),
            ("universe = 1 2\n", "universe: bad figure token '1 2'"),
            ("capability.figures = 1,,2\n", "capability.figures: bad figure token ''"),
            ("peers.p.figures = {1;2}\n", r"peers\.p\.figures: bad figure token '1;2'"),
            ("peers..figures = 5\n", r"peers\.\.figures: bad id ''"),
            ("sensors.m 1 = {1} 1\n", r"sensors\.m 1: bad id 'm 1'"),
            ("sensors.m1 = {1,} 1\n", r"sensors\.m1: bad figure token ''"),
            ("turbulence.wind = 1\n", "unknown key 'turbulence.wind'"),
            ("turbulence.seed = 1\nname = x\nturbulence.horizon = 5\n", "line 3: turbulence: horizon must be"),
            ("controller.predictor = majority:0\n", "controller.predictor: window must be >= 1, got 0"),
            # the organ tuple is a library comparison (parse_class), not a key
            ("system.class = (pur, pro^1, pur, pur, none)\n", r"^line 1: system\.class: unknown key 'system\.class'$"),
            ("controller.predictor = majority:²\n", "^line 1: controller.predictor: majority window must be an integer, got '²'$"),
            ("turbulence.seed = 1\nturbulence.figure_flip = 1.5\n", r"line 2: turbulence: figure_flip must be in \[0, 1\]"),
            ("turbulence.seed = 1\nturbulence.mean_segment_len = 0\n", "line 2: turbulence: mean_segment_len must be >= 1"),
            ("capability.max_class = xyz\n", "line 1: capability.max_class: unknown behavior class 'xyz'"),
            ("universe =\n", "line 1: universe: must not be empty"),
            ("turbulence.seed = 1\nturbulence.class_walk = nan\n", r"line 2: turbulence: class_walk must be in \[0, 1\], got nan"),
            # a violation names its own key's line, not that of a longer key
            # under it that an id with dots makes
            (
                "universe = 1,2\nturbulence.seed = 1\n\n# sensors\nsensors.m.1 = {1} 1.0\nsensors.m = {9} 1.0\n",
                r"^line 6: sensors\.m: figures \['9'\] outside universe$",
            ),
            (
                "universe = 1,2\nturbulence.seed = 1\ncontroller.predictor = persistence\n"
                "peers.p.figures.figures = 1\npeers.p.figures = 9\n",
                r"^line 5: peers\.p\.figures: figures \['9'\] outside universe$",
            ),
            # a turbulence error names the line of the key it is about, not
            # that of the last turbulence key
            (
                "universe = 1\nturbulence.seed = 1\nturbulence.class_walk = 2\nturbulence.horizon = 100\n",
                r"^line 3: turbulence: class_walk must be in \[0, 1\], got 2\.0$",
            ),
            (
                "turbulence.seed = 1\nturbulence.horizon = 5\nturbulence.figure_flip = 0.5\n",
                "^line 2: turbulence: horizon must be at least mean_segment_len$",
            ),
            (
                "turbulence.seed = 1\nturbulence.mean_segment_len = 200\nturbulence.figure_flip = 0.5\n",
                "^line 2: turbulence: horizon must be at least mean_segment_len$",
            ),
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
        with pytest.raises(ScenarioError, match=r"^line 3: sensors\.m1: figures \['9'\] outside universe$"):
            parse_scenario("universe = 1\nturbulence.seed = 1\nsensors.m1 = {1,9} 1.0\n")

    def test_system_behavior_must_name_figures(self):
        s = fig2_scenario()
        s.initial_behavior = b("pur^2")
        assert any("name its figures" in v for v in validate_scenario(s))

    def test_trace_universe_inside_scenario_universe(self):
        s = fig2_scenario()
        s.universe = frozenset("123")
        assert any(v.startswith("trace:") for v in validate_scenario(s))

    def test_duplicate_sensor_ids(self):
        s = parse_scenario("universe = 1\nturbulence.seed = 1\nsensors.a = {1} 1.0\n")
        s.sensors += (SensorNode("a", frozenset("1"), 2.0),)
        assert validate_scenario(s) == ["sensors.a: duplicate sensor id"]

    @pytest.mark.parametrize(
        "predictor,capability,violation",
        [
            (Persistence(), None, "controller.predictor: a controller needs a capability"),
            (None, Capability(frozenset("5")), "capability: only a controller reads it; set controller.predictor"),
        ],
        ids=["predictor-only", "capability-only"],
    )
    def test_code_built_controller_needs_predictor_and_capability(self, predictor, capability, violation):
        # scenario files cannot reach these, as the parser pairs the two;
        # a scenario built in code must fail validation, not crash or be
        # run as a static system
        s = replace(fig2_scenario(), predictor=predictor, capability=capability)
        assert validate_scenario(s) == [violation]
        with pytest.raises(ScenarioError, match=re.escape(violation)):
            run_scenario(s)

    @pytest.mark.parametrize(
        "text,violation",
        [
            (
                "controller.weight = 7\n",
                "line 4: controller.weight: only a controller reads it; set controller.predictor",
            ),
            (
                "system.behavior = pur{}\nsensors.a = {1} 1.0\ncosts.switch = 0\ncosts.figure = 5\n",
                "line 6: costs: a sensor run prices only its sensors' energy",
            ),
        ],
        ids=["weight-without-controller", "costs-with-sensors"],
    )
    def test_settings_no_run_reads_are_refused(self, text, violation):
        with pytest.raises(ScenarioError, match=f"^{re.escape(violation)}$"):
            parse_scenario("universe = 1\nturbulence.seed = 1\n\n" + text)

    def test_a_zero_weight_or_default_costs_are_no_setting(self):
        parse_scenario("universe = 1\nturbulence.seed = 1\ncontroller.weight = 0\n")
        parse_scenario("universe = 1\nturbulence.seed = 1\ncosts.figure = 0\nsensors.a = {1} 1.0\n")

    @pytest.mark.parametrize(
        "kind, key, value, default, change, rule",
        [
            (
                "sensors.a = {1} 1.0\n", "system.behavior", "soc{1}", "pur{}",
                {"initial_behavior": b("soc{1}")}, "a sensor run's behavior is what its active sensors cover",
            ),
            (
                "system.behavior = pur{1}\n", "costs.borrow", "7", "0",
                {"costs": CostModel(borrow_cost=7.0)}, "only a controller reads it; set controller.predictor",
            ),
            (
                "system.behavior = pur{1}\n", "costs.switch", "5", "0",
                {"costs": CostModel(switch_cost=5.0)}, "only a controller reads it; set controller.predictor",
            ),
        ],
        ids=["behavior-beside-sensors", "borrow-on-static", "switch-on-static"],
    )
    def test_settings_a_kind_of_run_does_not_read_are_refused(
        self, tmp_path, capsys, kind, key, value, default, change, rule
    ):
        def text(setting: str) -> str:
            return "universe = 1\nturbulence.seed = 1\n\n" + setting + "critical = {1}\n" + kind

        # from a file, the run exits 1 naming the key's own line
        path = tmp_path / "refused.scenario"
        path.write_text(text(f"{key} = {value}\n"))
        assert main(["run", "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: line 4: {key}: {rule}\n")
        # from code, validation and the run refuse it alike
        scenario = replace(parse_scenario(text("")), **change)
        assert validate_scenario(scenario) == [f"{key}: {rule}"]
        with pytest.raises(ScenarioError, match=re.escape(f"{key}: {rule}")):
            run_scenario(scenario)
        # the default is no setting
        assert parse_scenario(text(f"{key} = {default}\n")) == parse_scenario(text(""))

    def test_code_built_settings_no_run_reads_are_refused(self):
        static = replace(fig2_scenario(), weight=0.3)
        assert validate_scenario(static) == [
            "controller.weight: only a controller reads it; set controller.predictor"
        ]
        sensors = load_scenario(SAMPLES / "sensors.scenario")
        priced = replace(sensors, costs=CostModel(figure_cost=5.0))
        assert validate_scenario(priced) == ["costs: a sensor run prices only its sensors' energy"]
        with pytest.raises(ScenarioError, match="costs: a sensor run"):
            run_scenario(priced)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_weight_must_be_finite(self, weight):
        # a NaN weight makes every fit comparison false, so the controller would never adapt
        s = replace(load_scenario(SAMPLES / "canary.scenario"), weight=weight)
        assert validate_scenario(s) == ["controller.weight: must be finite and non-negative"]
        with pytest.raises(ScenarioError, match="controller.weight"):
            run_scenario(s)

    def test_controller_and_sensors_exclusive(self):
        with pytest.raises(ScenarioError, match=r"^line 3: controller\.predictor: .*mutually exclusive$"):
            parse_scenario(
                "universe = 1\nturbulence.seed = 1\n"
                "controller.predictor = persistence\nsensors.m1 = {1} 1.0\n"
            )

    def test_peer_figures_outside_universe(self):
        with pytest.raises(ScenarioError, match=r"^line 4: peers\.p\.figures: figures \['7'\] outside universe$"):
            parse_scenario(
                "universe = 1\nturbulence.seed = 1\n"
                "controller.predictor = persistence\npeers.p.figures = 7\n"
            )

    @pytest.mark.parametrize("system", ["", "sensors.m1 = {1} 1.0\n"], ids=["static", "sensors"])
    def test_capability_and_peers_need_a_controller(self, system):
        # only a controller reads them, so without one they are refused,
        # naming each such line, instead of being silently ignored
        text = (
            "universe = 1,2\nturbulence.seed = 1\n" + system
            + "peers.p.figures = 2\ncapability.max_class = rea\n"
        )
        line = 3 + bool(system)
        with pytest.raises(ScenarioError, match=rf"^line {line}: peers\.p\.figures: .*controller\.predictor"):
            parse_scenario(text)
        with pytest.raises(ScenarioError, match=rf"^line {line}: capability\.max_class: "):
            parse_scenario(text.replace("peers.p.figures = 2\n", ""))
        with_controller = text + "controller.predictor = persistence\n"
        if system:
            # the peers line is read now; what is left is that sensors exclude a controller
            with pytest.raises(ScenarioError, match=r"^line 6: controller\.predictor: .*mutually exclusive$"):
                parse_scenario(with_controller)
        else:
            assert parse_scenario(with_controller).capability.peer_figures == {"p": frozenset("2")}

    def test_refused_keys_are_listed_with_the_other_violations(self):
        text = (
            "universe = 1,2\nturbulence.seed = 1\nsystem.behavior = pur{1}\n"
            "capability.figures = 1\npeers.p.figures = 2\ncritical = 9\n"
        )
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value).splitlines() == [
            "line 4: capability.figures: only a controller reads it; set controller.predictor",
            "line 5: peers.p.figures: only a controller reads it; set controller.predictor",
            "line 6: critical: figures ['9'] outside universe",
        ]

    def test_capability_defaults_to_universe(self):
        s = parse_scenario(
            "universe = 1,2\nturbulence.seed = 1\ncontroller.predictor = persistence\n"
        )
        assert s.capability.universe == frozenset("12")
        assert s.predictor == Persistence()

    def test_persistence_is_the_one_tick_majority(self):
        assert isinstance(Persistence(), WindowMajority) and Persistence().window == 1
        assert Persistence() == Persistence() != WindowMajority(1)
        assert repr(Persistence()) == "Persistence()"
        with pytest.raises(TypeError):
            Persistence(1)
        with pytest.raises(TypeError):
            Persistence(window=2)

    def test_fig2_trace_matches_demo_scenario(self):
        assert fig2_scenario().trace == fig2_trace()
        # the built-in example and its scenario files are one worked example
        assert format_trace(fig2_trace()) == (SAMPLES / "fig2.trace").read_text()
        assert replace(load_scenario(SAMPLES / "static-fig2.scenario"), name="fig2") == fig2_scenario()


class TestShippedScenarios:
    SCENARIOS = sorted(SAMPLES.glob("*.scenario"))

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_loads_validates_and_runs(self, path):
        from behaviorfit import run_scenario

        scenario = load_scenario(path)
        assert validate_scenario(scenario) == []
        report = run_scenario(scenario)
        assert report.summary.ticks > 0

    def test_the_sample_scenarios_are_present(self):
        assert [p.stem for p in self.SCENARIOS] == [
            "alternating", "canary", "controller-walk", "sensors", "static-fig2", "static-walk",
        ]
