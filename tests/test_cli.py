import csv
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import behaviorfit
from behaviorfit.cli import main

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "scenarios"

TURBULENT = """
universe = 1,2,3,4
turbulence.seed = 7
turbulence.figure_flip = 0.3
turbulence.horizon = 30
system.behavior = pur{1,2}
controller.predictor = persistence
"""

BROKEN = """
universe = 1
turbulence.seed = 7
sensors.m1 = {1,9} 1.0
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "turb.scenario"
    path.write_text(TURBULENT)
    return path


def test_demo_fig2_csv(capsys):
    assert main(["demo", "fig2"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "t"
    assert len(rows) == 51
    kinds = [rows[1 + t][3] for t in (0, 10, 20, 30, 40)]
    assert kinds == ["perfect", "oversupply", "oversupply", "perfect", "undersupply"]


def test_demo_fig2_json(capsys):
    assert main(["demo", "fig2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["ticks"] == 50


def test_run_deterministic_output(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_override_changes_output(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--scenario", str(scenario_file), "--seed", "1", "--out", str(out1)])
    main(["run", "--scenario", str(scenario_file), "--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_a_seed_is_reduced_mod_2_to_the_64(scenario_file, tmp_path):
    keyed = tmp_path / "keyed.scenario"
    keyed.write_text(TURBULENT.replace("turbulence.seed = 7", "turbulence.seed = -3"))
    runs = [(scenario_file, [f"--seed={seed}"]) for seed in (-3, 2**64 - 3, 2**65 - 3)] + [(keyed, [])]
    written = set()
    for k, (path, seed) in enumerate(runs):
        out, trace = tmp_path / f"{k}.csv", tmp_path / f"{k}.trace"
        assert main(["run", "--scenario", str(path), *seed, "--out", str(out), "--emit-trace", str(trace)]) == 0
        written.add((out.read_bytes(), trace.read_bytes()))
    assert len(written) == 1


def test_run_fit_variant_flag(scenario_file, capsys):
    assert main(["run", "--scenario", str(scenario_file), "--fit-variant", "quadratic"]) == 0
    capsys.readouterr()


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", "--scenario", str(scenario_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text(BROKEN)
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sensors.m1" in err


def test_validate_and_run_print_the_same_lines(tmp_path, capsys):
    # every violation names its line, and both verbs report them the same way
    path = tmp_path / "broken.scenario"
    path.write_text("universe =\nturbulence.seed = 7\nsensors.m1 = {1,9} 1.0\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    validated = capsys.readouterr()
    assert main(["run", "--scenario", str(path)]) == 1
    ran = capsys.readouterr()
    assert validated.out == ran.out == ""
    assert validated.err == ran.err == (
        "error: line 1: universe: must not be empty\n"
        "line 3: sensors.m1: figures ['1', '9'] outside universe\n"
    )


def test_parse_error_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text("universe 1\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert main(["run", "--scenario", str(path)]) == 1


GOOD_TRACE = "universe: 1,2\n0 5 pur{1}\n"


@pytest.mark.parametrize(
    "scenario,trace,named",
    [
        ("universe = a b,c\n", GOOD_TRACE, "line 1: universe: bad figure token 'a b'"),
        ("universe = 1,2,\n", GOOD_TRACE, "line 1: universe: bad figure token ''"),
        ("universe = 1,2\ncritical = {x;y}\n", GOOD_TRACE, "line 2: critical: bad figure token 'x;y'"),
        ("universe = 1,2\nsensors.a;b = {1} 1\n", GOOD_TRACE, "line 2: sensors.a;b: bad id 'a;b'"),
        ("universe = 1,2\npeers.p:q.figures = 5\n", GOOD_TRACE, "line 2: peers.p:q.figures: bad id 'p:q'"),
        ("universe = 1,2\n", "universe: 1,2 3\n0 5 pur{1}\n", "trace.file: line 1: bad figure token '2 3'"),
        ("universe = 1,2\n", "universe: 1,2\n0 5 pur{a b}\n", "trace.file: line 2: bad figure token 'a b'"),
        ("universe =\n", GOOD_TRACE, "universe: must not be empty"),
        ("universe = 1,2\n", "universe: 1,2\n", "line 3: trace.file: trace needs at least one segment"),
        ("universe = 1,2\n", "# only a comment\n", "line 3: trace.file: trace text has no universe header"),
        ("universe = 1,2\n", "universe: 1,2\n-1 5 pur{1}\n", "line 3: trace.file: line 2: segment start must be >= 0"),
    ],
)
def test_bad_names_fail_naming_the_line_and_key(tmp_path, capsys, scenario, trace, named):
    (tmp_path / "t.trace").write_text(trace)
    path = tmp_path / "bad.scenario"
    path.write_text(scenario + "system.behavior = pur{}\ntrace.file = t.trace\n")
    assert main(["run", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize(
    "scenario,trace,error",
    [
        (b"universe = 1\n\n# caf\xe9\n", GOOD_TRACE.encode(), "error: line 3: not UTF-8 text\n"),
        (b"universe = 1\n", b"universe: 1,2\n0 5 pur{1}\n# caf\xe9\n", "error: line 2: trace.file: line 3: not UTF-8 text\n"),
        # lines are numbered as the parser numbers them, a lone "\r" included
        (b"universe = 1\r# caf\xe9\r", GOOD_TRACE.encode(), "error: line 2: not UTF-8 text\n"),
    ],
)
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, capsys, scenario, trace, error):
    (tmp_path / "t.trace").write_bytes(trace)
    path = tmp_path / "bad.scenario"
    path.write_bytes(scenario + b"trace.file = t.trace\n")
    for verb in ("run", "validate"):
        assert main([verb, "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize(
    "scenario,trace,error",
    [
        ("turbulence.seed = ١_2\n", "", "line 2: turbulence.seed: expected an ASCII number, got '١_2'"),
        ("turbulence.seed = 1\nturbulence.horizon = ١٠٠\n", "", "line 3: turbulence.horizon: expected an ASCII number, got '١٠٠'"),
        ("turbulence.seed = 1\nturbulence.class_walk = ٠.٥\n", "", "line 3: turbulence.class_walk: expected an ASCII number, got '٠.٥'"),
        ("turbulence.seed = 1\ncosts.figure = 1_0\n", "", "line 3: costs.figure: expected an ASCII number, got '1_0'"),
        ("trace.file = t.trace\nsensors.a = {1} ١\n", GOOD_TRACE, "line 3: sensors.a: expected an ASCII number, got '١'"),
        ("trace.file = t.trace\n", "universe: 1\n٠ ３ pur{1}\n", "line 2: trace.file: line 2: expected an ASCII number, got '٠'"),
    ],
    ids=["seed", "horizon", "class_walk", "costs", "sensor-cost", "trace-segment"],
)
def test_numbers_in_files_must_be_ascii(tmp_path, capsys, scenario, trace, error):
    (tmp_path / "t.trace").write_text(trace)
    path = tmp_path / "bad.scenario"
    path.write_text("universe = 1\n" + scenario)
    for verb in ("run", "validate"):
        assert main([verb, "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv,error",
    [
        (["run", "--seed", "١"], "argument --seed: invalid int value: '١'"),
        (["run", "--cost-weight", "٠"], "argument --cost-weight: invalid float value: '٠'"),
        (["run", "--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
        (["sweep", "--seeds", "١..2"], "argument --seeds: expected A..B, got '١..2'"),
    ],
    ids=["seed", "cost-weight", "seed-underscore", "seeds"],
)
def test_numbers_in_flags_must_be_ascii(scenario_file, capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--scenario", str(scenario_file), *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def test_ascii_numbers_in_flags_keep_every_form(scenario_file, capsys):
    assert main(["run", "--scenario", str(scenario_file), "--seed", "+7", "--cost-weight", "1e-1"]) == 0
    signed = capsys.readouterr().out
    assert main(["run", "--scenario", str(scenario_file), "--seed", "7", "--cost-weight", "0.1"]) == 0
    assert capsys.readouterr().out == signed


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("scenario_bom,trace_bom", [(True, False), (False, True)], ids=["scenario", "trace"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, scenario_bom, trace_bom):
    text = b"name = bom\nuniverse = 1,2\ntrace.file = t.trace\n"
    (tmp_path / "t.trace").write_bytes(_BOM * trace_bom + GOOD_TRACE.encode())
    (tmp_path / "plain.scenario").write_bytes(text)
    (tmp_path / "bom.scenario").write_bytes(_BOM * scenario_bom + text)
    assert main(["run", "--scenario", str(tmp_path / "bom.scenario")]) == 0
    with_bom = capsys.readouterr()
    (tmp_path / "t.trace").write_text(GOOD_TRACE)
    assert main(["run", "--scenario", str(tmp_path / "plain.scenario")]) == 0
    assert with_bom == capsys.readouterr()


def test_a_bad_byte_after_a_byte_order_mark_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_bytes(_BOM + b"universe = 1\n# caf\xe9\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: line 2: not UTF-8 text\n")


def test_a_missing_scenario_file_is_a_bad_argument(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "missing.scenario")]) == 2
    assert "No such file" in capsys.readouterr().err


def test_sweep(scenario_file, capsys):
    assert main(["sweep", "--scenario", str(scenario_file), "--seeds", "3..6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,mean_finite_fit,neg_inf_ticks,total_cost"
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5", "6"]


@pytest.mark.parametrize(
    "seeds,message",
    [
        pytest.param("5..1", "empty seed range", id="5..1"),
        pytest.param("2..1", "empty seed range", id="2..1"),
        pytest.param("a..b", "expected A..B, got 'a..b'", id="a..b"),
    ],
)
def test_sweep_rejects_an_empty_seed_range(scenario_file, capsys, seeds, message):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", str(scenario_file), "--seeds", seeds])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_sweep_single_seed_range(scenario_file, capsys):
    assert main(["sweep", "--scenario", str(scenario_file), "--seeds", "4..4"]) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()] == ["seed", "4"]


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_cost_weight_must_be_finite(scenario_file, capsys, weight):
    assert main(["run", "--scenario", str(scenario_file), f"--cost-weight={weight}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "controller.weight: must be finite" in captured.err


def test_non_finite_scenario_number_is_a_validation_failure(tmp_path, capsys):
    path = tmp_path / "nan.scenario"
    path.write_text(TURBULENT + "controller.weight = nan\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "controller.weight" in capsys.readouterr().err


def test_negative_cost_weight_is_a_validation_failure(capsys):
    canary = Path(__file__).resolve().parents[1] / "scenarios" / "canary.scenario"
    assert main(["run", "--scenario", str(canary), "--cost-weight=-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "controller.weight" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "fig2", "--cost-weight", "0.3"],
        ["sweep", "--scenario", str(SAMPLES / "sensors.scenario"), "--seeds", "1..2", "--cost-weight", "2"],
    ],
    ids=["demo", "sweep"],
)
def test_cost_weight_without_a_controller_is_a_validation_failure(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "controller.weight: only a controller reads it; set controller.predictor" in captured.err


def test_a_zero_cost_weight_without_a_controller_runs(capsys):
    assert main(["run", "--scenario", str(SAMPLES / "sensors.scenario"), "--cost-weight", "0"]) == 0
    assert main(["demo", "fig2", "--cost-weight", "0"]) == 0


def test_cost_overflow_writes_nothing(tmp_path, capsys):
    path = tmp_path / "overflow.scenario"
    path.write_text(TURBULENT + "costs.figure = 1e308\ncosts.switch = 1e308\n")
    out, trace = tmp_path / "out.csv", tmp_path / "used.trace"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--emit-trace", str(trace)]) == 1
    assert main(["sweep", "--scenario", str(path), "--seeds", "1..3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "costs" in captured.err
    assert not out.exists() and not trace.exists()


@pytest.fixture
def fixed_trace_file(tmp_path):
    (tmp_path / "t.trace").write_text("universe: 1\n0 3 pur{1}\n")
    path = tmp_path / "fixed.scenario"
    path.write_text("universe = 1\ntrace.file = t.trace\nsystem.behavior = pur{1}\n")
    return path


def test_sweep_needs_turbulence(fixed_trace_file, capsys):
    assert main(["sweep", "--scenario", str(fixed_trace_file), "--seeds", "1..2"]) == 1
    assert "turbulence" in capsys.readouterr().err


def test_run_seed_needs_turbulence(fixed_trace_file, capsys):
    # a fixed trace cannot take a seed, so the override is refused, not ignored
    assert main(["run", "--scenario", str(fixed_trace_file), "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err and "turbulence" in captured.err
    assert main(["run", "--scenario", str(fixed_trace_file)]) == 0


def test_peers_without_a_controller_exit_1(tmp_path, capsys):
    path = tmp_path / "static.scenario"
    path.write_text(TURBULENT.replace("controller.predictor = persistence", "peers.p.figures = 2"))
    assert main(["run", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 7: peers.p.figures: " in captured.err and "controller.predictor" in captured.err


def test_runtime_error_exit_code(scenario_file, capsys):
    missing_dir = scenario_file.parent / "nope" / "out.csv"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(missing_dir)]) == 2
    capsys.readouterr()


def test_emit_trace_round_trips_through_a_fixed_trace_run(scenario_file, tmp_path, capsys, monkeypatch):
    trace_out = tmp_path / "used.trace"
    out1 = tmp_path / "gen.csv"
    draws = []
    generate = behaviorfit.simulate.generate_trace

    def counted(*args):
        draws.append(args)
        return generate(*args)

    monkeypatch.setattr(behaviorfit.simulate, "generate_trace", counted)
    code = main(
        ["run", "--scenario", str(scenario_file), "--seed", "5",
         "--out", str(out1), "--emit-trace", str(trace_out)]
    )
    assert code == 0
    assert len(draws) == 1  # the written trace is the one the run used, not a second draw
    fixed = tmp_path / "fixed.scenario"
    fixed.write_text(
        "universe = 1,2,3,4\n"
        f"trace.file = {trace_out.name}\n"
        "system.behavior = pur{1,2}\n"
        "controller.predictor = persistence\n"
    )
    out2 = tmp_path / "replay.csv"
    assert main(["run", "--scenario", str(fixed), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point(scenario_file):
    # the child imports the same package as this process, installed or not
    pythonpath = [str(Path(behaviorfit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-m", "behaviorfit.cli", "run", "--scenario", str(scenario_file)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,env_behavior")


def _readme_cli_lines() -> list[str]:
    """The ``behaviorfit`` lines of the ``sh`` block under README's ``## CLI``."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("behaviorfit ")]
    if not lines:
        raise ValueError("README.md has no behaviorfit lines under ## CLI")
    return lines


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(line, tmp_path, monkeypatch, capsys):
    shutil.copytree(SAMPLES, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err
