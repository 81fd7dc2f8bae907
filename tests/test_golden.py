"""Byte-for-byte checks of CLI output against committed golden files.

Each case is one ``behaviorfit`` command line; its output must equal
``tests/data/golden/<case>`` exactly. To regenerate the files after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from behaviorfit.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scenario"))
# the versions the CI matrix runs
SUPPORTED_PYTHONS = ["3.10", "3.11", "3.12", "3.13"]

# A generated-trace controller scenario with peers to borrow from, a class
# cost and critical figures, so borrows, class actions and the mode column
# all show up in its output.
CONTROLLER = """\
name = golden-controller
universe = 1,2,3,4,5,6
turbulence.seed = 42
turbulence.class_walk = 0.3
turbulence.figure_flip = 0.25
turbulence.mean_segment_len = 6
turbulence.horizon = 90
system.behavior = pur{{1,2,3}}
controller.predictor = {predictor}
controller.weight = 0.05
costs.figure = 0.01
costs.borrow = 0.03
costs.class = 0.02
costs.switch = 0.05
capability.figures = 1,2,3,4
capability.max_class = pro
peers.alpha.figures = 5
peers.beta.figures = 5,6
critical = {{5,6}}
"""
PREDICTORS = {"majority3": "majority:3", "majority4": "majority:4", "oracle": "oracle", "persistence": "persistence"}
# ``scenarios/alternating.scenario`` runs persistence; these rerun its trace
# under the other predictors
ALTERNATING = {"majority2": "majority:2", "majority3": "majority:3", "oracle": "oracle"}


CASES: dict[str, list[str]] = {}
for _path in SCENARIOS:
    CASES[f"run-{_path.stem}.csv"] = ["run", "--scenario", str(_path)]
    CASES[f"run-{_path.stem}.json"] = ["run", "--scenario", str(_path), "--format", "json"]
CASES["demo-fig2.csv"] = ["demo", "fig2"]
CASES["demo-fig2.json"] = ["demo", "fig2", "--format", "json"]
for _stem in ("controller-walk", "sensors", "static-walk"):
    CASES[f"sweep-{_stem}-1..20.csv"] = [
        "sweep", "--scenario", str(ROOT / "scenarios" / f"{_stem}.scenario"), "--seeds", "1..20"
    ]
for _label in PREDICTORS:
    # relative: the inline scenario is written to the working directory
    CASES[f"controller-{_label}.csv"] = ["run", "--scenario", f"controller-{_label}.scenario"]
for _label in ALTERNATING:
    CASES[f"alternating-{_label}.csv"] = ["run", "--scenario", f"alternating-{_label}.scenario"]


def write_inline_scenarios(workdir: Path) -> None:
    """Write the scenario files the relative cases name into ``workdir``."""
    for label, predictor in PREDICTORS.items():
        (workdir / f"controller-{label}.scenario").write_text(CONTROLLER.format(predictor=predictor))
    alternating = (ROOT / "scenarios" / "alternating.scenario").read_text()
    assert alternating.count("controller.predictor = persistence") == 1
    shutil.copy(ROOT / "scenarios" / "alternating.trace", workdir)
    for label, predictor in ALTERNATING.items():
        (workdir / f"alternating-{label}.scenario").write_text(
            alternating.replace("controller.predictor = persistence", f"controller.predictor = {predictor}")
        )


def cli_output(name: str, workdir: Path) -> bytes:
    """Output of case ``name``, run with ``workdir`` as the working directory."""
    write_inline_scenarios(workdir)
    out = workdir / "out"
    assert main([*CASES[name], "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_output(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_cli_stdout_matches_golden(name, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    write_inline_scenarios(tmp_path)
    assert main(CASES[name]) == 0
    assert capsysbinary.readouterr() == ((GOLDEN / name).read_bytes(), b"")


def _interpreter(version: str) -> str | None:
    """A ``python3.X`` that runs and reports ``version``: the one on
    ``PATH``, else a pyenv install under ``$PYENV_ROOT`` (``~/.pyenv``)."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    for candidate in [shutil.which(f"python{version}"), *sorted(root.glob(f"versions/{version}.*/bin/python3"))]:
        if candidate is None:
            continue
        probe = subprocess.run(
            [candidate, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return str(candidate)
    return None


# Runs every case in the child interpreter, which need not have pytest:
# reads {name: argv} as JSON and writes each output to the file ``name``.
CHILD = """\
import json, sys
from behaviorfit.cli import main
sys.exit(any([main([*argv, "--out", name]) for name, argv in json.load(sys.stdin).items()]))
"""


@pytest.mark.parametrize("version", SUPPORTED_PYTHONS)
def test_every_supported_python_writes_the_golden_bytes(version, tmp_path):
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter found")
    write_inline_scenarios(tmp_path)
    child = subprocess.run(
        [python, "-c", CHILD], input=json.dumps(CASES), cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert [name for name in CASES if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()] == []


@pytest.mark.parametrize("name", ["run-canary.csv", "run-alternating.csv", "controller-persistence.csv"])
def test_majority_1_writes_the_persistence_golden(name, tmp_path, monkeypatch):
    # persistence is the one-tick majority vote
    monkeypatch.chdir(tmp_path)
    write_inline_scenarios(tmp_path)
    for trace in (ROOT / "scenarios").glob("*.trace"):
        shutil.copy(trace, tmp_path)
    text = Path(CASES[name][2]).read_text()
    assert text.count("controller.predictor = persistence") == 1
    one_tick = tmp_path / "majority1.scenario"
    one_tick.write_text(text.replace("controller.predictor = persistence", "controller.predictor = majority:1"))
    assert main(["run", "--scenario", str(one_tick), "--out", "out"]) == 0
    assert (tmp_path / "out").read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_files_are_exactly_the_cases():
    # a renamed or dropped case must not leave a stale golden file that looks tested
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("label", PREDICTORS)
def test_controller_golden_exercises_borrows_classes_and_mode(label):
    text = (GOLDEN / f"controller-{label}.csv").read_text()
    assert "borrow:" in text and "return:" in text and "class:" in text
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == {"0.0", "0.5", "1.0"}


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CASES:
            (GOLDEN / name).write_bytes(cli_output(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}")
