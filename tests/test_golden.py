"""Byte-for-byte checks of CLI output against committed golden files.

Each case is one ``behaviorfit`` command line; its output must equal
``tests/data/golden/<case>`` exactly. To regenerate the files after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from behaviorfit.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scenario"))

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
PREDICTORS = {"majority3": "majority:3", "oracle": "oracle"}


CASES: dict[str, list[str]] = {}
for _path in SCENARIOS:
    CASES[f"run-{_path.stem}.csv"] = ["run", "--scenario", str(_path)]
    CASES[f"run-{_path.stem}.json"] = ["run", "--scenario", str(_path), "--format", "json"]
CASES["demo-fig2.csv"] = ["demo", "fig2"]
CASES["demo-fig2.json"] = ["demo", "fig2", "--format", "json"]
CASES["sweep-sensors-1..20.csv"] = [
    "sweep", "--scenario", str(ROOT / "scenarios" / "sensors.scenario"), "--seeds", "1..20"
]
for _label in PREDICTORS:
    # relative: the inline scenario is written to the working directory
    CASES[f"controller-{_label}.csv"] = ["run", "--scenario", f"controller-{_label}.scenario"]


def cli_output(name: str, workdir: Path) -> bytes:
    """Output of case ``name``, run with ``workdir`` as the working directory."""
    for label, predictor in PREDICTORS.items():
        (workdir / f"controller-{label}.scenario").write_text(CONTROLLER.format(predictor=predictor))
    out = workdir / "out"
    assert main([*CASES[name], "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_output(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("label", PREDICTORS)
def test_controller_golden_exercises_borrows_classes_and_mode(label):
    text = (GOLDEN / f"controller-{label}.csv").read_text()
    assert "borrow:" in text and "return:" in text and "class:" in text
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == {"0.0", "0.5", "1.0"}


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CASES:
            (GOLDEN / name).write_bytes(cli_output(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}")
