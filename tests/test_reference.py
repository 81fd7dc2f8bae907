"""``run_scenario`` against the benchmark's per-tick reference evaluator.

``bench/reference.py`` replays a scenario one call per tick through each
layer's public functions. Its reports, and the CSV and JSON rendered from
them, must equal ``run_scenario``'s for every sample scenario and for the
benchmark's workloads, so per-segment work in the loop is checked here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from behaviorfit import load_scenario, parse_scenario, render_csv, render_json, run_scenario

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay = _bench_module("reference").replay
workloads = _bench_module("workloads")


def _check(scenario, seed: int) -> None:
    expected = replay(scenario, seed)
    report = run_scenario(scenario, seed=seed)
    assert report == expected
    assert render_csv(report) == render_csv(expected)
    assert render_json(report) == render_json(expected)


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.scenario")), ids=lambda p: p.stem)
def test_sample_scenarios_match_the_reference(path):
    scenario = load_scenario(path)
    _check(scenario, scenario.turbulence.seed if scenario.turbulence else 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workloads_match_the_reference(name, seed):
    text = workloads.scenario_text(workloads.WORKLOADS[name], seed, horizon=300)
    _check(parse_scenario(text, name=name), seed)
