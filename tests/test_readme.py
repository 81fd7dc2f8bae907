"""README.md against the program: its scenario key table and its quick tour."""

import re
from pathlib import Path

import pytest

from behaviorfit import ScenarioError, parse_scenario
from conftest import bench_module

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _table_keys() -> list[str]:
    """The keys in the first column of the ``## Scenario files`` table."""
    rows = [line for line in _section("Scenario files").splitlines() if line.startswith("| `")]
    return [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]


def _generic(key: str) -> str:
    """A written key with its sensor or peer id replaced by ``<id>``, as the table writes it."""
    if key.startswith("sensors."):
        return "sensors.<id>"
    if key.startswith("peers.") and key.endswith(".figures"):
        return "peers.<id>.figures"
    return key


def _written_keys(text: str) -> set[str]:
    lines = (line.strip() for line in text.splitlines())
    return {_generic(line.split("=", 1)[0].strip()) for line in lines if line and not line.startswith("#")}


@pytest.mark.parametrize("key", _table_keys())
def test_every_table_key_is_known(key):
    with pytest.raises(ScenarioError) as info:  # alone, no key makes a valid scenario
        parse_scenario(f"{key.replace('<id>', 'p')} = 1\n")
    assert not re.search("unknown (key|cost)", str(info.value))


def test_every_written_key_is_in_the_table():
    workloads = bench_module("workloads")
    texts = [path.read_text() for path in sorted((ROOT / "scenarios").glob("*.scenario"))]
    texts += [workloads.scenario_text(w, seed=1, horizon=20) for w in workloads.WORKLOADS.values()]
    written = set().union(*map(_written_keys, texts))
    assert written - set(_table_keys()) == set()


def test_quick_tour_runs(monkeypatch):
    block = _section("Library quick tour").split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
