"""Fuzz and metamorphic tests over generated scenario text.

The fuzz test perturbs valid scenarios with junk values and extreme lines:
every input must either fail as a ScenarioError or run to strictly valid
JSON and to CSV with the fixed columns. The metamorphic test re-drives a
run from the trace it emitted and expects the same bytes; a scenario whose
figure, sensor or peer ids break the token rule must fail to parse instead.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from behaviorfit import CSV_COLUMNS, ScenarioError, parse_scenario, render_csv, render_json, run_scenario
from behaviorfit.cli import main

FIGURES = ("1", "2", "3", "4")
# Ids outside the token rule [A-Za-z0-9_.-]+; none is a substring of a valid scenario.
ODD_NAMES = ("a b", "x;y", "p:q", "z}")
CLASS_TOKENS = ("ran", "pur", "rea", "pro", "soc")
MAX_HORIZON = 50

probabilities = st.floats(0.0, 1.0).map(repr)
rates = st.floats(0.0, 2.0).map(repr)

# No bare integer above MAX_HORIZON, so a junk horizon stays small.
JUNK_VALUES = ("", "x", "-1", "0", "-5", "1e308", "nan", "inf", "{", "pur{1", "pro^2", "majority:0", "7")
EXTRA_LINES = (
    "costs.figure = 1e308",
    "costs.borrow = 1e308",
    "costs.class = 1e308",
    "costs.switch = 1e308",
    "controller.weight = -5",
    "controller.predictor = oracle",
    "sensors.big = {1,2,3,4} 1e308",
    "sensors.far = {9} 1",
    "critical = {1,2,3,4}",
    "peers.p.figures = 1,9",
    "capability.max_class = ran",
    "fit.variant = quadratic",
    "no equals sign",
    "bogus.key = 1",
)


def _figures(figs) -> str:
    return ",".join(sorted(figs))


@st.composite
def scenario_entries(draw, odd_names: bool = False) -> dict[str, str]:
    """Keys and values of a valid generated-trace scenario: static, with a
    controller, or with sensors. With ``odd_names``, about half the
    scenarios give one figure, sensor or peer an id from ``ODD_NAMES``."""
    odd = draw(st.sampled_from((None,) * len(ODD_NAMES) + ODD_NAMES)) if odd_names else None
    odd_place = draw(st.sampled_from(["figure", "sensor", "peer"])) if odd else None

    def name(place: str, usual: str) -> str:
        return odd if odd_place == place else usual

    universe = draw(st.lists(st.sampled_from(FIGURES), min_size=1, unique=True))
    if odd_place == "figure":
        universe.append(odd)
    subsets = st.frozensets(st.sampled_from(universe))
    horizon = draw(st.integers(1, MAX_HORIZON))
    entries = {
        "name": "fuzz",
        "universe": _figures(universe),
        "turbulence.seed": str(draw(st.integers(0, 2**64))),
        "turbulence.horizon": str(horizon),
        "turbulence.mean_segment_len": str(draw(st.integers(1, horizon))),
        "turbulence.class_walk": draw(probabilities),
        "turbulence.figure_flip": draw(probabilities),
        "system.behavior": draw(st.sampled_from(CLASS_TOKENS)) + "{" + _figures(draw(subsets)) + "}",
    }
    kind = draw(st.sampled_from(["static", "controller", "sensors"]))
    if kind == "controller":
        entries["controller.predictor"] = draw(
            st.sampled_from(["persistence", "oracle", "majority:1", "majority:3"])
        )
        entries["controller.weight"] = draw(rates)
        for cost in ("figure", "borrow", "class", "switch"):
            entries[f"costs.{cost}"] = draw(rates)
        entries["capability.figures"] = _figures(draw(subsets))
        entries["capability.max_class"] = draw(st.sampled_from(CLASS_TOKENS))
        entries[f"peers.{name('peer', 'p')}.figures"] = _figures(draw(subsets))
    elif kind == "sensors":
        del entries["system.behavior"]  # a sensor run's behavior is what its active sensors cover
        for sensor in range(draw(st.integers(1, 3))):
            coverage = draw(st.frozensets(st.sampled_from(universe), min_size=1))
            sensor_id = f"s{sensor}" if sensor else name("sensor", "s0")
            entries[f"sensors.{sensor_id}"] = "{" + _figures(coverage) + "} " + draw(st.floats(0.1, 5.0).map(repr))
    else:
        entries["costs.figure"] = draw(rates)
    if draw(st.booleans()):
        entries["critical"] = "{" + _figures(draw(subsets)) + "}"
    entries["fit.variant"] = draw(st.sampled_from(["linear", "quadratic"]))
    return entries


def _text(entries: dict[str, str], extra: tuple[str, ...] = ()) -> str:
    return "\n".join([*(f"{key} = {value}" for key, value in entries.items()), *extra]) + "\n"


@st.composite
def fuzzed_scenarios(draw) -> str:
    entries = draw(scenario_entries())
    for key in draw(st.lists(st.sampled_from(sorted(entries)), max_size=3, unique=True)):
        entries[key] = draw(st.sampled_from(JUNK_VALUES))
    return _text(entries, tuple(draw(st.lists(st.sampled_from(EXTRA_LINES), max_size=2))))


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


@settings(max_examples=200, deadline=None)
@given(fuzzed_scenarios())
def test_scenario_text_fails_cleanly_or_renders_strict_output(text):
    try:
        report = run_scenario(parse_scenario(text))
    except ScenarioError:
        return
    json.loads(render_json(report), parse_constant=_reject_constant)
    header, *rows = csv.reader(io.StringIO(render_csv(report)))
    assert tuple(header) == CSV_COLUMNS
    assert len(rows) == report.summary.ticks
    for row in rows:
        assert len(row) == len(CSV_COLUMNS)
        cells = dict(zip(CSV_COLUMNS, row))
        assert all(math.isfinite(float(cells[key])) for key in ("supply", "cost", "cum_cost"))
        assert cells["fit"] == "-inf" or math.isfinite(float(cells["fit"]))


@settings(max_examples=100, deadline=None)
@given(scenario_entries(odd_names=True), st.sampled_from(["csv", "json"]), st.none() | st.integers(0, 1000))
def test_run_replayed_from_its_emitted_trace_is_identical(entries, fmt, seed):
    text = _text(entries)
    uses_odd_name = any(name in text for name in ODD_NAMES)
    try:
        parse_scenario(text)
    except ScenarioError:
        assert uses_odd_name
        return
    assert not uses_odd_name
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "gen.scenario").write_text(text)
        args = ["run", "--scenario", str(work / "gen.scenario"), "--format", fmt]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert main([*args, "--out", str(work / "gen.out"), "--emit-trace", str(work / "used.trace")]) == 0
        fixed = {key: value for key, value in entries.items() if not key.startswith("turbulence.")}
        fixed["trace.file"] = "used.trace"
        (work / "fixed.scenario").write_text(_text(fixed))
        replay = ["run", "--scenario", str(work / "fixed.scenario"), "--format", fmt]
        assert main([*replay, "--out", str(work / "fixed.out")]) == 0
        assert (work / "fixed.out").read_bytes() == (work / "gen.out").read_bytes()
