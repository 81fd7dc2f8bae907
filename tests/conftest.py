import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import hypothesis.strategies as st

import behaviorfit
from behaviorfit import Behavior, BehaviorClass

FIGURES = ("1", "2", "3", "4")


@st.composite
def behaviors(draw, figures=FIGURES, max_arity=5):
    klass = draw(st.sampled_from(list(BehaviorClass)))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Behavior(klass)
    if kind == 1:
        return Behavior(klass, arity=draw(st.integers(1, max_arity)))
    return Behavior(klass, figures=draw(st.frozensets(st.sampled_from(figures))))


def bench_module(name: str):
    """A module of the benchmark harness in ``bench/``, which is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", Path(__file__).parents[1] / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the same
    ``behaviorfit`` as this process, installed or not."""
    pythonpath = [str(Path(behaviorfit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


def runs_of(observations) -> list[tuple]:
    """Observations, oldest first, as the ``(behavior, ticks)`` runs of
    equal consecutive observations that ``predict`` reads."""
    return [(obs, len(list(group))) for obs, group in groupby(observations)]


# The CSV and JSON renderers, the behavior grammar and the run summary as
# they stood when they were frozen here, so a rewrite of the program's
# renderers or summary is checked against what the program does not make
# itself.
FROZEN_COLUMNS = (
    "t", "env_behavior", "sys_behavior", "supply_kind", "supply", "fit", "actions", "cost", "cum_cost", "mode",
)
FROZEN_CLASS_TOKENS = {1: "ran", 2: "pur", 3: "rea", 4: "pro", 5: "soc"}


def _frozen_behavior(behavior) -> str:
    token = FROZEN_CLASS_TOKENS[behavior.klass]
    if behavior.figures is not None:
        return token + "{" + ",".join(sorted(behavior.figures)) + "}"
    if behavior.arity is not None:
        return f"{token}^{behavior.arity}"
    return token


def _frozen_fields(row, fit_value, actions) -> tuple:
    return (row.t, _frozen_behavior(row.env_behavior), _frozen_behavior(row.sys_behavior),
            row.supply.kind.value, row.supply.value, fit_value, actions, row.cost, row.cum_cost, row.mode)


def frozen_csv(report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FROZEN_COLUMNS)
    writer.writerows(_frozen_fields(row, row.fit, ";".join(row.actions)) for row in report.rows)
    return buffer.getvalue()


def frozen_json(report) -> str:
    s = report.summary
    payload = {
        "name": report.name,
        "summary": {
            "ticks": s.ticks,
            "mean_finite_fit": s.mean_finite_fit,
            "neg_inf_ticks": s.neg_inf_ticks,
            "total_cost": s.total_cost,
        },
        "rows": [
            dict(zip(FROZEN_COLUMNS, _frozen_fields(
                row, "-inf" if row.fit == -math.inf else row.fit, list(row.actions)
            )))
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def frozen_summary(rows) -> tuple:
    """The summary of ``rows`` as ``(ticks, mean_finite_fit, neg_inf_ticks,
    total_cost)``."""
    finite = [row.fit for row in rows if row.fit != -math.inf]
    return (
        len(rows),
        math.fsum(finite) / len(finite) if finite else 0.0,
        len(rows) - len(finite),
        rows[-1].cum_cost,
    )
