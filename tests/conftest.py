import importlib.util
import sys
from pathlib import Path

import hypothesis.strategies as st

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
