"""The package re-exports each module's ``__all__``, and only that list, and
imports a module only when one of its names, or the module itself, is first
asked for."""

import importlib
import pkgutil

import pytest

import behaviorfit
from conftest import fresh_python

# The CLI is an entry point, not part of the library namespace.
MODULES = [
    importlib.import_module(f"behaviorfit.{info.name}")
    for info in pkgutil.iter_modules(behaviorfit.__path__)
    if info.name != "cli"
]
OWNERS = {name: module.__name__ for module in MODULES for name in module.__all__}
# The settings a scenario holds for its controller, parsed with the scenario.
SCENARIO_SETTINGS = {"Capability", "CostModel", "Oracle", "Persistence", "Predictor", "WindowMajority"}
LOADED = "import sys; print(*sorted(name for name in sys.modules if name.startswith('behaviorfit.')))"


def fresh(code: str, *args: str) -> str:
    """What ``code`` prints in a fresh interpreter."""
    proc = fresh_python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_module_name_is_exported_once():
    owners: dict[str, str] = {}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(behaviorfit, name) is getattr(module, name), name
            assert name not in owners, f"{name} is in both {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
    assert owners
    assert {name for name, owner in owners.items() if owner == "behaviorfit.scenario"} >= SCENARIO_SETTINGS


def test_a_bare_import_loads_no_module():
    assert fresh("import behaviorfit; " + LOADED) == "\n"


@pytest.mark.parametrize("name, loaded", [
    ("Behavior", "behavior"),
    ("Capability", "behavior environment metrics scenario sensors"),
    ("Controller", "behavior controller environment metrics scenario sensors"),
    ("scenario_trace", "behavior environment metrics scenario sensors"),
    ("fig2_scenario", "behavior environment metrics scenario sensors"),
    ("dominates", "behavior controller cybernetic environment metrics scenario sensors"),
])
def test_a_name_loads_the_modules_before_its_own(name, loaded):
    """Only the simulator's own names load ``simulate``, and only
    ``cybernetic``'s and the simulator's load ``cybernetic``."""
    expected = " ".join(f"behaviorfit.{module}" for module in loaded.split())
    assert fresh(f"import behaviorfit; behaviorfit.{name}; " + LOADED) == expected + "\n"


def test_every_name_resolves_to_its_owners_object():
    code = """
import sys
from importlib import import_module
import behaviorfit
owners = dict(pair.split("=") for pair in sys.argv[1:])
print(*(name for name, owner in owners.items() if getattr(behaviorfit, name) is not getattr(import_module(owner), name)))
"""
    assert fresh(code, *(f"{name}={owner}" for name, owner in OWNERS.items())) == "\n"


def test_dir_and_star_import_cover_every_name():
    code = """
from behaviorfit import *
import behaviorfit
print(sorted(set(behaviorfit.__all__) - set(globals())), sorted(set(behaviorfit.__all__) - set(dir(behaviorfit))))
"""
    assert fresh(code) == "[] []\n"
    assert sorted(behaviorfit.__all__) == sorted(OWNERS)


def test_a_module_loads_on_first_use():
    code = "import behaviorfit; print(behaviorfit.simulate.run_scenario is behaviorfit.run_scenario)"
    assert fresh(code) == "True\n"


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="^module 'behaviorfit' has no attribute 'no_such_name'$"):
        behaviorfit.no_such_name
