"""Behavioral calculus of system-environment fit, with an adaptation simulator.

Behaviors are classified and scoped symbolic values carrying a strict
partial order and a metric; supply and fit score a system against its
environment; cybernetic classes compare whole adaptive systems organ by
organ; and a discrete-tick simulator runs controllers and sensor networks
against turbulent environment traces.

The package exports every name in its modules' ``__all__``, but imports a
module only when one of its names, or the module itself, is first asked
for. A name is sought in ``_MODULES`` in turn, each module imported only
when the search reaches it; ``cybernetic`` and ``simulate``, which no other
module imports, come last.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("behavior", "metrics", "environment", "sensors", "scenario", "controller", "cybernetic", "simulate")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = [exported for module in _MODULES for exported in __getattr__(module).__all__]
    else:
        owner = next((module for module in map(__getattr__, _MODULES) if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
