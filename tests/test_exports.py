"""The package re-exports each module's ``__all__``, and only that list."""

import importlib
import pkgutil

import behaviorfit

# The CLI is an entry point, not part of the library namespace.
MODULES = [
    importlib.import_module(f"behaviorfit.{info.name}")
    for info in pkgutil.iter_modules(behaviorfit.__path__)
    if info.name != "cli"
]


def test_every_module_name_is_exported_once():
    owners: dict[str, str] = {}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(behaviorfit, name) is getattr(module, name), name
            assert name not in owners, f"{name} is in both {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
    assert owners
