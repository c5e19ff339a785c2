"""The public surface: every exported name exists, and the package namespace
re-exports only names that some module exports."""

import importlib
import pkgutil
import types

import eiszeta

MODULES = [importlib.import_module(f"eiszeta.{info.name}")
           for info in pkgutil.iter_modules(eiszeta.__path__)]


def test_every_name_in_all_exists():
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)


def test_package_binds_only_exported_names():
    exported = set().union(*(getattr(mod, "__all__", ()) for mod in MODULES))
    public = {name for name, value in vars(eiszeta).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= exported, sorted(public - exported)
