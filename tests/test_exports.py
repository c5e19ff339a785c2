"""The public surface: every exported name exists, the package namespace
re-exports only names that some module exports, and no module imports a name
it neither uses nor exports."""

import ast
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


def test_every_imported_name_is_used_or_exported():
    # an import left behind when the code that read it goes
    for mod in MODULES:  # the submodules; eiszeta/__init__.py only re-exports
        with open(mod.__file__, encoding="utf-8") as src:
            tree = ast.parse(src.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - set(getattr(mod, "__all__", ()))
        assert not unused, (mod.__name__, sorted(unused))
