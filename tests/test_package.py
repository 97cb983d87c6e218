"""The public surface: every exported name resolves to what its module defines."""

import importlib
import inspect
import pkgutil

import monoratio


def _modules():
    return [importlib.import_module(f"monoratio.{info.name}")
            for info in pkgutil.iter_modules(monoratio.__path__)]


def test_every_all_entry_exists():
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_every_package_name_is_a_module_export():
    exported = {}
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            exported.setdefault(name, []).append(getattr(mod, name))
    names = [name for name, obj in vars(monoratio).items()
             if not name.startswith("_") and not inspect.ismodule(obj)]
    assert len(names) > 50
    for name in names:
        assert any(obj is getattr(monoratio, name) for obj in exported.get(name, ())), \
            f"monoratio.{name} is in no module's __all__"
