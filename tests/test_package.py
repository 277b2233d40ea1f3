"""The package's public names."""

import importlib
import pkgutil

import smoothent


def test_every_exported_name_resolves():
    modules = [smoothent] + [
        importlib.import_module(f"smoothent.{info.name}")
        for info in pkgutil.iter_modules(smoothent.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
