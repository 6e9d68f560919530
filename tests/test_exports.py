"""Every name a holobc module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import holobc

MODULES = ["holobc"] + [f"holobc.{info.name}"
                        for info in pkgutil.iter_modules(holobc.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []
