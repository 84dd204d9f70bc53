"""Each module's ``__all__`` lists exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import rigclust

# Importing ``__main__`` runs the command line.
MODULES = ["rigclust"] + [f"rigclust.{info.name}"
                          for info in pkgutil.iter_modules(rigclust.__path__)
                          if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(name)
    defined = [attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert [attr for attr in defined if attr not in module.__all__] == []
