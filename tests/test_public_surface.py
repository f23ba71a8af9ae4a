"""The public surface is the modules' ``__all__``; the package itself re-exports nothing."""
import importlib
import types

import pytest

import folbend

LIBRARY_MODULES = ("quadrature", "torsion", "spaces", "tubes", "bending", "bounds")


def test_package_holds_only_its_version():
    public = {name for name, value in vars(folbend).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set()
    assert isinstance(folbend.__version__, str)
    assert not hasattr(folbend, "__all__")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"folbend.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
