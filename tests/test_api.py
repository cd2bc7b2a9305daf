"""Every name a pmcmc module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import pmcmc

MODULES = ["pmcmc"] + sorted(info.name for info in pkgutil.walk_packages(pmcmc.__path__, "pmcmc."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
