"""Every name a pmcmc module lists in ``__all__`` exists, and every public
function or class among them has a user."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import pmcmc
import pmcmc.transport
from pmcmc.models import DelayModel, LinearGaussianModel, Model, PredatorPreyModel

MODULES = ["pmcmc"] + sorted(info.name for info in pkgutil.walk_packages(pmcmc.__path__, "pmcmc."))

ROOT = Path(pmcmc.__file__).resolve().parents[2]

# Exported without a user until the run report (ROADMAP item 1) decides
# whether it stays.
UNUSED_ALLOWED = {"pmcmc.instrumentation.aggregate_timings"}


def _loaded_names(paths=None, attributes_only=False) -> set:
    """Every name or attribute the package (or the given files) reads;
    imports and ``__all__`` strings are not reads."""
    names = set()
    for path in paths or Path(pmcmc.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_every_public_callable_is_used():
    """A public function or class is read somewhere in the package, or
    named in the README or the benchmark."""
    loaded = _loaded_names()
    documents = [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(path.read_text() for path in documents)
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if attr in loaded or re.search(rf"\b{re.escape(attr)}\b", text):
                continue
            if f"{name}.{attr}" not in UNUSED_ALLOWED:
                unused.append(f"{name}.{attr}")
    assert not unused, f"public names nothing uses: {unused}"


def test_model_contract_is_closed():
    """A model writes ``init``, ``run``, ``log_observe`` and ``_FIELDS``;
    the state codec lives in ``Model`` alone."""
    assert Model.__abstractmethods__ == {"init", "run", "log_observe", "_FIELDS"}
    for cls in (DelayModel, LinearGaussianModel, PredatorPreyModel):
        own = {"save", "load", "copy_from", "reseed"} & set(vars(cls))
        assert own == ({"reseed"} if cls is DelayModel else set()), cls.__name__


def test_protocol_is_closed():
    """The protocol's messages are exactly the dataclasses ``transport.py``
    defines, and the executor reads each by name and every field of each
    as an attribute: a message type or field that nothing sends or
    receives fails here."""
    transport = pmcmc.transport
    defined = {obj for obj in vars(transport).values()
               if dataclasses.is_dataclass(obj) and obj.__module__ == transport.__name__}
    assert set(transport._MESSAGE_TYPES) == defined
    executor = Path(pmcmc.__file__).parent / "executor.py"
    unread = {cls.__name__ for cls in defined} - _loaded_names([executor])
    assert not unread, f"message types the executor never reads: {sorted(unread)}"
    attributes = _loaded_names([executor], attributes_only=True)
    unread = sorted(f"{cls.__name__}.{field.name}" for cls in defined
                    for field in dataclasses.fields(cls) if field.name not in attributes)
    assert not unread, f"message fields the executor never reads: {unread}"
