"""Every name a pmcmc module lists in ``__all__`` exists, and every public
function or class among them has a user."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest
from test_executor import _OBS, _THETA, _FaultyModel, _point_mass_resampler, _use_resampler

import pmcmc
import pmcmc.executor
import pmcmc.transport
from pmcmc.core import ProtocolError
from pmcmc.executor import run_particle_filter
from pmcmc.models import DelayModel, LinearGaussianModel, Model, PredatorPreyModel

MODULES = ["pmcmc"] + sorted(info.name for info in pkgutil.walk_packages(pmcmc.__path__, "pmcmc."))

ROOT = Path(pmcmc.__file__).resolve().parents[2]


def _loaded_names(paths=None) -> set:
    """Every name or attribute the package (or the given files) reads;
    imports and ``__all__`` strings are not reads."""
    names = set()
    for path in paths or Path(pmcmc.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
            unused.append(f"{name}.{attr}")
    assert not unused, f"public names nothing uses: {unused}"


def test_model_contract_is_closed():
    """A model writes ``init``, ``run``, ``log_observe`` and ``_FIELDS``;
    the state codec lives in ``Model`` alone."""
    assert Model.__abstractmethods__ == {"init", "run", "log_observe", "_FIELDS"}
    for cls in (DelayModel, LinearGaussianModel, PredatorPreyModel):
        own = {"save", "load", "copy_from", "reseed"} & set(vars(cls))
        assert not own, cls.__name__


def test_protocol_is_closed(monkeypatch):
    """The protocol's messages are exactly the dataclasses ``transport.py``
    defines, the executor names each type, and it reads every field of
    each at run time: a message type or field that nothing sends or
    receives fails here. Two in-process passes send every type, one
    moving particles between two workers and one whose model fails."""
    transport = pmcmc.transport
    defined = {obj for obj in vars(transport).values()
               if dataclasses.is_dataclass(obj) and obj.__module__ == transport.__name__}
    assert set(transport._MESSAGE_TYPES) == defined
    executor = pmcmc.executor.__file__
    unread = {cls.__name__ for cls in defined} - _loaded_names([Path(executor)])
    assert not unread, f"message types the executor never reads: {sorted(unread)}"

    fields = {f"{cls.__name__}.{field.name}" for cls in defined for field in dataclasses.fields(cls)}
    read = set()

    def recording(self, name):
        # record field reads made by the executor's own code, not by pickle
        if sys._getframe(1).f_code.co_filename == executor:
            read.add(f"{type(self).__name__}.{name}")
        return object.__getattribute__(self, name)

    for cls in defined:
        monkeypatch.setattr(cls, "__getattribute__", recording)
    monkeypatch.setattr(pmcmc.executor, "_fork_context", lambda: None)
    _use_resampler(monkeypatch, _point_mass_resampler)
    result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2)
    assert sum(result.diagnostics.move_fractions) > 0
    with pytest.raises(ProtocolError, match="injected run fault"):
        run_particle_filter(lambda: _FaultyModel("run", 3), _THETA, _OBS, 4, 2)
    unread = sorted(fields - read)
    assert not unread, f"message fields the executor never reads: {unread}"


def test_every_diagnostics_field_has_a_reader():
    """Each ``FilterDiagnostics`` field is read by the CLI, the sampler or
    the benchmark: a channel the pass records and nothing reads fails here."""
    readers = [ROOT / "src" / "pmcmc" / "cli.py", ROOT / "src" / "pmcmc" / "sampler.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    loaded = _loaded_names(readers)
    unread = [field.name for field in dataclasses.fields(pmcmc.executor.FilterDiagnostics)
              if field.name not in loaded]
    assert not unread, f"diagnostics fields nothing reads: {unread}"
