"""Execution interface every hidden-Markov model plugs into the engine."""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

from ..core import Parameters, SerializationError, ValidationError, make_stream, rekey

__all__ = ["Model", "decode_state_payload", "encode_state_payload"]


class Model(ABC):
    """Behavioral contract for one particle's model instance.

    A model writes ``init``, ``run`` and ``log_observe`` and names in
    ``_FIELDS`` the attributes that hold its parameters, time and latent
    state; the base class saves, loads, reseeds and copies it. A model
    must replace, never mutate, the objects named in ``_FIELDS``: replicas
    share them. The random stream is the Philox generator ``_rng`` (None
    until ``init``), which only this class saves, restores and rekeys.

    An instance is single-threaded and owns its full state, including its
    random stream, so that ``load(save())`` reproduces future behavior
    exactly. ``log_observe`` must be pure and return a log density: a
    float below +inf, -inf for an impossible observation, never NaN.
    ``run`` must be Markov: the result distribution depends only on the
    current state, the parameters, the target time, and the stream.
    ``init`` on a used instance must give what a fresh instance gives: the
    engine keeps instances from one filtering pass for the next.

    ``run_many`` advances a batch of instances to one time; the engine
    calls it once per event for all the particles of a worker. Whatever
    it does, every instance must end as its own ``run`` would have left
    it, on the same stream position.

    ``copy_from`` is the in-process replication path: it copies everything
    but the stream, and the engine always ``reseed``s the copy before its
    next ``run``. So after ``a.copy_from(src); a.reseed(s)`` and
    ``b.load(src.save()); b.reseed(s)``, ``a`` and ``b`` must save the same
    bytes and behave identically. State moving between workers still
    travels through ``save`` and ``load``.
    """

    _KIND: str                      # tag of the saved state; subclasses inherit it
    _rng = None

    @property
    @abstractmethod
    def _FIELDS(self) -> tuple[str, ...]:
        """Names of the attributes holding parameters, time and latent state."""

    @abstractmethod
    def init(self, parameters: Parameters, seed: int) -> None:
        """Construct the initial state for the given parameters and stream seed."""

    @abstractmethod
    def run(self, target_time: float) -> None:
        """Advance the state to ``target_time`` on the current stream."""

    @classmethod
    def run_many(cls, models: Sequence["Model"], target_time: float) -> None:
        """Advance every instance in ``models`` to ``target_time``.

        The default calls each instance's ``run`` in turn. An override may
        advance the batch at once, for a lower per-call cost, but must
        leave each instance's draws unchanged and call the ``run`` of any
        instance whose class or instance replaces the one it batches.
        """
        for model in models:
            model.run(target_time)

    @abstractmethod
    def log_observe(self, data: Mapping[str, Any]) -> float:
        """Log likelihood of one observation record given the current state."""

    def save(self) -> bytes:
        """Serialize the ``_FIELDS`` and the stream."""
        payload = {name: getattr(self, name) for name in self._FIELDS}
        payload["_rng"] = None if self._rng is None else self._rng.bit_generator.state
        return encode_state_payload(self._KIND, payload)

    def load(self, state: bytes) -> None:
        """Restore a state produced by ``save`` on an instance of this class."""
        payload = decode_state_payload(self._KIND, state)
        if not isinstance(payload, dict) or tuple(payload) != (*self._FIELDS, "_rng"):
            raise SerializationError(f"{self._KIND!r} state does not hold the fields {self._FIELDS}")
        for name in self._FIELDS:
            setattr(self, name, payload[name])
        rng = payload["_rng"]
        if rng is None:
            self._rng = None
        else:
            # reuse a live generator when present, construction dominates load cost
            if self._rng is None:
                self._rng = make_stream(0)
            self._rng.bit_generator.state = rng

    def reseed(self, seed: int) -> None:
        """Replace the random stream without touching the state."""
        if self._rng is None:
            raise ValidationError("model not initialized")
        rekey(self._rng, seed)

    def copy_from(self, source: "Model") -> None:
        """Become a replica of ``source``, an instance of the same class.

        The ``_FIELDS`` are taken by reference, which is safe because no
        model mutates them. The random stream is not copied: it is
        unspecified until the caller's ``reseed``.
        """
        # setattr, not __dict__: reading an instance's __dict__ slows
        # every later attribute access on it (CPython 3.11)
        for name in self._FIELDS:
            setattr(self, name, getattr(source, name))
        if source._rng is None:
            self._rng = None
        elif self._rng is None:
            self._rng = make_stream(0)      # a stream for the caller to reseed


def encode_state_payload(kind: str, payload: dict) -> bytes:
    """Serialize a model state dict as a tagged byte sequence."""
    return pickle.dumps({"kind": kind, "payload": payload}, protocol=pickle.HIGHEST_PROTOCOL)


def decode_state_payload(kind: str, state: bytes) -> dict:
    """Decode and validate a byte sequence produced by ``encode_state_payload``."""
    try:
        raw = pickle.loads(state)
    except Exception as exc:
        raise SerializationError(f"undecodable model state: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("kind") != kind or "payload" not in raw:
        raise SerializationError(f"state payload is not a serialized {kind!r} state")
    return raw["payload"]
