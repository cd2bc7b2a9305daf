"""Execution interface every hidden-Markov model plugs into the engine."""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..core import Parameters, SerializationError

__all__ = ["Model", "RoundTripReport", "check_state_roundtrip", "decode_state_payload", "encode_state_payload"]


class Model(ABC):
    """Behavioral contract for one particle's model instance.

    An instance is single-threaded and owns its full state, including its
    random stream, so that ``load(save())`` reproduces future behavior
    exactly. ``log_observe`` must be pure and return a log density: a
    float below +inf, -inf for an impossible observation, never NaN.
    ``run`` must be Markov: the result distribution depends only on the
    current state, the parameters, the target time, and the stream.

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

    @abstractmethod
    def save(self) -> bytes:
        """Serialize the complete state, parameters and stream included."""

    @abstractmethod
    def load(self, state: bytes) -> None:
        """Restore a state produced by ``save`` on a compatible instance."""

    @abstractmethod
    def reseed(self, seed: int) -> None:
        """Replace the random stream without touching the state."""

    def copy_from(self, source: "Model") -> None:
        """Become a replica of ``source``, an instance of the same class.

        Parameters, time and latent state are copied and no mutable object
        is shared with ``source``, so advancing either leaves the other
        alone. The random stream is not copied: it is unspecified until the
        caller's ``reseed``. The default is ``load(source.save())``;
        override it when a direct copy is cheaper.
        """
        self.load(source.save())


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


@dataclass(frozen=True)
class RoundTripReport:
    """Outcome of a save/load equivalence check."""

    ok: bool
    detail: str = ""


def check_state_roundtrip(
    original: Model,
    blank: Model,
    steps: list[tuple[float, int]],
    data: Mapping[str, Any],
) -> RoundTripReport:
    """Verify the save/load contract on a pair of instances.

    ``original`` is saved and restored into ``blank``; both are then
    advanced through the same (target_time, seed) schedule, each step a
    ``reseed`` then a ``run``, and their observation likelihoods compared.
    The first diverging value is reported.
    """
    blank.load(original.save())
    for idx, (target, seed) in enumerate(steps):
        for model in (original, blank):
            model.reseed(seed)
            model.run(target)
        a = original.log_observe(data)
        b = blank.log_observe(data)
        if a != b:
            return RoundTripReport(False, f"log_observe diverged at step {idx}: {a!r} != {b!r}")
    return RoundTripReport(True)
