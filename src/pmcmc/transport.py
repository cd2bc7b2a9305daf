"""Message schema and channels for the master-worker runtime.

Every message crossing a channel is a pickled dataclass, unversioned as
master and workers are one program, so the protocol logic is the same
whichever queue carries it: an in-process ``queue.Queue`` between
threads, or a ``multiprocessing`` queue between forked worker processes.
Sends never block; receives take a timeout.
"""

from __future__ import annotations

import pickle
import queue
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .core import Parameters, SerializationError

__all__ = [
    "Advance",
    "Broadcast",
    "Channel",
    "ErrorReport",
    "ExitCommand",
    "ParticleTransfer",
    "WorkerReport",
    "decode_message",
    "encode_message",
]


@dataclass(frozen=True)
class Broadcast:
    """Step 1: parameter vector for the coming filter pass."""

    sample_index: int
    parameters: Parameters


@dataclass(frozen=True)
class Advance:
    """Step 3: next observation event. observation_index is 1-based; 0 is
    reserved for initialization in the seed hierarchy. ``routing`` is step
    9: the rows of the previous event's order table that this worker sends
    or receives (``routing.worker_slice``), int32 placement orders
    (lineage_id, source, destination, first_new_id, copies), or None at
    event 1."""

    observation_index: int
    target_time: float
    data: Mapping[str, Any]
    routing: np.ndarray | None


@dataclass(frozen=True)
class ExitCommand:
    """The session is closing, after its last pass or a failed one; the
    worker returns."""


@dataclass(frozen=True)
class WorkerReport:
    """Step 5: per-particle log observation likelihoods plus the stage
    timings recorded since the previous report; the first carries
    initialization's."""

    worker: int
    observation_index: int
    lineage_ids: np.ndarray   # int32, ascending
    log_weights: np.ndarray   # float64, one per lineage id
    timings: tuple


@dataclass(frozen=True)
class ErrorReport:
    """Worker-side failure: identifies the rank and protocol step."""

    worker: int
    step: str
    message: str


@dataclass(frozen=True)
class ParticleTransfer:
    """Step 10(b): one serialized particle state moving between workers.
    Identical replicas travel once; the receiver replicates locally."""

    lineage_id: int
    state: bytes
    source: int


_MESSAGE_TYPES = (
    Broadcast, Advance, ExitCommand, WorkerReport, ErrorReport, ParticleTransfer,
)


def encode_message(message) -> bytes:
    if not isinstance(message, _MESSAGE_TYPES):
        raise SerializationError(f"not a protocol message: {type(message).__name__}")
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_message(payload: bytes):
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise SerializationError(f"undecodable message: {exc}") from exc
    if not isinstance(message, _MESSAGE_TYPES):
        raise SerializationError(f"unexpected message payload: {type(message).__name__}")
    return message


class Channel:
    """Ordered reliable byte channel between two endpoints.

    Without ``context`` the channel is an in-process ``queue.Queue``; with a
    ``multiprocessing`` context it is that context's ``Queue``, usable from
    processes forked after the channel was made.
    """

    def __init__(self, context=None):
        self._shared = context is not None
        self._q = context.Queue() if self._shared else queue.Queue()

    def close(self) -> None:
        """Flush what this process sent and stop its queue's feeder thread."""
        if self._shared:
            self._q.close()
            self._q.join_thread()

    def abandon(self) -> None:
        """Let this process exit without waiting for the receiver to read
        what it sent (the receiver may be gone)."""
        if self._shared:
            self._q.cancel_join_thread()

    def send(self, message) -> None:
        # non-blocking: enqueue and return
        self._q.put(encode_message(message))

    def recv(self, timeout: float | None = None):
        return decode_message(self._q.get(timeout=timeout))
