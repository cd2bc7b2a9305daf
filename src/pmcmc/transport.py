"""Message schema and in-process channels for the master-worker runtime.

Every message crossing a channel is a versioned, byte-serialized payload,
so the in-process queue transport used here could be swapped for a
socket- or process-based one without touching the protocol logic. Sends
never block; receives support timeouts and an optional artificial
delivery delay used by tests to force transfer latency.
"""

from __future__ import annotations

import pickle
import queue
import time
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .core import Parameters, SerializationError

__all__ = [
    "PROTOCOL_VERSION",
    "Advance",
    "Broadcast",
    "Channel",
    "ErrorReport",
    "ExitCommand",
    "ExitReport",
    "InitReport",
    "ParticleTransfer",
    "RouteCommand",
    "WorkerReport",
    "decode_message",
    "encode_message",
]

PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Broadcast:
    """Step 1: parameter vector for the coming filter pass."""

    sample_index: int
    parameters: Parameters


@dataclass(frozen=True)
class Advance:
    """Step 3: next observation event. observation_index is 1-based; 0 is
    reserved for initialization in the seed hierarchy."""

    observation_index: int
    target_time: float
    data: Mapping[str, Any]


@dataclass(frozen=True)
class RouteCommand:
    """Step 9: this worker's slice of the routing, rows (lineage_id,
    source, destination, new_lineage_id) as an (m, 4) integer array or,
    equivalently, a tuple of 4-tuples."""

    observation_index: int
    entries: np.ndarray | tuple
    w_max: int


@dataclass(frozen=True)
class ExitCommand:
    """Step 6: all observation events processed."""


@dataclass(frozen=True)
class InitReport:
    """Step 2 barrier: worker finished initializing its particles."""

    worker: int
    lineage_ids: tuple
    timings: tuple


@dataclass(frozen=True)
class WorkerReport:
    """Step 5: per-particle log observation likelihoods plus the stage
    timings accumulated since the previous report."""

    worker: int
    observation_index: int
    lineage_ids: np.ndarray   # int32, ascending
    log_weights: np.ndarray   # float64, one per lineage id
    timings: tuple


@dataclass(frozen=True)
class ExitReport:
    worker: int
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
    new_lineage_id: int
    state: bytes
    source: int
    destination: int


_MESSAGE_TYPES = (
    Broadcast, Advance, RouteCommand, ExitCommand,
    InitReport, WorkerReport, ExitReport, ErrorReport, ParticleTransfer,
)


def encode_message(message) -> bytes:
    if not isinstance(message, _MESSAGE_TYPES):
        raise SerializationError(f"not a protocol message: {type(message).__name__}")
    return pickle.dumps((PROTOCOL_VERSION, message), protocol=pickle.HIGHEST_PROTOCOL)


def decode_message(payload: bytes):
    try:
        version, message = pickle.loads(payload)
    except Exception as exc:
        raise SerializationError(f"undecodable message: {exc}") from exc
    if version != PROTOCOL_VERSION:
        raise SerializationError(f"protocol version mismatch: got {version}, expected {PROTOCOL_VERSION}")
    if not isinstance(message, _MESSAGE_TYPES):
        raise SerializationError(f"unexpected message payload: {type(message).__name__}")
    return message


class Channel:
    """Ordered reliable byte channel between two endpoints.

    ``delay`` postpones delivery (not sending) by a fixed interval, which
    tests use to assert that local work overlaps in-flight transfers.
    """

    def __init__(self, delay: float = 0.0):
        self._q: queue.Queue = queue.Queue()
        self._delay = float(delay)

    def send(self, message) -> None:
        # non-blocking: enqueue and return; visibility time enforced on receive
        self._q.put((time.monotonic() + self._delay, encode_message(message)))

    def recv(self, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
        ready_at, payload = self._q.get(timeout=remaining)
        wait = ready_at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        return decode_message(payload)
