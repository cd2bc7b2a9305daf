"""Constant-latency stub model for scheduler and scaling measurements.

Each advance sleeps for a fixed interval and observation likelihoods are
identically 1, so runtime reflects pure engine and distribution overhead.
The sleep releases the interpreter lock, so even worker threads overlap.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from ..core import Parameters, ValidationError
from .base import Model, decode_state_payload, encode_state_payload

__all__ = ["DelayModel"]


class DelayModel(Model):
    _KIND = "delay"

    def __init__(self, delay_ms: float = 5.0):
        if delay_ms < 0:
            raise ValidationError(f"delay_ms must be >= 0, got {delay_ms}")
        self._delay_s = float(delay_ms) / 1000.0
        self._time = 0.0
        self._seed = 0
        self._ready = False

    def init(self, parameters: Parameters, seed: int) -> None:
        self._time = 0.0
        self._seed = int(seed)
        self._ready = True

    def run(self, target_time: float) -> None:
        if not self._ready:
            raise ValidationError("model not initialized")
        if target_time < self._time:
            raise ValidationError(f"target time must be >= {self._time}, got {target_time!r}")
        if self._delay_s > 0:
            time.sleep(self._delay_s)
        self._time = float(target_time)

    def log_observe(self, data: Mapping[str, Any]) -> float:
        return 0.0

    def save(self) -> bytes:
        return encode_state_payload(self._KIND, {
            "delay_s": self._delay_s, "time": self._time, "seed": self._seed, "ready": self._ready,
        })

    def load(self, state: bytes) -> None:
        payload = decode_state_payload(self._KIND, state)
        self._delay_s = float(payload["delay_s"])
        self._time = float(payload["time"])
        self._seed = int(payload["seed"])
        self._ready = bool(payload["ready"])

    def reseed(self, seed: int) -> None:
        if not self._ready:
            raise ValidationError("model not initialized")
        self._seed = int(seed)

    def copy_from(self, source: "DelayModel") -> None:
        self._delay_s = source._delay_s
        self._time = source._time
        self._ready = source._ready
