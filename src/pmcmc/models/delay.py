"""Constant-latency stub model for scheduler and scaling measurements.

Each advance sleeps for a fixed interval and observation likelihoods are
identically 1, so runtime reflects pure engine and distribution overhead.
The sleep releases the interpreter lock, so even worker threads overlap.
"""

from __future__ import annotations

import math
import time
from typing import Any, Mapping

from ..core import Parameters, ValidationError
from .base import Model

__all__ = ["DelayModel"]


class DelayModel(Model):
    _KIND = "delay"
    _FIELDS = ("_delay_s", "_time")

    def __init__(self, delay_ms: float = 5.0):
        if not 0 <= delay_ms < math.inf:
            raise ValidationError(f"delay_ms must be finite and >= 0, got {delay_ms}")
        self._delay_s = float(delay_ms) / 1000.0
        self._time = 0.0

    def init(self, parameters: Parameters, seed: int) -> None:
        self._time = 0.0
        self.reseed(seed)

    def run(self, target_time: float) -> None:
        if self._rng is None:
            raise ValidationError("model not initialized")
        if target_time < self._time:
            raise ValidationError(f"target time must be >= {self._time}, got {target_time!r}")
        if self._delay_s > 0:
            time.sleep(self._delay_s)
        self._time = float(target_time)

    def log_observe(self, data: Mapping[str, Any]) -> float:
        return 0.0
