"""Scalar linear-Gaussian state-space model with an exact marginal likelihood.

The engine's analytically tractable reference: the particle filter's
estimate can be checked against the closed-form value computed by a
Kalman recursion over the same observation schedule.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from ..core import (
    MODEL_STREAM,
    SYNTH_STREAM,
    ObservationSeries,
    Parameters,
    SeedKey,
    ValidationError,
    derive_seed,
    make_stream,
)
from .base import Model

__all__ = ["LinearGaussianModel", "kalman_log_marginal", "synthesize_linear_gaussian"]

_LOG_2PI = math.log(2.0 * math.pi)

# Overlayable parameter names; anything absent falls back to the fixed
# model configuration so a parameter vector can calibrate a subset.
_PARAM_NAMES = ("a", "q", "r", "m0", "s0")


def _validate_config(a: float, q: float, r: float, m0: float, s0: float) -> None:
    for name, value in (("a", a), ("q", q), ("r", r), ("m0", m0), ("s0", s0)):
        if not math.isfinite(value):
            raise ValidationError(f"parameter {name!r} must be finite, got {value!r}")
    if q <= 0.0:
        raise ValidationError(f"process noise std q must be > 0, got {q}")
    if r <= 0.0:
        raise ValidationError(f"observation noise std r must be > 0, got {r}")
    if s0 < 0.0:
        raise ValidationError(f"initial std s0 must be >= 0, got {s0}")


class LinearGaussianModel(Model):
    """AR(1) latent state observed through additive Gaussian noise.

    One unit of model time is one transition ``x' = a*x + Normal(0, q^2)``;
    an observation record ``{"y": v}`` has density ``Normal(v; x, r^2)``.
    Time starts at 0 with ``x ~ Normal(m0, s0^2)``. q, r, s0 are standard
    deviations. Constructor arguments fix the defaults; ``init`` overlays
    any of a, q, r, m0, s0 found in the parameter vector.
    """

    _KIND = "linear_gaussian"
    _FIELDS = ("_cfg", "_time", "_x")

    def __init__(self, a: float = 0.9, q: float = 1.0, r: float = 1.0, m0: float = 0.0, s0: float = 1.0):
        _validate_config(a, q, r, m0, s0)
        self._defaults = {"a": float(a), "q": float(q), "r": float(r), "m0": float(m0), "s0": float(s0)}
        self._cfg = dict(self._defaults)
        self._time = 0
        self._x = 0.0

    def init(self, parameters: Parameters, seed: int) -> None:
        cfg = dict(self._defaults)
        for name in _PARAM_NAMES:
            if name in parameters:
                cfg[name] = float(parameters[name])
        _validate_config(**cfg)
        self._cfg = cfg
        self._time = 0
        self.reseed(seed)
        self._x = cfg["m0"] + cfg["s0"] * self._rng.standard_normal()

    def run(self, target_time: float) -> None:
        if self._rng is None:
            raise ValidationError("model not initialized")
        target = int(target_time)
        if target != target_time or target < self._time:
            raise ValidationError(f"target time must be an integer >= {self._time}, got {target_time!r}")
        a, q = self._cfg["a"], self._cfg["q"]
        x, rng = self._x, self._rng
        for _ in range(target - self._time):
            x = a * x + q * rng.standard_normal()
        self._x = x
        self._time = target

    def log_observe(self, data: Mapping[str, Any]) -> float:
        if "y" not in data:
            raise ValidationError("observation record lacks field 'y'")
        y = float(data["y"])
        if not math.isfinite(y):
            raise ValidationError(f"observed value must be finite, got {y!r}")
        r = self._cfg["r"]
        z = (y - self._x) / r
        return -0.5 * (z * z + _LOG_2PI) - math.log(r)

    @property
    def latent(self) -> float:
        return self._x

    @property
    def time(self) -> int:
        return self._time


def kalman_log_marginal(
    a: float, q: float, r: float, m0: float, s0: float, observations: ObservationSeries
) -> float:
    """Exact log marginal likelihood of the linear-Gaussian model.

    Observation times must be nonnegative integers (strict increase is
    enforced by ObservationSeries); each record must carry field "y".
    The recursion propagates the latent mean and variance between
    observation times and accumulates the one-step predictive log
    densities. q, r, s0 are standard deviations, matching the model.
    """
    _validate_config(a, q, r, m0, s0)
    prev = 0
    mean, var = float(m0), float(s0) ** 2
    qq, rr = float(q) ** 2, float(r) ** 2
    total = 0.0
    for t, record in observations:
        ti = int(t)
        if ti != t or ti < 0:
            raise ValidationError(f"observation times must be nonnegative integers, got {t!r}")
        if "y" not in record:
            raise ValidationError("observation record lacks field 'y'")
        y = float(record["y"])
        if not math.isfinite(y):
            raise ValidationError(f"observed value must be finite, got {y!r}")
        for _ in range(ti - prev):
            mean = a * mean
            var = a * a * var + qq
        pred_var = var + rr
        total += -0.5 * ((y - mean) ** 2 / pred_var + math.log(pred_var) + _LOG_2PI)
        gain = var / pred_var
        mean = mean + gain * (y - mean)
        var = (1.0 - gain) * var
        prev = ti
    return total


def synthesize_linear_gaussian(
    parameters: Parameters, times, seed: int, defaults: Mapping[str, float] | None = None
) -> ObservationSeries:
    """Simulate one latent trajectory and add observation noise at each time."""
    model = LinearGaussianModel(**dict(defaults or {}))
    # seed acts as the chain index of a dedicated seed hierarchy so the
    # trajectory stream and the noise stream are distinct but reproducible
    model.init(parameters, derive_seed(SeedKey(seed, 0, 0, 0, MODEL_STREAM)))
    r = model._cfg["r"]
    noise = make_stream(derive_seed(SeedKey(seed, 0, 0, 0, SYNTH_STREAM)))
    records = []
    for t in times:
        model.run(t)
        records.append({"y": model.latent + r * noise.standard_normal()})
    return ObservationSeries(tuple(times), tuple(records))
