"""Model registry: engine-facing lookup from configured name to behavior.

Each entry bundles what the engine and CLI need to drive a model kind:
a factory building fresh instances from the model config section, the
observation CSV field layout, a value parser for those fields, and an
optional synthesizer producing artificial observation series.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Mapping, Sequence

from ..core import ObservationSeries, Parameters, ValidationError
from .base import Model
from .delay import DelayModel
from .linear_gaussian import LinearGaussianModel, kalman_log_marginal, synthesize_linear_gaussian
from .predator_prey import (
    DESK_DEFAULTS,
    FULL_SCALE_DEFAULTS,
    IbmParameters,
    PredatorPreyModel,
    ibm_synthesize,
)

__all__ = [
    "Model",
    "ModelEntry",
    "build_model",
    "get_model_entry",
    "kalman_log_marginal",
]


@dataclass(frozen=True)
class ModelEntry:
    name: str
    fields: tuple[str, ...]
    factory: Callable[[Mapping[str, Any]], Model]
    synthesizer: Callable[[Mapping[str, Any], Parameters, Sequence[int], int], ObservationSeries] | None
    parse_value: Callable[[str, str], Any]


def _check_keys(cfg: Mapping[str, Any], allowed: tuple[str, ...]) -> None:
    unknown = [key for key in cfg if key not in allowed]
    if unknown:
        names = ", ".join(f"model.{key}" for key in sorted(unknown))
        raise ValidationError(f"unknown keys {names}; this model takes {sorted(allowed)}")


def _number(cfg: Mapping[str, Any], key: str, default, kind=float):
    """``cfg[key]``, or ``default`` when absent, as a float or, with
    ``kind=int``, as an integer that must be written as one."""
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool) or (kind is int and not isinstance(value, int)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"model.{key} must be {noun}, got {value!r}") from None


_LG_KEYS = ("a", "q", "r", "m0", "s0")


def _lg_defaults(cfg: Mapping[str, Any]) -> dict:
    _check_keys(cfg, _LG_KEYS)
    return {k: _number(cfg, k, None) for k in _LG_KEYS if k in cfg}


def _lg_factory(cfg: Mapping[str, Any]) -> Model:
    return LinearGaussianModel(**_lg_defaults(cfg))


def _lg_synthesize(cfg, theta, times, seed):
    return synthesize_linear_gaussian(theta, times, seed, defaults=_lg_defaults(cfg))


def _lg_parse(field: str, text: str):
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"not a finite number: {text!r}")
    return value


_IBM_PROFILES = {"desk": DESK_DEFAULTS, "full": FULL_SCALE_DEFAULTS}
_IBM_INITIAL = {"desk": (100, 10), "full": (2000, 30)}
_IBM_RATE_KEYS = tuple(f.name for f in dataclass_fields(IbmParameters))
_IBM_KEYS = ("profile", "initial_prey", "initial_predators", *_IBM_RATE_KEYS)


def _ibm_setup(cfg: Mapping[str, Any]):
    _check_keys(cfg, _IBM_KEYS)
    profile = cfg.get("profile", "desk")
    if not isinstance(profile, str) or profile not in _IBM_PROFILES:
        raise ValidationError(f"model.profile must be one of {sorted(_IBM_PROFILES)}, got {profile!r}")
    params = _IBM_PROFILES[profile]
    overrides = {k: _number(cfg, k, None) for k in _IBM_RATE_KEYS if k in cfg}
    if overrides:
        params = dataclasses.replace(params, **overrides)
    default_prey, default_pred = _IBM_INITIAL[profile]
    return (
        params,
        _number(cfg, "initial_prey", default_prey, int),
        _number(cfg, "initial_predators", default_pred, int),
    )


def _ibm_factory(cfg: Mapping[str, Any]) -> Model:
    params, n_prey, n_pred = _ibm_setup(cfg)
    return PredatorPreyModel(defaults=params, initial_prey=n_prey, initial_predators=n_pred)


def _ibm_synthesize(cfg, theta, times, seed):
    params, n_prey, n_pred = _ibm_setup(cfg)
    return ibm_synthesize(params.with_calibrated(theta), times, seed, n_prey, n_pred)


def _ibm_parse(field: str, text: str):
    value = int(text)
    if value < 0:
        raise ValidationError(f"observed {field} count must be >= 0, got {value}")
    return value


def _delay_factory(cfg: Mapping[str, Any]) -> Model:
    _check_keys(cfg, ("delay_ms",))
    return DelayModel(delay_ms=_number(cfg, "delay_ms", 5.0))


_REGISTRY: dict[str, ModelEntry] = {
    "linear_gaussian": ModelEntry("linear_gaussian", ("y",), _lg_factory, _lg_synthesize, _lg_parse),
    "predator_prey": ModelEntry("predator_prey", ("prey", "predator"), _ibm_factory, _ibm_synthesize, _ibm_parse),
    "delay": ModelEntry("delay", (), _delay_factory, None, lambda field, text: text),
}


def get_model_entry(name: str) -> ModelEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(f"unknown model {name!r}; registered: {', '.join(sorted(_REGISTRY))}") from None


def build_model(name: str, cfg: Mapping[str, Any]) -> Model:
    return get_model_entry(name).factory(cfg)
