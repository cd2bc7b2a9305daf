"""Model registry: engine-facing lookup from configured name to behavior.

Each entry bundles what the engine and CLI need to drive a model kind:
a factory building fresh instances from the model config section, the
observation CSV field layout, a value parser for those fields, and an
optional synthesizer producing artificial observation series.
"""

from __future__ import annotations

import dataclasses
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


_LG_KEYS = ("a", "q", "r", "m0", "s0")


def _lg_defaults(cfg: Mapping[str, Any]) -> dict:
    return {k: float(cfg[k]) for k in _LG_KEYS if k in cfg}


def _lg_factory(cfg: Mapping[str, Any]) -> Model:
    return LinearGaussianModel(**_lg_defaults(cfg))


def _lg_synthesize(cfg, theta, times, seed):
    return synthesize_linear_gaussian(theta, times, seed, defaults=_lg_defaults(cfg))


def _lg_parse(field: str, text: str):
    return float(text)


_IBM_PROFILES = {"desk": DESK_DEFAULTS, "full": FULL_SCALE_DEFAULTS}
_IBM_INITIAL = {"desk": (100, 10), "full": (2000, 30)}
_IBM_RATE_KEYS = tuple(f.name for f in dataclass_fields(IbmParameters))


def _ibm_setup(cfg: Mapping[str, Any]):
    profile = cfg.get("profile", "desk")
    if profile not in _IBM_PROFILES:
        raise ValidationError(f"unknown predator_prey profile {profile!r}; expected one of {sorted(_IBM_PROFILES)}")
    overrides = {k: float(cfg[k]) for k in _IBM_RATE_KEYS if k in cfg}
    params = dataclasses.replace(_IBM_PROFILES[profile], **overrides)
    default_prey, default_pred = _IBM_INITIAL[profile]
    return (
        params,
        int(cfg.get("initial_prey", default_prey)),
        int(cfg.get("initial_predators", default_pred)),
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
    return DelayModel(delay_ms=float(cfg.get("delay_ms", 5.0)))


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
