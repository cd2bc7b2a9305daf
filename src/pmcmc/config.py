"""Engine configuration: a versioned YAML file mapped onto EngineConfig.

Layout (version 1):

    config_version: 1
    model:
      name: predator_prey        # registry name
      profile: desk              # remaining keys are model-specific
    prior:
      K_prey: {kind: lognormal, mu: 3.2, sigma: 0.5}
      K_pred: {kind: uniform, lower: 1.0, upper: 60.0}
    initial:
      K_prey: 25.0
      K_pred: 15.0
    proposal_scales:
      K_prey: 2.0
      K_pred: 1.5
    schedule:
      init_steps: 50             # model steps before the first observation
      observations: 10
      spacing: 5                 # steps between observations
    samples: 100
    particles: 64
    workers: 2
    seed: 42
    observations_path: observations.csv
    output_dir: out

Relative paths resolve against the directory containing the config
file. CLI overrides (--workers, --seed, --output) replace the loaded
values before anything runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .core import Parameters, ValidationError
from .models import build_model
from .sampler import LogNormalPrior, Prior, UniformPrior

__all__ = ["CONFIG_VERSION", "EngineConfig", "Schedule", "load_config", "config_from_mapping"]

CONFIG_VERSION = 1

_PRIOR_KINDS = {
    "uniform": (UniformPrior, ("lower", "upper")),
    "lognormal": (LogNormalPrior, ("mu", "sigma")),
}


@dataclass(frozen=True)
class Schedule:
    """Observation timetable: first event at init_steps, then evenly spaced."""

    init_steps: int
    observations: int
    spacing: int

    def __post_init__(self):
        for name in ("init_steps", "observations", "spacing"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"schedule.{name} must be an integer >= 1, got {value!r}")

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(self.init_steps + self.spacing * k for k in range(self.observations))


@dataclass(frozen=True)
class EngineConfig:
    model_name: str
    model_config: Mapping[str, Any]
    prior: Prior
    initial: Parameters
    proposal_scales: Mapping[str, float]
    schedule: Schedule
    samples: int
    particles: int
    workers: int
    seed: int
    observations_path: Path | None
    output_dir: Path

    def __post_init__(self):
        if not self.model_name:
            raise ValidationError("model.name is required")
        for name, value in (("samples", self.samples), ("particles", self.particles),
                            ("workers", self.workers)):
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        for name, scale in self.proposal_scales.items():
            if name not in self.initial:
                raise ValidationError(f"proposal_scales names unknown parameter {name!r}")
            if scale < 0:
                raise ValidationError(f"proposal_scales.{name} must be >= 0, got {scale!r}")
        for name in self.prior.names:
            if name not in self.initial:
                raise ValidationError(f"prior names unknown parameter {name!r}")
        for name in self.proposal_scales:
            if name not in self.prior.names:
                raise ValidationError(f"proposal_scales.{name} has no prior")


def _build_marginal(name: str, spec: Mapping[str, Any]):
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ValidationError(f"prior.{name} must be a mapping with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _PRIOR_KINDS:
        raise ValidationError(f"prior.{name}.kind must be one of {sorted(_PRIOR_KINDS)}, got {kind!r}")
    cls, keys = _PRIOR_KINDS[kind]
    extra = set(spec) - {"kind", *keys}
    if extra:
        raise ValidationError(f"prior.{name} has unexpected keys {sorted(extra)}")
    try:
        args = {k: _as_float(spec[k], f"prior.{name}.{k}") for k in keys}
    except KeyError as exc:
        raise ValidationError(f"prior.{name} ({kind}) is missing key {exc.args[0]!r}") from None
    return cls(**args)


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"{context}.{key} is required")
    return mapping[key]


def _float_map(raw: Any, context: str) -> dict[str, float]:
    if not isinstance(raw, Mapping) or not raw:
        raise ValidationError(f"{context} must be a nonempty mapping, got {raw!r}")
    return {str(name): _as_float(value, f"{context}.{name}") for name, value in raw.items()}


def _as_float(value: Any, context: str) -> float:
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = None
    if number is None:
        raise ValidationError(f"{context} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ValidationError(f"{context} must be finite, got {value!r}")
    return number


def config_from_mapping(raw: Mapping[str, Any], *, base_dir: Path | None = None) -> EngineConfig:
    """Build and validate an EngineConfig from parsed YAML content."""
    if not isinstance(raw, Mapping):
        raise ValidationError(f"config root must be a mapping, got {type(raw).__name__}")
    version = raw.get("config_version")
    if version != CONFIG_VERSION:
        raise ValidationError(f"config_version must be {CONFIG_VERSION}, got {version!r}")
    known = {"config_version", "model", "prior", "initial", "proposal_scales", "schedule",
             "samples", "particles", "workers", "seed", "observations_path", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")

    model = _require(raw, "model", "config")
    if not isinstance(model, Mapping) or "name" not in model:
        raise ValidationError("config.model must be a mapping with a 'name' key")
    model_config = {k: v for k, v in model.items() if k != "name"}

    prior_raw = _require(raw, "prior", "config")
    if not isinstance(prior_raw, Mapping) or not prior_raw:
        raise ValidationError("config.prior must be a nonempty mapping")

    initial = Parameters(_float_map(_require(raw, "initial", "config"), "initial"))
    scales = _float_map(_require(raw, "proposal_scales", "config"), "proposal_scales")

    schedule_raw = _require(raw, "schedule", "config")
    if not isinstance(schedule_raw, Mapping):
        raise ValidationError("config.schedule must be a mapping")
    extra = set(schedule_raw) - {"init_steps", "observations", "spacing"}
    if extra:
        raise ValidationError(f"schedule has unexpected keys {sorted(extra)}")
    schedule = Schedule(
        init_steps=_as_int(_require(schedule_raw, "init_steps", "schedule"), "schedule.init_steps"),
        observations=_as_int(_require(schedule_raw, "observations", "schedule"), "schedule.observations"),
        spacing=_as_int(_require(schedule_raw, "spacing", "schedule"), "schedule.spacing"),
    )

    base = Path(base_dir) if base_dir is not None else Path.cwd()

    obs_raw = raw.get("observations_path")
    observations_path = None if obs_raw is None else _resolve(base, str(obs_raw))

    config = EngineConfig(
        model_name=str(model["name"]),
        model_config=model_config,
        prior=Prior({str(k): _build_marginal(str(k), v) for k, v in prior_raw.items()}),
        initial=initial,
        proposal_scales=scales,
        schedule=schedule,
        samples=_as_int(_require(raw, "samples", "config"), "samples"),
        particles=_as_int(_require(raw, "particles", "config"), "particles"),
        workers=_as_int(_require(raw, "workers", "config"), "workers"),
        seed=_as_int(_require(raw, "seed", "config"), "seed"),
        observations_path=observations_path,
        output_dir=_resolve(base, str(raw.get("output_dir", "."))),
    )
    build_model(config.model_name, config.model_config)     # fail early on a bad model section
    return config


def _as_int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{context} must be an integer, got {value!r}")
    return value


def _resolve(base: Path, text: str) -> Path:
    path = Path(text)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path) -> EngineConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {path} is not valid YAML: {exc}") from exc
    try:
        return config_from_mapping(raw, base_dir=path.parent)
    except ValidationError as exc:
        raise ValidationError(f"config {path}: {exc}") from None
