"""Stochastic two-species individual-based model with counting observations.

Every organism is tracked as a discrete entity with species, life stage,
and body mass. One model step applies, in this fixed order:

1. growth      - every individual gains ``growth_increment`` mass (no draws)
2. maturation  - juveniles reaching ``maturation_mass`` become adults (no draws)
3. predation   - one uniform draw per prey, in stored order; prey is
                 consumed when u < 1 - (1-encounter_rate)^(predator density)
4. death       - one uniform draw per survivor, in stored order; the
                 per-species threshold is the base rate plus a crowding
                 term saturating in the species' density (see
                 ``death_probability``)
5. reproduce   - one Poisson draw per adult, prey block first then
                 predator block, each in stored order; offspring are
                 appended (prey then predators) as juveniles at
                 ``juvenile_mass``

The fixed draw order makes a trajectory exactly replayable from the seed,
which the engine relies on for particle replication and reseeding. It is
the contract: every step makes exactly these four draws, in this order and
with these sizes, zero-size blocks included, whatever their outcome.

``ibm_advance`` is the stepping kernel of one census. The model's ``run``,
the synthesizer and ``ibm_step`` (one step) all go through it. It folds
predation and death into one keep mask, so the census compacts once per
step, and it never writes into the arrays of the state it is given: the
caller, ``PredatorPreyModel.state`` or a test may still hold them.

``ibm_advance_many`` is the same step over a batch of censuses, laid end
to end in one set of arrays, so the per-call cost of every array
operation is paid once per batch instead of once per census. Each census
still makes its own four draws from its own stream. It wins on small
censuses and loses on large ones, so ``PredatorPreyModel.run_many`` sends
only censuses of at most ``BATCH_CENSUS_LIMIT`` individuals through it.

Counts are observed through a Poisson counting-error model restricted to
detectable individuals (mass >= ``detection_mass``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..core import (
    MODEL_STREAM,
    SYNTH_STREAM,
    ObservationSeries,
    Parameters,
    SeedKey,
    ValidationError,
    derive_seed,
    make_stream,
    rekey,
)
from .base import Model, decode_state_payload, encode_state_payload

__all__ = [
    "ADULT",
    "DESK_DEFAULTS",
    "DETECTION_EPSILON",
    "JUVENILE",
    "OBS_FIELDS",
    "FULL_SCALE_DEFAULTS",
    "PREDATOR",
    "PREY",
    "IbmParameters",
    "IbmState",
    "PredatorPreyModel",
    "death_probability",
    "ibm_advance",
    "ibm_advance_many",
    "ibm_log_observe",
    "ibm_step",
    "ibm_synthesize",
]

PREY = 0
PREDATOR = 1
JUVENILE = 0
ADULT = 1

DETECTION_EPSILON = 1e-6

OBS_FIELDS = ("prey", "predator")

# Calibrated subset of the parameter vector; everything else is fixed.
CALIBRATED = ("K_prey", "K_pred")


@dataclass(frozen=True)
class IbmParameters:
    """Model rates. K_prey and K_pred are the calibrated half-saturation
    constants of the self-inhibition (crowding) mortality terms; the rest
    are fixed configuration.

    The K constants are expressed per unit habitat area; ``prey_area`` and
    ``pred_area`` convert them to the abundance scale of a given setup, so
    the same calibrated values drive both the small test configuration and
    the large one.
    """

    K_prey: float = 25.0
    K_pred: float = 15.0
    prey_birth_rate: float = 0.4
    pred_birth_rate: float = 0.2
    prey_base_death: float = 0.02
    pred_base_death: float = 0.02
    # crowding coefficients tuned so the large setup equilibrates near
    # 2000 detectable prey and 30 predators (see package docs)
    prey_crowd_death: float = 0.20
    pred_crowd_death: float = 0.195
    encounter_rate: float = 0.004
    growth_increment: float = 0.2
    maturation_mass: float = 1.0
    juvenile_mass: float = 0.5
    detection_mass: float = 0.8
    prey_area: float = 4.0
    pred_area: float = 2.0 / 3.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"rate {f.name!r} must be a finite number, got {value!r}")
        for name in ("K_prey", "K_pred", "growth_increment", "maturation_mass",
                     "juvenile_mass", "detection_mass", "prey_area", "pred_area"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("prey_birth_rate", "pred_birth_rate", "prey_base_death",
                     "pred_base_death", "prey_crowd_death", "pred_crowd_death"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.encounter_rate < 1.0:
            raise ValidationError(f"encounter_rate must be in [0, 1), got {self.encounter_rate}")

    def with_calibrated(self, parameters: Parameters) -> "IbmParameters":
        """Overlay the calibrated constants found in a parameter vector."""
        updates = {name: float(parameters[name]) for name in CALIBRATED if name in parameters}
        return replace(self, **updates) if updates else self


class IbmState:
    """Census arrays in stable stored order plus the current step count."""

    __slots__ = ("species", "stage", "mass", "step")

    def __init__(self, species: np.ndarray, stage: np.ndarray, mass: np.ndarray, step: int):
        if not (species.shape == stage.shape == mass.shape):
            raise ValidationError("census arrays must have identical shape")
        if step < 0:
            raise ValidationError(f"step must be >= 0, got {step}")
        self.species = species
        self.stage = stage
        self.mass = mass
        self.step = int(step)

    @classmethod
    def initial(cls, n_prey: int, n_predators: int, mass: float) -> "IbmState":
        """Founding census: all individuals adult at the given mass, prey first."""
        if n_prey < 0 or n_predators < 0:
            raise ValidationError("initial counts must be >= 0")
        n = n_prey + n_predators
        species = np.concatenate([
            np.full(n_prey, PREY, np.uint8),
            np.full(n_predators, PREDATOR, np.uint8),
        ])
        return cls(species, np.full(n, ADULT, np.uint8), np.full(n, float(mass)), 0)

    def __len__(self) -> int:
        return self.species.size


def death_probability(count, base_rate: float, crowd_rate: float,
                      half_saturation: float, area: float = 1.0):
    """Per-step death probability of one individual of a species with
    ``count`` conspecifics: the base rate plus a crowding term that
    saturates as the species' density ``count/area`` exceeds the
    half-saturation constant. Clipped into [0, 1].

    ``count`` may be an integer array, one count per census; each element
    of the result then equals the scalar call on that count.
    """
    density = count / area
    p = base_rate + crowd_rate * density / (density + half_saturation)
    if isinstance(p, float):
        return min(max(p, 0.0), 1.0)
    return np.clip(p, 0.0, 1.0)


def ibm_advance(state: IbmState, target: int, params: IbmParameters,
                rng: np.random.Generator) -> IbmState:
    """Advance the census to step ``target`` using the documented draw order.

    This is the kernel of one census: the model's ``run``, the synthesizer
    and ``ibm_step`` advance through it, and ``ibm_advance_many`` must
    match it census by census. It never writes into the arrays
    of ``state``, which its caller may still hold; with no step to take it
    returns ``state`` itself.
    """
    if target < state.step:
        raise ValidationError(f"target step must be >= {state.step}, got {target}")
    if target == state.step:
        return state
    growth, maturation = params.growth_increment, params.maturation_mass
    encounter, juvenile_mass = params.encounter_rate, params.juvenile_mass
    # census as boolean masks; species and stage codes are 0 or 1
    pred = state.species == PREDATOR
    adult = state.stage == ADULT
    mass = state.mass
    for _ in range(target - state.step):
        # 1. growth, 2. maturation (juvenile -> adult only)
        mass = mass + growth
        adult = adult | (mass >= maturation)

        # 3. predation: the uniform block is always drawn so the stream
        # position depends only on the census size, not on the outcome
        n_pred = np.count_nonzero(pred)
        n_prey = mass.size - n_pred
        u = rng.random(n_prey)
        alive = None                    # predation survivors, when any prey is eaten
        if n_pred > 0 and encounter > 0.0 and n_prey > 0:
            consume_p = -math.expm1(math.log1p(-encounter) * (n_pred / params.pred_area))
            spared = u >= consume_p
            n_spared = np.count_nonzero(spared)
            if n_spared < n_prey:
                alive = pred.copy()
                alive[~pred] = spared
                n_prey = n_spared

        # 4. density-dependent death over the survivors; predation and
        # death fold into one keep mask, so the census compacts once
        d_prey = death_probability(n_prey, params.prey_base_death, params.prey_crowd_death,
                                   params.K_prey, params.prey_area)
        d_pred = death_probability(n_pred, params.pred_base_death, params.pred_crowd_death,
                                   params.K_pred, params.pred_area)
        v = rng.random(n_prey + n_pred)
        threshold = np.where(pred, d_pred, d_prey)
        if alive is None:
            keep = v >= threshold
        else:
            keep = np.zeros(mass.size, dtype=bool)
            keep[alive] = v >= threshold[alive]
        pred, adult, mass = pred[keep], adult[keep], mass[keep]

        # 5. reproduction: adults only, one Poisson per adult, prey block first
        n_adult_pred = np.count_nonzero(adult & pred)
        n_adult_prey = np.count_nonzero(adult) - n_adult_pred
        births_prey = int(rng.poisson(params.prey_birth_rate, n_adult_prey).sum())
        births_pred = int(rng.poisson(params.pred_birth_rate, n_adult_pred).sum())
        if births_prey or births_pred:
            # offspring appended prey then predators, as juveniles
            m = mass.size
            size = m + births_prey + births_pred
            grown_mass = np.empty(size)
            grown_mass[:m] = mass
            grown_mass[m:] = juvenile_mass
            grown_pred = np.zeros(size, dtype=bool)
            grown_pred[:m] = pred
            grown_pred[m + births_prey:] = True
            grown_adult = np.zeros(size, dtype=bool)
            grown_adult[:m] = adult
            pred, adult, mass = grown_pred, grown_adult, grown_mass
    return IbmState(pred.view(np.uint8), adult.view(np.uint8), mass, target)


def ibm_advance_many(states: Sequence[IbmState], target: int, params: IbmParameters,
                     rngs: Sequence[np.random.Generator]) -> list[IbmState]:
    """Advance a batch of censuses, all at one step, to step ``target``.

    Element i of the result equals ``ibm_advance(states[i], target,
    params, rngs[i])`` bit for bit, and leaves ``rngs[i]`` at the same
    position: census i makes its four draws a step from ``rngs[i]`` in
    the documented order and sizes. The censuses are concatenated, and
    growth, maturation, the keep mask, compaction and births run once
    per step over the whole batch. It never writes into the arrays of
    ``states``; with no step to take it returns them.
    """
    if len(states) != len(rngs):
        raise ValidationError(f"{len(states)} censuses but {len(rngs)} streams")
    if not states:
        return []
    start = states[0].step
    if any(state.step != start for state in states):
        raise ValidationError("batched censuses must share one step")
    if target < start:
        raise ValidationError(f"target step must be >= {start}, got {target}")
    if target == start:
        return list(states)
    growth, maturation = params.growth_increment, params.maturation_mass
    log_spare = math.log1p(-params.encounter_rate)
    k = len(states)
    # row r of census i has code[r] == 2 * i + species, census i being a
    # contiguous run of rows in stored order; per-census pairs share the index
    pairs = np.arange(2 * k)
    code = (np.repeat(pairs[0::2], [len(state) for state in states])
            + (np.concatenate([state.species for state in states]) == PREDATOR))
    adult = np.concatenate([state.stage for state in states]) == ADULT
    mass = np.concatenate([state.mass for state in states])
    thresholds = np.empty(2 * k)
    for _ in range(target - start):
        # 1. growth, 2. maturation (juvenile -> adult only); the arrays
        # are this call's own
        mass += growth
        adult |= mass >= maturation

        # 3. predation: each census draws its uniform block whatever the
        # outcome; one without predators has consume_p == 0, sparing all
        counts = np.bincount(code, minlength=2 * k)
        n_prey, n_pred = counts[0::2].tolist(), counts[1::2].tolist()
        u = np.concatenate([rng.random(n) for rng, n in zip(rngs, n_prey)])
        consume_p = [-math.expm1(log_spare * (n / params.pred_area)) for n in n_pred]
        prey = (code & 1) == 0
        alive = ~prey
        alive[prey] = u >= np.repeat(consume_p, n_prey)
        alive_code = code[alive]
        spared = np.bincount(alive_code, minlength=2 * k)[0::2]

        # 4. density-dependent death over the survivors, folded with
        # predation into one keep mask
        thresholds[0::2] = death_probability(spared, params.prey_base_death, params.prey_crowd_death,
                                             params.K_prey, params.prey_area)
        thresholds[1::2] = death_probability(counts[1::2], params.pred_base_death,
                                             params.pred_crowd_death, params.K_pred, params.pred_area)
        v = np.concatenate([rng.random(a + b) for rng, a, b in zip(rngs, spared.tolist(), n_pred)])
        keep = np.zeros(mass.size, dtype=bool)
        keep[alive] = v >= thresholds[alive_code]
        code, adult, mass = code[keep], adult[keep], mass[keep]

        # 5. reproduction: one Poisson per adult, prey block first
        adults = np.bincount(code[adult], minlength=2 * k)
        n_adult = adults.tolist()
        litters = np.concatenate([
            litter
            for i, rng in enumerate(rngs)
            for litter in (rng.poisson(params.prey_birth_rate, n_adult[2 * i]),
                           rng.poisson(params.pred_birth_rate, n_adult[2 * i + 1]))])
        births = np.bincount(np.repeat(pairs, adults), weights=litters, minlength=2 * k).astype(np.int64)
        if births.any():
            # each census's offspring follow its survivors, prey then
            # predators, as juveniles
            runs = np.empty(2 * k, dtype=np.int64)
            runs[0::2] = np.bincount(code >> 1, minlength=k)
            runs[1::2] = births[0::2] + births[1::2]
            newborn = np.repeat((pairs & 1) == 1, runs)
            old = ~newborn
            grown_mass = np.full(newborn.size, params.juvenile_mass)
            grown_mass[old] = mass
            grown_adult = np.zeros(newborn.size, dtype=bool)
            grown_adult[old] = adult
            grown_code = np.empty(newborn.size, dtype=code.dtype)
            grown_code[old] = code
            grown_code[newborn] = np.repeat(pairs, births)
            code, adult, mass = grown_code, grown_adult, grown_mass
    bounds = [0, *np.cumsum(np.bincount(code >> 1, minlength=k)).tolist()]
    species, stage = (code & 1).astype(np.uint8), adult.view(np.uint8)
    return [IbmState(species[a:b], stage[a:b], mass[a:b], target) for a, b in zip(bounds, bounds[1:])]


def ibm_step(state: IbmState, params: IbmParameters, rng: np.random.Generator) -> IbmState:
    """Advance the census one step: ``ibm_advance`` to the next step."""
    return ibm_advance(state, state.step + 1, params, rng)


def _validate_counts(data: Mapping[str, Any]) -> dict:
    counts = {}
    for field in OBS_FIELDS:
        if field not in data:
            raise ValidationError(f"observation record lacks field {field!r}")
        value = data[field]
        if isinstance(value, bool) or int(value) != value or int(value) < 0:
            raise ValidationError(f"observed {field} count must be a nonnegative integer, got {value!r}")
        counts[field] = int(value)
    return counts


def _detectable_counts(state: IbmState, detection_mass: float) -> tuple[int, int]:
    """Detectable (prey, predator) counts, from one mask over the census."""
    counts = np.bincount(state.species[state.mass >= detection_mass], minlength=2)
    return int(counts[PREY]), int(counts[PREDATOR])


def ibm_log_observe(state: IbmState, data: Mapping[str, Any], params: IbmParameters) -> float:
    """Log likelihood of observed counts: independent Poisson counting
    error per species with mean = detectable abundance + epsilon."""
    counts = _validate_counts(data)
    total = 0.0
    for field, detectable in zip(OBS_FIELDS, _detectable_counts(state, params.detection_mass)):
        lam = detectable + DETECTION_EPSILON
        k = counts[field]
        total += k * math.log(lam) - lam - math.lgamma(k + 1)
    return total


def ibm_synthesize(
    params: IbmParameters,
    times: Sequence[float],
    seed: int,
    initial_prey: int,
    initial_predators: int,
) -> ObservationSeries:
    """Run one realization and apply the counting observation process at
    each scheduled time. Deterministic given the seed: the trajectory and
    the counting noise use two disjoint derived streams."""
    if len(times) == 0:
        raise ValidationError("synthesis schedule must be nonempty")
    state = IbmState.initial(initial_prey, initial_predators, params.maturation_mass)
    rng = make_stream(derive_seed(SeedKey(seed, 0, 0, 0, MODEL_STREAM)))
    noise = make_stream(derive_seed(SeedKey(seed, 0, 0, 0, SYNTH_STREAM)))
    records = []
    for t in times:
        target = int(t)
        if target != t or target < state.step:
            raise ValidationError(f"schedule times must be nondecreasing integers, got {t!r}")
        state = ibm_advance(state, target, params, rng)
        detectable = _detectable_counts(state, params.detection_mass)
        records.append({field: int(noise.poisson(count + DETECTION_EPSILON))
                        for field, count in zip(OBS_FIELDS, detectable)})
    return ObservationSeries(tuple(int(t) for t in times), tuple(records))


# Largest census, and smallest group of censuses, that
# ``PredatorPreyModel.run_many`` advances in a batch: the batched kernel
# is faster up to about this census size and slower above it, and slower
# for fewer censuses (see CHANGES.md for the measurement). Desk censuses
# sit far below the size, full-scale ones far above.
BATCH_CENSUS_LIMIT = 500
BATCH_MIN_CENSUSES = 4

# Small setup: ~100 prey / ~10 predators, tuned for second-scale test runs.
DESK_DEFAULTS = IbmParameters()

# Large setup: same calibrated constants and rates, habitat areas scaled so
# the equilibrium sits near 2000 prey / 30 predators.
FULL_SCALE_DEFAULTS = replace(DESK_DEFAULTS, prey_area=80.0, pred_area=2.0)


class PredatorPreyModel(Model):
    """Engine adapter owning one realization's census, rates, and stream."""

    _KIND = "predator_prey"

    def __init__(self, defaults: IbmParameters = DESK_DEFAULTS,
                 initial_prey: int = 100, initial_predators: int = 10):
        if initial_prey < 0 or initial_predators < 0:
            raise ValidationError("initial counts must be >= 0")
        self._defaults = defaults
        self._initial = (int(initial_prey), int(initial_predators))
        self._params = defaults
        self._state: IbmState | None = None
        self._rng = None

    def init(self, parameters: Parameters, seed: int) -> None:
        self._params = self._defaults.with_calibrated(parameters)
        self._state = IbmState.initial(self._initial[0], self._initial[1], self._params.maturation_mass)
        self._rng = make_stream(seed)

    def _target(self, target_time: float) -> int:
        if self._state is None:
            raise ValidationError("model not initialized")
        target = int(target_time)
        if target != target_time or target < self._state.step:
            raise ValidationError(f"target time must be an integer >= {self._state.step}, got {target_time!r}")
        return target

    def run(self, target_time: float) -> None:
        self._state = ibm_advance(self._state, self._target(target_time), self._params, self._rng)

    @classmethod
    def run_many(cls, models: Sequence[Model], target_time: float) -> None:
        """Advance censuses of at most ``BATCH_CENSUS_LIMIT`` individuals
        together, grouped by rates and step, through ``ibm_advance_many``.
        Larger censuses, groups of fewer than ``BATCH_MIN_CENSUSES``, and
        any instance whose ``run`` is not this class's advance alone."""
        batches: dict = {}
        for model in models:
            if (getattr(model.run, "__func__", None) is PredatorPreyModel.run
                    and len(model.state) <= BATCH_CENSUS_LIMIT):
                model._target(target_time)          # the checks of run
                batches.setdefault((model._params, model.state.step), []).append(model)
            else:
                model.run(target_time)
        for (params, _step), batch in batches.items():
            if len(batch) < BATCH_MIN_CENSUSES:
                for model in batch:
                    model.run(target_time)
                continue
            states = ibm_advance_many([model._state for model in batch], int(target_time), params,
                                      [model._rng for model in batch])
            for model, state in zip(batch, states):
                model._state = state

    def log_observe(self, data: Mapping[str, Any]) -> float:
        if self._state is None:
            raise ValidationError("model not initialized")
        return ibm_log_observe(self._state, data, self._params)

    def save(self) -> bytes:
        state = self._state
        return encode_state_payload(
            self._KIND,
            {
                "params": None if self._params is None else {f.name: getattr(self._params, f.name) for f in fields(IbmParameters)},
                "initial": self._initial,
                "species": None if state is None else state.species,
                "stage": None if state is None else state.stage,
                "mass": None if state is None else state.mass,
                "step": None if state is None else state.step,
                "rng": None if self._rng is None else self._rng.bit_generator.state,
            },
        )

    def load(self, state: bytes) -> None:
        payload = decode_state_payload(self._KIND, state)
        self._params = IbmParameters(**payload["params"])
        self._initial = tuple(payload["initial"])
        if payload["species"] is None:
            self._state = None
        else:
            self._state = IbmState(
                np.asarray(payload["species"], np.uint8),
                np.asarray(payload["stage"], np.uint8),
                np.asarray(payload["mass"], np.float64),
                int(payload["step"]),
            )
        if payload["rng"] is None:
            self._rng = None
        else:
            # reuse a live generator when present, construction dominates load cost
            if self._rng is None:
                self._rng = make_stream(0)
            self._rng.bit_generator.state = payload["rng"]

    def reseed(self, seed: int) -> None:
        if self._rng is None:
            raise ValidationError("model not initialized")
        rekey(self._rng, seed)

    def copy_from(self, source: "PredatorPreyModel") -> None:
        self._params = source._params           # frozen
        self._initial = source._initial
        state = source._state
        self._state = None if state is None else IbmState(
            state.species.copy(), state.stage.copy(), state.mass.copy(), state.step)
        if source._rng is None:
            self._rng = None
        elif self._rng is None:
            self._rng = make_stream(0)          # a stream for the caller to reseed

    @property
    def state(self) -> IbmState:
        if self._state is None:
            raise ValidationError("model not initialized")
        return self._state

    @property
    def params(self) -> IbmParameters:
        return self._params
