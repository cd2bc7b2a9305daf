"""Shared domain types, deterministic seed derivation, and error taxonomy."""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "EngineError",
    "ValidationError",
    "DegenerateEnsembleError",
    "ProtocolError",
    "SerializationError",
    "Parameters",
    "SeedKey",
    "ObservationSeries",
    "derive_seed",
    "derive_seeds",
    "make_stream",
    "philox_state",
    "rekey",
    "MODEL_STREAM",
    "RESAMPLE_STREAM",
    "PROPOSAL_STREAM",
    "SYNTH_STREAM",
]


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EngineError):
    """An input violated a documented precondition or invariant."""


class DegenerateEnsembleError(EngineError):
    """Every particle weight is zero or non-finite; the ensemble carries no information."""


class ProtocolError(EngineError):
    """A master/worker exchange broke the execution protocol.

    Carries the worker rank and the protocol step at which the failure
    was detected so aborts are attributable.
    """

    def __init__(self, message: str, rank: int | None = None, step: str | None = None):
        detail = message
        if rank is not None:
            detail += f" (rank {rank})"
        if step is not None:
            detail += f" [step {step}]"
        super().__init__(detail)
        self.rank = rank
        self.step = step


class SerializationError(EngineError):
    """A byte sequence could not be decoded into a model state."""


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1

# Reserved values for SeedKey.replica_index. Each independent consumer of
# randomness gets its own stream index so no two purposes ever share a seed:
# model state streams, the master's resampling draws, the sampler's proposal
# and acceptance draws, and synthetic-data generation.
MODEL_STREAM = 0
RESAMPLE_STREAM = 1
PROPOSAL_STREAM = 2
SYNTH_STREAM = 3


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 finalizer (public-domain mixing constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedKey:
    """Hierarchical identity of one random stream.

    The five counters identify a stream globally: which chain, which MCMC
    sample, which observation interval, which particle lineage, and which
    of the reserved per-purpose replica streams.
    """

    chain_index: int
    sample_index: int
    observation_index: int
    lineage_id: int
    replica_index: int = MODEL_STREAM

    def __post_init__(self) -> None:
        for name in ("chain_index", "sample_index", "observation_index", "lineage_id", "replica_index"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValidationError(f"SeedKey.{name} must be a nonnegative integer, got {value!r}")


def _fold(h: int, part: int) -> int:
    return _splitmix64(h ^ _splitmix64(part & _MASK64))


def derive_seed(key: SeedKey) -> int:
    """Derive the 64-bit seed for a stream identity.

    Counter-based mixing: each field is finalized with splitmix64 and
    absorbed into a running 64-bit digest, so the function is pure,
    platform-independent, and collision-resistant across distinct keys.
    """
    h = 0
    for part in (key.chain_index, key.sample_index, key.observation_index, key.lineage_id, key.replica_index):
        h = _fold(h, part)
    return h


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """``_splitmix64`` over a uint64 array; numpy wraps modulo 2**64 silently."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seeds(
    chain_index: int,
    sample_index: int,
    observation_index: int,
    lineage_ids,
    replica_index: int = MODEL_STREAM,
) -> list[int]:
    """Seeds of a block of lineages that share the other four counters.

    Element i equals ``derive_seed(SeedKey(chain_index, sample_index,
    observation_index, lineage_ids[i], replica_index))`` bit for bit; the
    shared prefix is folded once and the lineage and purpose rounds run
    as one uint64 array pass. Lineage ids must be integers in [0, 2**64).
    """
    SeedKey(chain_index, sample_index, observation_index, 0, replica_index)   # validates the shared fields
    invalid = ValidationError("lineage ids must be a 1-D block of integers in [0, 2**64)")
    if isinstance(lineage_ids, np.ndarray):
        lineages = lineage_ids
        if lineages.ndim != 1 or lineages.dtype.kind not in "iu" or (lineages.size and lineages.min() < 0):
            raise invalid
    else:
        # np.asarray would turn Python ints past the int64 range into floats
        ids = list(lineage_ids)
        if not all(isinstance(i, (int, np.integer)) and 0 <= i <= _MASK64 for i in ids):
            raise invalid
        lineages = np.array(ids, dtype=np.uint64)
    if lineages.size == 0:
        return []
    prefix = _fold(_fold(_fold(0, chain_index), sample_index), observation_index)
    h = _splitmix64_array(np.uint64(prefix) ^ _splitmix64_array(lineages.astype(np.uint64)))
    return _splitmix64_array(h ^ np.uint64(_splitmix64(replica_index & _MASK64))).tolist()


def philox_state(seed: int) -> dict:
    """Full Philox bit-generator state for a fresh stream keyed by ``seed``.

    Assigning this dict to an existing bit generator is equivalent to
    constructing ``np.random.Philox(key=seed)`` but roughly 10x cheaper,
    which matters when thousands of particles are rekeyed per observation.
    """
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _MASK64, seed >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


_rekey_template = threading.local()


def rekey(generator: np.random.Generator, seed: int) -> None:
    """Restart a Philox-backed generator on the fresh stream keyed by ``seed``.

    Same effect as assigning ``philox_state(seed)``, at about half the
    cost: each thread keeps one state dict and rewrites only its key. The
    state setter copies the values, so no generator holds on to the dict.
    """
    template = getattr(_rekey_template, "state", None)
    if template is None:
        template = _rekey_template.state = philox_state(0)
    key = template["state"]["key"]
    key[0] = seed & _MASK64
    key[1] = seed >> 64
    generator.bit_generator.state = template


@functools.cache
def _fixed_seed_sequence() -> np.random.SeedSequence:
    """The one seed sequence every stream is built from; its key is
    replaced at once. Built on first use, so that importing the package
    does not import ``numpy.random``, which takes tens of milliseconds."""
    return np.random.SeedSequence(0)


def make_stream(seed: int) -> np.random.Generator:
    """Counter-based random stream (Philox) keyed by a derived seed.

    Its state is that of ``np.random.Philox(key=seed)`` bit for bit, at
    a lower cost: given a key alone, numpy first seeds a ``SeedSequence``
    from 128 bits of OS entropy, which the key then overrides.
    """
    generator = np.random.Generator(np.random.Philox(_fixed_seed_sequence()))
    rekey(generator, seed)
    return generator


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class Parameters(Mapping[str, float]):
    """Immutable ordered name -> value map for model parameters.

    Iteration order is the declaration order, so serialized forms are
    self-describing and reproducible.
    """

    __slots__ = ("_names", "_values", "_index")

    def __init__(self, entries: Mapping[str, float] | Sequence[tuple[str, float]]):
        pairs = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
        names = tuple(name for name, _ in pairs)
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate parameter names in {names}")
        values = []
        for name, value in pairs:
            value = float(value)
            if not math.isfinite(value):
                raise ValidationError(f"parameter {name!r} is not finite: {value}")
            values.append(value)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_values", tuple(values))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Parameters is immutable")

    def __getitem__(self, name: str) -> float:
        return self._values[self._index[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._names, self._values))
        return f"Parameters({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Parameters):
            return NotImplemented
        return self._names == other._names and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._names, self._values))

    def __reduce__(self):
        # slots + frozen setattr defeat default pickling; rebuild via __init__
        return (Parameters, (tuple(zip(self._names, self._values)),))

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    def replace(self, **updates: float) -> "Parameters":
        """New Parameters with the named entries replaced."""
        unknown = set(updates) - set(self._names)
        if unknown:
            raise ValidationError(f"unknown parameter names: {sorted(unknown)}")
        return Parameters([(n, updates.get(n, v)) for n, v in zip(self._names, self._values)])


@dataclass(frozen=True)
class ObservationSeries:
    """Ordered observation times with one data record per time."""

    times: tuple[float, ...]
    data: tuple[Mapping[str, Any], ...]

    def __init__(self, times: Sequence[float], data: Sequence[Mapping[str, Any]]):
        times = tuple(times)
        data = tuple(dict(d) for d in data)
        if len(times) < 1:
            raise ValidationError("an observation series needs at least one time point")
        if len(times) != len(data):
            raise ValidationError(f"{len(times)} times but {len(data)} data records")
        try:
            finite = all(math.isfinite(t) for t in times)
        except TypeError:
            finite = False
        if not finite:
            raise ValidationError(f"observation times must be finite numbers: {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(f"observation times must be strictly increasing: {times}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, Mapping[str, Any]]]:
        return iter(zip(self.times, self.data))
