"""Runtime diagnostics: stage timings and parallel efficiency.

Workers time their own stages on a local monotonic clock and ship the
records with their reports; the master collects them after gathering, so
no cross-thread clock agreement is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import ValidationError

__all__ = [
    "MAIN_STAGES",
    "MASTER_RANK",
    "STAGES",
    "EfficiencyRecord",
    "StageTiming",
    "compute_efficiency",
]

STAGES = (
    "init",
    "run",
    "observe",
    "likelihood-gather",
    "resample",
    "route",
    "replicate",
    "transfer-wait",
)

# The "main computing routines" whose share of total worker time defines
# parallel efficiency; waiting and bookkeeping stages are excluded. The
# master's likelihood-gather is its wait for the workers' run and observe
# (and, at event 1, their init).
MAIN_STAGES = frozenset({"init", "run", "observe", "resample", "replicate"})

# Stage records produced on the coordinating side use this rank.
MASTER_RANK = -1


@dataclass(frozen=True)
class StageTiming:
    stage: str
    worker: int
    sample_index: int
    observation_index: int
    duration: float

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValidationError(f"unknown stage {self.stage!r}; expected one of {STAGES}")
        if not (self.duration >= 0.0 and math.isfinite(self.duration)):
            raise ValidationError(f"duration must be finite and >= 0, got {self.duration!r}")


@dataclass(frozen=True)
class EfficiencyRecord:
    sample_index: int
    efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError(f"efficiency must be in [0, 1], got {self.efficiency}")


def compute_efficiency(timings: Iterable[StageTiming], sample_index: int,
                       workers: int, wall_time: float) -> EfficiencyRecord:
    """Fraction of the run's aggregate capacity (worker count x wall time)
    spent inside main computing routines, clipped into [0, 1]."""
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    if wall_time <= 0.0:
        raise ValidationError(f"wall_time must be > 0, got {wall_time}")
    busy = sum(t.duration for t in timings
               if t.sample_index == sample_index and t.stage in MAIN_STAGES)
    return EfficiencyRecord(sample_index, min(busy / (workers * wall_time), 1.0))
