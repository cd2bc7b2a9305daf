"""Runtime diagnostics: stage timings, percentile aggregation, efficiency.

Workers time their own stages on a local monotonic clock and ship the
records with their reports; the master aggregates after gathering, so no
cross-thread clock agreement is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ValidationError

__all__ = [
    "MAIN_STAGES",
    "MASTER_RANK",
    "STAGES",
    "EfficiencyRecord",
    "StageSummary",
    "StageTiming",
    "aggregate_timings",
    "compute_efficiency",
    "percentile_band",
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
class StageSummary:
    sample_index: int
    stage: str
    mean: float
    p10: float
    p90: float
    count: int


@dataclass(frozen=True)
class EfficiencyRecord:
    sample_index: int
    efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError(f"efficiency must be in [0, 1], got {self.efficiency}")


def percentile_band(values: Sequence[float], low: float = 0.1, high: float = 0.9) -> tuple[float, float]:
    """Symmetric nearest-rank percentile pair.

    The low percentile takes the value at rank ceil(low*N); the high one
    mirrors it from above at rank N+1-ceil((1-high)*N). A single
    measurement is its own band, and the band of 1..10 at 10/90 is (1, 10).
    """
    if len(values) == 0:
        raise ValidationError("percentile band of an empty sequence")
    if not 0.0 < low <= high < 1.0:
        raise ValidationError(f"percentile levels must satisfy 0 < low <= high < 1, got {low}, {high}")
    ordered = sorted(values)
    n = len(ordered)
    lo_rank = max(math.ceil(low * n), 1)
    hi_rank = n + 1 - max(math.ceil((1.0 - high) * n), 1)
    return ordered[lo_rank - 1], ordered[hi_rank - 1]


def aggregate_timings(raw: Iterable[StageTiming]) -> list[StageSummary]:
    """Per (sample, stage) mean and 10-90 percentile band across workers
    and observation events, sorted by sample then stage name."""
    groups: dict[tuple[int, str], list[float]] = {}
    for t in raw:
        groups.setdefault((t.sample_index, t.stage), []).append(t.duration)
    if not groups:
        raise ValidationError("no timings to aggregate")
    out = []
    for (sample, stage), durations in sorted(groups.items()):
        p10, p90 = percentile_band(durations)
        out.append(StageSummary(sample, stage, sum(durations) / len(durations), p10, p90, len(durations)))
    return out


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
