"""Stage timing records, parallel efficiency."""

import pytest

from pmcmc.core import ValidationError
from pmcmc.instrumentation import (
    MAIN_STAGES,
    MASTER_RANK,
    STAGES,
    EfficiencyRecord,
    StageTiming,
    compute_efficiency,
)


class TestStageTiming:
    def test_known_stages_only(self):
        timing = StageTiming("run", 0, 1, 2, 0.5)
        assert timing.stage in STAGES
        with pytest.raises(ValidationError):
            StageTiming("think", 0, 1, 2, 0.5)

    def test_duration_validation(self):
        with pytest.raises(ValidationError):
            StageTiming("run", 0, 1, 2, -0.1)
        with pytest.raises(ValidationError):
            StageTiming("run", 0, 1, 2, float("nan"))

    def test_master_rank_reserved(self):
        # coordinator-side records are distinguishable from any worker's
        assert MASTER_RANK < 0
        StageTiming("resample", MASTER_RANK, 0, 1, 0.0)


class TestEfficiency:
    def test_fully_busy_worker(self):
        # one worker spending the whole wall time in main routines
        timings = [StageTiming("run", 0, 1, 1, 0.6), StageTiming("observe", 0, 1, 1, 0.4)]
        record = compute_efficiency(timings, 1, workers=1, wall_time=1.0)
        assert record.efficiency == pytest.approx(1.0)

    def test_waiting_stages_excluded(self):
        timings = [
            StageTiming("run", 0, 1, 1, 0.5),
            StageTiming("transfer-wait", 0, 1, 1, 10.0),
        ]
        record = compute_efficiency(timings, 1, workers=1, wall_time=1.0)
        assert record.efficiency == pytest.approx(0.5)
        assert "transfer-wait" not in MAIN_STAGES

    def test_master_gather_is_not_work(self):
        # the master's likelihood-gather spans the workers' run and observe;
        # counting it too would double the busy time
        timings = [
            StageTiming("run", 0, 1, 1, 0.4),
            StageTiming("likelihood-gather", -1, 1, 1, 0.5),
        ]
        record = compute_efficiency(timings, 1, workers=1, wall_time=1.0)
        assert record.efficiency == pytest.approx(0.4)
        assert "likelihood-gather" not in MAIN_STAGES

    def test_other_samples_excluded(self):
        timings = [StageTiming("run", 0, 1, 1, 0.5), StageTiming("run", 0, 2, 1, 0.5)]
        record = compute_efficiency(timings, 1, workers=2, wall_time=1.0)
        assert record.efficiency == pytest.approx(0.25)

    def test_clamped_to_one(self):
        # stage totals can slightly exceed capacity through double-counted
        # overlap; the record stays a valid fraction
        timings = [StageTiming("run", 0, 1, 1, 5.0)]
        assert compute_efficiency(timings, 1, workers=1, wall_time=1.0).efficiency == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            compute_efficiency([], 0, workers=0, wall_time=1.0)
        with pytest.raises(ValidationError):
            compute_efficiency([], 0, workers=1, wall_time=0.0)
        with pytest.raises(ValidationError):
            EfficiencyRecord(0, 1.5)
        with pytest.raises(ValidationError):
            EfficiencyRecord(0, -0.1)
