"""Parallel filtering runtime: worker-count invariance, the placement
protocol's observable steps, fault handling, overlap of replication with
transfers."""

import math
import queue

import numpy as np
import pytest

from pmcmc.core import (
    ObservationSeries,
    Parameters,
    ProtocolError,
    ValidationError,
)
from pmcmc.executor import _WorkerRuntime, run_particle_filter, worker_lineages
from pmcmc.instrumentation import MASTER_RANK, STAGES
from pmcmc.models import DelayModel, LinearGaussianModel, PredatorPreyModel
from pmcmc.models.predator_prey import DESK_DEFAULTS, ibm_synthesize
from pmcmc.transport import Broadcast, Channel, ParticleTransfer, RouteCommand

_OBS = ObservationSeries((5, 10, 15, 20),
                         ({"y": 0.3}, {"y": -0.1}, {"y": 0.5}, {"y": 0.2}))
_THETA = Parameters({"a": 0.8})


def _identity_resampler(probs, p, seed):
    return np.ones(p, dtype=int)


def _point_mass_resampler(probs, p, seed):
    counts = np.zeros(p, dtype=int)
    counts[0] = p
    return counts


class TestWorkerLineages:
    def test_partition_covers_in_order(self):
        for p in (1, 5, 7, 16):
            for W in range(1, 9):
                chunks = [list(worker_lineages(w, p, W)) for w in range(W)]
                assert [lin for chunk in chunks for lin in chunk] == list(range(p))
                sizes = [len(c) for c in chunks]
                assert max(sizes) - min(sizes) <= 1


class TestWorkerCountInvariance:
    def test_estimate_and_frozen_value(self):
        """The estimate must not depend on how the ensemble is spread
        over workers; the value itself is frozen for regression."""
        results = {
            W: run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, W,
                                   chain_index=11, sample_index=3)
            for W in (1, 2, 4, 8)
        }
        base = results[1].estimate
        assert base.log_value == pytest.approx(-6.449800150863769, rel=1e-12)
        for W in (2, 4, 8):
            est = results[W].estimate
            assert est.log_value == base.log_value
            assert est.log_std == base.log_std
            assert est.per_observation_means == base.per_observation_means

    def test_uneven_partition(self):
        base = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 7, 1).estimate
        est = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 7, 3).estimate
        assert est.log_value == base.log_value

    def test_individual_based_model(self):
        obs = ibm_synthesize(DESK_DEFAULTS, (2, 4), 5, 100, 10)
        theta = Parameters({"K_prey": 25.0, "K_pred": 15.0})
        runs = {W: run_particle_filter(PredatorPreyModel, theta, obs, 8, W, chain_index=2)
                for W in (1, 2)}
        assert runs[2].estimate.log_value == runs[1].estimate.log_value
        assert runs[2].estimate.per_observation_means == runs[1].estimate.per_observation_means

    def test_repeat_determinism(self):
        a = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 2, chain_index=11)
        b = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 2, chain_index=11)
        assert a.estimate.log_value == b.estimate.log_value
        assert a.diagnostics.resample_counts == b.diagnostics.resample_counts

    def test_chain_and_sample_index_enter_streams(self):
        a = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1, chain_index=0)
        b = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1, chain_index=1)
        c = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1, chain_index=0,
                                sample_index=5)
        assert a.estimate.log_value != b.estimate.log_value
        assert a.estimate.log_value != c.estimate.log_value

    def test_seed_fault_breaks_invariance(self):
        # the deliberate fault mixes the worker count into resampling, so
        # the two layouts draw different survivor sets
        runs = {W: run_particle_filter(LinearGaussianModel, _THETA, _OBS, 16, W,
                                       worker_dependent_seed_fault=True)
                for W in (1, 2)}
        assert runs[1].estimate.log_value != runs[2].estimate.log_value


class TestRoutingThroughTheRuntime:
    def test_identity_resampling_moves_nothing(self):
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 4,
                                     resampler=_identity_resampler)
        d = result.diagnostics
        assert d.resample_counts == ((1,) * 8,) * 3
        assert d.redraw_rates == (1.0, 1.0, 1.0)
        assert d.move_fractions == (0.0, 0.0, 0.0)
        assert d.copy_fractions == (0.0, 0.0, 0.0)

    def test_point_mass_resampling_evicts_and_rebalances(self):
        # p=4 on 2 workers, all mass on one lineage: each event ships one
        # state across and copies half the ensemble
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2,
                                     resampler=_point_mass_resampler)
        d = result.diagnostics
        assert d.redraw_rates == (0.25, 0.25, 0.25)
        assert d.move_fractions == (0.25, 0.25, 0.25)
        assert d.copy_fractions == (0.5, 0.5, 0.5)
        assert result.estimate.log_value < 0.0

    def test_replication_overlaps_transfer_delay(self):
        """With a 50 ms transfer latency the receiving worker must start
        local replication before the inbound state lands."""
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2,
                                     resampler=_point_mass_resampler,
                                     transfer_delay=0.05)
        marks = result.diagnostics.marks
        assert marks == tuple(sorted(marks, key=lambda m: m[3]))
        starts = {(w, j): ts for w, name, j, ts in marks if name == "replicate-start"}
        completions = [(w, j, ts) for w, name, j, ts in marks if name == "receive-complete"]
        assert len(completions) == 3
        for w, j, ts in completions:
            assert ts - starts[(w, j)] > 0.03

    def test_transfer_delay_slows_nothing_else(self):
        # identity resampling never transfers, so latency is irrelevant
        import time
        t0 = time.perf_counter()
        run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2,
                            resampler=_identity_resampler, transfer_delay=0.25)
        assert time.perf_counter() - t0 < 0.25


class TestDiagnostics:
    def test_stage_coverage(self):
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2)
        timings = result.diagnostics.timings
        assert {t.stage for t in timings} == set(STAGES)
        master_stages = {t.stage for t in timings if t.worker == MASTER_RANK}
        assert master_stages == {"likelihood-gather", "resample", "route"}
        worker_stages = {t.stage for t in timings if t.worker != MASTER_RANK}
        assert worker_stages == set(STAGES) - master_stages
        assert {t.worker for t in timings} == {MASTER_RANK, 0, 1}
        assert all(t.duration >= 0.0 for t in timings)

    def test_event_indices_are_one_based(self):
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2)
        events = {t.observation_index for t in result.diagnostics.timings if t.stage == "run"}
        assert events == {1, 2, 3, 4}
        init_events = {t.observation_index for t in result.diagnostics.timings if t.stage == "init"}
        assert init_events == {0}

    def test_wall_time_and_worker_count(self):
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 3)
        assert result.diagnostics.workers == 3
        assert result.diagnostics.wall_time > 0.0

    def test_degenerate_event_aborts_cleanly(self):
        # an impossible observation zeroes every particle: the pass stops
        # at that event and reports it in both index conventions
        obs = ObservationSeries((1, 2, 3), ({"y": 0.3}, {"y": 1e200}, {"y": 0.5}))
        result = run_particle_filter(LinearGaussianModel, _THETA, obs, 8, 2)
        assert result.estimate.log_value == -math.inf
        assert math.isnan(result.estimate.log_std)
        assert result.estimate.degenerate_observations == (1,)
        assert result.diagnostics.degenerate_observations == (2,)
        assert len(result.diagnostics.resample_counts) == 1
        assert len(result.estimate.per_observation_means) == 2


class TestFailurePropagation:
    def test_model_exception_carries_rank_and_step(self):
        class ExplodingModel(LinearGaussianModel):
            def run(self, target_time):
                raise RuntimeError("numerical blowup")

        with pytest.raises(ProtocolError) as info:
            run_particle_filter(ExplodingModel, _THETA, _OBS, 4, 2)
        assert info.value.rank in (0, 1)
        assert info.value.step == "4/advance[1]"
        assert "numerical blowup" in str(info.value)

    def test_nan_weight_rejected_at_observe_step(self):
        class NanModel(LinearGaussianModel):
            def log_observe(self, data):
                return math.nan

        with pytest.raises(ProtocolError) as info:
            run_particle_filter(NanModel, _THETA, _OBS, 4, 2)
        assert info.value.step == "5/observe[1]"

    def test_master_times_out_on_stuck_worker(self):
        def slow_factory():
            return DelayModel(delay_ms=1000.0)

        with pytest.raises(ProtocolError) as info:
            run_particle_filter(slow_factory, Parameters({}), _OBS, 2, 2, timeout=0.2)
        assert "timed out" in str(info.value)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            run_particle_filter(LinearGaussianModel, _THETA, _OBS, 0, 1)
        with pytest.raises(ValidationError):
            run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 0)
        with pytest.raises(ValidationError):
            run_particle_filter(LinearGaussianModel, {"a": 0.8}, _OBS, 4, 1)
        with pytest.raises(ValidationError):
            run_particle_filter(LinearGaussianModel, _THETA, [(1, {"y": 0.0})], 4, 1)


def _runtime(rank, p, W, timeout=0.2):
    commands, reports = Channel(), Channel()
    inboxes = {w: Channel() for w in range(W)}
    rt = _WorkerRuntime(rank, worker_lineages(rank, p, W), LinearGaussianModel, 0, commands,
                        reports, inboxes[rank], inboxes, timeout)
    rt._initialize(Broadcast(0, _THETA))
    return rt


class TestPlacementSteps:
    """Direct drive of one worker's placement handler."""

    def test_identity_slice_keeps_instances(self):
        rt = _runtime(0, 4, 2)
        before = dict(rt.particles)
        entries = tuple((lin, 0, 0, lin) for lin in (0, 1))
        rt._apply_routing(RouteCommand(1, entries, 2))
        assert set(rt.particles) == {0, 1}
        for lin in (0, 1):
            assert rt.particles[lin] is before[lin]

    def test_receiving_worker_replicates_transfer(self):
        donor = LinearGaussianModel()
        donor.init(_THETA, seed=123)
        donor.run(5)
        rt = _runtime(1, 8, 4)                  # resident lineages 2, 3
        rt.inbox.send(ParticleTransfer(0, 2, donor.save(), 0, 1))
        entries = ((0, 0, 1, 2), (0, 0, 1, 3))
        rt._apply_routing(RouteCommand(1, entries, 2))
        assert set(rt.particles) == {2, 3}
        assert rt.particles[2].latent == donor.latent
        assert rt.particles[3].latent == donor.latent
        assert rt.particles[2] is not rt.particles[3]

    def test_full_eviction_leaves_no_residents(self):
        rt = _runtime(0, 4, 2)
        entries = ((0, 0, 1, 0), (1, 0, 1, 1))
        rt._apply_routing(RouteCommand(1, entries, 2))
        assert rt.particles == {}
        # both states were shipped to worker 1's inbox
        assert rt.peers[1].recv(0.1).lineage_id == 0
        assert rt.peers[1].recv(0.1).lineage_id == 1

    def test_distinct_destination_pairs_travel_once(self):
        rt = _runtime(0, 4, 2)
        entries = ((0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 0, 2), (1, 0, 0, 3))
        rt._apply_routing(RouteCommand(1, entries, 2))
        transfer = rt.peers[1].recv(0.1)
        assert transfer.lineage_id == 0 and transfer.new_lineage_id == 0
        with pytest.raises(queue.Empty):
            rt.peers[1].recv(0.05)              # one send despite two replicas
        assert set(rt.particles) == {2, 3}

    def test_foreign_entry_rejected(self):
        rt = _runtime(0, 4, 2)
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(RouteCommand(1, ((2, 1, 1, 0),), 2))
        assert "foreign" in str(info.value)

    def test_non_resident_reference_rejected(self):
        rt = _runtime(0, 4, 2)
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(RouteCommand(1, ((3, 0, 0, 0),), 2))
        assert "non-resident" in str(info.value)

    def test_unsolicited_transfer_rejected(self):
        rt = _runtime(1, 8, 4)
        rt.inbox.send(ParticleTransfer(5, 2, b"", 0, 1))
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(RouteCommand(1, ((0, 0, 1, 2),), 2))
        assert "unsolicited" in str(info.value)

    def test_missing_transfer_times_out(self):
        rt = _runtime(1, 8, 4)
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(RouteCommand(1, ((0, 0, 1, 2),), 2))
        assert info.value.step == "10(d)/receive[1]"
        assert "missing" in str(info.value)

    def test_capacity_breach_rejected(self):
        rt = _runtime(0, 4, 2)
        entries = ((0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 2))
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(RouteCommand(1, entries, 2))
        assert info.value.step == "10(e)/prune[1]"

    def test_survivors_reseeded_to_new_identity(self):
        # two runtimes arrive at the same new lineage id by different
        # placements; their streams must coincide afterwards
        rt_a = _runtime(0, 2, 1)
        rt_a._apply_routing(RouteCommand(1, ((0, 0, 0, 0), (0, 0, 0, 1)), 2))
        rt_b = _runtime(0, 2, 1)
        rt_b._apply_routing(RouteCommand(1, ((0, 0, 0, 1), (1, 0, 0, 0)), 2))
        a_draw = rt_a.particles[1]._rng.random()
        b_draw = rt_b.particles[1]._rng.random()
        assert a_draw == b_draw
