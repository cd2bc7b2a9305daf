"""Parallel filtering runtime: worker-count invariance, the placement
protocol's observable steps, fault handling and teardown, overlap of
replication with transfers, the thread and process launchers."""

import math
import multiprocessing
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import pmcmc
import pmcmc.executor
import pmcmc.transport
from pmcmc.core import (
    MODEL_STREAM,
    ObservationSeries,
    Parameters,
    ProtocolError,
    ValidationError,
    derive_seeds,
)
from pmcmc.executor import FilterSession, _WorkerRuntime, run_particle_filter, worker_lineages
from pmcmc.instrumentation import MASTER_RANK, STAGES
from pmcmc.models import DelayModel, LinearGaussianModel, PredatorPreyModel, get_model_entry
from pmcmc.models.predator_prey import DESK_DEFAULTS, ibm_synthesize
from pmcmc.transport import Broadcast, Channel, ParticleTransfer

_OBS = ObservationSeries((5, 10, 15, 20),
                         ({"y": 0.3}, {"y": -0.1}, {"y": 0.5}, {"y": 0.2}))
_THETA = Parameters({"a": 0.8})


def _identity_resampler(probs, p, seed):
    return np.ones(p, dtype=int)


def _point_mass_resampler(probs, p, seed):
    counts = np.zeros(p, dtype=int)
    counts[0] = p
    return counts


def _use_resampler(monkeypatch, resampler):
    """Make the master draw its replica counts from ``resampler``."""
    monkeypatch.setattr(pmcmc.executor, "resample_multinomial", resampler)


class _OffsetModel(LinearGaussianModel):
    """Linear-Gaussian model whose log density is 400 nats higher: a valid
    log likelihood whose exponential is past float range when squared."""

    def log_observe(self, data):
        return super().log_observe(data) + 400.0


def _slice(*rows):
    """A routing slice as the master sends it: int32 placement orders
    (lineage, source, destination, first new id, copies)."""
    return np.array(rows, dtype=np.int32).reshape(-1, 5)


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

    def test_large_log_densities(self):
        # the relative weights are those of the plain model, so each event
        # adds 400 nats to the estimate and nothing else moves
        base = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1, chain_index=11).estimate
        for W in (1, 2):
            est = run_particle_filter(_OffsetModel, _THETA, _OBS, 8, W, chain_index=11).estimate
            assert est.log_value == pytest.approx(base.log_value + 4 * 400.0, rel=1e-12)
            assert est.log_std == pytest.approx(base.log_std, rel=1e-9)
            assert est.per_observation_variances == (math.inf,) * 4

    def test_uneven_partition(self):
        # with W > p some workers hold nothing from initialization on
        for p, W in ((7, 3), (2, 3), (1, 2)):
            base = run_particle_filter(LinearGaussianModel, _THETA, _OBS, p, 1)
            other = run_particle_filter(LinearGaussianModel, _THETA, _OBS, p, W)
            assert other.estimate == base.estimate, (p, W)
            assert other.diagnostics.resample_counts == base.diagnostics.resample_counts, (p, W)

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
    def test_identity_resampling_moves_nothing(self, monkeypatch):
        _use_resampler(monkeypatch, _identity_resampler)
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 4)
        d = result.diagnostics
        assert d.resample_counts == ((1,) * 8,) * 3
        assert d.redraw_rates == (1.0, 1.0, 1.0)
        assert d.move_fractions == (0.0, 0.0, 0.0)
        assert d.copy_fractions == (0.0, 0.0, 0.0)

    def test_point_mass_resampling_evicts_and_rebalances(self, monkeypatch):
        # p=4 on 2 workers, all mass on one lineage: each event ships one
        # state across and copies half the ensemble
        _use_resampler(monkeypatch, _point_mass_resampler)
        result = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2)
        d = result.diagnostics
        assert d.redraw_rates == (0.25, 0.25, 0.25)
        assert d.move_fractions == (0.25, 0.25, 0.25)
        assert d.copy_fractions == (0.5, 0.5, 0.5)
        assert result.estimate.log_value < 0.0

    def test_replication_overlaps_transfer_delay(self):
        """Step 10(c) places kept lineages while transfers are in flight:
        the kept one is already placed when the wait for an inbound state
        that never comes runs out."""
        rt = _runtime(1, 8, 4)                  # resident lineages 2, 3
        kept = rt.particles[2]
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(1, _slice((0, 0, 1, 2, 1), (2, 1, 1, 3, 1)))
        assert info.value.step == "10(d)/receive[1]"
        assert rt.particles == {3: kept}


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
        # at that event, and the estimate flags its 0-based row
        obs = ObservationSeries((1, 2, 3), ({"y": 0.3}, {"y": 1e200}, {"y": 0.5}))
        result = run_particle_filter(LinearGaussianModel, _THETA, obs, 8, 2)
        assert result.estimate.log_value == -math.inf
        assert math.isnan(result.estimate.log_std)
        assert result.estimate.degenerate_observations == (1,)
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
        assert str(info.value).count("(rank ") == 1

    def test_nan_weight_rejected_at_observe_step(self):
        class NanModel(LinearGaussianModel):
            def log_observe(self, data):
                return math.nan

        with pytest.raises(ProtocolError) as info:
            run_particle_filter(NanModel, _THETA, _OBS, 4, 2)
        assert info.value.step == "5/observe[1]"
        assert str(info.value).count("(rank ") == 1

    def test_master_times_out_on_stuck_worker(self):
        def slow_factory():
            return DelayModel(delay_ms=1000.0)

        with pytest.raises(ProtocolError) as info:
            run_particle_filter(slow_factory, Parameters({}), _OBS, 2, 2, timeout=0.2)
        assert "timed out" in str(info.value)
        assert str(info.value).count("(rank ") == 1

    def test_input_validation(self):
        for ensemble_size, workers, timeout in [
            (0, 1, 1.0), (4, 0, 1.0), (4.0, 1, 1.0), (True, 1, 1.0), (4, 2.0, 1.0), (4, True, 1.0),
            (4, 1, -1), (4, 1, 0.0), (4, 1, math.inf), (4, 1, math.nan), (4, 1, "5"), (4, 1, True),
            (4, 1, 1e7), (4, 2, 1e7),
        ]:
            with pytest.raises(ValidationError):
                run_particle_filter(LinearGaussianModel, _THETA, _OBS, ensemble_size, workers,
                                    timeout=timeout)
        with pytest.raises(ValidationError):
            run_particle_filter(LinearGaussianModel, {"a": 0.8}, _OBS, 4, 1)
        # seed counters are checked before any worker starts
        for workers, chain_index, sample_index in [
            (1, 2**64, 0), (1, -1, 0), (1, 0, 2**64), (1, 0, -1), (1, 0.5, 0),
            (2, -1, 0), (2, 0, 2**64),
        ]:
            before = _live()
            with pytest.raises(ValidationError):
                run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, workers,
                                    chain_index=chain_index, sample_index=sample_index)
            assert _live() == before
        with pytest.raises(ValidationError):
            run_particle_filter(LinearGaussianModel, _THETA, [(1, {"y": 0.0})], 4, 1)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes need the fork start method")


def _init_seed(lineage, sample_index=0):
    """Model-stream seed of a lineage at initialization (chain 0)."""
    return derive_seeds(0, sample_index, 0, np.array([lineage]), MODEL_STREAM)[0]


class _FaultyModel(LinearGaussianModel):
    """Linear-Gaussian model that fails in one way on one lineage of one
    pass only, recognised by its initialization seed; every fault fires by
    event 1."""

    def __init__(self, fault, lineage, sample_index=0):
        super().__init__()
        self._fault = fault
        self._poison = _init_seed(lineage, sample_index)
        self._poisoned = False

    def _fires(self, fault):
        return self._poisoned and self._fault == fault

    def init(self, parameters, seed):
        self._poisoned = seed == self._poison
        if self._fires("init"):
            raise RuntimeError("injected init fault")
        super().init(parameters, seed)

    def run(self, target_time):
        if self._fires("run"):
            raise RuntimeError("injected run fault")
        if self._fires("kill"):
            os._exit(3)
        if self._fires("exit"):
            sys.exit()          # a silent end: exit code 0, or a thread that just stops
        super().run(target_time)

    def log_observe(self, data):
        if self._fires("log_observe"):
            raise RuntimeError("injected observe fault")
        if self._fires("nan"):
            return math.nan
        if self._fires("inf"):
            return math.inf
        return super().log_observe(data)


class _StuckModel(DelayModel):
    """Delay model that hangs on one lineage of one pass only."""

    def __init__(self, lineage, sample_index=0):
        super().__init__(delay_ms=0.0)
        self._poison = _init_seed(lineage, sample_index)
        self._stuck = False

    def init(self, parameters, seed):
        self._stuck = seed == self._poison
        super().init(parameters, seed)

    def run(self, target_time):
        if self._stuck:
            time.sleep(5.0)
        super().run(target_time)


def _live():
    return threading.active_count(), len(multiprocessing.active_children())


def _tamper_routing(monkeypatch, slices):
    """Hand each rank in ``slices`` the listed rows instead of its own
    slice of the master's order table."""
    computed = pmcmc.executor.worker_slice

    def tampered(orders, rank):
        if rank in slices:
            return np.array(slices[rank], dtype=np.int32)
        return computed(orders, rank)

    monkeypatch.setattr(pmcmc.executor, "worker_slice", tampered)


# (fault, poisoned lineage, failing rank at W=2, step)
_MODEL_FAULTS = [
    ("init", 0, 0, "2/init"),
    ("run", 3, 1, "4/advance[1]"),
    ("log_observe", 0, 0, "5/observe[1]"),
    ("nan", 3, 1, "5/observe[1]"),
    ("inf", 0, 0, "5/observe[1]"),
    ("kill", 3, 1, "5/gather[1]"),
    ("exit", 3, 1, "5/gather[1]"),
]

def _in_both_passes(rows):
    """Each fault case in a pass of its own (sample 0, under the case's
    plain id) and in a session's second pass (sample 1), after a clean
    first one on the same workers."""
    return [pytest.param(*row, sample_index,
                         id="-".join(map(str, row)) + ("-second-pass" if sample_index else ""))
            for sample_index in (0, 1) for row in rows]


def _failing_pass(factory, parameters, workers, timeout, sample_index):
    """Run the failing pass; return its error, its seconds, and the live
    threads and processes just after it (a failed pass closes its session)."""
    def run(sample, session=None):
        return run_particle_filter(factory, parameters, _OBS, 4, workers, sample_index=sample,
                                   timeout=timeout, session=session)

    with FilterSession(factory, 4, workers, timeout=timeout) as session:
        for sample in range(sample_index):
            run(sample, session)
        started = time.perf_counter()
        with pytest.raises(ProtocolError) as info:
            run(sample_index, session if sample_index else None)
        return info.value, time.perf_counter() - started, _live()


@needs_fork
class TestFaultInjection:
    """One rank fails while the other survives (p=4, W=2: lineages 0, 1
    on rank 0 and 2, 3 on rank 1). The error must name the failing rank
    and step, arrive within a second, and leave no worker behind."""

    @pytest.mark.parametrize("fault, lineage, rank, step, sample_index", _in_both_passes(_MODEL_FAULTS))
    def test_failing_model(self, fault, lineage, rank, step, sample_index):
        before = _live()
        error, seconds, live = _failing_pass(lambda: _FaultyModel(fault, lineage, sample_index),
                                             _THETA, 2, 4.0, sample_index)
        assert seconds < 1.0
        assert (error.rank, error.step) == (rank, step)
        assert str(error).count("(rank ") == 1
        assert live == before

    def test_stuck_worker(self):
        self._stuck_worker(0)

    def test_stuck_worker_in_a_second_pass(self):
        self._stuck_worker(1)

    @staticmethod
    def _stuck_worker(sample_index):
        before = _live()
        error, seconds, live = _failing_pass(lambda: _StuckModel(2, sample_index), Parameters({}),
                                             2, 0.2, sample_index)
        assert seconds < 1.0
        assert (error.rank, error.step) == (1, "5/gather[1]")
        assert "timed out" in str(error)
        assert "ranks [1]" in str(error)
        assert str(error).count("(rank ") == 1
        assert live == before

    def test_worker_killed_between_passes(self):
        before = _live()
        with FilterSession(LinearGaussianModel, 4, 2, timeout=4.0) as session:
            run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2, timeout=4.0, session=session)
            victim = session._started[1]
            victim.kill()
            victim.join(1.0)
            started = time.perf_counter()
            with pytest.raises(ProtocolError) as info:
                run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2, sample_index=1,
                                    timeout=4.0, session=session)
            assert time.perf_counter() - started < 1.0
            assert (info.value.rank, info.value.step) == (1, "5/gather[1]")
            assert "exited with code -9" in str(info.value)
            assert _live() == before

    # Whole-pass routing and transfer faults. Identity resampling keeps
    # lineages 0, 1 on rank 0 and 2, 3 on rank 1; the master's routing is
    # swapped for one that sends the listed rank a tampered slice after
    # event 1. Rows are (lineage, source, destination, first new id,
    # copies). Every particle sleeps 50 ms an advance, so a worker that
    # waits on a transfer times out before the master's gather does.
    @pytest.mark.parametrize("slices, timeout, rank, step, words", [
        ({0: ((0, 0, 0, 0, 1), (1, 0, 0, 1, 1), (2, 1, 1, 2, 1))}, 4.0, 0, "10/routing[1]",
         "foreign transfer"),
        ({0: ((0, 0, 0, 0, 1), (3, 0, 0, 1, 1))}, 4.0, 0, "10(a)/prune[1]",
         "non-resident particles [3]"),
        ({1: ((0, 0, 1, 2, 1), (3, 1, 1, 3, 1))}, 0.2, 1, "10(d)/receive[1]",
         "missing expected transfers [(0, 0)]"),
        ({0: ((0, 0, 0, 0, 1), (1, 0, 0, 1, 1), (0, 0, 1, 2, 1)),
          1: ((1, 0, 1, 2, 1), (3, 1, 1, 3, 1))},
         4.0, 1, "10(d)/receive[1]", "unsolicited transfer of lineage 0 from worker 0"),
    ], ids=["foreign-transfer", "non-resident-lineage", "missing-transfer", "unsolicited-transfer"])
    def test_routing_fault(self, monkeypatch, slices, timeout, rank, step, words):
        _use_resampler(monkeypatch, _identity_resampler)
        _tamper_routing(monkeypatch, slices)
        before = _live()
        started = time.perf_counter()
        with pytest.raises(ProtocolError) as info:
            run_particle_filter(lambda: DelayModel(delay_ms=50.0), Parameters({}), _OBS, 4, 2,
                                timeout=timeout)
        assert time.perf_counter() - started < 1.0
        assert (info.value.rank, info.value.step) == (rank, step)
        assert words in str(info.value)
        assert str(info.value).count("(rank ") == 1
        assert _live() == before


    def test_missing_transfer_names_the_receiver(self, monkeypatch):
        """The receiving worker's transfer wait ends inside the master's
        gather deadline, so the fault is reported at step 10(d) every
        time, not as a gather timeout for the next event."""
        _use_resampler(monkeypatch, _identity_resampler)
        _tamper_routing(monkeypatch, {1: ((0, 0, 1, 2, 1), (3, 1, 1, 3, 1))})
        before = _live()
        for _ in range(20):
            started = time.perf_counter()
            with pytest.raises(ProtocolError) as info:
                run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2, timeout=0.2)
            assert time.perf_counter() - started < 1.0
            assert (info.value.rank, info.value.step) == (1, "10(d)/receive[1]")
            assert "missing expected transfers [(0, 0)]" in str(info.value)
            assert str(info.value).count("(rank ") == 1
            assert _live() == before


class TestThreadFaultInjection:
    """At W=1 the worker is a thread of the caller: a model fault still
    names rank 0 and its step within a second, and the thread is gone. A
    thread can be neither killed nor stopped, so the kill and the hang are
    left out."""

    # the thread that a model's sys.exit() ends is reported by pytest too
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("fault, lineage, step, sample_index", _in_both_passes(
        [(fault, lineage, step) for fault, lineage, _, step in _MODEL_FAULTS if fault != "kill"]))
    def test_failing_model(self, fault, lineage, step, sample_index):
        before = _live()
        error, seconds, live = _failing_pass(lambda: _FaultyModel(fault, lineage, sample_index),
                                             _THETA, 1, 4.0, sample_index)
        assert seconds < 1.0
        assert (error.rank, error.step) == (0, step)
        assert str(error).count("(rank ") == 1
        assert live == before


def _count_messages(monkeypatch) -> dict:
    """Count every encoded protocol message by type name."""
    encode = pmcmc.transport.encode_message
    sent: dict = {}

    def counting(message):
        name = type(message).__name__
        sent[name] = sent.get(name, 0) + 1
        return encode(message)

    monkeypatch.setattr(pmcmc.transport, "encode_message", counting)
    return sent


class TestMessageCount:
    """A pass is one command and one report per worker per event, the
    routing riding on the next event's command: no message beyond the
    broadcast, the events and the exit."""

    def test_full_pass(self, monkeypatch):
        sent = _count_messages(monkeypatch)
        n = len(_OBS)
        run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1)
        assert sent == {"Broadcast": 1, "Advance": n, "ExitCommand": 1, "WorkerReport": n}
        assert sum(sent.values()) == 2 * n + 2

    def test_session_passes_send_no_exit(self, monkeypatch):
        sent = _count_messages(monkeypatch)
        n = len(_OBS)
        with FilterSession(LinearGaussianModel, 8, 1) as session:
            for sample_index in range(2):
                run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1,
                                    sample_index=sample_index, session=session)
            assert sent == {"Broadcast": 2, "Advance": 2 * n, "WorkerReport": 2 * n}
        assert sent["ExitCommand"] == 1

    def test_degenerate_break(self, monkeypatch):
        sent = _count_messages(monkeypatch)
        obs = ObservationSeries((1, 2, 3), ({"y": 0.3}, {"y": 1e200}, {"y": 0.5}))
        result = run_particle_filter(LinearGaussianModel, _THETA, obs, 8, 1)
        assert result.estimate.degenerate_observations == (1,)
        assert sent == {"Broadcast": 1, "Advance": 2, "ExitCommand": 1, "WorkerReport": 2}


class _BatchCounted(LinearGaussianModel):
    batches: list = []

    @classmethod
    def run_many(cls, models, target_time):
        cls.batches.append((len(models), target_time))
        super().run_many(models, target_time)


class TestBatchedAdvance:
    def test_one_call_per_event_for_all_residents(self):
        _BatchCounted.batches = []
        batched = run_particle_filter(_BatchCounted, _THETA, _OBS, 8, 1, chain_index=2)
        assert _BatchCounted.batches == [(8, t) for t in _OBS.times]
        plain = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 1, chain_index=2)
        assert batched.estimate.log_value == plain.estimate.log_value


class TestLaunchers:
    @needs_fork
    def test_no_thread_or_process_outlives_a_pass(self):
        # a feeder thread alive at the next pass's fork would be copied
        # into the child without its lock state
        before = _live()
        run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 2)
        assert _live() == before
        with pytest.raises(ProtocolError):
            run_particle_filter(lambda: _FaultyModel("run", 0), _THETA, _OBS, 8, 2, timeout=4.0)
        assert _live() == before

    def test_closure_factory_matches_single_worker(self):
        entry = get_model_entry("predator_prey")
        config = {"profile": "desk"}
        theta = Parameters({"K_prey": 25.0, "K_pred": 15.0})
        obs = ibm_synthesize(DESK_DEFAULTS, (2, 4, 6), 5, 100, 10)
        runs = {W: run_particle_filter(lambda: entry.factory(config), theta, obs, 16, W, chain_index=4)
                for W in (1, 2)}
        for W in (1, 2):
            est = runs[W].estimate
            runs[W] = (est.log_value.hex(), est.log_std.hex(), runs[W].diagnostics.resample_counts)
        assert runs[2] == runs[1]

    @needs_fork
    def test_factory_runs_in_the_worker(self):
        built = []

        def factory():
            built.append(os.getpid())
            return LinearGaussianModel()

        run_particle_filter(factory, _THETA, _OBS, 4, 1)
        assert set(built) == {os.getpid()}
        built.clear()
        run_particle_filter(factory, _THETA, _OBS, 4, 2)
        assert built == []

    def test_thread_fallback_without_fork(self, monkeypatch):
        processes = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 2, chain_index=11)
        monkeypatch.setattr(pmcmc.executor, "_fork_context", lambda: None)
        threads = run_particle_filter(LinearGaussianModel, _THETA, _OBS, 8, 2, chain_index=11)
        assert threads.estimate.log_value == processes.estimate.log_value
        assert threads.diagnostics.resample_counts == processes.diagnostics.resample_counts

    def test_cli_import_leaves_multiprocessing_out(self):
        code = "import sys, pmcmc.cli; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(pmcmc.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestFilterSession:
    """A session's passes run on the same workers and instance pools, and
    give what a fresh pass gives: every pass reinitializes its particles."""

    _DEGENERATE = ObservationSeries((1, 2, 3), ({"y": 0.3}, {"y": 1e200}, {"y": 0.5}))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_passes_match_fresh_passes(self, workers):
        # the degenerate pass leaves its particles mid-series for the next
        passes = [(Parameters({"a": 0.8}), _OBS), (Parameters({"a": 0.3}), self._DEGENERATE),
                  (Parameters({"a": 0.8}), _OBS), (Parameters({"a": -0.5}), _OBS)]

        def summary(result):
            est, d = result.estimate, result.diagnostics
            return (est.log_value.hex(), est.log_std, est.per_observation_means, d.resample_counts,
                    d.move_fractions, d.copy_fractions, est.degenerate_observations)

        before = _live()
        with FilterSession(LinearGaussianModel, 8, workers, chain_index=3) as session:
            reused = [summary(run_particle_filter(LinearGaussianModel, theta, obs, 8, workers,
                                                  chain_index=3, sample_index=k, session=session))
                      for k, (theta, obs) in enumerate(passes)]
        fresh = [summary(run_particle_filter(LinearGaussianModel, theta, obs, 8, workers,
                                             chain_index=3, sample_index=k))
                 for k, (theta, obs) in enumerate(passes)]
        assert reused == fresh
        assert reused[1][-1] == (1,)
        assert _live() == before

    def test_init_rekeys_a_pooled_generator(self):
        # the worker is a thread here, so its instances are visible
        built = []

        def factory():
            built.append(LinearGaussianModel())
            return built[-1]

        with FilterSession(factory, 8, 1) as session:
            run_particle_filter(factory, _THETA, _OBS, 8, 1, session=session)
            generators = [(model, model._rng) for model in built]
            run_particle_filter(factory, _THETA, _OBS, 8, 1, sample_index=1, session=session)
        assert all(model._rng is rng for model, rng in generators)

    @needs_fork
    def test_workers_launch_once(self, monkeypatch):
        before = _live()
        starts = _count_starts(monkeypatch)
        with FilterSession(LinearGaussianModel, 4, 2) as session:
            for sample_index in range(3):
                run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2,
                                    sample_index=sample_index, session=session)
            assert len(starts) == 2
            assert _live() != before
        assert _live() == before

    def test_session_must_match_the_pass(self):
        before = _live()
        with FilterSession(LinearGaussianModel, 4, 2, chain_index=1, timeout=5.0) as session:
            for factory, p, W, chain_index, timeout in [
                (DelayModel, 4, 2, 1, 5.0), (LinearGaussianModel, 8, 2, 1, 5.0),
                (LinearGaussianModel, 4, 1, 1, 5.0), (LinearGaussianModel, 4, 2, 0, 5.0),
                (LinearGaussianModel, 4, 2, 1, 4.0),
            ]:
                with pytest.raises(ValidationError, match="another model factory"):
                    run_particle_filter(factory, _THETA, _OBS, p, W, chain_index=chain_index,
                                        timeout=timeout, session=session)
            assert session._started == []          # nothing launched for a rejected pass
            run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2, chain_index=1,
                                timeout=5.0, session=session)
        with pytest.raises(ValidationError, match="closed"):
            run_particle_filter(LinearGaussianModel, _THETA, _OBS, 4, 2, chain_index=1,
                                timeout=5.0, session=session)
        for bad in [dict(ensemble_size=0), dict(workers=True), dict(timeout=0.0),
                    dict(chain_index=-1)]:
            with pytest.raises(ValidationError):
                FilterSession(LinearGaussianModel, **{"ensemble_size": 4, "workers": 2, **bad})
        assert _live() == before

    @needs_fork
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_no_worker_outlives_a_killed_master(self, tmp_path):
        """A chain's master killed by SIGKILL leaves no worker running:
        each notices within ``_POLL_INTERVAL`` that its parent is gone."""
        script = tmp_path / "chain.py"
        script.write_text(_ORPHAN_SCRIPT)
        env = dict(os.environ, PYTHONPATH=str(Path(pmcmc.__file__).parents[1]))
        master = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                                  text=True)
        try:
            pids = [int(master.stdout.readline()) for _ in range(2)]
            time.sleep(0.3)                     # into the chain's later passes
            assert master.poll() is None
        finally:
            master.kill()
            master.wait()
            master.stdout.close()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(_running(pid) for pid in pids):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


# A W=2 linear-Gaussian chain that prints its workers' process ids as they
# start, then runs until it is killed.
_ORPHAN_SCRIPT = """
import types
import pmcmc.executor
from pmcmc.core import Parameters
from pmcmc.models import LinearGaussianModel
from pmcmc.models.linear_gaussian import synthesize_linear_gaussian
from pmcmc.sampler import Prior, SamplerSettings, UniformPrior, run_chain

context = pmcmc.executor._fork_context()


class Announced(context.Process):
    def start(self):
        super().start()
        print(self.pid, flush=True)


pmcmc.executor._fork_context = lambda: types.SimpleNamespace(Queue=context.Queue, Process=Announced)
observations = synthesize_linear_gaussian(Parameters({"a": 0.6}), (1, 2, 3, 4), seed=1)
settings = SamplerSettings(Parameters({"a": 0.5}), 10**9, {"a": 0.2},
                           Prior({"a": UniformPrior(-1.0, 1.0)}), 16, 2)
run_chain(settings, LinearGaussianModel, observations)
"""


def _running(pid) -> bool:
    """A process with this id exists and is not a zombie left for its reaper."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _count_starts(monkeypatch) -> list:
    """Record every worker process the executor starts."""
    context = pmcmc.executor._fork_context()
    starts = []

    class Counted(context.Process):
        def start(self):
            starts.append(self.name)
            super().start()

    monkeypatch.setattr(pmcmc.executor, "_fork_context",
                        lambda: types.SimpleNamespace(Queue=context.Queue, Process=Counted))
    return starts


def _runtime(rank, p, W, timeout=0.2):
    commands, reports = Channel(), Channel()
    inboxes = {w: Channel() for w in range(W)}
    rt = _WorkerRuntime(rank, worker_lineages(rank, p, W), LinearGaussianModel, 0, commands,
                        reports, inboxes, timeout, math.ceil(p / W))
    rt._initialize(Broadcast(0, _THETA))
    return rt


def _states(rt) -> dict:
    """Every particle a worker holds, by new lineage id, as saved bytes."""
    return {lineage: model.save() for lineage, model in rt.particles.items()}


def _sent(rt) -> list:
    """Drain the transfers a worker sent its peers: (destination, transfer)."""
    sent = []
    for destination, channel in rt.peers.items():
        while True:
            try:
                sent.append((destination, channel.recv(0)))
            except queue.Empty:
                break
    return sent


# a slice as the master sends it, or its rows reversed: placement must
# not depend on their order
_ORDERS = {"given": lambda rows: rows, "reversed": lambda rows: rows[::-1]}


class TestPlacementSteps:
    """Direct drive of one worker's placement handler."""

    def test_identity_slice_keeps_instances(self):
        rt = _runtime(0, 4, 2)
        before = dict(rt.particles)
        rt._apply_routing(1, _slice((0, 0, 0, 0, 1), (1, 0, 0, 1, 1)))
        assert set(rt.particles) == {0, 1}
        for lin in (0, 1):
            assert rt.particles[lin] is before[lin]

    @pytest.mark.parametrize("order", _ORDERS)
    def test_receiving_worker_replicates_transfer(self, order):
        donor = LinearGaussianModel()
        donor.init(_THETA, seed=123)
        donor.run(5)
        entries = _slice((0, 0, 1, 2, 2))
        placed = []
        for rows in (_ORDERS[order](entries), entries):
            rt = _runtime(1, 8, 4)              # resident lineages 2, 3
            rt.inbox.send(ParticleTransfer(0, donor.save(), 0))
            rt._apply_routing(1, rows)
            placed.append((_states(rt), _sent(rt)))
            assert set(rt.particles) == {2, 3}
            assert rt.particles[2].latent == donor.latent
            assert rt.particles[3].latent == donor.latent
            assert rt.particles[2] is not rt.particles[3]
        assert placed[0] == placed[1]

    def test_full_eviction_leaves_no_residents(self):
        rt = _runtime(0, 4, 2)
        rt._apply_routing(1, _slice((0, 0, 1, 0, 1), (1, 0, 1, 1, 1)))
        assert rt.particles == {}
        # both states were shipped to worker 1's inbox
        assert rt.peers[1].recv(0.1).lineage_id == 0
        assert rt.peers[1].recv(0.1).lineage_id == 1

    @pytest.mark.parametrize("order", _ORDERS)
    def test_distinct_destination_pairs_travel_once(self, order):
        entries = _slice((0, 0, 1, 0, 2), (1, 0, 0, 2, 2))
        placed = []
        for rows in (_ORDERS[order](entries), entries):
            rt = _runtime(0, 4, 2)
            rt._apply_routing(1, rows)
            sent = _sent(rt)
            # one send despite two replicas
            assert [(destination, t.lineage_id) for destination, t in sent] == [(1, 0)]
            assert set(rt.particles) == {2, 3}
            placed.append((_states(rt), sent))
        assert placed[0] == placed[1]

    def test_kept_and_sent_lineage_stays_and_travels_once(self):
        rt = _runtime(0, 4, 2)
        before = dict(rt.particles)
        rt._apply_routing(1, _slice((0, 0, 0, 0, 1), (0, 0, 1, 2, 1)))
        assert set(rt.particles) == {0} and rt.particles[0] is before[0]
        assert [(destination, t.lineage_id) for destination, t in _sent(rt)] == [(1, 0)]
        # the kept parent is not recycled; the one routed nowhere is
        assert not any(model is before[0] for model in rt._pool)
        assert any(model is before[1] for model in rt._pool)

    def test_foreign_entry_rejected(self):
        rt = _runtime(0, 4, 2)
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(1, _slice((2, 1, 1, 0, 1)))
        assert "foreign" in str(info.value)

    def test_non_resident_reference_rejected(self):
        rt = _runtime(0, 4, 2)
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(1, _slice((3, 0, 0, 0, 1)))
        assert "non-resident" in str(info.value)

    def test_unsolicited_transfer_rejected(self):
        rt = _runtime(1, 8, 4)
        rt.inbox.send(ParticleTransfer(5, b"", 0))
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(1, _slice((0, 0, 1, 2, 1)))
        assert "unsolicited" in str(info.value)

    def test_missing_transfer_times_out(self):
        rt = _runtime(1, 8, 4)
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(1, _slice((0, 0, 1, 2, 1)))
        assert info.value.step == "10(d)/receive[1]"
        assert "missing" in str(info.value)

    def test_capacity_breach_rejected(self):
        rt = _runtime(0, 4, 2)
        entries = _slice((0, 0, 0, 0, 2), (1, 0, 0, 2, 1))
        with pytest.raises(ProtocolError) as info:
            rt._apply_routing(1, entries)
        assert info.value.step == "10(e)/prune[1]"

    def test_survivors_reseeded_to_new_identity(self):
        # two runtimes arrive at the same new lineage id by different
        # placements; their streams must coincide afterwards
        rt_a = _runtime(0, 2, 1)
        rt_a._apply_routing(1, _slice((0, 0, 0, 0, 2)))
        rt_b = _runtime(0, 2, 1)
        rt_b._apply_routing(1, _slice((0, 0, 0, 1, 1), (1, 0, 0, 0, 1)))
        a_draw = rt_a.particles[1]._rng.random()
        b_draw = rt_b.particles[1]._rng.random()
        assert a_draw == b_draw
