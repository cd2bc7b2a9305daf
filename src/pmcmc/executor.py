"""Master-worker particle filter runtime.

The caller's thread is the master. It drives W workers through the
filtering pass over an observation series:

1.  broadcast the parameter vector
2.  workers initialize their share of the ensemble, each particle on its
    own deterministically derived stream, and report nothing: the master
    knows the layout (``worker_lineages``) and goes straight on
3.  broadcast the next observation event, with the routing of step 9
4.  workers advance their particles to the event time, all of a
    worker's at once through ``Model.run_many``
5.  workers evaluate observation likelihoods, gathered by the master in
    lineage order; each report also carries the stage timings recorded
    since the previous one, so event 1's gather spans the workers'
    initialization and its ``timeout`` covers both
6.  after the last event, or a degenerate one, the master forms the
    estimate; the workers wait for the next pass's step 1
7.  the master resamples the ensemble (virtually: counts only)
8.  the master computes the routing that rebalances the resampled
    ensemble across workers, a table of placement orders
    (``routing.compute_routing``)
9.  each worker's slice of the orders, those it sends or receives,
    travels with the next step 3
10. on it, before step 4, workers (a) prune, (b) start one asynchronous
    state transfer per order that leaves them, (c) place kept orders
    while transfers are in flight, (d) load received states and place
    their orders, (e) drop sent-away parents and (f) reseed every survivor

Replicas made on a worker copy the state only (``Model.copy_from``), not
the random stream: step 10(f) restarts every survivor on the stream of
its new identity, derived for the worker's whole block of lineages at
once. Only states that change worker are serialized.

Every random stream involved is derived from (chain, sample, observation,
lineage, purpose) alone, so the estimate is invariant to the number of
workers: weights are gathered by lineage id and replica identities are
assigned by the deterministic routing, never by arrival order.

A ``FilterSession`` owns the workers, their channels and each worker's
pool of model instances, and runs any number of passes; a chain's caller
keeps one for all its samples, and ``run_particle_filter`` without one runs a
one-pass session. A single worker is a thread of the calling process. Two
or more are processes forked at the session's first pass, so CPU-bound
models run in parallel rather than taking turns on the interpreter lock;
where the platform has no ``fork`` start method they are threads too.
Threads and forked processes start the same ``_WorkerRuntime.run`` over
the same byte channels. A worker waits for its next command without a
timeout, within a pass and between passes, and checks every
``_POLL_INTERVAL`` that its master process is alive: a forked worker whose
master is gone exits. ``timeout`` bounds each of the master's gathers, which
fails on a worker that stays silent that long or ends without reporting,
and a receiving worker waits half of it (``_TRANSFER_SHARE``) for its
inbound transfers, failing at step ``10(d)/receive[j]``. A failed pass (a
worker's error report, a timeout or an exception on the master) closes the
session. On close every worker is told to exit, and any still running after
``_STOP_BOUND`` seconds is terminated (a thread cannot be, and is left to
finish its current command).
"""

from __future__ import annotations

import math
import os
import threading
import queue
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Callable, Mapping

import numpy as np

from .core import (
    MODEL_STREAM,
    RESAMPLE_STREAM,
    ObservationSeries,
    Parameters,
    ProtocolError,
    SeedKey,
    ValidationError,
    derive_seed,
    derive_seeds,
)
from .filtering import LikelihoodEstimate, estimate_marginal_from_log, resample_multinomial
from .instrumentation import MASTER_RANK, StageTiming
from .models.base import Model
from .routing import compute_routing, traffic_metrics, worker_slice
from .transport import (
    Advance,
    Broadcast,
    Channel,
    ErrorReport,
    ExitCommand,
    ParticleTransfer,
    WorkerReport,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "FilterDiagnostics",
    "FilterResult",
    "FilterSession",
    "run_particle_filter",
    "worker_lineages",
]

DEFAULT_TIMEOUT = 120.0

# Largest accepted ``timeout``, in seconds (11.6 days); a larger value is
# taken for a mistake of units.
_MAX_TIMEOUT = 1e6

# Seconds a closing session waits for its workers to stop before terminating
# them; a stuck worker's error then still surfaces within a second of its timeout.
_STOP_BOUND = 0.5

# Longest wait on a channel between checks that the other side is alive: the
# master's for a dead worker, a forked worker's for a dead master.
_POLL_INTERVAL = 0.1

# Share of ``timeout``, counted from the command that carries the routing
# slice, within which a worker must receive all its inbound transfers (step
# 10(d)). Its peers send as soon as they hold that command, while the
# master, which sent it, waits the full ``timeout`` on the event's gather:
# a transfer that never comes is reported as the receiving rank's own
# step-10(d) error, not as the master's gather timeout.
_TRANSFER_SHARE = 0.5


def worker_lineages(rank: int, ensemble_size: int, workers: int) -> range:
    """Contiguous, nearly equal lineage partition assigned to a worker."""
    return range(ensemble_size * rank // workers, ensemble_size * (rank + 1) // workers)


@dataclass(frozen=True)
class FilterDiagnostics:
    """Everything measured during one filtering pass.

    Observation indices here are the 1-based event numbers used on the
    wire and in stage timings (0 marks initialization); the estimate
    object flags 0-based rows of the weight matrix instead. How far local
    placement (step 10(c)) covered the transfers in flight shows in the
    workers' ``transfer-wait`` timings: the wait that remained.
    """

    workers: int
    wall_time: float
    resample_counts: tuple          # one counts tuple per resampling event
    move_fractions: tuple
    copy_fractions: tuple
    timings: tuple                  # StageTiming records, master rank -1

    @property
    def redraw_rates(self) -> tuple:
        """Per resampling event, the fraction of particles drawn at least once."""
        return tuple(sum(1 for c in counts if c) / len(counts) for counts in self.resample_counts)


@dataclass(frozen=True)
class FilterResult:
    estimate: LikelihoodEstimate
    diagnostics: FilterDiagnostics


class _MasterGone(Exception):
    """A forked worker's master process has ended; the worker exits."""


class _WorkerRuntime:
    """State machine run by one worker thread or process."""

    def __init__(
        self,
        rank: int,
        lineages: range,
        model_factory: Callable[[], Model],
        chain_index: int,
        commands: Channel,
        reports: Channel,
        peers: Mapping[int, Channel],
        timeout: float,
        capacity: int,
    ):
        self.rank = rank
        self.lineages = lineages
        self.model_factory = model_factory
        self.chain_index = chain_index
        self.commands = commands
        self.reports = reports
        self.inbox = peers[rank]
        self.peers = peers
        self.timeout = timeout
        self.capacity = capacity        # most particles a worker may hold, ceil(p / W)
        self.master_pid = os.getpid()   # constructed on the master, before any fork
        self.particles: dict[int, Model] = {}
        self.sample_index = 0
        self.step = "2/command-loop"    # the protocol step an error report names
        self.pending: list[StageTiming] = []
        # retired instances recycled for replicas; loading into a live model
        # skips generator construction, the dominant replication cost
        self._pool: list[Model] = []

    # -- command loop ---------------------------------------------------

    def run(self) -> None:
        try:
            while True:
                # no timeout: the master times out a stuck peer, and
                # closes the session with an exit command
                command = self._recv(self.commands, math.inf)
                if isinstance(command, Broadcast):
                    self.step = "2/init"
                    self._initialize(command)
                elif isinstance(command, Advance):
                    j = command.observation_index
                    if command.routing is not None:
                        self.step = f"10/routing[{j - 1}]"
                        self._apply_routing(j - 1, command.routing)
                    self.step = f"4/advance[{j}]"
                    self._advance(command)
                elif isinstance(command, ExitCommand):
                    return
                else:
                    raise ProtocolError(f"unexpected command {type(command).__name__}",
                                        rank=self.rank, step=self.step)
        except _MasterGone:
            # nobody reads the reports any more; do not wait to flush them
            self.reports.abandon()
        except ProtocolError as exc:
            # the master re-raises with rank and step, so send the bare message
            self.reports.send(ErrorReport(self.rank, exc.step or self.step, exc.message))
        except Exception as exc:
            self.reports.send(ErrorReport(self.rank, self.step, f"{type(exc).__name__}: {exc}"))
        finally:
            # a forked worker exits without waiting on peers that may never
            # read what it sent them, but flushes its reports (no-ops on a thread)
            for channel in self.peers.values():
                channel.abandon()
            self.reports.close()

    def _recv(self, channel: Channel, deadline: float):
        """The next message on ``channel``; ``queue.Empty`` at ``deadline``.
        Every ``_POLL_INTERVAL`` a forked worker checks that its master
        process is alive, and raises ``_MasterGone`` if not (a thread shares
        its master's process)."""
        while True:
            try:
                return channel.recv(min(_POLL_INTERVAL, max(deadline - monotonic(), 0.0)))
            except queue.Empty:
                if os.getpid() != self.master_pid and os.getppid() != self.master_pid:
                    raise _MasterGone from None
                if monotonic() >= deadline:
                    raise

    # -- steps ----------------------------------------------------------

    def _seeds(self, observation_index: int, lineage_ids) -> list[int]:
        return derive_seeds(self.chain_index, self.sample_index, observation_index,
                            np.asarray(lineage_ids, dtype=np.int64), MODEL_STREAM)

    def _replica(self) -> Model:
        return self._pool.pop() if self._pool else self.model_factory()

    def _initialize(self, command: Broadcast) -> None:
        self.sample_index = command.sample_index
        t0 = perf_counter()
        # the previous pass's particles, if any, become this pass's instances
        self._pool.extend(self.particles.values())
        self.particles = {}
        for lineage, seed in zip(self.lineages, self._seeds(0, self.lineages)):
            self.particles[lineage] = model = self._replica()
            model.init(command.parameters, seed)
        self.pending.append(StageTiming("init", self.rank, self.sample_index, 0, perf_counter() - t0))

    def _advance(self, command: Advance) -> None:
        j = command.observation_index
        lineages = sorted(self.particles)
        models = [self.particles[lineage] for lineage in lineages]
        t0 = perf_counter()
        if models:
            type(models[0]).run_many(models, command.target_time)
        t1 = perf_counter()
        self.step = f"5/observe[{j}]"
        weights = []
        for lineage, model in zip(lineages, models):
            value = model.log_observe(command.data)
            if math.isnan(value) or value == math.inf:
                raise ProtocolError(f"invalid log weight {value!r} from lineage {lineage}",
                                    rank=self.rank, step=self.step)
            weights.append(float(value))
        t2 = perf_counter()
        self.pending.append(StageTiming("run", self.rank, self.sample_index, j, t1 - t0))
        self.pending.append(StageTiming("observe", self.rank, self.sample_index, j, t2 - t1))
        self.reports.send(WorkerReport(self.rank, j, np.array(lineages, dtype=np.int32),
                                       np.array(weights, dtype=np.float64),
                                       tuple(self.pending)))
        self.pending = []

    def _place(self, model: Model, first: int, copies: int) -> None:
        """Steps 10(c) and 10(d) for one order: the parent takes new id ``first``, and
        replicas copying its state (not its stream, 10(f) restarts it) the next ids."""
        self.particles[first] = model
        for new_id in range(first + 1, first + copies):
            self.particles[new_id] = replica = self._replica()
            replica.copy_from(model)

    def _apply_routing(self, j: int, orders: np.ndarray) -> None:
        """Step 10 for event j's routing slice, its orders in any order."""
        deadline = monotonic() + _TRANSFER_SHARE * self.timeout      # for every inbound transfer
        rank = self.rank
        orders = orders.tolist()
        if any(source != rank and destination != rank for _, source, destination, _, _ in orders):
            raise ProtocolError("routing slice names a foreign transfer",
                                rank=rank, step=f"10/routing[{j}]")
        wanted = {lineage for lineage, source, *_ in orders if source == rank}
        missing = wanted - set(self.particles)
        if missing:
            raise ProtocolError(f"routing references non-resident particles {sorted(missing)}",
                                rank=rank, step=f"10(a)/prune[{j}]")

        # 10(a): drop particles neither kept here nor routed anywhere else
        self._pool.extend(m for lin, m in self.particles.items() if lin not in wanted)
        parents = {lin: m for lin, m in self.particles.items() if lin in wanted}
        self.particles = {}         # by new id from here on

        # 10(b): one non-blocking send per order that leaves; the inbox accepts eagerly
        for lineage, source, destination, _, _ in orders:
            if source == rank != destination:
                self.peers[destination].send(ParticleTransfer(lineage, parents[lineage].save(), rank))

        # 10(c): place local survivors while any transfers are in flight
        t0 = perf_counter()
        for lineage, source, destination, first, copies in orders:
            if source == destination:
                self._place(parents.pop(lineage), first, copies)
        replicate_time = perf_counter() - t0

        # 10(d): load inbound transfers and place them
        transfer_wait = 0.0
        outstanding = {(lineage, source): (first, copies)
                       for lineage, source, _, first, copies in orders if source != rank}
        while outstanding:
            t0 = perf_counter()
            try:
                transfer = self._recv(self.inbox, deadline)
            except queue.Empty:
                raise ProtocolError(f"missing expected transfers {sorted(outstanding)}",
                                    rank=rank, step=f"10(d)/receive[{j}]")
            transfer_wait += perf_counter() - t0
            if not isinstance(transfer, ParticleTransfer):
                raise ProtocolError(f"unexpected peer message {type(transfer).__name__}",
                                    rank=rank, step=f"10(d)/receive[{j}]")
            key = (transfer.lineage_id, transfer.source)
            if key not in outstanding:
                raise ProtocolError(f"unsolicited transfer of lineage {transfer.lineage_id} "
                                    f"from worker {transfer.source}",
                                    rank=rank, step=f"10(d)/receive[{j}]")
            t0 = perf_counter()
            received = self._replica()
            received.load(transfer.state)
            self._place(received, *outstanding.pop(key))
            replicate_time += perf_counter() - t0

        # 10(e): sends completed on enqueue; the sent-only parents left retire here
        self._pool.extend(parents.values())
        if len(self.particles) > self.capacity:
            raise ProtocolError(f"holding {len(self.particles)} particles, limit {self.capacity}",
                                rank=rank, step=f"10(e)/prune[{j}]")

        # 10(f): every survivor restarts on its own fresh derived stream
        t0 = perf_counter()
        ids = sorted(self.particles)
        for new_id, seed in zip(ids, self._seeds(j, ids)):
            self.particles[new_id].reseed(seed)
        replicate_time += perf_counter() - t0

        self.pending.append(StageTiming("replicate", rank, self.sample_index, j, replicate_time))
        self.pending.append(StageTiming("transfer-wait", rank, self.sample_index, j, transfer_wait))


def _fork_context():
    """The ``fork`` multiprocessing context, or None where there is none."""
    # imported here: multiprocessing and its queues cost about 8 ms to import,
    # which single-worker passes and the CLI's start-up would pay for nothing
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class FilterSession:
    """The workers, their channels and each worker's instance pool, kept for
    any number of filtering passes.

    A context manager: ``run_particle_filter(..., session=session)`` runs one
    pass on it, and ``close`` (or leaving the ``with`` block) ends the
    workers. They are launched by the first pass. A failed pass closes the
    session, and a closed session runs no more passes.

    With ``workers >= 2`` each worker is a forked process where the
    platform can fork, so ``model_factory`` runs there: it may be any
    callable, a closure included, but what it changes (counters, globals,
    caches) stays in the worker process and is not visible to the caller.
    ``timeout`` is the longest wait, in seconds, for any one report from
    the workers, at most ``_MAX_TIMEOUT`` (1e6).
    """

    def __init__(
        self,
        model_factory: Callable[[], Model],
        ensemble_size: int,
        workers: int,
        *,
        chain_index: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        for name, value in (("ensemble size", ensemble_size), ("worker count", workers)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not 0.0 < timeout <= _MAX_TIMEOUT:
            raise ValidationError(f"timeout must be a positive number of seconds up to {_MAX_TIMEOUT:g}, "
                                  f"got {timeout!r}")
        SeedKey(chain_index, 0, 0, 0)       # validates the chain counter every stream shares
        self.model_factory = model_factory
        self.ensemble_size = ensemble_size
        self.workers = workers
        self.chain_index = chain_index
        self.timeout = timeout
        self._commands: list[Channel] = []
        self._reports: Channel | None = None
        self._channels: list[Channel] = []
        self._started: list = []            # worker threads or processes, by rank
        self._closed = False

    def __enter__(self) -> "FilterSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Tell every worker to exit, end them within ``_STOP_BOUND`` and
        release the channels; a process still alive at the bound is terminated."""
        if self._closed:
            return
        self._closed = True
        for channel in self._commands:
            channel.send(ExitCommand())
        deadline = monotonic() + _STOP_BOUND
        for worker in self._started:
            worker.join(max(deadline - monotonic(), 0.0))
        for worker in self._started:
            if isinstance(worker, threading.Thread):
                continue
            if worker.is_alive():
                worker.terminate()
            worker.join()
            worker.close()
        # the master sent on the command channels only; joining their feeder
        # threads leaves none alive for the next session's fork
        for channel in self._channels:
            channel.close()

    def _launch(self) -> None:
        p, W = self.ensemble_size, self.workers
        context = _fork_context() if W >= 2 else None
        self._commands = [Channel(context=context) for _ in range(W)]
        self._reports = Channel(context=context)
        inboxes = [Channel(context=context) for _ in range(W)]
        self._channels = [*self._commands, self._reports, *inboxes]
        for rank in range(W):
            runtime = _WorkerRuntime(
                rank, worker_lineages(rank, p, W), self.model_factory, self.chain_index,
                self._commands[rank], self._reports, dict(enumerate(inboxes)), self.timeout,
                math.ceil(p / W),
            )
            launcher = (threading.Thread if context is None else context.Process)(
                target=runtime.run, name=f"pf-worker-{rank}", daemon=True)
            launcher.start()
            self._started.append(launcher)

    def _gather(self, step: str) -> list:
        """One report from every rank, in arrival order. A rank silent for
        ``timeout`` fails the gather, and so does one whose worker ended
        without reporting; either way the lowest such rank is named."""
        gathered = []
        silent = set(range(self.workers))
        while silent:
            deadline = monotonic() + self.timeout
            while True:
                try:
                    message = self._reports.recv(min(_POLL_INTERVAL, max(deadline - monotonic(), 0.0)))
                    break
                except queue.Empty:
                    pass
                # a worker killed by a signal, or ended by an uncaught
                # BaseException, sends no error report: take what it sent
                # before it ended, and fail if that was nothing
                ended = [rank for rank in sorted(silent) if not self._started[rank].is_alive()]
                if ended:
                    try:
                        message = self._reports.recv(0)
                        break
                    except queue.Empty:
                        code = getattr(self._started[ended[0]], "exitcode", None)
                        what = "worker thread ended" if code is None else f"worker process exited with code {code}"
                        raise ProtocolError(f"{what} without reporting", rank=ended[0], step=step) from None
                if monotonic() >= deadline:
                    raise ProtocolError(f"timed out gathering worker reports, none from ranks "
                                        f"{sorted(silent)}", rank=min(silent), step=step)
            if isinstance(message, ErrorReport):
                raise ProtocolError(message.message, rank=message.worker, step=message.step)
            silent.discard(message.worker)
            gathered.append(message)
        return gathered

    def _run(
        self,
        parameters: Parameters,
        observations: ObservationSeries,
        sample_index: int,
        worker_dependent_seed_fault: bool,
    ) -> FilterResult:
        """One filtering pass on the session's workers; a failure closes the session."""
        if not isinstance(observations, ObservationSeries):
            raise ValidationError("observations must be an ObservationSeries")
        if not isinstance(parameters, Parameters):
            raise ValidationError("parameters must be a Parameters instance")
        SeedKey(self.chain_index, sample_index, 0, 0)   # validates the counters all the pass's streams share
        if self._closed:
            raise ValidationError("the filter session is closed")

        n = len(observations)
        p, workers, chain_index = self.ensemble_size, self.workers, self.chain_index
        timings: list[StageTiming] = []
        rows: list[np.ndarray] = []
        resample_counts: list[tuple] = []
        move_fractions: list[float] = []
        copy_fractions: list[float] = []

        t_start = perf_counter()
        try:
            if not self._started:
                self._launch()
            commands = self._commands
            for rank in range(workers):
                commands[rank].send(Broadcast(sample_index, parameters))
            # worker of each lineage
            held = np.array([rank for rank in range(workers) for _ in worker_lineages(rank, p, workers)])
            slices = [None] * workers       # each rank's slice of the last routing

            for j, (target_time, data) in enumerate(observations, start=1):
                for rank in range(workers):
                    commands[rank].send(Advance(j, target_time, data, slices[rank]))
                t0 = perf_counter()
                gathered_ids, gathered_weights = [], []
                for report in self._gather(f"5/gather[{j}]"):
                    if report.observation_index != j:
                        raise ProtocolError(
                            f"report for event {report.observation_index} while gathering event {j}",
                            rank=report.worker, step=f"5/gather[{j}]")
                    timings.extend(report.timings)
                    gathered_ids.append(report.lineage_ids)
                    gathered_weights.append(report.log_weights)
                timings.append(StageTiming("likelihood-gather", MASTER_RANK, sample_index, j,
                                           perf_counter() - t0))
                lineages = np.concatenate(gathered_ids)
                if not np.array_equal(np.sort(lineages), np.arange(p)):
                    raise ProtocolError("gathered weights do not cover the ensemble",
                                        rank=MASTER_RANK, step=f"5/gather[{j}]")
                row = np.empty(p)
                row[lineages] = np.concatenate(gathered_weights)
                rows.append(row)

                shift = row.max()
                if shift == -np.inf or j == n:
                    break

                # step 7: virtual resampling on the master
                t0 = perf_counter()
                weights = np.exp(row - shift)
                probs = weights / weights.sum()
                seed = derive_seed(SeedKey(chain_index, sample_index, j, 0, RESAMPLE_STREAM))
                if worker_dependent_seed_fault:
                    seed ^= workers
                counts = resample_multinomial(probs, p, seed)
                timings.append(StageTiming("resample", MASTER_RANK, sample_index, j,
                                           perf_counter() - t0))
                resample_counts.append(tuple(np.asarray(counts, dtype=np.int64).tolist()))

                # step 8: routing
                t0 = perf_counter()
                orders = compute_routing(counts, held, workers)
                move, copy = traffic_metrics(orders)
                timings.append(StageTiming("route", MASTER_RANK, sample_index, j,
                                           perf_counter() - t0))
                move_fractions.append(move)
                copy_fractions.append(copy)

                # step 9: the slices ride on the next event's command
                slices = [worker_slice(orders, rank) for rank in range(workers)]
                held = np.repeat(orders[:, 2], orders[:, 4])
        except BaseException:
            self.close()
            raise

        wall_time = perf_counter() - t_start
        estimate = estimate_marginal_from_log(np.vstack(rows))
        diagnostics = FilterDiagnostics(
            workers=workers,
            wall_time=wall_time,
            resample_counts=tuple(resample_counts),
            move_fractions=tuple(move_fractions),
            copy_fractions=tuple(copy_fractions),
            timings=tuple(timings),
        )
        return FilterResult(estimate=estimate, diagnostics=diagnostics)


def run_particle_filter(
    model_factory: Callable[[], Model],
    parameters: Parameters,
    observations: ObservationSeries,
    ensemble_size: int,
    workers: int,
    *,
    chain_index: int = 0,
    sample_index: int = 0,
    timeout: float = DEFAULT_TIMEOUT,
    worker_dependent_seed_fault: bool = False,
    session: FilterSession | None = None,
) -> FilterResult:
    """Run one parallel filtering pass and estimate the marginal likelihood.

    The pass runs on ``session``, which must have been opened with the same
    ``model_factory``, ``ensemble_size``, ``workers``, ``chain_index`` and
    ``timeout``, or, without one, on a session of its own that it closes
    before returning. See ``FilterSession`` for where the factory runs and
    what ``timeout`` bounds. An event's wait includes what its command
    starts first: the workers' initialization at event 1, placement after
    that.

    After every event but the last the master draws multinomial replica
    counts (``resample_multinomial``) from the event's resampling stream.

    ``worker_dependent_seed_fault`` deliberately mixes the worker count
    into the resampling seed; the verification suite uses it to prove the
    worker-count invariance check can fail.
    """
    if session is None:
        with FilterSession(model_factory, ensemble_size, workers,
                           chain_index=chain_index, timeout=timeout) as session:
            return session._run(parameters, observations, sample_index, worker_dependent_seed_fault)
    if session.model_factory is not model_factory or (
            session.ensemble_size, session.workers, session.chain_index, session.timeout) != (
            ensemble_size, workers, chain_index, timeout):
        raise ValidationError("the filter session was opened for another model factory, "
                              "ensemble size, worker count, chain index or timeout")
    return session._run(parameters, observations, sample_index, worker_dependent_seed_fault)
