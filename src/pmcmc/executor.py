"""Master-worker particle filter runtime.

The caller's thread is the master. It drives W workers through the
filtering pass over an observation series:

1.  broadcast the parameter vector
2.  workers initialize their share of the ensemble, each particle on its
    own deterministically derived stream
3.  broadcast the next observation event
4.  workers advance their particles to the event time, all of a
    worker's at once through ``Model.run_many``
5.  workers evaluate observation likelihoods, gathered by the master in
    lineage order
6.  after the last event the master sends exit and forms the estimate
7.  the master resamples the ensemble (virtually: counts only)
8.  the master computes the routing that rebalances the resampled
    ensemble across workers
9.  routing slices are scattered to the workers
10. workers (a) prune, (b) start asynchronous state transfers, (c) copy
    local survivors into replicas while transfers are in flight, (d) load
    received states and copy them into any further replicas, (e) drop
    sent-away particles, (f) reseed every survivor, and wait for step 3

Replicas made on a worker copy the state only (``Model.copy_from``), not
the random stream: step 10(f) restarts every survivor on the stream of
its new identity, derived for the worker's whole block of lineages at
once. Only states that change worker are serialized.

Every random stream involved is derived from (chain, sample, observation,
lineage, purpose) alone, so the estimate is invariant to the number of
workers: weights are gathered by lineage id and replica identities are
assigned by the deterministic routing, never by arrival order.

A single worker is a thread of the calling process. Two or more are
processes forked for the pass, so CPU-bound models run in parallel
rather than taking turns on the interpreter lock; where the platform has
no ``fork`` start method they are threads too. Either way they run the
same worker state machine over the same byte channels. When the pass
fails, on a worker's error report, a timeout or an exception on the
master, every worker is told to exit, and any still running after
``_STOP_BOUND`` seconds is terminated (a thread cannot be, and is left to
finish its current command).
"""

from __future__ import annotations

import math
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
from .filtering import (
    LikelihoodEstimate,
    estimate_marginal_from_log,
    normalize_weights,
    redraw_rate,
    resample_multinomial,
)
from .instrumentation import MASTER_RANK, StageTiming
from .models.base import Model
from .routing import compute_routing, traffic_metrics
from .transport import (
    Advance,
    Broadcast,
    Channel,
    ErrorReport,
    ExitCommand,
    ExitReport,
    InitReport,
    ParticleTransfer,
    RouteCommand,
    WorkerReport,
)

__all__ = ["DEFAULT_TIMEOUT", "FilterDiagnostics", "FilterResult", "run_particle_filter", "worker_lineages"]

DEFAULT_TIMEOUT = 120.0

# Seconds a pass waits for its workers to stop before terminating them; a
# stuck worker's error then still surfaces within a second of its timeout.
_STOP_BOUND = 0.5

# Longest wait on the report channel between checks for a dead worker.
_POLL_INTERVAL = 0.1

# Share of ``timeout``, counted from the route command, within which a
# worker must receive all its inbound transfers (step 10(d)). Its peers
# send as soon as they hold the route command, while the master, which
# scatters the routing and then the next event, waits the full ``timeout``
# on that event's gather: a transfer that never comes is reported as the
# receiving rank's own step-10(d) error, not as the master's gather timeout.
_TRANSFER_SHARE = 0.5


def worker_lineages(rank: int, ensemble_size: int, workers: int) -> range:
    """Contiguous, nearly equal lineage partition assigned to a worker."""
    return range(ensemble_size * rank // workers, ensemble_size * (rank + 1) // workers)


@dataclass(frozen=True)
class FilterDiagnostics:
    """Everything measured during one filtering pass.

    Observation indices here are the 1-based event numbers used on the
    wire and in stage timings (0 marks initialization); the estimate
    object flags 0-based rows of the weight matrix instead.
    """

    workers: int
    wall_time: float
    resample_counts: tuple          # one counts tuple per resampling event
    redraw_rates: tuple
    move_fractions: tuple
    copy_fractions: tuple
    timings: tuple                  # StageTiming records, master rank -1
    marks: tuple                    # (worker, name, observation_index, timestamp)
    degenerate_observations: tuple


@dataclass(frozen=True)
class FilterResult:
    estimate: LikelihoodEstimate
    diagnostics: FilterDiagnostics


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
        inbox: Channel,
        peers: Mapping[int, Channel],
        timeout: float,
    ):
        self.rank = rank
        self.lineages = lineages
        self.model_factory = model_factory
        self.chain_index = chain_index
        self.commands = commands
        self.reports = reports
        self.inbox = inbox
        self.peers = peers
        self.timeout = timeout
        self.particles: dict[int, Model] = {}
        self.sample_index = 0
        self.pending: list[StageTiming] = []
        self.marks: list[tuple] = []
        self._init_done_at: float | None = None
        # retired instances recycled for replicas; loading into a live model
        # skips generator construction, the dominant replication cost
        self._pool: list[Model] = []

    # -- command loop ---------------------------------------------------

    def run(self) -> None:
        step = "2/command-loop"
        try:
            while True:
                try:
                    # the master may wait ``timeout`` on a slower peer before
                    # it sends on or aborts; an idle worker allows twice
                    # that, so a stuck peer is never blamed on this rank
                    command = self.commands.recv(2 * self.timeout)
                except queue.Empty:
                    raise ProtocolError("timed out waiting for a command", rank=self.rank, step=step)
                if self._init_done_at is not None:
                    self.pending.append(StageTiming(
                        "init-sync", self.rank, self.sample_index, 0, perf_counter() - self._init_done_at))
                    self._init_done_at = None
                if isinstance(command, Broadcast):
                    step = "2/init"
                    self._initialize(command)
                elif isinstance(command, Advance):
                    step = f"4/advance[{command.observation_index}]"
                    self._advance(command)
                elif isinstance(command, RouteCommand):
                    step = f"10/routing[{command.observation_index}]"
                    self._apply_routing(command)
                elif isinstance(command, ExitCommand):
                    self._exit()
                    return
                else:
                    raise ProtocolError(f"unexpected command {type(command).__name__}",
                                        rank=self.rank, step=step)
        except ProtocolError as exc:
            self.reports.send(ErrorReport(self.rank, exc.step or step, str(exc)))
        except Exception as exc:
            self.reports.send(ErrorReport(self.rank, step, f"{type(exc).__name__}: {exc}"))

    # -- steps ----------------------------------------------------------

    def _seeds(self, observation_index: int, lineage_ids) -> list[int]:
        return derive_seeds(self.chain_index, self.sample_index, observation_index,
                            np.asarray(lineage_ids, dtype=np.int64), MODEL_STREAM)

    def _replica(self) -> Model:
        return self._pool.pop() if self._pool else self.model_factory()

    def _initialize(self, command: Broadcast) -> None:
        self.sample_index = command.sample_index
        t0 = perf_counter()
        self.particles = {}
        for lineage, seed in zip(self.lineages, self._seeds(0, self.lineages)):
            model = self.model_factory()
            model.init(command.parameters, seed)
            self.particles[lineage] = model
        self.pending.append(StageTiming("init", self.rank, self.sample_index, 0, perf_counter() - t0))
        self.reports.send(InitReport(self.rank, tuple(self.lineages), self._flush_timings()))
        self._init_done_at = perf_counter()

    def _advance(self, command: Advance) -> None:
        j = command.observation_index
        lineages = sorted(self.particles)
        models = [self.particles[lineage] for lineage in lineages]
        t0 = perf_counter()
        if models:
            type(models[0]).run_many(models, command.target_time)
        t1 = perf_counter()
        weights = []
        for lineage, model in zip(lineages, models):
            value = model.log_observe(command.data)
            if math.isnan(value) or value == math.inf:
                raise ProtocolError(f"invalid log weight {value!r} from lineage {lineage}",
                                    rank=self.rank, step=f"5/observe[{j}]")
            weights.append(float(value))
        t2 = perf_counter()
        self.pending.append(StageTiming("run", self.rank, self.sample_index, j, t1 - t0))
        self.pending.append(StageTiming("observe", self.rank, self.sample_index, j, t2 - t1))
        self.reports.send(WorkerReport(self.rank, j, np.array(lineages, dtype=np.int32),
                                       np.array(weights, dtype=np.float64), self._flush_timings()))

    def _apply_routing(self, command: RouteCommand) -> None:
        j = command.observation_index
        deadline = monotonic() + _TRANSFER_SHARE * self.timeout      # for every inbound transfer
        # rows (lineage, source, destination, new_id), sorted so that every
        # group below lists its new ids, and the groups their keys, ascending
        table = np.asarray(command.entries, dtype=np.int64).reshape(-1, 4)
        table = table[np.lexsort(table.T[::-1])]
        from_here = table[:, 1] == self.rank
        to_here = table[:, 2] == self.rank
        if not np.all(from_here | to_here):
            raise ProtocolError("routing slice names a foreign transfer",
                                rank=self.rank, step=f"10/routing[{j}]")
        keeps = _group(table[from_here & to_here], 0)         # lineage -> new ids
        sends = _group(table[from_here & ~to_here], 0, 2)     # (lineage, destination) -> new ids
        recvs = _group(table[~from_here & to_here], 0, 1)     # (lineage, source) -> new ids
        wanted = set(keeps) | {lineage for lineage, _ in sends}
        missing = wanted - set(self.particles)
        if missing:
            raise ProtocolError(f"routing references non-resident particles {sorted(missing)}",
                                rank=self.rank, step=f"10(a)/prune[{j}]")

        # 10(a): drop particles neither kept here nor routed anywhere else
        retired = {lin: m for lin, m in self.particles.items() if lin not in wanted}
        self._pool.extend(retired.values())
        self.particles = {lin: m for lin, m in self.particles.items() if lin in wanted}

        # 10(b): non-blocking sends, one per distinct (lineage, destination);
        # receives need no posting, the inbox accepts eagerly
        for (lineage, destination), ids in sends.items():
            state = self.particles[lineage].save()
            self.peers[destination].send(
                ParticleTransfer(lineage, ids[0], state, self.rank, destination))

        # 10(c): copy local survivors into their replicas, stream aside,
        # while any transfers are in flight
        self.marks.append((self.rank, "replicate-start", j, monotonic()))
        replicate_time = 0.0
        survivors: dict[int, Model] = {}
        t0 = perf_counter()
        for lineage, ids in keeps.items():
            original = self.particles[lineage]
            survivors[ids[0]] = original
            for new_id in ids[1:]:
                replica = self._replica()
                replica.copy_from(original)
                survivors[new_id] = replica
        replicate_time += perf_counter() - t0

        # 10(d): consume inbound transfers, replicating as needed
        transfer_wait = 0.0
        outstanding = dict(recvs)
        while outstanding:
            t0 = perf_counter()
            try:
                transfer = self.inbox.recv(max(deadline - monotonic(), 0.0))
            except queue.Empty:
                raise ProtocolError(f"missing expected transfers {sorted(outstanding)}",
                                    rank=self.rank, step=f"10(d)/receive[{j}]")
            transfer_wait += perf_counter() - t0
            if not isinstance(transfer, ParticleTransfer):
                raise ProtocolError(f"unexpected peer message {type(transfer).__name__}",
                                    rank=self.rank, step=f"10(d)/receive[{j}]")
            key = (transfer.lineage_id, transfer.source)
            if key not in outstanding:
                raise ProtocolError(f"unsolicited transfer of lineage {transfer.lineage_id} "
                                    f"from worker {transfer.source}",
                                    rank=self.rank, step=f"10(d)/receive[{j}]")
            self.marks.append((self.rank, "receive-complete", j, monotonic()))
            ids = outstanding.pop(key)
            t0 = perf_counter()
            received = self._replica()
            received.load(transfer.state)
            survivors[ids[0]] = received
            for new_id in ids[1:]:
                replica = self._replica()
                replica.copy_from(received)
                survivors[new_id] = replica
            replicate_time += perf_counter() - t0

        # 10(e): sends completed on enqueue; sent-only instances retire here
        for (lineage, _destination), _ids in sends.items():
            model = self.particles.get(lineage)
            if model is not None and lineage not in keeps:
                self._pool.append(model)
                self.particles.pop(lineage)
        self.particles = survivors
        if len(self.particles) > command.w_max:
            raise ProtocolError(f"holding {len(self.particles)} particles, limit {command.w_max}",
                                rank=self.rank, step=f"10(e)/prune[{j}]")

        # 10(f): every survivor restarts on its own fresh derived stream
        t0 = perf_counter()
        ids = sorted(self.particles)
        for new_id, seed in zip(ids, self._seeds(j, ids)):
            self.particles[new_id].reseed(seed)
        replicate_time += perf_counter() - t0

        self.pending.append(StageTiming("replicate", self.rank, self.sample_index, j, replicate_time))
        self.pending.append(StageTiming("transfer-wait", self.rank, self.sample_index, j, transfer_wait))

    def _exit(self) -> None:
        t0 = perf_counter()
        self.particles = {}
        self.pending.append(StageTiming("exit", self.rank, self.sample_index, 0, perf_counter() - t0))
        self.reports.send(ExitReport(self.rank, self._flush_timings(), tuple(self.marks)))

    # -- helpers --------------------------------------------------------

    def _flush_timings(self) -> tuple:
        out = tuple(self.pending)
        self.pending = []
        return out


def _group(rows: np.ndarray, *key_columns: int) -> dict:
    """New ids (column 3) of sorted routing rows, grouped by the key columns."""
    groups: dict = {}
    for row in rows.tolist():
        key = row[key_columns[0]] if len(key_columns) == 1 else tuple(row[c] for c in key_columns)
        groups.setdefault(key, []).append(row[3])
    return groups


def _fork_context():
    """The ``fork`` multiprocessing context, or None where there is none."""
    # imported here: multiprocessing and its queues cost about 8 ms to import,
    # which single-worker passes and the CLI's start-up would pay for nothing
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _run_forked(runtime: _WorkerRuntime) -> None:
    """Worker process body: run the state machine, then exit without
    waiting on peers that may never read what was sent them. Reports are
    flushed, the master reads them until the pass ends."""
    try:
        runtime.run()
    finally:
        for channel in runtime.peers.values():
            channel.abandon()
        runtime.reports.close()


def _stop(started: list, commands: list, channels: list, abort: bool) -> None:
    """End the pass's workers within ``_STOP_BOUND`` and release the channels.

    On an abort every worker is told to exit; a process still alive at the
    bound is terminated.
    """
    if abort:
        for channel in commands:
            channel.send(ExitCommand())
    deadline = monotonic() + _STOP_BOUND
    for worker in started:
        worker.join(max(deadline - monotonic(), 0.0))
    for worker in started:
        if isinstance(worker, threading.Thread):
            continue
        if worker.is_alive():
            worker.terminate()
        worker.join()
        worker.close()
    # the master sent on the command channels only; joining their feeder
    # threads leaves none alive for the next pass's fork
    for channel in channels:
        channel.close()


def run_particle_filter(
    model_factory: Callable[[], Model],
    parameters: Parameters,
    observations: ObservationSeries,
    ensemble_size: int,
    workers: int,
    *,
    chain_index: int = 0,
    sample_index: int = 0,
    resampler: Callable = resample_multinomial,
    transfer_delay: float = 0.0,
    timeout: float = DEFAULT_TIMEOUT,
    worker_dependent_seed_fault: bool = False,
) -> FilterResult:
    """Run one parallel filtering pass and estimate the marginal likelihood.

    With ``workers >= 2`` each worker is a forked process where the
    platform can fork, so ``model_factory`` runs there: it may be any
    callable, a closure included, but what it changes (counters, globals,
    caches) stays in the worker process and is not visible to the caller.

    ``worker_dependent_seed_fault`` deliberately mixes the worker count
    into the resampling seed; the verification suite uses it to prove the
    worker-count invariance check can fail.
    """
    if ensemble_size < 1:
        raise ValidationError(f"ensemble size must be >= 1, got {ensemble_size}")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    if not isinstance(observations, ObservationSeries):
        raise ValidationError("observations must be an ObservationSeries")
    if not isinstance(parameters, Parameters):
        raise ValidationError("parameters must be a Parameters instance")

    n = len(observations)
    p = ensemble_size
    context = _fork_context() if workers >= 2 else None
    commands = [Channel(context=context) for _ in range(workers)]
    reports = Channel(context=context)
    inboxes = [Channel(delay=transfer_delay, context=context) for _ in range(workers)]
    started: list = []      # worker threads or processes, by rank

    timings: list[StageTiming] = []
    rows: list[np.ndarray] = []
    resample_counts: list[tuple] = []
    redraw_rates: list[float] = []
    move_fractions: list[float] = []
    copy_fractions: list[float] = []
    degenerate: tuple = ()

    def _gather(expected_type, step: str) -> list:
        """One report from every rank, in arrival order; a timeout names
        the lowest rank not heard from."""
        gathered = []
        silent = set(range(workers))
        while silent:
            deadline = monotonic() + timeout
            while True:
                try:
                    message = reports.recv(min(_POLL_INTERVAL, max(deadline - monotonic(), 0.0)))
                    break
                except queue.Empty:
                    pass
                # a process killed by a signal, or ended by an uncaught
                # BaseException, sends no error report
                for rank, launcher in enumerate(started):
                    code = getattr(launcher, "exitcode", None)
                    if code not in (None, 0):
                        raise ProtocolError(f"worker process exited with code {code}",
                                            rank=rank, step=step)
                if monotonic() >= deadline:
                    raise ProtocolError(f"timed out gathering worker reports, none from ranks "
                                        f"{sorted(silent)}", rank=min(silent), step=step)
            if isinstance(message, ErrorReport):
                raise ProtocolError(message.message, rank=message.worker, step=message.step)
            if not isinstance(message, expected_type):
                raise ProtocolError(f"unexpected report {type(message).__name__}",
                                    rank=MASTER_RANK, step=step)
            silent.discard(message.worker)
            gathered.append(message)
        return gathered

    t_start = perf_counter()
    completed = False
    try:
        for rank in range(workers):
            runtime = _WorkerRuntime(
                rank, worker_lineages(rank, p, workers), model_factory, chain_index, commands[rank],
                reports, inboxes[rank], {w: inboxes[w] for w in range(workers)}, timeout,
            )
            if context is None:
                launcher = threading.Thread(target=runtime.run, name=f"pf-worker-{rank}", daemon=True)
            else:
                launcher = context.Process(target=_run_forked, args=(runtime,),
                                           name=f"pf-worker-{rank}", daemon=True)
            launcher.start()
            started.append(launcher)
        for rank in range(workers):
            commands[rank].send(Broadcast(sample_index, parameters))

        initialized = {}
        for report in _gather(InitReport, "2/init-gather"):
            timings.extend(report.timings)
            for lineage in report.lineage_ids:
                initialized[lineage] = report.worker
        if sorted(initialized) != list(range(p)):
            raise ProtocolError("initialized lineages do not cover the ensemble",
                                rank=MASTER_RANK, step="2/init-gather")
        held = np.array([initialized[lineage] for lineage in range(p)])   # worker of each lineage

        marks: list[tuple] = []
        for j, (target_time, data) in enumerate(observations, start=1):
            for rank in range(workers):
                commands[rank].send(Advance(j, target_time, data))
            t0 = perf_counter()
            gathered_ids, gathered_weights = [], []
            for report in _gather(WorkerReport, f"5/gather[{j}]"):
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
            if shift == -np.inf:
                degenerate = (j,)
                break

            if j == n:
                break

            # step 7: virtual resampling on the master
            t0 = perf_counter()
            probs = normalize_weights(np.exp(row - shift))
            seed = derive_seed(SeedKey(chain_index, sample_index, j, 0, RESAMPLE_STREAM))
            if worker_dependent_seed_fault:
                seed ^= workers
            counts = resampler(probs, p, seed)
            timings.append(StageTiming("resample", MASTER_RANK, sample_index, j,
                                       perf_counter() - t0))
            resample_counts.append(tuple(np.asarray(counts, dtype=np.int64).tolist()))
            redraw_rates.append(redraw_rate(counts))

            # step 8: routing
            t0 = perf_counter()
            routing = compute_routing(counts, held, workers)
            move, copy = traffic_metrics(routing)
            timings.append(StageTiming("route", MASTER_RANK, sample_index, j,
                                       perf_counter() - t0))
            move_fractions.append(move)
            copy_fractions.append(copy)

            # step 9: scatter slices
            for rank in range(workers):
                commands[rank].send(RouteCommand(j, routing.slice_table(rank), routing.W_max))
            held = routing.destination

        for rank in range(workers):
            commands[rank].send(ExitCommand())
        for report in _gather(ExitReport, "6/exit-gather"):
            timings.extend(report.timings)
            marks.extend(report.marks)
        completed = True
    finally:
        _stop(started, commands, [*commands, reports, *inboxes], abort=not completed)

    wall_time = perf_counter() - t_start
    estimate = estimate_marginal_from_log(np.vstack(rows))
    diagnostics = FilterDiagnostics(
        workers=workers,
        wall_time=wall_time,
        resample_counts=tuple(resample_counts),
        redraw_rates=tuple(redraw_rates),
        move_fractions=tuple(move_fractions),
        copy_fractions=tuple(copy_fractions),
        timings=tuple(timings),
        marks=tuple(sorted(marks, key=lambda m: m[3])),
        degenerate_observations=degenerate,
    )
    return FilterResult(estimate=estimate, diagnostics=diagnostics)
