"""Span and counter recording around the engine's public functions.

The benchmark never edits the program. In a traced round it replaces a
fixed set of module attributes with timing wrappers and restores them
afterwards, so untraced rounds run the program exactly as users do.

Two kinds of record are kept in memory:

* spans, for calls made a few times per pass (the pass itself, the
  likelihood estimate, the routing computation, the chain, the CLI's file
  IO and config loading): id, name, start, end, parent span id, thread.
* call aggregates, for calls made once per particle or per message
  (seed derivation, model save/load/reseed/construction, message
  encode/decode): count, seconds and bytes per (enclosing span, thread,
  name). Recording each of these as a span would cost more memory than
  the pass itself.

A span's self time is its duration minus the time its same-thread child
spans and aggregated calls cover. Worker threads have no span of their
own, so their calls are charged to the pass that started them.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import pmcmc.cli
import pmcmc.config
import pmcmc.executor
import pmcmc.sampler
import pmcmc.transport
from pmcmc.transport import ParticleTransfer

PASS = "executor.pass"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, thread)
        self._calls: list[tuple] = []       # (thread name, aggregate table), one per thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._current_pass = None           # span id of the pass in flight
        self._registry = threading.Lock()
        self.pass_results: dict = {}        # pass span id -> FilterResult

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = defaultdict(lambda: [0, 0.0, 0])
            with self._registry:
                self._calls.append((threading.current_thread().name, table))
        return table

    def _parent(self):
        stack = self._stack()
        return stack[-1] if stack else self._current_pass

    def span(self, name: str, function):
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._parent()
            stack = self._stack()
            stack.append(span_id)
            is_pass = name == PASS
            if is_pass:
                self._current_pass = span_id
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if is_pass:
                    self.pass_results[span_id] = result
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_pass:
                    self._current_pass = None
                self.spans.append((span_id, name, start, end, parent,
                                   threading.current_thread().name))
        return wrapper

    def call(self, name: str, function, size=None):
        """Aggregate wrapper; ``size(args, result)`` adds to the byte column."""
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = function(*args, **kwargs)
            elapsed = perf_counter() - start
            entry = self._table()[(self._parent(), name)]
            entry[0] += 1
            entry[1] += elapsed
            if size is not None:
                entry[2] += size(args, result)
            return result
        return wrapper

    def _encode(self, function):
        encode = self.call("transport.encode", function, lambda args, out: len(out))

        def wrapper(message):
            if isinstance(message, ParticleTransfer):
                entry = self._table()[(self._parent(), "transport.transfer")]
                entry[0] += 1
                entry[2] += len(message.state)
            return encode(message)
        return wrapper

    def model_factory(self, factory):
        """Factory whose instances time save/load/reseed; construction is counted."""
        build = self.call("models.build", factory)
        blob_size = lambda args, out: len(out)   # noqa: E731

        def traced_factory(*args, **kwargs):
            model = build(*args, **kwargs)
            model.save = self.call("models.save", model.save, blob_size)
            model.load = self.call("models.load", model.load)
            model.reseed = self.call("models.reseed", model.reseed)
            return model
        return traced_factory

    def _model_entry(self, lookup):
        def wrapper(name):
            entry = lookup(name)
            return dataclasses.replace(entry, factory=self.model_factory(entry.factory))
        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of a traced round."""
        patches = [
            (pmcmc.executor, "derive_seed", lambda f: self.call("core.derive_seed", f)),
            (pmcmc.sampler, "derive_seed", lambda f: self.call("core.derive_seed", f)),
            (pmcmc.executor, "estimate_marginal_from_log", lambda f: self.span("filtering.estimate", f)),
            (pmcmc.executor, "compute_routing", lambda f: self.span("routing.compute", f)),
            (pmcmc.transport, "encode_message", self._encode),
            (pmcmc.transport, "decode_message", lambda f: self.call("transport.decode", f)),
            (pmcmc.executor, "run_particle_filter", lambda f: self.span(PASS, f)),
            (pmcmc.sampler, "run_particle_filter", lambda f: self.span(PASS, f)),
            (pmcmc.cli, "run_chain", lambda f: self.span("sampler.chain", f)),
            (pmcmc.cli, "read_observations", lambda f: self.span("cli.read_observations", f)),
            (pmcmc.cli, "write_chain_csv", lambda f: self.span("cli.write_chain", f)),
            (pmcmc.cli, "write_diagnostics_csv", lambda f: self.span("cli.write_diagnostics", f)),
            (pmcmc.cli, "load_config", lambda f: self.span("config.load", f)),
            (pmcmc.config, "load_config", lambda f: self.span("config.load", f)),
            (pmcmc.cli, "get_model_entry", self._model_entry),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrap in patches:
                setattr(module, attr, wrap(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # -- analysis -------------------------------------------------------

    def pass_of(self) -> dict:
        """Map every span id to the id of the pass it belongs to (or None)."""
        parent = {s[0]: s[4] for s in self.spans}
        name = {s[0]: s[1] for s in self.spans}
        owner = {}
        for span_id in parent:
            node = span_id
            while node is not None and name.get(node) != PASS:
                node = parent.get(node)
            owner[span_id] = node
        return owner

    def per_pass(self) -> dict:
        """pass id -> {name: [calls, seconds, bytes]} over spans and aggregates."""
        owner = self.pass_of()
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0]))
        for span_id, name, start, end, _parent, _thread in self.spans:
            if name != PASS and owner.get(span_id) is not None:
                entry = out[owner[span_id]][name]
                entry[0] += 1
                entry[1] += end - start
        for _thread, table in self._calls:
            for (span_id, name), (count, seconds, size) in list(table.items()):
                pass_id = owner.get(span_id)
                if pass_id is None:
                    continue
                entry = out[pass_id][name]
                entry[0] += count
                entry[1] += seconds
                entry[2] += size
        return out

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of one span name over the whole trace."""
        durations = [s[3] - s[2] for s in self.spans if s[1] == name]
        return len(durations), sum(durations)

    def self_times(self) -> dict:
        """Span name -> total self time over the trace."""
        covered: dict = defaultdict(float)
        thread_of = {s[0]: s[5] for s in self.spans}
        for span_id, _name, start, end, parent, thread in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                covered[parent] += end - start
        for thread, table in self._calls:
            for (span_id, _name), (_count, seconds, _size) in list(table.items()):
                if span_id is not None and thread_of.get(span_id) == thread:
                    covered[span_id] += seconds
        out: dict = defaultdict(float)
        for span_id, name, start, end, _parent, _thread in self.spans:
            out[name] += (end - start) - covered[span_id]
        return dict(out)

    def write(self, path, summary: dict) -> None:
        records = {
            "summary": summary,
            "self_seconds": self.self_times(),
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "thread"), s))
                      for s in self.spans],
            "calls": [{"thread": thread, "span": span_id, "name": name,
                       "count": count, "seconds": seconds, "bytes": size}
                      for thread, table in self._calls
                      for (span_id, name), (count, seconds, size) in list(table.items())],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, workers: int) -> dict:
    """Per-layer metrics, averaged over the traced passes run with ``workers``.

    Stage times come from the engine's own StageTiming records, summed
    over the master and the workers; call counts, bytes and the times of
    wrapped functions come from the tracer.
    """
    from pmcmc.instrumentation import MASTER_RANK, compute_efficiency

    per_pass = tracer.per_pass()
    rows = []
    for pass_id, result in tracer.pass_results.items():
        d = result.diagnostics
        if d.workers != workers:
            continue
        calls = per_pass.get(pass_id, {})
        get = lambda name, column: calls[name][column] if name in calls else 0   # noqa: E731
        stage: dict = defaultdict(float)
        master = 0.0
        for t in d.timings:
            stage[t.stage] += t.duration
            if t.worker == MASTER_RANK:
                master += t.duration
        sample_index = d.timings[0].sample_index
        rows.append({
            "core.derive_seed_calls": get("core.derive_seed", 0),
            "core.derive_seed_s": get("core.derive_seed", 1),
            "models.run_s": stage["run"],
            "models.observe_s": stage["observe"],
            "models.init_s": stage["init"],
            "models.instances_built": get("models.build", 0),
            "models.save_calls": get("models.save", 0),
            "models.save_bytes": get("models.save", 2),
            "models.save_s": get("models.save", 1),
            "models.load_calls": get("models.load", 0),
            "models.load_s": get("models.load", 1),
            "models.reseed_calls": get("models.reseed", 0),
            "models.reseed_s": get("models.reseed", 1),
            "filtering.resample_s": stage["resample"],
            "filtering.estimate_s": get("filtering.estimate", 1),
            "filtering.redraw_rate": _mean(d.redraw_rates),
            "routing.route_s": stage["route"],
            "routing.compute_s": get("routing.compute", 1),
            "routing.move_fraction": _mean(d.move_fractions),
            "routing.copy_fraction": _mean(d.copy_fractions),
            "executor.replicate_s": stage["replicate"],
            "executor.gather_s": stage["likelihood-gather"],
            "executor.transfer_wait_s": stage["transfer-wait"],
            "executor.init_sync_s": stage["init-sync"],
            "executor.busy_share": compute_efficiency(d.timings, sample_index, d.workers,
                                                      d.wall_time).efficiency,
            "executor.residual_s": d.wall_time - master,
            "transport.messages": get("transport.encode", 0),
            "transport.bytes": get("transport.encode", 2),
            "transport.encode_s": get("transport.encode", 1),
            "transport.decode_s": get("transport.decode", 1),
            "transport.transfers": get("transport.transfer", 0),
            "transport.transfer_bytes": get("transport.transfer", 2),
        })
    out = {name: _mean(row[name] for row in rows) for name in (rows[0] if rows else {})}
    for name, span in (("config.load_s", "config.load"),
                       ("cli.read_observations_s", "cli.read_observations"),
                       ("cli.write_chain_s", "cli.write_chain"),
                       ("cli.write_diagnostics_s", "cli.write_diagnostics")):
        count, seconds = tracer.totals(span)
        if count:
            out[name] = seconds / count
    out["trace.passes"] = len(rows)
    out["trace.spans"] = len(tracer.spans)
    return out


def sampler_metrics(tracer: Tracer, samples: int) -> dict:
    """Per-sample sampler figures of the traced chain runs."""
    chains = {s[0]: s for s in tracer.spans if s[1] == "sampler.chain"}
    evaluations = [s for s in tracer.spans if s[1] == PASS and s[4] in chains]
    evaluate = sum(s[3] - s[2] for s in evaluations)
    chain = sum(s[3] - s[2] for s in chains.values())
    return {
        "sampler.evaluations": len(evaluations) / samples,
        "sampler.evaluate_s": evaluate / samples,
        "sampler.overhead_s": (chain - evaluate) / samples,
    }
