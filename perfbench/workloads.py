"""The four benchmark workloads: inputs, timed operations and their checks.

Every workload prepares its inputs the way a user does: it writes an
engine config and an observation CSV into a work directory, then loads
them back through ``pmcmc.config.load_config`` and
``pmcmc.cli.read_observations``. The seed picks the synthetic data and
the chain index of every pass, so another seed gives another data set
and other particle streams.

A round is a fixed set of operations (filter passes or chain samples);
runs attempt whole rounds, so the share of failed operations does not
depend on how long a run is. Each check is computed apart from the
program or is a property the method must have; none compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import yaml

import pmcmc.cli
import pmcmc.config
import pmcmc.executor
import pmcmc.models
from pmcmc.core import Parameters

# |mean(L_hat / L) - 1| over the replicates must stay below this many
# standard errors; for the ~30 replicates of a run the false-failure rate
# is below 1e-5 on any data set.
KALMAN_Z_LIMIT = 6.0
PRIOR_TOLERANCE = 1e-12


@dataclass
class Op:
    """One timed operation: a filter pass, or one sample of a chain run."""

    workers: int
    seconds: float
    traced: bool
    failures: list = field(default_factory=list)


def kalman_log_marginal(a, q, r, m0, s0, times, ys) -> float:
    """Exact log marginal likelihood of the scalar AR(1)-plus-noise model,
    written here apart from the program's own oracle."""
    mean, var, prev, total = m0, s0 * s0, 0, 0.0
    for t, y in zip(times, ys):
        for _ in range(int(t) - prev):
            mean, var = a * mean, a * a * var + q * q
        s = var + r * r
        total -= 0.5 * (math.log(2.0 * math.pi * s) + (y - mean) ** 2 / s)
        gain = var / s
        mean, var, prev = mean + gain * (y - mean), (1.0 - gain) * var, int(t)
    return total


def lognormal_log_density(x: float, mu: float, sigma: float) -> float:
    if x <= 0.0:
        return -math.inf
    return -math.log(x * sigma * math.sqrt(2.0 * math.pi)) - (math.log(x) - mu) ** 2 / (2.0 * sigma * sigma)


def quiet(function, *args):
    """Call a CLI entry point, returning (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = function(*args)
    return code, out.getvalue()


def _config_text(model: dict, prior: dict, initial: dict, scales: dict, schedule: tuple,
                 samples: int, particles: int, workers: int, seed: int) -> str:
    init_steps, observations, spacing = schedule
    return yaml.safe_dump({
        "config_version": 1,
        "model": model,
        "prior": prior,
        "initial": initial,
        "proposal_scales": scales,
        "schedule": {"init_steps": init_steps, "observations": observations, "spacing": spacing},
        "samples": samples,
        "particles": particles,
        "workers": workers,
        "seed": seed,
        "observations_path": "obs.csv",
        "output_dir": "out",
    }, sort_keys=False)


def pass_failures(result, p: int, zero_likelihood: bool) -> list:
    """Properties every filter pass must have."""
    failures = []
    estimate, diagnostics = result.estimate, result.diagnostics
    if any(sum(counts) != p for counts in diagnostics.resample_counts):
        failures.append("resampling counts do not sum to p")
    if not all(0.0 < rate <= 1.0 for rate in diagnostics.redraw_rates):
        failures.append("redraw rate outside (0, 1]")
    if zero_likelihood:
        if estimate.log_value != 0.0 or estimate.log_std != 0.0:
            failures.append(f"delay model estimate {estimate.log_value!r}, {estimate.log_std!r} is not exactly 0")
    elif not (math.isfinite(estimate.log_value) and math.isfinite(estimate.log_std) and estimate.log_std > 0.0):
        failures.append(f"estimate {estimate.log_value!r} +- {estimate.log_std!r} is not finite with log_std > 0")
    return failures


def invariance_failures(first, second) -> list:
    """The same pass at two worker counts must give identical estimates."""
    a, b = first.estimate, second.estimate
    if (a.log_value, a.log_std, a.per_observation_means) != (b.log_value, b.log_std, b.per_observation_means):
        return [f"estimates differ across worker counts: {a.log_value!r} vs {b.log_value!r}"]
    if first.diagnostics.resample_counts != second.diagnostics.resample_counts:
        return ["resampling counts differ across worker counts"]
    return []


class PassWorkload:
    """Filter passes through ``run_particle_filter`` at fixed parameters.

    ``workers`` lists the worker counts of one round; a round runs the
    same pass (same chain and sample index) at each of them, in an order
    that alternates between rounds.
    """

    kind = "pass"

    def __init__(self, model, prior, initial, scales, schedule, particles,
                 workers, passes_per_round, seed, workdir: Path):
        self.particles = particles
        self.workers = workers
        self.headline = max(workers)
        self.passes_per_round = passes_per_round
        self.seed = seed
        self.workdir = workdir
        self.config_text = _config_text(model, prior, initial, scales, schedule,
                                        1, particles, self.headline, seed)
        self.zero_likelihood = model["name"] == "delay"
        self.ops: list[Op] = []
        self.estimates: list = []       # headline-W estimates in pass order

    def prepare(self) -> None:
        path = self.workdir / "config.yaml"
        path.write_text(self.config_text)
        if self.zero_likelihood:
            # the delay model has no synthesizer: its records carry no fields
            config = pmcmc.config.load_config(path)
            times = "".join(f"{t}\n" for t in config.schedule.times)
            (self.workdir / "obs.csv").write_text("time\n" + times)
        else:
            code, _ = quiet(pmcmc.cli.main, ["synth", "--config", str(path)])
            if code != 0:
                raise RuntimeError(f"pmcmc synth exited with {code}")
        self.config = pmcmc.config.load_config(path)
        self.observations = pmcmc.cli.read_observations(self.config.observations_path,
                                                        self.config.model_name)
        entry = pmcmc.models.get_model_entry(self.config.model_name)
        model_config = self.config.model_config
        self.factory = lambda: entry.factory(model_config)

    def run_round(self, index: int, tracer) -> None:
        factory = self.factory if tracer is None else tracer.model_factory(self.factory)
        order = self.workers if index % 2 == 0 else tuple(reversed(self.workers))
        for k in range(self.passes_per_round):
            sample_index = index * self.passes_per_round + k
            results = {}
            ops = []
            for workers in order:
                start = perf_counter()
                result = pmcmc.executor.run_particle_filter(
                    factory, self.config.initial, self.observations, self.particles, workers,
                    chain_index=self.seed, sample_index=sample_index)
                op = Op(workers, perf_counter() - start, tracer is not None)
                op.failures = pass_failures(result, self.particles, self.zero_likelihood)
                results[workers] = result
                ops.append(op)
            if len(results) > 1:
                mismatch = invariance_failures(results[self.workers[0]], results[self.workers[-1]])
                for op in ops:
                    op.failures += mismatch
            self.ops += ops
            self.estimates.append(results[self.headline].estimate)

    def check_rounds(self) -> None:
        """Passes are checked as they finish."""

    def aggregate_failures(self) -> list:
        """Checks over the whole run rather than one operation."""
        if self.config.model_name != "linear_gaussian" or len(self.estimates) < 2:
            return []
        cfg = {"a": 0.9, "q": 1.0, "r": 1.0, "m0": 0.0, "s0": 1.0}
        cfg.update({k: float(v) for k, v in self.config.model_config.items()})
        cfg.update({k: self.config.initial[k] for k in cfg if k in self.config.initial})
        exact = kalman_log_marginal(cfg["a"], cfg["q"], cfg["r"], cfg["m0"], cfg["s0"],
                                    self.observations.times,
                                    [record["y"] for record in self.observations.data])
        ratios = [math.exp(e.log_value - exact) for e in self.estimates]
        n = len(ratios)
        mean = sum(ratios) / n
        sd = math.sqrt(sum((x - mean) ** 2 for x in ratios) / (n - 1))
        z = abs(mean - 1.0) / (sd / math.sqrt(n))
        self.kalman_z = z
        if not z < KALMAN_Z_LIMIT:
            return [f"mean likelihood ratio to the Kalman oracle {mean:.4f} over {n} passes, "
                    f"z={z:.2f} (limit {KALMAN_Z_LIMIT})"]
        return []

    def end_to_end(self) -> dict:
        untraced = [op for op in self.ops if not op.traced]
        headline = [op.seconds for op in untraced if op.workers == self.headline]
        out = {
            "pass_s": headline,
            "samples_per_s": len(headline) / sum(headline),
        }
        if len(self.workers) > 1:
            w1 = [op.seconds for op in untraced if op.workers == 1]
            out["speedup_w2"] = median(w1) / median(headline)
        if len(self.estimates) > 1:
            values = [e.log_value for e in self.estimates]
            mean = sum(values) / len(values)
            out["loglik_sd"] = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        return out

    def op_seconds(self, traced: bool) -> list:
        return [op.seconds for op in self.ops if op.traced == traced and op.workers == self.headline]


class ChainWorkload:
    """A PMMH chain through ``pmcmc run``; one round is one run of the chain.

    Every round runs the same config, so the chain must come out byte for
    byte the same each time. The first round's rows are checked in full.
    """

    kind = "chain"
    PRIOR = {"K_prey": (3.2, 0.5), "K_pred": (2.7, 0.5)}

    def __init__(self, samples, particles, workers, seed, workdir: Path):
        self.samples = samples
        self.particles = particles
        self.headline = workers
        self.seed = seed
        self.workdir = workdir
        self.config_text = _config_text(
            {"name": "predator_prey", "profile": "desk"},
            {k: {"kind": "lognormal", "mu": mu, "sigma": sigma} for k, (mu, sigma) in self.PRIOR.items()},
            {"K_prey": 25.0, "K_pred": 15.0}, {"K_prey": 2.0, "K_pred": 1.5},
            (50, 10, 5), samples, particles, workers, seed)
        self.ops: list[Op] = []
        self.rounds: list = []          # (seconds, traced)
        self.reference = None           # chain.csv rows of the first round
        self.reference_failures = None
        self._pending: list = []        # outputs of the rounds not yet checked

    def prepare(self) -> None:
        path = self.workdir / "config.yaml"
        path.write_text(self.config_text)
        code, _ = quiet(pmcmc.cli.main, ["synth", "--config", str(path)])
        if code != 0:
            raise RuntimeError(f"pmcmc synth exited with {code}")
        self.config_path = path

    def run_round(self, index: int, tracer) -> None:
        out = self.workdir / "out"
        start = perf_counter()
        code, printed = quiet(pmcmc.cli.main, ["run", "--config", str(self.config_path), "--output", str(out)])
        seconds = perf_counter() - start
        self.rounds.append((seconds, tracer is not None))
        self.diagnostics_bytes = (out / "diagnostics.csv").stat().st_size if code == 0 else 0
        rows = _read_rows(out / "chain.csv") if code == 0 else []
        self._pending.append((code, printed, rows, seconds, tracer is not None))

    def check_rounds(self) -> None:
        """Checks of the rounds run so far; kept apart so that the W=1
        re-evaluations run after the timed rounds and untraced."""
        for pending in self._pending:
            self._check_round(*pending)
        self._pending = []

    def _check_round(self, code, printed, rows, seconds, traced) -> None:
        if code != 0 or len(rows) != self.samples:
            failures = [[f"pmcmc run exited with {code} and wrote {len(rows)} rows"]] * self.samples
        elif self.reference is None:
            self.reference = rows
            self.reference_failures = self._check_rows(rows, printed)
            failures = self.reference_failures
        else:
            failures = [list(f) + ([] if row == ref else ["row differs from the first run"])
                        for row, ref, f in zip(rows, self.reference, self.reference_failures)]
        per_sample = seconds / self.samples
        self.ops += [Op(self.headline, per_sample, traced, f) for f in failures]

    def _check_rows(self, rows, printed) -> list:
        failures = [[] for _ in rows]
        accepted = sum(row["accepted"] == "1" for row in rows)
        if f"{len(rows)} samples, {accepted} accepted" not in printed:
            failures[0].append(f"summary line {printed.strip()!r} disagrees with chain.csv")
        config = pmcmc.config.load_config(self.config_path)
        observations = pmcmc.cli.read_observations(config.observations_path, config.model_name)
        entry = pmcmc.models.get_model_entry(config.model_name)
        factory = lambda: entry.factory(config.model_config)   # noqa: E731
        keys = ("theta_K_prey", "theta_K_pred", "log_likelihood", "log_std", "log_prior")
        for i, row in enumerate(rows):
            if int(row["sample"]) != i:
                failures[i].append(f"sample column reads {row['sample']}")
            theta = {name: float(row[f"theta_{name}"]) for name in self.PRIOR}
            prior = sum(lognormal_log_density(theta[n], *self.PRIOR[n]) for n in self.PRIOR)
            stored = float(row["log_prior"])
            if not abs(prior - stored) <= PRIOR_TOLERANCE * max(1.0, abs(prior)):
                failures[i].append(f"log_prior {stored!r} but the lognormal density is {prior!r}")
            if row["accepted"] == "0":
                if i == 0 or any(row[k] != rows[i - 1][k] for k in keys):
                    failures[i].append("rejected sample does not repeat the previous state")
                continue
            result = pmcmc.executor.run_particle_filter(
                factory, Parameters(theta), observations, config.particles, 1,
                chain_index=config.seed, sample_index=i)
            if (result.estimate.log_value, result.estimate.log_std) != (float(row["log_likelihood"]), float(row["log_std"])):
                failures[i].append(f"W=1 re-evaluation gives {result.estimate.log_value!r}, "
                                   f"chain has {row['log_likelihood']}")
        return failures

    def aggregate_failures(self) -> list:
        return []

    def end_to_end(self) -> dict:
        untraced = [seconds for seconds, traced in self.rounds if not traced]
        return {
            "pass_s": [seconds / self.samples for seconds in untraced],
            "samples_per_s": self.samples * len(untraced) / sum(untraced),
        }

    def op_seconds(self, traced: bool) -> list:
        return [seconds / self.samples for seconds, t in self.rounds if t == traced]

    def chain_report(self) -> dict:
        rows = self.reference or []
        return {
            "sampler.acceptance_rate": sum(r["accepted"] == "1" for r in rows[1:]) / max(len(rows) - 1, 1),
            "sampler.log_std_mean": sum(float(r["log_std"]) for r in rows) / max(len(rows), 1),
            "cli.diagnostics_bytes": self.diagnostics_bytes,
        }


def _read_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def make(name: str, seed: int, workdir: Path, scale: float = 1.0):
    """Build a workload; ``scale`` < 1 shrinks it for the quick self-tests."""
    def size(n, floor=2):
        return max(floor, int(round(n * scale)))

    if name == "lg-oracle":
        return PassWorkload(
            {"name": "linear_gaussian"}, {"a": {"kind": "uniform", "lower": -1.0, "upper": 1.0}},
            {"a": 0.9}, {"a": 0.3}, (1, 10, 1), size(1000, 8), (1,), 4, seed, workdir)
    if name == "ibm-full-scaling":
        return PassWorkload(
            {"name": "predator_prey", "profile": "full"},
            {"K_prey": {"kind": "lognormal", "mu": 3.2, "sigma": 0.5},
             "K_pred": {"kind": "lognormal", "mu": 2.7, "sigma": 0.5}},
            {"K_prey": 25.0, "K_pred": 15.0}, {"K_prey": 2.0, "K_pred": 1.5},
            (50, size(10), 5), size(64, 4), (1, 2), 1, seed, workdir)
    if name == "ibm-desk-chain":
        return ChainWorkload(size(5), size(64, 4), 2, seed, workdir)
    if name == "delay-scaling":
        return PassWorkload(
            {"name": "delay", "delay_ms": 1.0}, {"x": {"kind": "uniform", "lower": -1.0, "upper": 1.0}},
            {"x": 0.0}, {"x": 0.1}, (1, 5, 1), size(256, 4), (1, 2), 1, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
