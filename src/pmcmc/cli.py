"""Command-line entry points: synth, run, check.

synth writes a synthetic observation CSV for the configured model, run
executes the full MCMC experiment and emits chain and diagnostics CSVs,
check runs a built-in verification suite that needs no data files.

CSV conventions: fixed column order, '.' decimal separator, '\\n' line
endings, floats in shortest round-trip form. chain.csv is identical for
any worker count; diagnostics.csv contains wall-clock measurements and
is not expected to be.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import EngineConfig, load_config
from .core import EngineError, ObservationSeries, Parameters, ValidationError, make_stream
from .executor import run_particle_filter, worker_lineages
from .models import get_model_entry, kalman_log_marginal
from .models.linear_gaussian import synthesize_linear_gaussian
from .routing import compute_routing
from .sampler import ChainRecord, SamplerSettings, run_chain

__all__ = ["main", "cmd_synth", "cmd_run", "cmd_check", "read_observations",
           "write_chain_csv", "write_diagnostics_csv"]


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# Observation CSV IO
# ---------------------------------------------------------------------------


def write_observations(series: ObservationSeries, fields: Sequence[str], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time", *fields])
        for time, record in series:
            writer.writerow([_format_value(time), *(_format_value(record[f]) for f in fields)])


def read_observations(path: Path, model_name: str) -> ObservationSeries:
    entry = get_model_entry(model_name)
    expected = ["time", *entry.fields]
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read observations {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty observation file") from None
    if header != expected:
        raise ValidationError(f"{path}: header must be {','.join(expected)!r}, got {','.join(header)!r}")
    times = []
    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise ValidationError(f"{path} line {line_no}: expected {len(expected)} columns, got {len(row)}")
        try:
            time = float(row[0])
        except ValueError:
            time = math.nan
        if not math.isfinite(time):
            raise ValidationError(f"{path} line {line_no}, field 'time': not a finite number: {row[0]!r}")
        times.append(time)
        record = {}
        for field, text_value in zip(entry.fields, row[1:]):
            try:
                record[field] = entry.parse_value(field, text_value)
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path} line {line_no}, field {field!r}: {exc}") from None
        records.append(record)
    return ObservationSeries(times, records)


# ---------------------------------------------------------------------------
# Result CSV emission
# ---------------------------------------------------------------------------


def write_chain_csv(records: Sequence[ChainRecord], path: Path) -> None:
    names = records[0].theta.names
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["sample", *(f"theta_{n}" for n in names),
                         "log_likelihood", "log_std", "log_prior", "accepted"])
        for record in records:
            writer.writerow([
                record.sample_index,
                *(_format_value(record.theta[n]) for n in names),
                _format_value(record.log_likelihood),
                _format_value(record.log_std),
                _format_value(record.log_prior),
                "1" if record.accepted else "0",
            ])


def write_diagnostics_csv(records: Sequence[ChainRecord], path: Path) -> None:
    """Two row kinds share the column set; unused cells stay empty.

    Traffic rows carry (observation, redraw_rate, move_fraction,
    copy_fraction) per resampling event; timing rows carry (observation,
    stage, worker, duration) per measured stage, worker -1 being the
    master. Observation 0 marks initialization stages.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["sample", "observation", "redraw_rate", "move_fraction",
                         "copy_fraction", "stage", "worker", "duration"])
        for record in records:
            fd = record.filter
            if fd is None:
                continue
            for event, (rr, mv, cp) in enumerate(
                    zip(fd.redraw_rates, fd.move_fractions, fd.copy_fractions), start=1):
                writer.writerow([record.sample_index, event, _format_value(rr),
                                 _format_value(mv), _format_value(cp), "", "", ""])
            for t in fd.timings:
                writer.writerow([record.sample_index, t.observation_index, "", "", "",
                                 t.stage, t.worker, _format_value(t.duration)])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(config: EngineConfig) -> int:
    entry = get_model_entry(config.model_name)
    if entry.synthesizer is None:
        raise ValidationError(f"model {config.model_name!r} does not support synthesis")
    if config.observations_path is None:
        raise ValidationError("observations_path is required to write synthetic data")
    series = entry.synthesizer(config.model_config, config.initial,
                               config.schedule.times, config.seed)
    write_observations(series, entry.fields, config.observations_path)
    print(f"wrote {len(series)} observations to {config.observations_path}")
    return 0


def cmd_run(config: EngineConfig) -> int:
    if config.observations_path is None:
        raise ValidationError("observations_path is required to run the sampler")
    entry = get_model_entry(config.model_name)
    observations = read_observations(config.observations_path, config.model_name)
    settings = SamplerSettings(
        initial=config.initial,
        samples=config.samples,
        scales=config.proposal_scales,
        prior=config.make_prior(),
        ensemble_size=config.particles,
        workers=config.workers,
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)      # fail before the chain, not after
    records = run_chain(settings, lambda: entry.factory(config.model_config),
                        observations, chain_index=config.seed)
    chain_path = config.output_dir / "chain.csv"
    diagnostics_path = config.output_dir / "diagnostics.csv"
    write_chain_csv(records, chain_path)
    write_diagnostics_csv(records, diagnostics_path)
    accepted = sum(r.accepted for r in records)
    print(f"{len(records)} samples, {accepted} accepted "
          f"({accepted / len(records):.1%}); wrote {chain_path} and {diagnostics_path}")
    return 0


# -- the built-in verification suite ----------------------------------------


def _check_pf_vs_kalman(seed: int, fault: bool) -> tuple[bool, str]:
    times = tuple(range(1, 7))
    observations = synthesize_linear_gaussian(Parameters({}), times, seed)
    exact = math.exp(kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0, observations))
    replicates = 20
    values = np.empty(replicates)
    from .models.linear_gaussian import LinearGaussianModel
    for rep in range(replicates):
        result = run_particle_filter(LinearGaussianModel, Parameters({}), observations,
                                     200, 1, chain_index=seed, sample_index=rep)
        values[rep] = math.exp(result.estimate.log_value)
    se = values.std(ddof=1) / math.sqrt(replicates)
    z = abs(values.mean() - exact) / se
    return z < 4.0, f"mean {values.mean():.3e} vs exact {exact:.3e}, z={z:.2f} (limit 4)"


def _check_routing_battery(seed: int, fault: bool) -> tuple[bool, str]:
    rng = make_stream(seed)
    instances = 200
    for case in range(instances):
        p = int(rng.integers(1, 65))
        workers = int(rng.integers(1, 17))
        probs = rng.dirichlet(np.ones(p))
        counts = rng.multinomial(p, probs)
        if case % 10 == 0:
            # identity resample on a balanced layout must cost nothing
            counts = np.ones(p, dtype=int)
            held = np.array([w for w in range(workers) for _ in worker_lineages(w, p, workers)])
        else:
            held = np.sort(rng.integers(0, workers, size=p))
        routing = compute_routing(counts, held, workers)
        w_max = -(-p // workers)
        loads = np.bincount(routing.destination, weights=routing.copies, minlength=workers)
        moved = routing.destination != routing.source
        if routing.ensemble_size != p:
            return False, f"case {case}: {routing.ensemble_size} entries for p={p}"
        if loads.max() > w_max:
            return False, f"case {case}: load limit {w_max} exceeded"
        for worker in sorted(set(routing.source[moved].tolist())):
            if loads[worker] < w_max:
                return False, f"case {case}: moved off worker {worker} despite spare capacity"
        # an identity resample stays put wherever its layout fits the capacity
        if all(c == 1 for c in counts) and np.bincount(held).max() <= w_max and moved.any():
            return False, f"case {case}: identity resample produced moves"
    return True, f"{instances} randomized instances satisfied all routing properties"


def _check_worker_invariance(seed: int, fault: bool) -> tuple[bool, str]:
    from .models.linear_gaussian import LinearGaussianModel
    times = tuple(range(1, 6))
    observations = synthesize_linear_gaussian(Parameters({}), times, seed + 1)
    outcomes = []
    for workers in (1, 2, 4):
        result = run_particle_filter(LinearGaussianModel, Parameters({}), observations,
                                     32, workers, chain_index=seed, sample_index=0,
                                     worker_dependent_seed_fault=fault)
        outcomes.append((result.estimate.log_value, result.estimate.log_std,
                         result.estimate.per_observation_means))
    identical = all(outcome == outcomes[0] for outcome in outcomes[1:])
    return identical, ("estimates identical for W in {1,2,4}" if identical
                       else "estimates differ across worker counts")


def cmd_check(seed: int, *, fault: bool = False) -> int:
    checks = [
        ("pf-vs-kalman", _check_pf_vs_kalman),
        ("routing-battery", _check_routing_battery),
        ("worker-invariance", _check_worker_invariance),
    ]
    failures = 0
    for name, check in checks:
        ok, detail = check(seed, fault)
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcmc",
        description="Particle MCMC engine: calibrate stochastic models against time series.",
    )
    options = {
        "--config": dict(type=Path, metavar="PATH", help="YAML engine configuration"),
        "--workers": dict(type=int, metavar="N", help="override the configured worker count"),
        "--seed": dict(type=int, metavar="S", help="override the configured seed"),
        "--output": dict(type=Path, metavar="DIR", dest="output_dir",
                         help="override the configured output directory"),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in (
        ("synth", "write a synthetic observation CSV for the configured model", ("--config", "--seed")),
        ("run", "run the MCMC chain and write chain.csv and diagnostics.csv", tuple(options)),
        ("check", "run the built-in verification suite (needs no data files)", ("--config", "--seed")),
    ):
        cmd = sub.add_parser(name, help=help_text)
        for flag in flags:
            cmd.add_argument(flag, **options[flag])
        if name == "check":
            cmd.add_argument("--fault-worker-seeds", action="store_true",
                             help="deliberately tie resampling seeds to the worker count "
                                  "(the invariance check must then fail)")
    return parser


def _load_with_overrides(args) -> EngineConfig | None:
    if args.config is None:
        return None
    config = load_config(args.config)
    updates = {name: value for name, value in vars(args).items()
               if name in ("workers", "seed", "output_dir") and value is not None}
    return replace(config, **updates) if updates else config


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise ValidationError(f"--seed must be an integer in [0, 2**64), got {args.seed}")
        config = _load_with_overrides(args)
        if args.command == "check":
            seed = args.seed if config is None else config.seed
            return cmd_check(7 if seed is None else seed, fault=args.fault_worker_seeds)
        if config is None:
            raise ValidationError(f"{args.command} requires --config PATH")
        if args.command == "synth":
            return cmd_synth(config)
        return cmd_run(config)
    except (EngineError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
