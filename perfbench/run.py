"""Benchmark of the pmcmc engine: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; the engine is imported from that
checkout's ``src/`` and nowhere else. The run prepares the workload's
inputs from the seed, then attempts whole rounds of operations until
``--seconds`` have passed, checks every output, prints a report and, as
its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer metrics of the traced rounds plus the tracing
overhead. See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# name -> (unit, better, bound); the end-to-end metrics of every result line
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}
# name -> (unit, better); measured on every workload by a traced run
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
# end-to-end figures that only some workloads have; reported and compared,
# but not part of the one-line result every workload must fill
REPORT_ONLY = {
    "speedup_w2": ("x", "higher", 0.25),
    "loglik_sd": ("nats", "lower", 0.25),
}
# per-layer figures that only some workloads measure; printed, not in the result line
LAYER_REPORT_ONLY = {
    "executor.transfer_wait_s": "s",
    "sampler.evaluations": "count",
    "sampler.evaluate_s": "s",
    "sampler.overhead_s": "s",
    "sampler.acceptance_rate": "ratio",
    "sampler.log_std_mean": "nats",
    "cli.write_chain_s": "s",
    "cli.write_diagnostics_s": "s",
    "cli.diagnostics_bytes": "bytes",
    "trace.passes": "count",
    "trace.spans": "count",
}

SETUP_REPEATS = 9
# the engine's imports, timed in a fresh interpreter (they cannot be repeated in one)
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy, yaml, pmcmc.cli; print(time.perf_counter() - t)")


def _import_engine():
    """Import pmcmc from this checkout's src/ only; exit 2 when it is absent."""
    if not (SRC / "pmcmc" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pmcmc
    if Path(pmcmc.__file__).resolve().parent != (SRC / "pmcmc").resolve():
        print(f"error: pmcmc imported from {pmcmc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def describe_timing(values, unit: str) -> str:
    """Median alone below 40 samples; above, also the highest percentile
    with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {median(ordered):.6g} {unit}"
    if n >= 40:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g} {unit}"
    return text + f" (n={n})"


def import_seconds() -> float:
    """Import time of the engine in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                           text=True, timeout=120, check=True)
    return float(probe.stdout)


def steal_ticks():
    """(steal, total) CPU ticks of the whole machine so far, or None without /proc/stat.

    Steal is time the hypervisor gave to other guests while this one was
    runnable; a run with much of it measured a slower machine.
    """
    try:
        with open("/proc/stat") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, where the engine runs; the
    import probes are measuring tools and are not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_meta() -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        spans_path: Path | None = None) -> tuple[dict, dict, list]:
    """Run one workload; returns (result line, full report, report lines)."""
    import workloads
    from tracer import Tracer, layer_metrics, sampler_metrics

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=out_dir))
    tracer = Tracer() if trace else None
    try:
        wl = workloads.make(workload_name, seed, workdir, scale)
        setups = []                     # (import seconds, preparation seconds)

        def set_up():
            start = time.perf_counter()
            if tracer is None:
                wl.prepare()
            else:
                with tracer.installed():
                    wl.prepare()
            preparation = time.perf_counter() - start
            setups.append((import_seconds(), preparation))

        set_up()                        # the first set-up precedes every timed operation
        steal_before = steal_ticks()
        begin = time.perf_counter()
        index = 0
        # at least one round; a traced run ends on a traced round so both kinds are present
        while index < (2 if trace else 1) or time.perf_counter() < begin + seconds or (trace and index % 2):
            # the other set-ups are spread over the run, so that they meet the
            # same host as the rounds do rather than one moment of it
            if len(setups) < SETUP_REPEATS and time.perf_counter() >= begin + seconds * len(setups) / SETUP_REPEATS:
                set_up()
            if trace and index % 2:
                with tracer.installed():
                    wl.run_round(index, tracer)
            else:
                wl.run_round(index, None)
            index += 1
        steal_after = steal_ticks()
        wl.check_rounds()
        while len(setups) < SETUP_REPEATS:
            set_up()
        aggregate = wl.aggregate_failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # a whole-run check speaks of every headline operation it was computed from
    for op in wl.ops:
        if op.workers == wl.headline:
            op.failures += aggregate

    attempted = len(wl.ops)
    failed = sum(1 for op in wl.ops if op.failures)
    lines = [f"workload {workload_name} seed {seed}: {index} rounds, {attempted} operations "
             f"attempted, {failed} failed"]
    for op in wl.ops:
        for failure in op.failures:
            if failure not in aggregate:
                lines.append(f"  FAILED ({op.workers} workers): {failure}")
    for failure in aggregate:
        lines.append(f"  FAILED (whole run, so every {wl.headline}-worker operation): {failure}")

    e2e = wl.end_to_end()
    setup_times = [i + p for i, p in setups]
    values = {
        "setup_s": median(setup_times),
        "pass_s": median(e2e["pass_s"]),
        "samples_per_s": e2e["samples_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    report = dict(values)
    lines.append(f"  setup_s: {describe_timing(setup_times, 's')}: import "
                 f"{median(i for i, _ in setups):.4g} s + input preparation {median(p for _, p in setups):.4g} s")
    lines.append(f"  pass_s: {describe_timing(e2e['pass_s'], 's')}, {wl.headline} workers")
    lines.append(f"  samples_per_s: {values['samples_per_s']:.6g} 1/s")
    lines.append(f"  peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
    for name, (unit, _better, _bound) in REPORT_ONLY.items():
        if name in e2e:
            report[name] = e2e[name]
            lines.append(f"  {name}: {e2e[name]:.6g} {unit} (reported, not in the result line)")
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        report["host_steal_share"] = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
        lines.append(f"  host steal: {report['host_steal_share']:.1%} of the machine's CPU time during the rounds")
    if hasattr(wl, "kalman_z"):
        lines.append(f"  Kalman oracle: z={wl.kalman_z:.3f} over {len(wl.estimates)} passes "
                     f"(limit {workloads.KALMAN_Z_LIMIT})")

    if trace:
        layers = layer_metrics(tracer, wl.headline)
        traced_ops, plain_ops = wl.op_seconds(True), wl.op_seconds(False)
        layers["trace.overhead_s"] = median(traced_ops) - median(plain_ops)
        if wl.kind == "chain":
            layers.update(sampler_metrics(tracer, wl.samples * (index // 2)))
            layers.update(wl.chain_report())
        lines.append(f"  tracing overhead: {layers['trace.overhead_s']:+.6g} s per operation "
                     f"(traced median {median(traced_ops):.6g} s, untraced {median(plain_ops):.6g} s)")
        for name in list(PER_LAYER) + list(LAYER_REPORT_ONLY):
            if name in layers:
                unit = PER_LAYER[name][0] if name in PER_LAYER else LAYER_REPORT_ONLY[name]
                lines.append(f"  {name}: {layers[name]:.6g} {unit}")
        report.update(layers)
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, (unit, _better) in PER_LAYER.items()}
        if spans_path is not None:
            tracer.write(spans_path, {"workload": workload_name, "seed": seed, "metrics": layers})
    else:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, (unit, _better, _bound) in END_TO_END.items()}

    result = {"correct": not aggregate, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the result, the report and the host description here")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2^32)")
    _import_engine()
    spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    result, report, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                spans_path=spans)
    for line in lines:
        print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "meta": {**host_meta(), "workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace},
            "result": result, "report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
