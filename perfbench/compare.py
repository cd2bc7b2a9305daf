"""Compare two commits on the benchmark with alternating pairs of runs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--pairs 10]
    python3 perfbench/compare.py --summarize

BASE_DIR and CHANGE_DIR are checkouts of the two commits; each must hold
the same benchmark files (a change that claims a gain does not edit the
benchmark). Pair i runs every workload of BENCHMARK.json on both sides,
for its ``run_seconds``, with seed 1000 + i, base first on even pairs and
change first on odd ones. Each run writes a result file (result line,
full report, nproc, Python and numpy versions, git commit) under
perfbench/out/compare/base and .../change; ``--summarize`` re-reads them.

For each workload and end-to-end metric the summary prints one row: each
side's median and quartiles, the share of pairs the change won (ties
count for neither side) and a verdict:

* ``unresolved``  a side's quartile spread, as a share of its median, is
  wider than the bound, and the change did not beat the base on every run
* ``REGRESSION``  the change's median is worse than the base's by more
  than the bound
* ``gain``        the change won at least 9 of 10 pairs and the medians
  differ by more than the base's quartile spread
* ``same``        none of the above

It exits 1 on any REGRESSION, when the change fails a larger share of its
operations than the base, when a change-side run is not correct, or when
there are no paired results.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run

SIDES = ("base", "change")
FIRST_SEED = 1000
RESULTS = run.HERE / "out" / "compare"


def _benchmark_files(checkout: Path) -> list:
    files = [checkout / "BENCHMARK.json"]
    files += sorted(p for p in (checkout / run.HERE.name).rglob("*")
                    if p.is_file() and "out" not in p.relative_to(checkout).parts
                    and "__pycache__" not in p.parts)
    return [p.relative_to(checkout) for p in files]


def same_benchmark(base: Path, change: Path) -> bool:
    names = _benchmark_files(base)
    return names == _benchmark_files(change) and all(
        filecmp.cmp(base / name, change / name, shallow=False) for name in names)


def run_pairs(checkouts: dict, pairs: int, results: Path) -> None:
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in run.WORKLOADS:
            for side in order:
                out = results / side / f"{name}-pair{i:02d}.json"
                command = [sys.executable, f"{run.HERE.name}/run.py", "--workload", name,
                           "--seed", str(FIRST_SEED + i), "--seconds", str(run.SPEC["run_seconds"]),
                           "--trace", "0", "--out", str(out.resolve())]
                print(f"pair {i} {side} {name}", flush=True)
                subprocess.run(command, cwd=checkouts[side], check=True, timeout=600,
                               stdout=subprocess.DEVNULL)


def _load(results: Path) -> dict:
    """side -> workload -> pair index -> result file contents"""
    data: dict = {side: {} for side in SIDES}
    for side in SIDES:
        for path in sorted((results / side).glob("*-pair*.json")):
            record = json.loads(path.read_text())
            pair = int(path.stem.rsplit("-pair", 1)[1])
            data[side].setdefault(record["meta"]["workload"], {})[pair] = record
    return data


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _relative(difference: float, reference: float) -> float:
    """difference / |reference|; a zero reference (loglik_sd of the delay
    model) gives 0 when nothing changed and an infinite share otherwise."""
    if reference:
        return difference / abs(reference)
    return 0.0 if difference == 0 else math.copysign(math.inf, difference)


def verdict(base: list, change: list, better: str, bound: float) -> tuple[str, float]:
    """Verdict and share of pairs won for paired values (same pair order)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    won = wins / len(base)
    bq1, bmed, bq3 = _quartiles(base)
    cq1, cmed, cq3 = _quartiles(change)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if max(_relative(bq3 - bq1, bmed), _relative(cq3 - cq1, cmed)) > bound and not all_better:
        return "unresolved", won
    if sign * _relative(cmed - bmed, bmed) < -bound:
        return "REGRESSION", won
    if won >= 0.9 and abs(cmed - bmed) > bq3 - bq1:
        return "gain", won
    return "same", won


def summarize(results: Path) -> int:
    data = _load(results)
    if not set(data["base"]) & set(data["change"]):
        print(f"no paired results under {results}")
        return 1
    bounds = {**run.END_TO_END, **run.REPORT_ONLY}
    for side in SIDES:
        metas = {json.dumps({k: r["meta"][k] for k in ("nproc", "python", "numpy", "commit")})
                 for runs in data[side].values() for r in runs.values()}
        for meta in sorted(metas):
            print(f"{side}: {meta}")
    regressions = 0
    print(f"{'workload':18} {'metric':14} {'base median [q1, q3]':34} {'change median [q1, q3]':34} won  verdict")
    for workload in sorted(set(data["base"]) & set(data["change"])):
        pairs = sorted(set(data["base"][workload]) & set(data["change"][workload]))
        failed = {side: sum(data[side][workload][i]["result"]["failed"] for i in pairs) for side in SIDES}
        attempted = {side: sum(data[side][workload][i]["result"]["attempted"] for i in pairs) for side in SIDES}
        for name, (unit, better, bound) in bounds.items():
            if not all(name in data[side][workload][i]["report"] for side in SIDES for i in pairs):
                continue
            base = [data["base"][workload][i]["report"][name] for i in pairs]
            change = [data["change"][workload][i]["report"][name] for i in pairs]
            result, won = verdict(base, change, better, bound)
            regressions += result == "REGRESSION"
            cells = []
            for values in (base, change):
                q1, med, q3 = _quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {unit}")
            print(f"{workload:18} {name:14} {cells[0]:34} {cells[1]:34} {won:4.0%} {result}")
        incorrect = {side: sum(not data[side][workload][i]["result"]["correct"] for i in pairs) for side in SIDES}
        print(f"{workload:18} failed ops: base {failed['base']}/{attempted['base']}, "
              f"change {failed['change']}/{attempted['change']}; runs not correct: base "
              f"{incorrect['base']}, change {incorrect['change']}; over {len(pairs)} pairs")
        regressions += failed["change"] * attempted["base"] > failed["base"] * attempted["change"]
        regressions += incorrect["change"]
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--summarize", action="store_true", help="re-read the last comparison's results")
    args = parser.parse_args(argv)
    if args.summarize:
        return summarize(RESULTS)
    if args.base is None or args.change is None:
        parser.error("give BASE_DIR and CHANGE_DIR, or --summarize")
    if args.pairs < 10:
        parser.error("a comparison needs at least 10 pairs")
    if not same_benchmark(args.base, args.change):
        parser.error("the two checkouts hold different benchmark files")
    shutil.rmtree(RESULTS, ignore_errors=True)
    run_pairs({"base": args.base, "change": args.change}, args.pairs, RESULTS)
    return summarize(RESULTS)


if __name__ == "__main__":
    sys.exit(main())
