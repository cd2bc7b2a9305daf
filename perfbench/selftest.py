"""Quick tests of the benchmark itself: every workload path at tiny sizes
and every correctness check once, including a check that must fail.

    python3 perfbench/selftest.py

They are kept out of the repository's pytest suite (the file name does not
match ``test_*.py``) because they time real filter passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run._import_engine()

import pmcmc.executor  # noqa: E402
import workloads  # noqa: E402
from pmcmc.core import ObservationSeries, Parameters  # noqa: E402
from pmcmc.models import LinearGaussianModel, kalman_log_marginal  # noqa: E402
from pmcmc.models.linear_gaussian import synthesize_linear_gaussian  # noqa: E402
from pmcmc.sampler import LogNormalPrior  # noqa: E402

TINY = 0.02
OUT = run.HERE / "out"
OUT.mkdir(exist_ok=True)


def _lg_pass(workers, fault=False, p=16):
    observations = synthesize_linear_gaussian(Parameters({}), tuple(range(1, 6)), 3)
    return pmcmc.executor.run_particle_filter(
        LinearGaussianModel, Parameters({}), observations, p, workers,
        chain_index=5, worker_dependent_seed_fault=fault)


class WorkloadPaths(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for name in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result, report, lines = run.run(name, 11, 0.0, trace, scale=TINY)
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0, lines)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))

    def test_report_only_figures_are_not_benchmark_metrics(self):
        self.assertFalse(set(run.REPORT_ONLY) & set(run.END_TO_END))
        self.assertFalse(set(run.LAYER_REPORT_ONLY) & set(run.PER_LAYER))

    def test_a_failed_whole_run_check_fails_every_operation(self):
        limit = workloads.KALMAN_Z_LIMIT
        workloads.KALMAN_Z_LIMIT = 0.0         # no z lies below 0: the oracle check must fail
        try:
            result, _report, lines = run.run("lg-oracle", 11, 0.0, False, scale=TINY)
        finally:
            workloads.KALMAN_Z_LIMIT = limit
        self.assertFalse(result["correct"], lines)
        self.assertEqual(result["failed"], result["attempted"], lines)


class Checks(unittest.TestCase):
    def test_kalman_oracle_agrees_with_the_engine(self):
        observations = synthesize_linear_gaussian(Parameters({}), tuple(range(1, 11)), 101)
        ours = workloads.kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0, observations.times,
                                             [r["y"] for r in observations.data])
        theirs = kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0, observations)
        self.assertAlmostEqual(ours, theirs, places=10)

    def test_kalman_check_fails_on_a_biased_estimate(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = workloads.make("lg-oracle", 4, Path(tmp), TINY)
            wl.prepare()
            wl.run_round(0, None)
            self.assertEqual(wl.aggregate_failures(), [])
            exact = workloads.kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0, wl.observations.times,
                                                  [r["y"] for r in wl.observations.data])
            # a likelihood twice the exact one, estimated with little spread
            wl.estimates = [type(e)(exact + math.log(2.0) + 0.01 * k, e.log_std, e.per_observation_means,
                                    e.per_observation_variances) for k, e in enumerate(wl.estimates)]
            self.assertTrue(wl.aggregate_failures())

    def test_lognormal_density_agrees_with_the_engine_prior(self):
        for x in (0.5, 12.0, 25.0, 60.0):
            self.assertAlmostEqual(workloads.lognormal_log_density(x, 3.2, 0.5),
                                   LogNormalPrior(3.2, 0.5).log_density(x), places=12)

    def test_invariance_check_passes_and_sees_the_seed_fault(self):
        self.assertEqual(workloads.invariance_failures(_lg_pass(1), _lg_pass(2)), [])
        faulty = workloads.invariance_failures(_lg_pass(1, fault=True), _lg_pass(2, fault=True))
        self.assertTrue(faulty)

    def test_pass_properties(self):
        result = _lg_pass(2)
        self.assertEqual(workloads.pass_failures(result, 16, False), [])
        self.assertTrue(workloads.pass_failures(result, 17, False))      # counts do not sum to p
        self.assertTrue(workloads.pass_failures(result, 16, True))       # not the delay model's exact 0
        delay = pmcmc.executor.run_particle_filter(
            lambda: pmcmc.models.build_model("delay", {"delay_ms": 0.0}), Parameters({}),
            ObservationSeries((1, 2), ({}, {})), 8, 2)
        self.assertEqual(workloads.pass_failures(delay, 8, True), [])

    def test_chain_checks_catch_tampered_rows(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = workloads.make("ibm-desk-chain", 9, Path(tmp), TINY)
            wl.prepare()
            wl.run_round(0, None)
            wl.check_rounds()
            self.assertFalse(any(op.failures for op in wl.ops))
            rows = [dict(r) for r in wl.reference]
            printed = f"{len(rows)} samples, {sum(r['accepted'] == '1' for r in rows)} accepted"
            rows[0]["log_prior"] = repr(float(rows[0]["log_prior"]) + 1e-6)
            rows[1]["accepted"] = "0"
            rows[1]["log_likelihood"] = repr(float(rows[0]["log_likelihood"]) - 1.0)
            failures = wl._check_rows(rows, printed)
            self.assertTrue(failures[0])
            self.assertTrue(failures[1])
            # a later run that differs from the first is a failure of that sample
            wl.run_round(1, None)
            later = wl._pending[-1][2]
            later[0]["log_std"] = "0.5"
            wl.check_rounds()
            self.assertTrue(wl.ops[-len(later)].failures)


class Comparison(unittest.TestCase):
    def test_verdicts(self):
        import compare
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
        self.assertEqual(compare.verdict(base, [0.8] * 10, "lower", 0.25)[0], "gain")
        self.assertEqual(compare.verdict(base, [1.3] * 10, "lower", 0.25)[0], "REGRESSION")
        self.assertEqual(compare.verdict(base, list(base), "higher", 0.25)[0], "same")
        noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
        self.assertEqual(compare.verdict(base, noisy, "lower", 0.25)[0], "unresolved")
        self.assertEqual(compare.verdict([0.0] * 10, [0.0] * 10, "lower", 0.25)[0], "same")
        self.assertEqual(compare.verdict([0.0] * 10, [0.1] * 10, "lower", 0.25)[0], "REGRESSION")

    def test_an_incorrect_change_run_fails_the_comparison(self):
        import compare
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for side in compare.SIDES:
                for i in range(10):
                    values = {name: 1.0 for name in run.END_TO_END}
                    record = {"meta": {"nproc": 2, "python": "3", "numpy": "2", "commit": side,
                                       "workload": "lg-oracle"},
                              "result": {"correct": not (side == "change" and i == 3), "attempted": 40,
                                         "failed": 0, "metrics": {}},
                              "report": values}
                    path = Path(tmp) / side / f"lg-oracle-pair{i:02d}.json"
                    path.parent.mkdir(exist_ok=True)
                    path.write_text(json.dumps(record))
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(compare.summarize(Path(tmp)), 1)
                path =Path(tmp) / "change" / "lg-oracle-pair03.json"
                record = json.loads(path.read_text())
                record["result"]["correct"] = True
                path.write_text(json.dumps(record))
                self.assertEqual(compare.summarize(Path(tmp)), 0)


class Command(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "lg-oracle",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
