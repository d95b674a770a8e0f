#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark (and fafnir_sim for the cross-check) into
.bench_build/ and checks that:
  - clean runs of every workload pass and report every metric;
  - a corrupted served vector or SpMV output element fails the run;
  - runs of one seed give identical modeled metrics and digests;
  - the lookup workload's modeled time equals `fafnir_sim --report`'s
    totalUs for the same shape and seed.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
MODELED = ["modeled_us", "modeled_dram_bytes", "modeled_p50_us",
           "modeled_p99_us"]

# Small inputs keep each run well under a second.
SMALL = {"lookup_zipf_q24": 6, "serve_uniform_q8": 6, "spmv_powerlaw": 2048}


def bench(workload, seed=3, trace=0, perturb=False, size=None):
    """Run the benchmark binary; returns (exit code, result, report)."""
    cmd = [os.path.join(run.BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--size", str(size or SMALL[workload])]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])["report"]


def digests_agree(reports):
    """A set of runs of one seed is valid only if every digest matches."""
    return len({r["digest"] for r in reports}) == 1


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_clean_runs_report_every_metric(self):
        for workload in SMALL:
            for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, report = bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    self.assertIn("cpu", report["fingerprint"])
                    if trace == 0:
                        for name in names:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_corrupted_served_vector_fails(self):
        for trace in (0, 1):
            code, result, _ = bench("serve_uniform_q8", trace=trace, perturb=True)
            self.assertEqual(code, 1)
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], 1)

    def test_corrupted_spmv_element_fails(self):
        code, result, _ = bench("spmv_powerlaw", perturb=True)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_modeled_outputs_are_deterministic(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                runs = [bench(workload, seed=5) for _ in range(2)]
                traced = bench(workload, seed=5, trace=1)
                self.assertTrue(digests_agree([r[2] for r in runs] + [traced[2]]))
                for name in MODELED:
                    self.assertEqual(runs[0][1]["metrics"][name],
                                     runs[1][1]["metrics"][name])
                other = bench(workload, seed=6)
                self.assertFalse(digests_agree([runs[0][2], other[2]]))

    def test_lookup_modeled_time_matches_fafnir_sim(self):
        run.build("fafnir_sim_xcheck")
        # The benchmark's full stream length, so the shape is the one timed.
        batches, seed = 200, 11
        report_path = os.path.join(run.BUILD, "xcheck_report.json")
        subprocess.run(
            [os.path.join(run.BUILD, "fafnir_sim"), "--mode=lookup",
             "--engine=analytic", "--batch=32", "--query-size=24",
             "--skew=0.9", "--hot-fraction=0.001",
             "--batches=%d" % batches, "--seed=%d" % seed,
             "--report=" + report_path],
            check=True, capture_output=True, timeout=120)
        with open(report_path) as f:
            total_us = json.load(f)["metrics"]["totalUs"]
        _, result, _ = bench("lookup_zipf_q24", seed=seed, size=batches)
        self.assertAlmostEqual(result["metrics"]["modeled_us"]["value"],
                               total_us, delta=1e-9 * total_us)


if __name__ == "__main__":
    unittest.main()
