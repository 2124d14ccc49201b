#!/usr/bin/env python3
"""The benchmark's own tests: paper anchor and determinism.

Run from anywhere (takes a few minutes; builds perfbench first):

    python3 perfbench/test_perfbench.py

* Paper anchor: at the default seed, paper-bcast's and op-zoo's
  per-panel near-optimal counts and worst degradations equal the
  committed paper-bench records, so the benchmark and the paper benches
  cannot drift apart.
* Determinism: a shortened run of each workload, twice untraced and
  twice traced at one seed, gives bit-identical quality numbers and
  image content hashes, and identical work counts across the traced
  runs -- the identity a simulator-only speed-up must keep, and proof
  that tracing does not change results.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINES = os.path.join(ROOT, "bench", "baselines")

# The committed records print degradations with all digits; the paper
# reports them to 0.1%.
DEGRADATION_TOLERANCE = 5e-4


def run(workload, *extra, seed=0, trace=0):
    """Runs one benchmark invocation; returns (detail, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in out
                  if line.startswith("detail "))
    return detail, json.loads(out[-1])


def baseline(name):
    with open(os.path.join(BASELINES, f"BENCH_{name}.json")) as f:
        return json.load(f)["metrics"]


class PaperAnchor(unittest.TestCase):
    def check(self, workload, record, key_of):
        detail, result = run(workload)  # --seconds 1: a single pass
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        metrics = baseline(record)
        for panel in detail["panels"]:
            key = key_of(panel["name"])
            with self.subTest(panel=panel["name"]):
                self.assertEqual(panel["points"], metrics[f"points_{key}"])
                self.assertEqual(panel["near_optimal"],
                                 metrics[f"model_near_optimal_{key}"])
                self.assertAlmostEqual(panel["worst_model_deg"],
                                       metrics[f"worst_model_deg_{key}"],
                                       delta=DEGRADATION_TOLERANCE)

    def test_paper_bcast_matches_table3(self):
        # Panel "bcast_grisou_p90" is table3's "grisou_p90".
        self.check("paper-bcast", "table3_selection",
                   lambda name: name.split("_", 1)[1])

    def test_op_zoo_matches_extension_allreduce(self):
        self.check("op-zoo", "extension_allreduce", lambda name: name)


class Determinism(unittest.TestCase):
    def check(self, workload):
        untraced = [run(workload, "--short", seed=7) for _ in range(2)]
        traced = [run(workload, "--short", seed=7, trace=1)
                  for _ in range(2)]
        reference = untraced[0][0]["panels"]
        self.assertEqual(len(reference), 4 if workload == "op-zoo" else 2)
        for detail, result in untraced + traced:
            self.assertTrue(result["correct"])
            self.assertEqual(detail["panels"], reference)
        counts = [detail["counts"] for detail, _ in traced]
        for key in ("sim.events", "mpi.intern_builds", "audit.checks"):
            self.assertIn(key, counts[0])
        self.assertEqual(counts[0], counts[1])

    def test_paper_bcast(self):
        self.check("paper-bcast")

    def test_op_zoo(self):
        self.check("op-zoo")


if __name__ == "__main__":
    unittest.main()
