#!/usr/bin/env python3
"""Self-test for scripts/bench_compare.py.

Runs the comparator as a subprocess against synthetic records and
baselines in a temp directory, pinning the behaviours CI relies on:
tolerance math, missing-metric hard failures, baseline-coverage
enforcement, non-numeric rejection, and --update.

Wired into ctest as PyBenchCompare; also runnable directly:
    python3 scripts/test_bench_compare.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")
BASELINES = os.path.join(os.path.dirname(os.path.dirname(SCRIPT)), "bench",
                         "baselines")


def record(bench, metrics, schema_version=1, budgets=None):
    rec = {
        "bench": bench,
        "schema_version": schema_version,
        "info": {},
        "metrics": metrics,
        "timings": {},
    }
    if budgets is not None:
        rec["budgets"] = budgets
    return rec


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baselines = os.path.join(self.tmp.name, "baselines")
        os.makedirs(self.baselines)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def write_baseline(self, bench, metrics, budgets=None):
        path = os.path.join(self.baselines, f"BENCH_{bench}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record(bench, metrics, budgets=budgets), handle)
        return path

    def run_compare(self, *args):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baselines", self.baselines]
            + list(args),
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout + proc.stderr

    def test_within_tolerance_passes(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.1}))
        code, out = self.run_compare("--rel-tol", "0.15", "--abs-tol", "0.05",
                                     rec)
        self.assertEqual(code, 0, out)
        self.assertIn("all records within tolerance", out)

    def test_default_tolerance_is_exact(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 0, out)
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": 1.0 + 2**-52})
        )
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)

    def test_drift_beyond_tolerance_fails(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 2.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_metric_missing_from_current_fails(self):
        self.write_baseline("alpha", {"penalty": 1.0, "extra": 2.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current", out)

    def test_metric_missing_from_baseline_fails(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": 1.0, "new": 3.0})
        )
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from baseline", out)

    def test_uncovered_baseline_fails(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        self.write_baseline("beta", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("no candidate record", out)

    def test_subset_permits_uncovered_baseline(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        self.write_baseline("beta", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare("--subset", rec)
        self.assertEqual(code, 0, out)

    def test_non_numeric_metric_is_rejected(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": "fast"})
        )
        code, out = self.run_compare(rec)
        self.assertNotEqual(code, 0, out)
        self.assertIn("not numeric", out)

    def test_boolean_metric_is_rejected(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": True}))
        code, out = self.run_compare(rec)
        self.assertNotEqual(code, 0, out)
        self.assertIn("not numeric", out)

    def test_non_numeric_baseline_is_rejected(self):
        self.write_baseline("alpha", {"penalty": None})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare(rec)
        self.assertNotEqual(code, 0, out)
        self.assertIn("not numeric", out)

    def test_wrong_schema_version_is_rejected(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write(
            "BENCH_alpha.json",
            record("alpha", {"penalty": 1.0}, schema_version=99),
        )
        code, out = self.run_compare(rec)
        self.assertNotEqual(code, 0, out)
        self.assertIn("schema_version", out)

    def test_missing_baseline_file_fails(self):
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("no committed baseline", out)

    def test_update_refreshes_baseline(self):
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 5.0}))
        code, out = self.run_compare("--update", rec)
        self.assertEqual(code, 0, out)
        target = os.path.join(self.baselines, "BENCH_alpha.json")
        with open(target, "r", encoding="utf-8") as handle:
            self.assertEqual(json.load(handle)["metrics"]["penalty"], 5.0)
        code, out = self.run_compare(rec)
        self.assertEqual(code, 0, out)

    def test_budget_within_cap_passes(self):
        self.write_baseline("alpha", {"penalty": 1.0}, budgets={"rss": 100.0})
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": 1.0, "rss": 60.0})
        )
        code, out = self.run_compare(rec)
        self.assertEqual(code, 0, out)
        self.assertIn("of cap", out)

    def test_budget_exceeded_fails(self):
        self.write_baseline("alpha", {"penalty": 1.0}, budgets={"rss": 100.0})
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": 1.0, "rss": 150.0})
        )
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_budget_well_under_cap_is_not_drift(self):
        # A big improvement trips a tolerance check but never a budget:
        # resource ceilings only gate growth.
        self.write_baseline("alpha", {}, budgets={"rss": 100.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"rss": 1.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 0, out)

    def test_budgeted_metric_missing_from_current_fails(self):
        # "Not measured" must not read as "within budget".
        self.write_baseline("alpha", {"penalty": 1.0}, budgets={"rss": 100.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        code, out = self.run_compare(rec)
        self.assertEqual(code, 1, out)
        self.assertIn("budgeted metric missing", out)

    def test_budgeted_metric_exempt_from_baseline_presence(self):
        # The budgeted name lives only in the current metrics; it must
        # not trigger the missing-from-baseline hard failure.
        self.write_baseline("alpha", {"penalty": 1.0}, budgets={"rss": 100.0})
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": 1.0, "rss": 60.0})
        )
        code, out = self.run_compare(rec)
        self.assertEqual(code, 0, out)
        self.assertNotIn("missing from baseline", out)

    def test_non_numeric_budget_is_rejected(self):
        self.write_baseline("alpha", {}, budgets={"rss": "large"})
        rec = self.write("BENCH_alpha.json", record("alpha", {"rss": 1.0}))
        code, out = self.run_compare(rec)
        self.assertNotEqual(code, 0, out)
        self.assertIn("not numeric", out)

    def test_update_preserves_budgets(self):
        self.write_baseline("alpha", {"penalty": 1.0}, budgets={"rss": 100.0})
        rec = self.write(
            "BENCH_alpha.json", record("alpha", {"penalty": 2.0, "rss": 70.0})
        )
        code, out = self.run_compare("--update", rec)
        self.assertEqual(code, 0, out)
        target = os.path.join(self.baselines, "BENCH_alpha.json")
        with open(target, "r", encoding="utf-8") as handle:
            refreshed = json.load(handle)
        self.assertEqual(refreshed["budgets"], {"rss": 100.0})
        self.assertEqual(refreshed["metrics"], {"penalty": 2.0})
        code, out = self.run_compare(rec)
        self.assertEqual(code, 0, out)

    def test_table2_parameter_error_fails(self):
        # table2 reports alpha in us and beta in ns/KiB, so the absolute
        # floor stays small against every non-zero parameter: a 25 %
        # error in the smallest one must fail.
        committed = os.path.join(BASELINES, "BENCH_table2_alpha_beta.json")
        shutil.copy(committed, self.baselines)
        with open(committed, "r", encoding="utf-8") as handle:
            rec = json.load(handle)
        # A real record reports its peak RSS; report it at the cap.
        rec["metrics"].update(rec.pop("budgets"))
        code, out = self.run_compare(self.write("BENCH_table2.json", rec))
        self.assertEqual(code, 0, out)
        metrics = rec["metrics"]
        name = min((k for k in metrics if metrics[k]), key=metrics.get)
        metrics[name] *= 1.25
        code, out = self.run_compare(self.write("BENCH_table2.json", rec))
        self.assertEqual(code, 1, out)
        self.assertIn(name, out)

    def committed_table3(self):
        """The committed table3 baseline in the temp baselines directory,
        and a record that matches it, budgets included."""
        committed = os.path.join(BASELINES, "BENCH_table3_selection.json")
        shutil.copy(committed, self.baselines)
        with open(committed, "r", encoding="utf-8") as handle:
            rec = json.load(handle)
        rec["metrics"].update(rec.pop("budgets"))
        code, out = self.run_compare(self.write("BENCH_table3.json", rec))
        self.assertEqual(code, 0, out)
        return rec

    def test_table3_lost_near_optimal_point_fails(self):
        # One selection point falling out of the paper's 10 % band is a
        # regression of the reproduction, not noise.
        rec = self.committed_table3()
        rec["metrics"]["model_near_optimal_grisou_p90"] -= 1
        code, out = self.run_compare(self.write("BENCH_table3.json", rec))
        self.assertEqual(code, 1, out)
        self.assertIn("model_near_optimal_grisou_p90", out)

    def test_table3_degradation_shift_fails(self):
        rec = self.committed_table3()
        rec["metrics"]["worst_model_deg_gros_p100"] += 1e-6
        code, out = self.run_compare(self.write("BENCH_table3.json", rec))
        self.assertEqual(code, 1, out)
        self.assertIn("worst_model_deg_gros_p100", out)

    def test_jsonl_journals_are_skipped(self):
        self.write_baseline("alpha", {"penalty": 1.0})
        rec = self.write("BENCH_alpha.json", record("alpha", {"penalty": 1.0}))
        journal = os.path.join(self.tmp.name, "run.jsonl")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write('{"ev":"counters"}\n')
        code, out = self.run_compare(rec, journal)
        self.assertEqual(code, 0, out)
        self.assertIn("skipping run journal", out)


if __name__ == "__main__":
    unittest.main()
