#!/usr/bin/env python3
"""Compare bench --json records against committed baselines.

Every bench binary accepts `--json <file>` and writes a record

    {"bench": "<name>", "schema_version": 1,
     "info": {...}, "metrics": {...}, "timings": {...}}

whose "metrics" object holds the deterministic quantities worth
gating in CI (selection penalties vs the oracle, near-optimal counts,
calibrated model parameters).  "timings" holds host-dependent
wall-clocks and cache statistics; they are reported but never
compared.

This script diffs the metrics of one or more freshly produced records
against the committed baselines in bench/baselines/ (file name
BENCH_<bench>.json, matched through the record's "bench" field) and
fails when any metric drifts beyond tolerance:

    |current - baseline| <= abs_tol + rel_tol * |baseline|

Both tolerances default to 0: every metric is a simulator output or a
work count that one command line fixes bit for bit, so a metric must
equal its baseline exactly.  A change that moves one refreshes the
baseline (--update) and says why.

A metric present in the baseline but missing from the current record
(or vice versa) is a hard failure -- a silently dropped metric must
not pass CI.  So is a committed baseline whose bench never appears
among the supplied records (a bench dropped from the sweep must not
pass either); pass --subset when deliberately comparing a subset.
Metric values must be numbers on both sides.

A baseline may additionally carry a "budgets" object mapping metric
names to hard caps.  A budgeted metric is max-bounded, not
tolerance-matched: the current record must report it (missing means
"not measured", which fails -- it is not a pass) and its value must
not exceed the cap.  Budgets suit resource ceilings (peak RSS,
retained footprint) that legitimately shrink but must never grow; any
improvement passes without touching the baseline.  Budgeted names are
exempt from the metrics comparison on both sides, and --update
preserves the baseline's budgets while stripping budgeted names from
the refreshed metrics.

Usage:
    scripts/bench_compare.py out/BENCH_table3_selection.json ...
    scripts/bench_compare.py --update out/BENCH_*.json   # refresh baselines

Exit status: 0 when every metric of every record is within tolerance,
1 otherwise (and on malformed input).
"""

import argparse
import json
import os
import shutil
import sys

SCHEMA_VERSION = 1


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_record(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as err:
        raise SystemExit(f"error: cannot read record '{path}': {err}")
    for key in ("bench", "schema_version", "metrics"):
        if key not in record:
            raise SystemExit(f"error: '{path}' has no '{key}' field")
    if record["schema_version"] != SCHEMA_VERSION:
        raise SystemExit(
            f"error: '{path}' has schema_version {record['schema_version']}, "
            f"expected {SCHEMA_VERSION}"
        )
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        raise SystemExit(f"error: '{path}' metrics is not an object")
    for name, value in metrics.items():
        # bool is an int subclass; a true/false metric is still a type
        # error, not something to compare within tolerance.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SystemExit(
                f"error: metric '{name}' in '{path}' is not numeric: "
                f"{value!r}"
            )
    budgets = record.get("budgets", {})
    if not isinstance(budgets, dict):
        raise SystemExit(f"error: '{path}' budgets is not an object")
    for name, cap in budgets.items():
        if isinstance(cap, bool) or not isinstance(cap, (int, float)):
            raise SystemExit(
                f"error: budget '{name}' in '{path}' is not numeric: {cap!r}"
            )
    return record


def baseline_path(baselines_dir, bench_name):
    return os.path.join(baselines_dir, f"BENCH_{bench_name}.json")


def within_tolerance(current, baseline, rel_tol, abs_tol):
    return abs(current - baseline) <= abs_tol + rel_tol * abs(baseline)


def compare_record(record, base, rel_tol, abs_tol):
    """Returns a list of (metric, baseline, current, ok, kind) rows
    with kind "metric" or "budget"; non-ok rows carry None for a
    missing side."""
    rows = []
    metrics = record["metrics"]
    base_metrics = base["metrics"]
    budgets = base.get("budgets", {})
    for name, base_value in base_metrics.items():
        if name in budgets:
            continue  # the budget row below decides this name
        if name not in metrics:
            rows.append((name, base_value, None, False, "metric"))
            continue
        current = metrics[name]
        ok = within_tolerance(current, base_value, rel_tol, abs_tol)
        rows.append((name, base_value, current, ok, "metric"))
    for name, current in metrics.items():
        if name not in base_metrics and name not in budgets:
            rows.append((name, None, current, False, "metric"))
    for name, cap in budgets.items():
        if name not in metrics:
            # "Not measured" must not read as "within budget".
            rows.append((name, cap, None, False, "budget"))
            continue
        current = metrics[name]
        rows.append((name, cap, current, current <= cap, "budget"))
    return rows


def print_rows(bench, rows, timings):
    width = max((len(r[0]) for r in rows), default=0)
    for name, base_value, current, ok, kind in rows:
        status = "ok" if ok else "FAIL"
        if base_value is None:
            detail = f"current {current:.6g}, missing from baseline"
        elif current is None:
            side = "budgeted metric missing" if kind == "budget" else "missing"
            detail = f"baseline {base_value:.6g}, {side} from current"
        elif kind == "budget":
            used = current / base_value if base_value else float("inf")
            detail = (
                f"budget   {base_value:<12.6g} current {current:<12.6g} "
                f"({used:.1%} of cap)"
            )
        else:
            delta = current - base_value
            rel = abs(delta) / abs(base_value) if base_value else float("inf")
            detail = (
                f"baseline {base_value:<12.6g} current {current:<12.6g} "
                f"delta {delta:+.3g} ({rel:.1%})"
            )
        print(f"  [{status:4}] {name:<{width}}  {detail}")
    for name, value in timings.items():
        print(f"  [info] {name}: {value:.6g} (not compared)")


def main():
    parser = argparse.ArgumentParser(
        description="Diff bench --json records against committed baselines."
    )
    parser.add_argument("records", nargs="+", help="freshly produced records")
    parser.add_argument(
        "--baselines",
        default=os.path.join(repo_root(), "bench", "baselines"),
        help="baseline directory (default: bench/baselines)",
    )
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="relative tolerance per metric (default: 0, exact)",
    )
    parser.add_argument(
        "--abs-tol",
        type=float,
        default=0.0,
        help="absolute tolerance floor per metric (default: 0, exact)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the records over the baselines instead of comparing",
    )
    parser.add_argument(
        "--subset",
        action="store_true",
        help="permit committed baselines with no matching record "
        "(default: every baseline must be covered)",
    )
    args = parser.parse_args()

    failures = 0
    seen_benches = set()
    for path in args.records:
        # Runs launched with --metrics drop JSONL journals next to the
        # bench records; a glob like `out/*.json*` may sweep them in.
        # They are event streams, not records -- skip, don't fail.
        if path.endswith(".jsonl"):
            print(f"skipping run journal (not a bench record): {path}")
            continue
        record = load_record(path)
        bench = record["bench"]
        seen_benches.add(bench)
        target = baseline_path(args.baselines, bench)
        if args.update:
            os.makedirs(args.baselines, exist_ok=True)
            budgets = {}
            if os.path.exists(target):
                budgets = load_record(target).get("budgets", {})
            if budgets:
                # Budgets are hand-set ceilings, not measurements: keep
                # them across refreshes and keep the budgeted names out
                # of the tolerance-matched metrics.
                record = dict(record)
                record["metrics"] = {
                    k: v
                    for k, v in record["metrics"].items()
                    if k not in budgets
                }
                record["budgets"] = budgets
                with open(target, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, indent=2)
                    handle.write("\n")
            else:
                shutil.copyfile(path, target)
            print(f"updated baseline: {target}")
            continue
        if not os.path.exists(target):
            print(f"{bench}: FAIL -- no committed baseline at {target}")
            failures += 1
            continue
        base = load_record(target)
        rows = compare_record(record, base, args.rel_tol, args.abs_tol)
        bad = sum(1 for r in rows if not r[3])
        verdict = "FAIL" if bad else "ok"
        print(
            f"{bench}: {verdict} ({len(rows) - bad}/{len(rows)} metrics "
            f"within rel_tol={args.rel_tol} abs_tol={args.abs_tol})"
        )
        print_rows(bench, rows, record.get("timings", {}))
        failures += bad

    if args.update:
        return 0
    # A baseline nobody compared against is as dangerous as a dropped
    # metric: the bench vanished from the sweep and its regressions
    # now pass silently.
    if not args.subset and os.path.isdir(args.baselines):
        for entry in sorted(os.listdir(args.baselines)):
            if not (entry.startswith("BENCH_") and entry.endswith(".json")):
                continue
            name = entry[len("BENCH_") : -len(".json")]
            if name not in seen_benches:
                print(
                    f"{name}: FAIL -- committed baseline {entry} has no "
                    f"candidate record (pass --subset if this is intended)"
                )
                failures += 1
    if failures:
        print(f"\n{failures} metric(s) out of tolerance")
        return 1
    print("\nall records within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
