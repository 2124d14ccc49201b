#!/usr/bin/env bash
#===- scripts/check.sh - Full local verification sweep -------------------===#
#
# Part of the mpicsel project: model-based selection of MPI collective
# algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
#
# Runs everything a PR must pass, in order of increasing cost:
#
#   1. Normal build + full ctest (with MPICSEL_VERIFY=1 preflight).
#   2. schedlint sweep over every registered collective algorithm,
#      plus the fault-injected sweep (schedules must stay deadlock-free
#      when messages hang).
#   3. Bench smoke sweep: every bench binary in --quick mode with
#      --json, diffed against the committed bench/baselines/ records
#      by scripts/bench_compare.py.
#   4. modellint audit: quick cached calibrations of both paper
#      platforms must pass the model/table audit with no violations,
#      and the allgather/allreduce tagged decision tables must pass
#      the op-generic table audit (--collective sweep).
#   5. AddressSanitizer + UBSan build (build-asan/) + full ctest.
#   6. clang-tidy over the sources, if clang-tidy is installed.
#
# Usage: scripts/check.sh [--threads N] [--no-bench] [--no-asan]
#                         [--no-tidy | --tidy] [--tsan] [--drift]
#                         [--scale] [--serve]
#
#   --threads N   fan the calibration sweeps and the schedlint grid
#                 over N worker threads (results are bit-identical to
#                 serial; this only changes wall-clock)
#   --no-bench    skip the bench smoke sweep
#   --tidy        make the clang-tidy step mandatory: fail when the
#                 binary is missing or any gated warning fires
#                 (.clang-tidy promotes bugprone-*/performance-* to
#                 errors)
#   --tsan        also build with ThreadSanitizer (build-tsan/) and run
#                 the threaded tests and tools under it
#   --drift       also run the drift-recovery sweep end to end: corrupt
#                 one algorithm's calibration under the degraded-link
#                 scenario, let the sentinel quarantine and repair it
#                 (MPICSEL_DRIFT=repair semantics), then modellint the
#                 repaired models/table and driftwatch the run journal
#   --scale       also run the scale smoke (CI's scale-smoke job): the
#                 streamed P=100k broadcast replay, gated on
#                 determinism, allocation-free warm replay, oracle
#                 bit-identity at P=4096, and the committed
#                 footprint/peak-RSS budgets
#   --serve       also run the decision-service smoke (mirrors CI's
#                 bench-smoke serve steps): the lock-free lookup bench
#                 against its committed p99 budgets, plus the modellint
#                 text/binary equivalence certificate (--dump-table and
#                 --emit-image from one calibration must diff to zero
#                 changed cells)
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_TSAN=0
# 0 = skip, 1 = run when installed, 2 = mandatory (--tidy).
RUN_TIDY=1
RUN_BENCH=1
RUN_DRIFT=0
RUN_SCALE=0
RUN_SERVE=0
THREADS=1
while [ "$#" -gt 0 ]; do
  case "$1" in
  --no-asan) RUN_ASAN=0 ;;
  --tsan) RUN_TSAN=1 ;;
  --no-tidy) RUN_TIDY=0 ;;
  --tidy) RUN_TIDY=2 ;;
  --no-bench) RUN_BENCH=0 ;;
  --drift) RUN_DRIFT=1 ;;
  --scale) RUN_SCALE=1 ;;
  --serve) RUN_SERVE=1 ;;
  --threads)
    if [ "$#" -lt 2 ]; then
      echo "error: --threads needs a value" >&2
      exit 2
    fi
    THREADS="$2"
    shift
    ;;
  --threads=*) THREADS="${1#--threads=}" ;;
  *)
    echo "usage: scripts/check.sh [--threads N] [--no-bench] [--no-asan]" \
      "[--no-tidy | --tidy] [--tsan] [--drift] [--scale] [--serve]" >&2
    exit 2
    ;;
  esac
  shift
done

case "$THREADS" in
'' | *[!0-9]*)
  echo "error: --threads expects a positive integer, got '$THREADS'" >&2
  exit 2
  ;;
esac

# Threaded sweeps are bit-identical to serial (tests/TestParallel.cpp
# pins this), so the thread count is purely a wall-clock knob.
export MPICSEL_THREADS="$THREADS"

# Per-test watchdog: no single test may hang the sweep. The slowest
# tier-1 tests finish in a few seconds; 120 s flags a wedged test
# long before CI's job timeout would.
CTEST_TIMEOUT=120

step() { printf '\n== %s ==\n' "$*"; }

step "build (default flags)"
cmake -B build -S . >/dev/null
cmake --build build -j

step "ctest (MPICSEL_VERIFY=1 is set per-test by CMake)"
ctest --test-dir build --output-on-failure -j --timeout "$CTEST_TIMEOUT"

step "schedlint sweep ($THREADS job(s))"
./build/tools/schedlint --jobs "$THREADS"

step "schedlint fault sweep (deadlock-freedom under hung messages)"
./build/tools/schedlint --jobs "$THREADS" --faults stall-storm

# The symmetric collectives again under every registered fault
# scenario (the stall-storm sweep above covers one). --algs keeps
# this affordable: it exercises the filter and the op-generic sweep
# without re-running the bcast grid per scenario.
step "schedlint allgather/allreduce sweep under every fault scenario"
for SCENARIO in clean noisy straggler-root degraded-link \
  contaminated-calibration stall-storm; do
  ./build/tools/schedlint --jobs "$THREADS" --algs allgather,allreduce \
    --faults "$SCENARIO"
done

# Quick calibrations of both paper platforms must pass the model/table
# audit with zero violations (exit 1 otherwise). --cache memoises the
# calibration so re-runs of this script only pay the audit.
step "modellint audit (quick calibration, both platforms)"
for PLATFORM in grisou gros; do
  MPICSEL_CACHE_DIR=build/modellint-cache ./build/tools/modellint \
    --quick --cache --platform "$PLATFORM" --jobs "$THREADS" \
    --json "build/modellint-$PLATFORM.json"
done

# The symmetric collectives' tagged decision tables must pass the same
# op-generic shape/argmin/island audit on both platforms.
step "modellint collective sweep (allgather/allreduce, both platforms)"
for PLATFORM in grisou gros; do
  for COLLECTIVE in allgather allreduce; do
    ./build/tools/modellint --quick --collective "$COLLECTIVE" \
      --platform "$PLATFORM" --jobs "$THREADS" \
      --json "build/modellint-$PLATFORM-$COLLECTIVE.json"
  done
done

# Observability must be a pure observer: the differential tests
# assert bit-identity with the journal on -- the engine differentials
# (compiled vs legacy, streamed vs compiled) and the FaultGolden pins
# included -- and micro_engine proves the replay loop stays
# allocation-free while counting. Serial shard: the test processes
# would race on one journal file under -j.
step "metrics-enabled shard (MPICSEL_METRICS on, results unchanged)"
# Absolute path: ctest runs each test from its own binary directory.
MPICSEL_METRICS="$PWD/build/metrics-ctest.jsonl" ctest --test-dir build \
  --output-on-failure -R "Differential|Parallel\.|BitIdentical" \
  --timeout "$CTEST_TIMEOUT"
./build/bench/micro_engine --quick \
  --metrics build/metrics-engine.jsonl >/dev/null
test -s build/metrics-engine.jsonl
grep -q '"ev":"counters"' build/metrics-engine.jsonl

if [ "$RUN_BENCH" -eq 1 ]; then
  step "bench smoke sweep vs committed baselines"
  OUT=build/bench-out
  mkdir -p "$OUT"
  ./build/bench/table1_gamma --json "$OUT/BENCH_table1_gamma.json" >/dev/null
  ./build/bench/table2_alpha_beta --quick --threads "$THREADS" \
    --json "$OUT/BENCH_table2_alpha_beta.json" >/dev/null
  ./build/bench/table3_selection --quick --threads "$THREADS" \
    --json "$OUT/BENCH_table3_selection.json" >/dev/null
  ./build/bench/fig5_selection --quick --threads "$THREADS" \
    --json "$OUT/BENCH_fig5_selection.json" >/dev/null
  ./build/bench/robustness_faults --quick --threads "$THREADS" \
    --json "$OUT/BENCH_robustness_faults.json" >/dev/null
  # drift_recovery exits non-zero unless the sentinel trips only the
  # corrupted algorithm and the repair restores the clean table.
  ./build/bench/drift_recovery --quick --threads "$THREADS" \
    --json "$OUT/BENCH_drift_recovery.json" >/dev/null
  # The allreduce/allgather selection gap vs Open MPI's fixed rules:
  # the near-optimal counts and worst degradations are pinned by the
  # committed baseline.
  ./build/bench/extension_allreduce --quick \
    --json "$OUT/BENCH_extension_allreduce.json" >/dev/null
  # The reduce/scatter selection: near-optimal counts and worst
  # degradations, documented misses included, pinned by the baseline.
  ./build/bench/extension_reduce_scatter \
    --json "$OUT/BENCH_extension_reduce_scatter.json" >/dev/null
  # micro_engine exits non-zero unless compiled replay is bit-identical
  # to the legacy interpreter and allocation-free after warm-up; the
  # baseline's budget caps its deep-heap case's replay ns/event.
  ./build/bench/micro_engine --quick \
    --json "$OUT/BENCH_micro_engine.json" >/dev/null
  # decision_service exits non-zero unless served lookups match the
  # table scan everywhere, the steady-state path is allocation- and
  # lock-free, readers never see a torn image under swapping, and the
  # speedup over re-parsing the text table clears 10x.
  ./build/bench/decision_service --quick \
    --json "$OUT/BENCH_decision_service.json" >/dev/null
  # --subset: the micro_engine_scale record comes from the scale smoke
  # (--scale here, the scale-smoke job in CI), not this sweep.
  python3 scripts/bench_compare.py --subset "$OUT"/BENCH_*.json
fi

if [ "$RUN_SCALE" -eq 1 ]; then
  step "scale smoke (streamed P=100k replay vs committed budgets)"
  SCALE_OUT=build/scale-out
  mkdir -p "$SCALE_OUT"
  # Exits non-zero unless the streamed replay completes
  # deterministically and allocation-free after its cold run and the
  # P=4096 streamed timeline is bit-identical to the materialized
  # oracle. The journal must carry the streaming counters and the
  # peak-RSS gauge the budgets are about.
  ./build/bench/micro_engine --scale --quick \
    --metrics "$SCALE_OUT/BENCH_micro_engine_scale.jsonl" \
    --json "$SCALE_OUT/BENCH_micro_engine_scale.json" >/dev/null
  grep -q '"stream.replays"' "$SCALE_OUT/BENCH_micro_engine_scale.jsonl"
  grep -q '"stream.events"' "$SCALE_OUT/BENCH_micro_engine_scale.jsonl"
  grep -q '"proc.peak_rss_kib"' "$SCALE_OUT/BENCH_micro_engine_scale.jsonl"
  python3 scripts/bench_compare.py --subset \
    "$SCALE_OUT/BENCH_micro_engine_scale.json"
fi

if [ "$RUN_DRIFT" -eq 1 ]; then
  step "drift recovery sweep (quarantine, targeted repair, artifacts)"
  DRIFT_OUT=build/drift-out
  rm -rf "$DRIFT_OUT"
  mkdir -p "$DRIFT_OUT"
  ./build/bench/drift_recovery --quick --threads "$THREADS" \
    --table-file "$DRIFT_OUT/table.txt" \
    --models-file "$DRIFT_OUT/models.txt" \
    --cache-dir "$DRIFT_OUT/cache" \
    --metrics "$DRIFT_OUT/journal.jsonl" \
    --json "$DRIFT_OUT/BENCH_drift_recovery.json"

  step "modellint audit of the repaired models and table"
  ./build/tools/modellint --models "$DRIFT_OUT/models.txt" \
    --table "$DRIFT_OUT/table.txt" \
    --json "$DRIFT_OUT/modellint-repaired.json"

  step "driftwatch over the run journal (exit 1 on any giveup)"
  ./build/tools/driftwatch --journal "$DRIFT_OUT/journal.jsonl" --verbose \
    --json "$DRIFT_OUT/driftwatch.json"
  grep -q '"ev":"drift_repair"' "$DRIFT_OUT/journal.jsonl"
  python3 scripts/bench_compare.py --subset \
    "$DRIFT_OUT/BENCH_drift_recovery.json"
fi

if [ "$RUN_SERVE" -eq 1 ]; then
  step "decision-service lookup gates vs committed p99 budgets"
  SERVE_OUT=build/serve-out
  mkdir -p "$SERVE_OUT"
  ./build/bench/decision_service --quick \
    --json "$SERVE_OUT/BENCH_decision_service.json"
  python3 scripts/bench_compare.py --subset \
    "$SERVE_OUT/BENCH_decision_service.json"

  step "text/binary table equivalence certificate (modellint)"
  # One calibration, both containers: the text table and the binary
  # image must decode to the same logical table, cell for cell.
  MPICSEL_CACHE_DIR=build/modellint-cache ./build/tools/modellint \
    --quick --cache --platform grisou --jobs "$THREADS" \
    --dump-table "$SERVE_OUT/table.txt" \
    --emit-image "$SERVE_OUT/table.img" \
    --json "$SERVE_OUT/modellint-serve.json"
  ./build/tools/modellint --diff-old "$SERVE_OUT/table.txt" \
    --diff-new "$SERVE_OUT/table.img" |
    grep -q '^table diff: 0 of'
fi

if [ "$RUN_ASAN" -eq 1 ]; then
  step "build with AddressSanitizer + UBSan"
  cmake -B build-asan -S . -DMPICSEL_SANITIZE=address >/dev/null
  cmake --build build-asan -j

  step "ctest under ASan/UBSan"
  ctest --test-dir build-asan --output-on-failure -j \
    --timeout "$CTEST_TIMEOUT"

  step "schedlint under ASan/UBSan"
  ./build-asan/tools/schedlint --jobs "$THREADS"

  step "compiled-vs-legacy engine differential under ASan/UBSan"
  ./build-asan/tests/TestCompiledSchedule

  step "drift sentinel state machine + driftwatch under ASan/UBSan"
  ./build-asan/tests/TestDrift
  ./build-asan/bench/drift_recovery --quick \
    --metrics build-asan/drift-journal.jsonl >/dev/null
  ./build-asan/tools/driftwatch --journal build-asan/drift-journal.jsonl
fi

if [ "$RUN_TSAN" -eq 1 ]; then
  step "build with ThreadSanitizer"
  cmake -B build-tsan -S . -DMPICSEL_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j

  # Everything that fans work over threads: the sweep tests, the
  # helper pool and every suite that measures through Experiment, the
  # journal/metrics shards, the audit sweep, and the threaded tools.
  step "threaded tests under TSan"
  ctest --test-dir build-tsan --output-on-failure \
    -R "Parallel|HelperPool|Obs|Audit|Drift|Serve|Allgather|Allreduce|Runner|UnifiedReplayPath|Calibration|GammaEstimation|Selection|AdaptiveMeasurement|Robust|Fault" \
    --timeout "$CTEST_TIMEOUT"

  step "threaded tools under TSan"
  ./build-tsan/tools/schedlint --jobs 4
  MPICSEL_CACHE_DIR=build-tsan/modellint-cache \
    ./build-tsan/tools/modellint --quick --cache --platform grisou \
    --jobs 4 --json build-tsan/modellint-grisou.json
fi

if [ "$RUN_TIDY" -ge 1 ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy"
    # The compile database comes from the normal build tree.
    # .clang-tidy promotes bugprone-*/performance-* to errors, so any
    # hit in those families fails this step.
    find src tools -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p build --quiet
  elif [ "$RUN_TIDY" -eq 2 ]; then
    echo "error: --tidy given but clang-tidy is not installed" >&2
    exit 1
  else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)"
  fi
fi

step "all checks passed"
