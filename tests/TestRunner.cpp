//===- tests/TestRunner.cpp - The one replay path vs runSchedule ----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Every runner of every collective measures through model/Runner's
// Experiment: a measurement builds and compiles its schedule once,
// replays its first MinReps repetitions side by side on per-thread
// engines without a timeline, and the rest one at a time. That must
// change the cost only. For each collective and experiment kind
// (plain, and followed by the Sect. 4.2 linear gather), a
// measurement's observations must equal those of building the schedule
// afresh and calling runSchedule once per repetition over the same
// seed stream, and those of the serial path a parallel sweep's worker
// takes -- fault-free, under a fault scenario, through the legacy
// interpreter and with pre-flight verification on. The runners also
// share one rank-count check, and a deadlocking experiment dies with
// runSchedule's diagnostic.
//
//===----------------------------------------------------------------------===//

#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Bcast.h"
#include "coll/Gather.h"
#include "coll/Reduce.h"
#include "coll/Scatter.h"
#include "fault/Fault.h"
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "model/ScatterSelection.h"
#include "obs/Metrics.h"
#include "sim/Engine.h"
#include "stat/ParallelSweep.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

using namespace mpicsel;

namespace {

/// 16 ranks on 8 dual-rank nodes: intra- and inter-node traffic.
Platform testPlatform() {
  Platform P = makeTestPlatform(8, 2);
  P.NoiseSigma = 0.02;
  return P;
}

constexpr unsigned NumProcs = 12;
constexpr unsigned Reps = 6;
constexpr std::uint64_t GatherBytes = 2048;
constexpr const char *TooManyRanks = "more processes than the platform hosts";

/// A schedule built independently of the runners, plus the exit ops
/// whose latest completion is the observation.
using ReferenceSchedule = std::pair<Schedule, std::vector<OpId>>;

/// One experiment of the differential catalogue.
struct Case {
  std::string Name;
  /// The library's measurement.
  std::function<AdaptiveResult(const Platform &, const AdaptiveOptions &)>
      Measure;
  /// The same experiment, built independently for one-shot runSchedule
  /// calls.
  std::function<ReferenceSchedule(const Platform &)> Build;
};

/// Appends the Sect. 4.2 calibration gather (no synchronisation) and
/// returns the root's gather exit.
std::vector<OpId> referenceGather(ScheduleBuilder &B,
                                  const std::vector<OpId> &Entry,
                                  unsigned Root, int Tag) {
  GatherConfig Gather;
  Gather.BlockBytes = GatherBytes;
  Gather.Root = Root;
  Gather.Tag = Tag;
  return {appendLinearGather(B, Gather, Entry)[Root]};
}

BcastConfig bcastConfig() {
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binomial;
  C.MessageBytes = 64 * 1024;
  C.SegmentBytes = 8 * 1024;
  return C;
}

ScatterConfig scatterConfig() {
  ScatterConfig C;
  C.Algorithm = ScatterAlgorithm::Binomial;
  C.BlockBytes = 4096;
  C.Root = 2;
  return C;
}

ReduceConfig reduceConfig() {
  ReduceConfig C;
  C.Algorithm = ReduceAlgorithm::Binomial;
  C.MessageBytes = 32 * 1024;
  C.SegmentBytes = 8 * 1024;
  C.Root = 1;
  return C;
}

AllgatherConfig allgatherConfig() {
  AllgatherConfig C;
  C.Algorithm = AllgatherAlgorithm::Ring;
  C.BlockBytes = 2048;
  return C;
}

AllreduceConfig allreduceConfig() {
  AllreduceConfig C;
  C.Algorithm = AllreduceAlgorithm::Ring;
  C.MessageBytes = 64 * 1024;
  return C;
}

const std::vector<Case> &catalogue() {
  static const std::vector<Case> Cases = {
      {"bcast",
       [](const Platform &P, const AdaptiveOptions &O) {
         return measureBcast(P, NumProcs, bcastConfig(), O);
       },
       [](const Platform &) {
         ScheduleBuilder B(NumProcs);
         std::vector<OpId> Exit = appendBcast(B, bcastConfig());
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"bcast_gather",
       [](const Platform &P, const AdaptiveOptions &O) {
         return prepareBcast(P, NumProcs, bcastConfig(), GatherBytes)
             .measure(O);
       },
       [](const Platform &) {
         ScheduleBuilder B(NumProcs);
         const BcastConfig C = bcastConfig();
         std::vector<OpId> Exit =
             referenceGather(B, appendBcast(B, C), C.Root, C.Tag + 8);
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"scatter",
       [](const Platform &P, const AdaptiveOptions &O) {
         return measureScatter(P, NumProcs, scatterConfig(), O);
       },
       [](const Platform &) {
         ScheduleBuilder B(NumProcs);
         std::vector<OpId> Exit = appendScatter(B, scatterConfig());
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"scatter_gather",
       [](const Platform &P, const AdaptiveOptions &O) {
         return prepareScatter(P, NumProcs, scatterConfig(), GatherBytes)
             .measure(O);
       },
       [](const Platform &) {
         ScheduleBuilder B(NumProcs);
         const ScatterConfig C = scatterConfig();
         std::vector<OpId> Exit =
             referenceGather(B, appendScatter(B, C), C.Root, C.Tag + 8);
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"reduce",
       [](const Platform &P, const AdaptiveOptions &O) {
         return measureReduce(P, NumProcs, reduceConfig(), O);
       },
       [](const Platform &P) {
         ScheduleBuilder B(NumProcs);
         ReduceConfig C = reduceConfig();
         C.ComputeSecondsPerByte = P.ReduceComputePerByte;
         std::vector<OpId> Exit = appendReduce(B, C);
         return ReferenceSchedule{B.take(), {Exit[C.Root]}};
       }},
      {"reduce_gather",
       [](const Platform &P, const AdaptiveOptions &O) {
         return prepareReduce(P, NumProcs, reduceConfig(), GatherBytes)
             .measure(O);
       },
       [](const Platform &P) {
         ScheduleBuilder B(NumProcs);
         ReduceConfig C = reduceConfig();
         C.ComputeSecondsPerByte = P.ReduceComputePerByte;
         std::vector<OpId> Exit =
             referenceGather(B, appendReduce(B, C), C.Root, C.Tag + 8);
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"allgather",
       [](const Platform &P, const AdaptiveOptions &O) {
         return measureAllgather(P, NumProcs, allgatherConfig(), O);
       },
       [](const Platform &) {
         ScheduleBuilder B(NumProcs);
         std::vector<OpId> Exit = appendAllgather(B, allgatherConfig());
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"allgather_gather",
       [](const Platform &P, const AdaptiveOptions &O) {
         return prepareAllgather(P, NumProcs, allgatherConfig(), GatherBytes)
             .measure(O);
       },
       [](const Platform &) {
         ScheduleBuilder B(NumProcs);
         const AllgatherConfig C = allgatherConfig();
         std::vector<OpId> Exit =
             referenceGather(B, appendAllgather(B, C), 0, C.Tag + 8);
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"allreduce",
       [](const Platform &P, const AdaptiveOptions &O) {
         return measureAllreduce(P, NumProcs, allreduceConfig(), O);
       },
       [](const Platform &P) {
         ScheduleBuilder B(NumProcs);
         AllreduceConfig C = allreduceConfig();
         C.ComputeSecondsPerByte = P.ReduceComputePerByte;
         std::vector<OpId> Exit = appendAllreduce(B, C);
         return ReferenceSchedule{B.take(), Exit};
       }},
      {"allreduce_gather",
       [](const Platform &P, const AdaptiveOptions &O) {
         return prepareAllreduce(P, NumProcs, allreduceConfig(), GatherBytes)
             .measure(O);
       },
       [](const Platform &P) {
         ScheduleBuilder B(NumProcs);
         AllreduceConfig C = allreduceConfig();
         C.ComputeSecondsPerByte = P.ReduceComputePerByte;
         std::vector<OpId> Exit =
             referenceGather(B, appendAllreduce(B, C), 0, C.Tag + 8);
         return ReferenceSchedule{B.take(), Exit};
       }},
  };
  return Cases;
}

/// The engine configurations every case is checked under.
enum class Mode { FaultFree, Faulted, Legacy, Preflight };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::FaultFree:
    return "fault_free";
  case Mode::Faulted:
    return "degraded_link";
  case Mode::Legacy:
    return "legacy";
  case Mode::Preflight:
    return "preflight";
  }
  return "?";
}

/// RAII: applies one Mode process-wide (engine mode, pre-flight flag,
/// fault schedule) and restores the previous state, metrics off.
class ScopedMode {
public:
  explicit ScopedMode(Mode M)
      : SavedEngine(engineMode()),
        SavedPreflight(preflightVerificationEnabled()),
        Faults(M == Mode::Faulted ? makeFaultScenario("degraded-link")
                                  : FaultSchedule()) {
    setEngineMode(M == Mode::Legacy ? EngineMode::Legacy
                                    : EngineMode::Compiled);
    setPreflightVerification(M == Mode::Preflight);
    if (M == Mode::Faulted)
      Injection = std::make_unique<ScopedFaultInjection>(Faults);
  }
  ~ScopedMode() {
    Injection.reset();
    setEngineMode(SavedEngine);
    setPreflightVerification(SavedPreflight);
    obs::setMetricsEnabled(false);
  }
  ScopedMode(const ScopedMode &) = delete;
  ScopedMode &operator=(const ScopedMode &) = delete;

private:
  EngineMode SavedEngine;
  bool SavedPreflight;
  FaultSchedule Faults;
  std::unique_ptr<ScopedFaultInjection> Injection;
};

class UnifiedReplayPath
    : public ::testing::TestWithParam<std::tuple<std::size_t, Mode>> {};

} // namespace

TEST_P(UnifiedReplayPath, ObservationsMatchRunSchedulePerRepetition) {
  const Case &C = catalogue()[std::get<0>(GetParam())];
  const Mode M = std::get<1>(GetParam());
  const Platform P = testPlatform();
  ScopedMode Scope(M);
  obs::setMetricsEnabled(true);

  AdaptiveOptions Options;
  Options.MinReps = Options.MaxReps = Reps;
  Options.BaseSeed = 0xD1FFull;

  const obs::MetricsSnapshot Before = obs::snapshotMetrics();
  const AdaptiveResult Measured = C.Measure(P, Options);
  const obs::MetricsSnapshot After = obs::snapshotMetrics();
  ASSERT_EQ(Measured.Observations.size(), Reps);

  // The measurement replayed through the executor the mode selects,
  // once per repetition.
  auto delta = [&](obs::Counter Counter) {
    return After.counter(Counter) - Before.counter(Counter);
  };
  EXPECT_EQ(delta(obs::Counter::RunnerExperiments), Reps);
  EXPECT_EQ(delta(obs::Counter::EngineLegacyRuns),
            M == Mode::Legacy ? Reps : 0u);
  EXPECT_EQ(delta(obs::Counter::EngineReplays),
            M == Mode::Legacy ? 0u : Reps);

  // The reference: a fresh schedule and one runSchedule per
  // repetition, seeded as measureAdaptively seeds its repetitions.
  SplitMix64 Seeds(Options.BaseSeed);
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    ReferenceSchedule Ref = C.Build(P);
    const ExecutionResult R = runSchedule(Ref.first, P, Seeds.next());
    ASSERT_TRUE(R.Completed) << R.Diagnostic;
    double Expected = 0.0;
    for (OpId Id : Ref.second)
      Expected = std::max(Expected, R.doneTime(Id));
    EXPECT_EQ(Measured.Observations[Rep], Expected) << "repetition " << Rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryCollective, UnifiedReplayPath,
    ::testing::Combine(::testing::Range<std::size_t>(0, catalogue().size()),
                       ::testing::Values(Mode::FaultFree, Mode::Faulted,
                                         Mode::Legacy, Mode::Preflight)),
    [](const ::testing::TestParamInfo<UnifiedReplayPath::ParamType> &Info) {
      return catalogue()[std::get<0>(Info.param)].Name + "_" +
             modeName(std::get<1>(Info.param));
    });

namespace {

/// Stopping rules that take the concurrent first repetitions through
/// every branch of the adaptive loop.
std::vector<std::pair<const char *, AdaptiveOptions>> prefixVariants() {
  AdaptiveOptions Base;
  Base.BaseSeed = 0xD1FFull;
  std::vector<std::pair<const char *, AdaptiveOptions>> Variants;
  Variants.push_back({"defaults", Base});
  AdaptiveOptions Wide = Base;
  Wide.MinReps = std::max(std::thread::hardware_concurrency(), 1u) + 2;
  Wide.MaxReps = Wide.MinReps + 4;
  Variants.push_back({"min_reps_above_hardware_threads", Wide});
  AdaptiveOptions Fixed = Base;
  Fixed.MinReps = Fixed.MaxReps = Reps;
  Variants.push_back({"min_reps_equal_max_reps", Fixed});
  AdaptiveOptions Unsettled = Base;
  Unsettled.MinReps = 3;
  Unsettled.MaxReps = 7;
  Unsettled.TargetPrecision = 1e-12;
  Variants.push_back({"never_converges", Unsettled});
  AdaptiveOptions Retried = Unsettled;
  Retried.RetryAttempts = 2;
  Variants.push_back({"retries", Retried});
  AdaptiveOptions Screened = Base;
  Screened.MinReps = 6;
  Screened.MaxReps = 12;
  Screened.ScreenOutliers = true;
  Screened.OutlierMadSigma = 1.0;
  Variants.push_back({"screened", Screened});
  return Variants;
}

void expectSameResult(const AdaptiveResult &A, const AdaptiveResult &B) {
  EXPECT_EQ(A.Observations, B.Observations);
  EXPECT_EQ(A.Stats.Count, B.Stats.Count);
  EXPECT_EQ(A.Stats.Mean, B.Stats.Mean);
  EXPECT_EQ(A.Stats.Variance, B.Stats.Variance);
  EXPECT_EQ(A.Stats.Min, B.Stats.Min);
  EXPECT_EQ(A.Stats.Max, B.Stats.Max);
  EXPECT_EQ(A.Stats.Ci95HalfWidth, B.Stats.Ci95HalfWidth);
  EXPECT_EQ(A.Converged, B.Converged);
  EXPECT_EQ(A.OutliersRejected, B.OutliersRejected);
  EXPECT_EQ(A.Attempts, B.Attempts);
}

} // namespace

TEST_P(UnifiedReplayPath, ConcurrentRepetitionsMatchTheSerialPath) {
  const Case &C = catalogue()[std::get<0>(GetParam())];
  const Platform P = testPlatform();
  ScopedMode Scope(std::get<1>(GetParam()));

  for (const auto &[Name, Options] : prefixVariants()) {
    SCOPED_TRACE(Name);
    const AdaptiveResult Concurrent = C.Measure(P, Options);
    // A measurement inside a parallel sweep's worker replays every
    // repetition on the worker: the serial loop.
    const std::vector<AdaptiveResult> Serial = sweepIndexed<AdaptiveResult>(
        2, 2, [&](std::size_t) { return C.Measure(P, Options); });
    for (const AdaptiveResult &R : Serial)
      expectSameResult(Concurrent, R);

    if (Options.TargetPrecision < 1e-9) {
      EXPECT_FALSE(Concurrent.Converged);
      EXPECT_EQ(Concurrent.Observations.size(), Options.MaxReps);
      EXPECT_EQ(Concurrent.Attempts, Options.RetryAttempts + 1);
    }
  }
}

TEST(UnifiedReplayPathFaults, FaultScenarioChangesTheObservations) {
  // Guards the Faulted rows above against an inert injection.
  const Platform P = testPlatform();
  AdaptiveOptions Options;
  Options.MinReps = Options.MaxReps = Reps;
  const AdaptiveResult Clean =
      measureBcast(P, NumProcs, bcastConfig(), Options);
  ScopedMode Scope(Mode::Faulted);
  const AdaptiveResult Faulted =
      measureBcast(P, NumProcs, bcastConfig(), Options);
  EXPECT_NE(Clean.Observations, Faulted.Observations);
}

//===----------------------------------------------------------------------===//
// Every runner rejects more ranks than the platform hosts with the same
// fatal error.
//===----------------------------------------------------------------------===//

/// Death tests run while the measurement helper pool is alive: a
/// forked child inherits the pool object but none of its threads, so
/// its measurements must finish on the calling thread alone.
class RunnerDeathTest : public ::testing::Test {
protected:
  void SetUp() override {
    AdaptiveOptions Options;
    Options.MinReps = Options.MaxReps = 4;
    measureBcast(testPlatform(), NumProcs, bcastConfig(), Options);
  }
};

namespace {

/// Rank 1 waits for a message rank 0 never sends.
BuiltSchedule deadlockingSchedule() {
  ScheduleBuilder B(2);
  BuiltSchedule Built;
  const OpId Compute = B.addCompute(0, 1e-6);
  const OpId Stuck = B.addRecv(1, 0, 1024, /*Tag=*/3);
  Built.Exit = {Compute, Stuck};
  Built.S = B.take();
  return Built;
}

/// \p Text as a POSIX extended regular expression matching itself.
std::string literalRegex(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (std::string("\\^$.|?*+()[]{}").find(C) != std::string::npos)
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

TEST_F(RunnerDeathTest, DeadlockingExperimentListsTheStuckOps) {
  const Platform P = testPlatform();
  AdaptiveOptions Options;
  const ExecutionResult Reference = runSchedule(
      deadlockingSchedule().S, P, SplitMix64(Options.BaseSeed).next());
  ASSERT_FALSE(Reference.Completed);
  const std::string StuckList = literalRegex(Reference.Diagnostic);
  const Experiment E(P, 2, "test-deadlock", "deadlock-test",
                     deadlockingSchedule);
  EXPECT_DEATH(E.measure(Options), "deadlock-test schedule deadlocked: " +
                                       StuckList);
  EXPECT_DEATH(E.run(Options.BaseSeed), StuckList);
}

TEST_F(RunnerDeathTest, BcastRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareBcast(P, Over, bcastConfig()).run(0), TooManyRanks);
  EXPECT_DEATH(measureBcast(P, Over, bcastConfig()), TooManyRanks);
  EXPECT_DEATH(prepareBcast(P, Over, bcastConfig(), GatherBytes).run(0),
               TooManyRanks);
}

TEST_F(RunnerDeathTest, ScatterRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareScatter(P, Over, scatterConfig()).run(0), TooManyRanks);
  EXPECT_DEATH(measureScatter(P, Over, scatterConfig()), TooManyRanks);
  EXPECT_DEATH(
      prepareScatter(P, Over, scatterConfig(), GatherBytes).run(0),
      TooManyRanks);
}

TEST_F(RunnerDeathTest, ReduceRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareReduce(P, Over, reduceConfig()).run(0), TooManyRanks);
  EXPECT_DEATH(measureReduce(P, Over, reduceConfig()), TooManyRanks);
  EXPECT_DEATH(prepareReduce(P, Over, reduceConfig(), GatherBytes).run(0),
               TooManyRanks);
}

TEST_F(RunnerDeathTest, AllgatherRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareAllgather(P, Over, allgatherConfig()).run(0),
               TooManyRanks);
  EXPECT_DEATH(measureAllgather(P, Over, allgatherConfig()), TooManyRanks);
  EXPECT_DEATH(
      prepareAllgather(P, Over, allgatherConfig(), GatherBytes).run(0),
      TooManyRanks);
}

TEST_F(RunnerDeathTest, AllreduceRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareAllreduce(P, Over, allreduceConfig()).run(0),
               TooManyRanks);
  EXPECT_DEATH(measureAllreduce(P, Over, allreduceConfig()), TooManyRanks);
  EXPECT_DEATH(
      prepareAllreduce(P, Over, allreduceConfig(), GatherBytes).run(0),
      TooManyRanks);
}
