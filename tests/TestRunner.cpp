//===- tests/TestRunner.cpp - The one replay path vs runSchedule ----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Every runner of every collective measures through model/Runner's
// Experiment: a measurement builds and compiles its schedule once and
// replays each repetition on the calling thread's warm Engine. That
// must change the cost only. For each collective and experiment kind
// (plain, and followed by the Sect. 4.2 linear gather), a
// measurement's observations must equal those of building the schedule
// afresh and calling runSchedule once per repetition over the same
// seed stream -- fault-free, under a fault scenario, through the
// legacy interpreter and with pre-flight verification on. The runners
// also share one rank-count check.
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
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
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

using RunnerDeathTest = ::testing::Test;

TEST(RunnerDeathTest, BcastRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareBcast(P, Over, bcastConfig()).run(0), TooManyRanks);
  EXPECT_DEATH(measureBcast(P, Over, bcastConfig()), TooManyRanks);
  EXPECT_DEATH(prepareBcast(P, Over, bcastConfig(), GatherBytes).run(0),
               TooManyRanks);
}

TEST(RunnerDeathTest, ScatterRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareScatter(P, Over, scatterConfig()).run(0), TooManyRanks);
  EXPECT_DEATH(measureScatter(P, Over, scatterConfig()), TooManyRanks);
  EXPECT_DEATH(
      prepareScatter(P, Over, scatterConfig(), GatherBytes).run(0),
      TooManyRanks);
}

TEST(RunnerDeathTest, ReduceRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareReduce(P, Over, reduceConfig()).run(0), TooManyRanks);
  EXPECT_DEATH(measureReduce(P, Over, reduceConfig()), TooManyRanks);
  EXPECT_DEATH(prepareReduce(P, Over, reduceConfig(), GatherBytes).run(0),
               TooManyRanks);
}

TEST(RunnerDeathTest, AllgatherRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareAllgather(P, Over, allgatherConfig()).run(0),
               TooManyRanks);
  EXPECT_DEATH(measureAllgather(P, Over, allgatherConfig()), TooManyRanks);
  EXPECT_DEATH(
      prepareAllgather(P, Over, allgatherConfig(), GatherBytes).run(0),
      TooManyRanks);
}

TEST(RunnerDeathTest, AllreduceRejectsMoreRanksThanThePlatformHosts) {
  const Platform P = testPlatform();
  const unsigned Over = P.maxProcs() + 1;
  EXPECT_DEATH(prepareAllreduce(P, Over, allreduceConfig()).run(0),
               TooManyRanks);
  EXPECT_DEATH(measureAllreduce(P, Over, allreduceConfig()), TooManyRanks);
  EXPECT_DEATH(
      prepareAllreduce(P, Over, allreduceConfig(), GatherBytes).run(0),
      TooManyRanks);
}
