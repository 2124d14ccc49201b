//===- tests/TestObs.cpp - Metrics registry, run journal, env parsing -----===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Pins the observability contract: counters shard correctly across
// threads and are exact no-ops when disabled, the JSONL journal is
// well-formed line-oriented JSON with a stable compact rendering, and
// -- the property everything else rides on -- enabling metrics changes
// no computed result bit (differential test against a metrics-off
// run). Also pins the env/CLI parsing fixes that shipped with the
// layer: out-of-range MPICSEL_FAULTS seeds die loudly instead of
// clamping, out-of-range decision-cache fields are a corrupt-entry
// miss instead of silently clamping to 2^64-1, and out-of-range
// integer flags are rejected.
//
//===----------------------------------------------------------------------===//

#include "coll/Bcast.h"
#include "fault/Fault.h"
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "model/ScatterSelection.h"
#include "mpi/CompiledSchedule.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "sim/Engine.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace mpicsel;

namespace {

/// A small fast platform with mild noise (mirrors TestParallel).
Platform smallCluster() {
  Platform P = makeTestPlatform(24);
  P.NoiseSigma = 0.01;
  return P;
}

/// Calibration options trimmed for test runtime.
CalibrationOptions quickOptions(unsigned NumProcs) {
  CalibrationOptions Options;
  Options.NumProcs = NumProcs;
  Options.MessageSizes = {8192, 32768, 131072, 524288, 2097152};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  return Options;
}

/// Asserts bit-for-bit equality of two calibration results.
void expectModelsIdentical(const CalibratedModels &A,
                           const CalibratedModels &B) {
  EXPECT_EQ(A.SegmentBytes, B.SegmentBytes);
  EXPECT_EQ(A.KChainFanout, B.KChainFanout);
  ASSERT_EQ(A.Gamma.measuredMax(), B.Gamma.measuredMax());
  for (unsigned P = 2; P <= A.Gamma.measuredMax() + 3; ++P)
    EXPECT_EQ(A.Gamma(P), B.Gamma(P)) << "gamma P=" << P;
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const AlgorithmCalibration &CA = A.of(Alg);
    const AlgorithmCalibration &CB = B.of(Alg);
    EXPECT_EQ(CA.Alpha, CB.Alpha) << bcastAlgorithmName(Alg);
    EXPECT_EQ(CA.Beta, CB.Beta) << bcastAlgorithmName(Alg);
  }
}

/// Reads a whole file into a string.
std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Splits \p Text into its non-empty lines.
std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Out.push_back(Line);
  return Out;
}

/// A unique path under the test temp dir.
std::string tempPath(const char *Name) {
  return ::testing::TempDir() + "mpicsel-obs-" + Name;
}

/// RAII: leaves the process with metrics off and the journal closed,
/// whatever the test did.
struct ObservabilityReset {
  ~ObservabilityReset() {
    obs::Journal::global().configure("");
    obs::setMetricsEnabled(false);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersSumAcrossEightThreads) {
  ObservabilityReset Reset;
  obs::setMetricsEnabled(true);
  const obs::MetricsSnapshot Before = obs::snapshotMetrics();

  constexpr unsigned NumThreads = 8;
  constexpr std::uint64_t PerThread = 10000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([] {
      for (std::uint64_t I = 0; I != PerThread; ++I)
        obs::bump(obs::Counter::PoolSteals);
      obs::bump(obs::Counter::PoolTasks, 5);
    });
  for (std::thread &T : Threads)
    T.join();

  const obs::MetricsSnapshot After = obs::snapshotMetrics();
  EXPECT_EQ(After.counter(obs::Counter::PoolSteals) -
                Before.counter(obs::Counter::PoolSteals),
            NumThreads * PerThread);
  EXPECT_EQ(After.counter(obs::Counter::PoolTasks) -
                Before.counter(obs::Counter::PoolTasks),
            NumThreads * 5u);
}

TEST(Metrics, DisabledBumpIsANoOp) {
  ObservabilityReset Reset;
  obs::setMetricsEnabled(false);
  const obs::MetricsSnapshot Before = obs::snapshotMetrics();
  for (int I = 0; I != 100; ++I)
    obs::bump(obs::Counter::EngineReplays);
  obs::gaugeMax(obs::Gauge::PoolThreads, 64);
  const obs::MetricsSnapshot After = obs::snapshotMetrics();
  EXPECT_EQ(After.counter(obs::Counter::EngineReplays),
            Before.counter(obs::Counter::EngineReplays));
  EXPECT_EQ(After.gauge(obs::Gauge::PoolThreads),
            Before.gauge(obs::Gauge::PoolThreads));
}

TEST(Metrics, GaugeKeepsRunningMaximum) {
  ObservabilityReset Reset;
  obs::setMetricsEnabled(true);
  const std::uint64_t Target =
      obs::snapshotMetrics().gauge(obs::Gauge::SweepThreads) + 10;
  obs::gaugeMax(obs::Gauge::SweepThreads, Target);
  obs::gaugeMax(obs::Gauge::SweepThreads, Target - 7);
  EXPECT_EQ(obs::snapshotMetrics().gauge(obs::Gauge::SweepThreads), Target);
}

TEST(Metrics, ScopedTimerCreditsItsPhase) {
  ObservabilityReset Reset;
  obs::setMetricsEnabled(true);
  const obs::MetricsSnapshot Before = obs::snapshotMetrics();
  {
    obs::ScopedTimer Timer(obs::Phase::GammaFit);
    ASSERT_TRUE(Timer.active());
    while (Timer.elapsedNs() == 0) {
    }
  }
  const obs::MetricsSnapshot After = obs::snapshotMetrics();
  EXPECT_EQ(After.phaseCalls(obs::Phase::GammaFit),
            Before.phaseCalls(obs::Phase::GammaFit) + 1);
  EXPECT_GT(After.phaseNs(obs::Phase::GammaFit),
            Before.phaseNs(obs::Phase::GammaFit));
}

TEST(Metrics, EveryNameIsNonEmptyAndDotSeparated) {
  for (std::size_t I = 0; I != obs::NumCounters; ++I) {
    const std::string Name = obs::counterName(static_cast<obs::Counter>(I));
    EXPECT_NE(Name.find('.'), std::string::npos) << Name;
  }
  for (std::size_t I = 0; I != obs::NumGauges; ++I) {
    const std::string Name = obs::gaugeName(static_cast<obs::Gauge>(I));
    EXPECT_NE(Name.find('.'), std::string::npos) << Name;
  }
  for (std::size_t I = 0; I != obs::NumPhases; ++I)
    EXPECT_FALSE(
        std::string(obs::phaseName(static_cast<obs::Phase>(I))).empty());
}

TEST(Metrics, RunnerExperimentsCountEveryReplayOfEveryCollective) {
  ObservabilityReset Reset;
  obs::setMetricsEnabled(true);
  Platform Plat = smallCluster();
  const obs::MetricsSnapshot Before = obs::snapshotMetrics();

  AllreduceCalibrationOptions Options;
  Options.NumProcs = 12;
  Options.MessageSizes = {8192, 65536, 524288};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 5;
  Options.GammaOptions.Adaptive = Options.Adaptive;
  calibrateAllreduce(Plat, Options);

  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 5;
  const obs::MetricsSnapshot BeforeDirect = obs::snapshotMetrics();
  std::size_t Observed = 0;
  BcastConfig Bcast;
  Bcast.MessageBytes = 65536;
  Observed += measureBcast(Plat, 12, Bcast, Quick).Observations.size();
  ScatterConfig Scatter;
  Scatter.BlockBytes = 4096;
  Observed += measureScatter(Plat, 12, Scatter, Quick).Observations.size();
  ReduceConfig Reduce;
  Reduce.MessageBytes = 65536;
  Observed += measureReduce(Plat, 12, Reduce, Quick).Observations.size();
  AllgatherConfig Allgather;
  Allgather.BlockBytes = 4096;
  Observed +=
      measureAllgather(Plat, 12, Allgather, Quick).Observations.size();
  AllreduceConfig Allreduce;
  Allreduce.MessageBytes = 65536;
  Observed +=
      measureAllreduce(Plat, 12, Allreduce, Quick).Observations.size();

  // runner.experiments counts every simulated experiment, of every
  // collective, calibration and gamma trains included: one per replay.
  const obs::MetricsSnapshot After = obs::snapshotMetrics();
  // The measurements replay their first repetitions side by side, but
  // never one the serial loop would not have run: every replay is an
  // observation.
  EXPECT_EQ(After.counter(obs::Counter::EngineReplays) -
                BeforeDirect.counter(obs::Counter::EngineReplays),
            Observed);
  const std::uint64_t Experiments =
      After.counter(obs::Counter::RunnerExperiments) -
      Before.counter(obs::Counter::RunnerExperiments);
  const std::uint64_t Replays = After.counter(obs::Counter::EngineReplays) -
                                Before.counter(obs::Counter::EngineReplays);
  EXPECT_GT(Replays, 0u);
  EXPECT_EQ(Experiments, Replays);
  // calib.experiments counts the calibration's own measurements: one
  // per (algorithm, size) point, 3 allreduce algorithms x 3 sizes.
  EXPECT_EQ(After.counter(obs::Counter::CalibExperiments) -
                Before.counter(obs::Counter::CalibExperiments),
            9u);
}

//===----------------------------------------------------------------------===//
// JSONL run journal
//===----------------------------------------------------------------------===//

TEST(Journal, CompactRenderingIsStable) {
  JsonObject Event;
  Event.set("ev", "span");
  Event.set("n", static_cast<std::uint64_t>(42));
  Event.set("x", 0.5);
  Event.set("s", "a\"b\nc");
  JsonObject Sub;
  Sub.set("k", true);
  Event.set("sub", std::move(Sub));
  EXPECT_EQ(Event.renderCompact(),
            "{\"ev\":\"span\",\"n\":42,\"x\":0.5,"
            "\"s\":\"a\\\"b\\nc\",\"sub\":{\"k\":true}}");
}

TEST(Journal, WritesOneEventPerLineAndASummary) {
  ObservabilityReset Reset;
  const std::string Path = tempPath("journal.jsonl");
  std::remove(Path.c_str());

  obs::Journal &J = obs::Journal::global();
  J.configure(Path);
  ASSERT_TRUE(J.enabled());
  EXPECT_TRUE(obs::metricsEnabled()) << "one knob drives both";

  obs::bump(obs::Counter::CacheHits, 3);
  {
    JsonObject Event = J.line("test");
    Event.set("detail", "quoted \"text\"\nsecond line");
    Event.set("value", static_cast<std::uint64_t>(7));
    J.write(Event);
  }
  { obs::PhaseSpan Span(obs::Phase::Selection, "unit-test"); }
  J.close();
  EXPECT_FALSE(J.enabled());

  const std::vector<std::string> Events = lines(slurp(Path));
  ASSERT_EQ(Events.size(), 3u) << "test event, span, final summary";

  // Every line is a single JSON object carrying ev and t_ms.
  for (const std::string &Line : Events) {
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
    EXPECT_EQ(Line.rfind("{\"ev\":\"", 0), 0u) << Line;
    EXPECT_NE(Line.find("\"t_ms\":"), std::string::npos) << Line;
  }
  EXPECT_NE(Events[0].find("\"detail\":\"quoted \\\"text\\\"\\nsecond line\""),
            std::string::npos);
  EXPECT_NE(Events[0].find("\"value\":7"), std::string::npos);
  EXPECT_EQ(Events[1].rfind("{\"ev\":\"span\"", 0), 0u);
  EXPECT_NE(Events[1].find("\"phase\":\"selection\""), std::string::npos);
  EXPECT_NE(Events[1].find("\"detail\":\"unit-test\""), std::string::npos);
  EXPECT_EQ(Events[2].rfind("{\"ev\":\"counters\"", 0), 0u);
  EXPECT_NE(Events[2].find("\"cache.hits\":"), std::string::npos);
}

TEST(Journal, DisabledJournalWritesNothing) {
  ObservabilityReset Reset;
  obs::Journal &J = obs::Journal::global();
  J.configure("");
  EXPECT_FALSE(J.enabled());
  EXPECT_FALSE(obs::metricsEnabled());
  // write() against a closed sink is a silent no-op.
  JsonObject Event = J.line("ignored");
  J.write(Event);
  obs::journalCounterSummary();
}

//===----------------------------------------------------------------------===//
// Differential: metrics on changes no computed bit
//===----------------------------------------------------------------------===//

TEST(Differential, CalibrationIsBitIdenticalWithMetricsOn) {
  ObservabilityReset Reset;
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);

  obs::Journal::global().configure("");
  ASSERT_FALSE(obs::metricsEnabled());
  const CalibratedModels Off = calibrate(Plat, Options);

  const std::string Path = tempPath("differential.jsonl");
  std::remove(Path.c_str());
  obs::Journal::global().configure(Path);
  ASSERT_TRUE(obs::metricsEnabled());
  const CalibratedModels On = calibrate(Plat, Options);
  obs::Journal::global().close();

  expectModelsIdentical(Off, On);

  // The journal recorded the run it observed without perturbing it:
  // at least the calibration phase span and the counter summary.
  const std::string Text = slurp(Path);
  EXPECT_NE(Text.find("\"phase\":\"calibration\""), std::string::npos);
  EXPECT_NE(Text.find("\"ev\":\"counters\""), std::string::npos);
  EXPECT_NE(Text.find("\"calib.experiments\":"), std::string::npos);
}

TEST(Differential, EngineReplayIsBitIdenticalWithMetricsOn) {
  ObservabilityReset Reset;
  Platform Plat = smallCluster();
  ScheduleBuilder B(16);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 1 << 16;
  Config.SegmentBytes = 8 << 10;
  appendBcast(B, Config);
  CompiledSchedule CS = compileSchedule(B.take());

  obs::setMetricsEnabled(false);
  Engine EngineOff;
  const ExecutionResult Off = EngineOff.run(CS, Plat, 1234);

  obs::setMetricsEnabled(true);
  const obs::MetricsSnapshot Before = obs::snapshotMetrics();
  Engine EngineOn;
  const ExecutionResult On = EngineOn.run(CS, Plat, 1234);
  const obs::MetricsSnapshot After = obs::snapshotMetrics();

  EXPECT_EQ(Off.Completed, On.Completed);
  EXPECT_EQ(Off.Makespan, On.Makespan);
  ASSERT_EQ(Off.Timings.size(), On.Timings.size());
  for (std::size_t I = 0; I != Off.Timings.size(); ++I) {
    EXPECT_EQ(Off.Timings[I].StartTime, On.Timings[I].StartTime);
    EXPECT_EQ(Off.Timings[I].DoneTime, On.Timings[I].DoneTime);
  }

  // The instrumented run was counted; the uninstrumented one paid
  // nothing and left no trace.
  EXPECT_EQ(After.counter(obs::Counter::EngineReplays) -
                Before.counter(obs::Counter::EngineReplays),
            1u);
  EXPECT_GE(After.counter(obs::Counter::EngineEvents),
            Before.counter(obs::Counter::EngineEvents) + CS.numOps());
}

//===----------------------------------------------------------------------===//
// MPICSEL_FAULTS seed parsing (regression: seeds past 2^64-1 used to
// clamp to ULLONG_MAX and silently select a different fault universe)
//===----------------------------------------------------------------------===//

using FaultSpecDeathTest = ::testing::Test;

TEST(FaultSpecDeathTest, OutOfRangeSeedDiesLoudly) {
  EXPECT_DEATH(makeFaultScenarioFromSpec("noisy:99999999999999999999999"),
               "out of range");
}

TEST(FaultSpecDeathTest, NegativeSeedDiesLoudly) {
  EXPECT_DEATH(makeFaultScenarioFromSpec("noisy:-1"), "non-negative");
}

TEST(FaultSpecDeathTest, MalformedSeedDiesLoudly) {
  EXPECT_DEATH(makeFaultScenarioFromSpec("noisy:12abc"),
               "must be an integer");
}

TEST(FaultSpecDeathTest, UnknownScenarioDiesLoudly) {
  EXPECT_DEATH(makeFaultScenarioFromSpec("tornado"),
               "unknown fault scenario");
}

TEST(FaultSpec, ValidSpecsParse) {
  EXPECT_TRUE(makeFaultScenarioFromSpec("clean").events().empty());
  FaultSchedule Hex = makeFaultScenarioFromSpec("noisy:0x10");
  FaultSchedule Dec = makeFaultScenarioFromSpec("noisy:16");
  ASSERT_FALSE(Hex.events().empty());
  EXPECT_EQ(Hex.events().size(), Dec.events().size());
}

//===----------------------------------------------------------------------===//
// Decision-cache entry parsing (regression: out-of-range numeric
// fields used to clamp to 2^64-1 and load "successfully")
//===----------------------------------------------------------------------===//

TEST(DecisionCacheRobustness, OutOfRangeFieldIsACorruptEntryMiss) {
  ObservabilityReset Reset;
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  const std::string Dir = ::testing::TempDir() + "mpicsel-cache-obs-range";
  DecisionCache(Dir).clear();
  DecisionCache Cache(Dir);
  const std::string Key = DecisionCache::calibrationKey(Plat, Options);

  CalibratedModels Models = calibrate(Plat, Options);
  ASSERT_TRUE(Cache.storeModels(Key, Models));

  // Corrupt ONLY the segment field of the valid entry: every other
  // line still parses, so a clamping u64 reader would "succeed" and
  // hand back SegmentBytes == 2^64-1.
  const std::string Path = Dir + "/calib-" + Key + ".txt";
  std::string Text = slurp(Path);
  const std::string Needle = strFormat(
      "segment %llu", static_cast<unsigned long long>(Models.SegmentBytes));
  const std::size_t At = Text.find(Needle);
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, Needle.size(), "segment 99999999999999999999999999");
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Text.data(), 1, Text.size(), File), Text.size());
  std::fclose(File);

  CalibratedModels Loaded;
  EXPECT_FALSE(Cache.loadModels(Key, Loaded));
  EXPECT_EQ(Cache.stats().Corrupt, 1u);
  EXPECT_EQ(Cache.stats().Misses, 1u) << "corrupt counts as a miss";
}

//===----------------------------------------------------------------------===//
// Command-line integer parsing (regression: values past int64 range)
//===----------------------------------------------------------------------===//

TEST(CommandLineRange, OutOfRangeIntegerFlagIsRejected) {
  std::int64_t Reps = 0;
  CommandLine Cli("test");
  Cli.addFlag("reps", "repetitions", Reps);
  const char *Argv[] = {"prog", "--reps", "99999999999999999999999"};
  EXPECT_FALSE(Cli.parse(3, Argv));
  EXPECT_EQ(Reps, 0) << "storage untouched on rejection";
}

TEST(CommandLineRange, MalformedAndValidIntegerFlags) {
  std::int64_t Value = 0;
  CommandLine Cli("test");
  Cli.addFlag("value", "an integer", Value);
  {
    const char *Argv[] = {"prog", "--value=12abc"};
    EXPECT_FALSE(Cli.parse(2, Argv));
  }
  {
    const char *Argv[] = {"prog", "--value", "0x10"};
    EXPECT_TRUE(Cli.parse(3, Argv));
    EXPECT_EQ(Value, 16);
  }
  {
    const char *Argv[] = {"prog", "--value", "-42"};
    EXPECT_TRUE(Cli.parse(3, Argv));
    EXPECT_EQ(Value, -42);
  }
}
