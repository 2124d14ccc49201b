//===- tests/TestDrift.cpp - Drift sentinel state-machine tests -----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Covers the drift sentinel end to end: detector dynamics (deadband,
// leak, MAD screen, min-samples gate), reference-profile semantics,
// region quarantine, the RobustSelector degradation, and the
// quarantine/repair state machine -- a healthy repair is bit-identical
// to the clean calibration, a defective patch is rejected in strict
// mode and given up after bounded backoff.
//
//===----------------------------------------------------------------------===//

#include "coll/OmpiDecision.h"
#include "drift/Drift.h"
#include "fault/Fault.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "model/RobustSelector.h"
#include "model/Runner.h"
#include "sim/Engine.h"
#include "stat/ParallelSweep.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

using namespace mpicsel;

namespace {

/// Environment guard: sets MPICSEL_DRIFT for one test and restores
/// the previous value on destruction.
struct ScopedDriftEnv {
  explicit ScopedDriftEnv(const char *Value) {
    const char *Prev = std::getenv("MPICSEL_DRIFT");
    Had = Prev != nullptr;
    if (Had)
      Was = Prev;
    if (Value)
      setenv("MPICSEL_DRIFT", Value, 1);
    else
      unsetenv("MPICSEL_DRIFT");
  }
  ~ScopedDriftEnv() {
    if (Had)
      setenv("MPICSEL_DRIFT", Was.c_str(), 1);
    else
      unsetenv("MPICSEL_DRIFT");
  }
  bool Had = false;
  std::string Was;
};

/// Feeds \p N identical (predicted, observed) pairs into one cell.
unsigned feed(DriftSentinel &S, BcastAlgorithm Alg, unsigned P,
              std::uint64_t M, double Predicted, double Observed, unsigned N,
              DriftTrip *Trip = nullptr) {
  unsigned Tripped = 0;
  for (unsigned I = 0; I != N; ++I)
    if (S.observePair(Alg, P, M, Predicted, Observed, Trip))
      ++Tripped;
  return Tripped;
}

} // namespace

//===----------------------------------------------------------------------===//
// Mode plumbing.
//===----------------------------------------------------------------------===//

TEST(DriftMode, EnvParsesTheThreeModes) {
  {
    ScopedDriftEnv E(nullptr);
    EXPECT_EQ(driftModeFromEnv(), DriftMode::Off);
  }
  {
    ScopedDriftEnv E("");
    EXPECT_EQ(driftModeFromEnv(), DriftMode::Off);
  }
  {
    ScopedDriftEnv E("off");
    EXPECT_EQ(driftModeFromEnv(), DriftMode::Off);
  }
  {
    ScopedDriftEnv E("warn");
    EXPECT_EQ(driftModeFromEnv(), DriftMode::Warn);
  }
  {
    ScopedDriftEnv E("repair");
    EXPECT_EQ(driftModeFromEnv(), DriftMode::Repair);
  }
  EXPECT_STREQ(driftModeName(DriftMode::Off), "off");
  EXPECT_STREQ(driftModeName(DriftMode::Warn), "warn");
  EXPECT_STREQ(driftModeName(DriftMode::Repair), "repair");
}

TEST(DriftMode, EnvInstallIsANoOpWhenOff) {
  // MPICSEL_DRIFT=off (or unset) must leave the process sentinel-free:
  // the replay path takes the exact pre-sentinel branch.
  ScopedDriftEnv E("off");
  CalibratedModels Models;
  EXPECT_EQ(installDriftSentinelFromEnv(&Models), nullptr);
  EXPECT_EQ(globalDriftSentinel(), nullptr);
}

TEST(DriftMode, EnvInstallBindsAndPublishesTheSentinel) {
  ScopedDriftEnv E("warn");
  CalibratedModels Models;
  DriftSentinel *S = installDriftSentinelFromEnv(&Models);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->mode(), DriftMode::Warn);
  EXPECT_EQ(S->models(), &Models);
  EXPECT_EQ(globalDriftSentinel(), S);
  setGlobalDriftSentinel(nullptr);
}

TEST(DriftMode, OffSentinelIgnoresTheFeed) {
  DriftSentinel S(DriftMode::Off);
  EXPECT_EQ(feed(S, BcastAlgorithm::Binary, 16, 64 * 1024, 1.0, 50.0, 20), 0u);
  EXPECT_EQ(S.stats().Samples, 0u);
  EXPECT_EQ(S.stats().Cells, 0u);
  EXPECT_TRUE(S.trips().empty());
}

//===----------------------------------------------------------------------===//
// Detector dynamics.
//===----------------------------------------------------------------------===//

TEST(DriftDetector, SustainedResidualTripsAtMinSamples) {
  // observed = 3 x predicted: residual r = 2, deviation log1p(2) =
  // 1.0986 against the r_ref = 0 fallback. Excess per sample is
  // ~0.75, so the score crosses TripThreshold=1.5 on sample 2 -- but
  // the MinSamples=5 gate must hold the trip until sample 5, and the
  // cell must trip exactly once.
  DriftSentinel S(DriftMode::Repair);
  DriftTrip Trip;
  for (unsigned I = 1; I <= 4; ++I) {
    EXPECT_FALSE(S.observePair(BcastAlgorithm::Binary, 16, 64 * 1024, 1.0, 3.0,
                               &Trip))
        << "tripped early at sample " << I;
  }
  EXPECT_TRUE(
      S.observePair(BcastAlgorithm::Binary, 16, 64 * 1024, 1.0, 3.0, &Trip));
  EXPECT_EQ(Trip.Algorithm, BcastAlgorithm::Binary);
  EXPECT_EQ(Trip.NumProcs, 16u);
  EXPECT_EQ(Trip.SizeBucket, 16u); // floor(log2 65536)
  EXPECT_EQ(Trip.MessageBytes, 64u * 1024u);
  EXPECT_EQ(Trip.Samples, 5u);
  EXPECT_GT(Trip.Score, S.options().TripThreshold);
  EXPECT_NEAR(Trip.Residual, 2.0, 1e-12);
  EXPECT_NEAR(Trip.Deviation, 1.0986122886681098, 1e-12);
  // Already tripped: further excess does not re-trip.
  EXPECT_EQ(feed(S, BcastAlgorithm::Binary, 16, 64 * 1024, 1.0, 3.0, 5), 0u);
  ASSERT_EQ(S.trips().size(), 1u);
  EXPECT_EQ(S.stats().Trips, 1u);
  EXPECT_EQ(S.stats().Quarantined, 1u);
}

TEST(DriftDetector, InBandResidualNeverTrips) {
  // 5% residual -> deviation ~0.049, far inside the 0.35 deadband.
  DriftSentinel S(DriftMode::Repair);
  EXPECT_EQ(feed(S, BcastAlgorithm::Chain, 32, 1024 * 1024, 1.0, 1.05, 200),
            0u);
  EXPECT_TRUE(S.trips().empty());
  EXPECT_EQ(S.stats().Samples, 200u);
  EXPECT_EQ(S.stats().Screened, 0u);
}

TEST(DriftDetector, LeakDrainsTransientExcursions) {
  // Two out-of-band samples leave the score just under the threshold
  // (2 x (1.0986 - 0.35) = 1.497); a long in-band tail must drain it
  // rather than let later noise ratchet the cell into a trip.
  DriftSentinel S(DriftMode::Repair);
  EXPECT_EQ(feed(S, BcastAlgorithm::Binomial, 16, 8 * 1024, 1.0, 3.0, 2), 0u);
  EXPECT_EQ(feed(S, BcastAlgorithm::Binomial, 16, 8 * 1024, 1.0, 1.02, 100),
            0u);
  EXPECT_TRUE(S.trips().empty());
  // After the drain a fresh excursion still needs the full threshold:
  // one more out-of-band sample cannot trip.
  EXPECT_EQ(feed(S, BcastAlgorithm::Binomial, 16, 8 * 1024, 1.0, 3.0, 1), 0u);
  EXPECT_TRUE(S.trips().empty());
}

TEST(DriftDetector, MadScreenRejectsLoneSpike) {
  // A quiet cell with slight jitter, then one 100x spike. The spike's
  // deviation (~4.6) would trip on the spot if scored; the MAD screen
  // must reject it, and the cell must stay clean afterwards.
  DriftSentinel S(DriftMode::Repair);
  const double Jitter[] = {1.020, 1.021, 1.019, 1.022, 1.018, 1.021};
  for (double O : Jitter)
    EXPECT_FALSE(
        S.observePair(BcastAlgorithm::KChain, 16, 128 * 1024, 1.0, O));
  EXPECT_FALSE(
      S.observePair(BcastAlgorithm::KChain, 16, 128 * 1024, 1.0, 100.0));
  EXPECT_EQ(S.stats().Screened, 1u);
  EXPECT_EQ(feed(S, BcastAlgorithm::KChain, 16, 128 * 1024, 1.0, 1.02, 50),
            0u);
  EXPECT_TRUE(S.trips().empty());
}

TEST(DriftDetector, ReferenceProfileJudgesDeviationNotMagnitude) {
  // The paper's models carry honest per-cell error; a cell whose
  // commissioned residual is r = 2 must NOT trip while replays keep
  // delivering r = 2 -- and MUST trip when the residual collapses to
  // zero (a model suddenly predicting perfectly is as suspicious as
  // one predicting worse).
  DriftSentinel S(DriftMode::Repair);
  S.beginReferenceCapture();
  feed(S, BcastAlgorithm::SplitBinary, 16, 8 * 1024, 1.0, 3.0, 8);
  S.endReferenceCapture();
  // Same honest error as commissioned: deviation ~0, never trips.
  EXPECT_EQ(feed(S, BcastAlgorithm::SplitBinary, 16, 8 * 1024, 1.0, 3.0, 50),
            0u);
  EXPECT_TRUE(S.trips().empty());
  // Suspiciously perfect predictions: deviation |0 - log1p(2)| = 1.1
  // per sample, trips once the gate opens.
  EXPECT_EQ(feed(S, BcastAlgorithm::SplitBinary, 16, 8 * 1024, 1.0, 1.0, 60),
            1u);
  ASSERT_EQ(S.trips().size(), 1u);
  EXPECT_EQ(S.trips()[0].Algorithm, BcastAlgorithm::SplitBinary);
}

TEST(DriftDetector, ReportIsBitIdenticalAcrossFeedThreadCounts) {
  // Four cells, each with its own deterministic sample stream. Fed
  // sequentially vs. one thread per cell, the rendered report must be
  // byte-identical: per-cell arithmetic only depends on per-cell
  // sample order.
  const BcastAlgorithm Algs[] = {BcastAlgorithm::Linear,
                                 BcastAlgorithm::Chain,
                                 BcastAlgorithm::Binary,
                                 BcastAlgorithm::Binomial};
  auto streamFor = [](unsigned Cell) {
    std::vector<double> Observed;
    for (unsigned I = 0; I != 40; ++I)
      Observed.push_back(1.0 + 0.01 * static_cast<double>((Cell * 7 + I * 13) %
                                                          29) +
                         (I % 11 == 0 ? 1.5 : 0.0));
    return Observed;
  };

  DriftSentinel Seq(DriftMode::Repair);
  for (unsigned C = 0; C != 4; ++C)
    for (double O : streamFor(C))
      Seq.observePair(Algs[C], 16, 64 * 1024, 1.0, O);

  DriftSentinel Par(DriftMode::Repair);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != 4; ++C)
    Threads.emplace_back([&Par, &Algs, C, &streamFor] {
      for (double O : streamFor(C))
        Par.observePair(Algs[C], 16, 64 * 1024, 1.0, O);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Seq.report(), Par.report());
  EXPECT_EQ(Seq.stats().Samples, Par.stats().Samples);
  EXPECT_EQ(Seq.stats().Screened, Par.stats().Screened);
  EXPECT_EQ(Seq.stats().Trips, Par.stats().Trips);
}

//===----------------------------------------------------------------------===//
// Quarantine semantics.
//===----------------------------------------------------------------------===//

TEST(DriftQuarantine, WarnModeTripsWithoutQuarantine) {
  DriftSentinel S(DriftMode::Warn);
  EXPECT_EQ(feed(S, BcastAlgorithm::Binary, 16, 64 * 1024, 1.0, 3.0, 10), 1u);
  EXPECT_EQ(S.stats().Trips, 1u);
  EXPECT_EQ(S.stats().Quarantined, 0u);
  EXPECT_FALSE(S.isQuarantined(BcastAlgorithm::Binary, 16, 64 * 1024));
  EXPECT_FALSE(S.anyQuarantined(16, 64 * 1024));
}

TEST(DriftQuarantine, RegionCoversEveryAlgorithmOfTheBucket) {
  DriftSentinel S(DriftMode::Repair);
  feed(S, BcastAlgorithm::Binary, 16, 64 * 1024, 1.0, 3.0, 10);
  EXPECT_TRUE(S.isQuarantined(BcastAlgorithm::Binary, 16, 64 * 1024));
  // The whole (P, bucket) region is poisoned, whichever algorithm the
  // argmin would rank first...
  EXPECT_TRUE(S.anyQuarantined(16, 64 * 1024));
  // ...including other sizes of the same power-of-two bucket...
  EXPECT_TRUE(S.anyQuarantined(16, 64 * 1024 + 512));
  // ...but not neighbouring buckets or other communicator sizes.
  EXPECT_FALSE(S.anyQuarantined(16, 128 * 1024));
  EXPECT_FALSE(S.anyQuarantined(16, 32 * 1024));
  EXPECT_FALSE(S.anyQuarantined(32, 64 * 1024));

  S.clearQuarantine(BcastAlgorithm::Binary);
  EXPECT_FALSE(S.isQuarantined(BcastAlgorithm::Binary, 16, 64 * 1024));
  EXPECT_FALSE(S.anyQuarantined(16, 64 * 1024));
  // Cumulative trip count survives the clear; live state does not.
  EXPECT_EQ(S.stats().Trips, 1u);
  EXPECT_EQ(S.stats().Quarantined, 0u);
  EXPECT_TRUE(S.trips().empty());
}

//===----------------------------------------------------------------------===//
// Selector degradation and the repair state machine, on a real quick
// calibration.
//===----------------------------------------------------------------------===//

namespace {

struct QuickWorld {
  Platform Plat;
  CalibrationOptions Options;
  CalibratedModels Models;
  CalibrationReport Report;
  DecisionTable Table;
};

const QuickWorld &quickWorld() {
  static const QuickWorld World = [] {
    QuickWorld W;
    W.Plat = makeGrisou();
    W.Options.NumProcs = 16;
    W.Options.Adaptive.MinReps = 3;
    W.Options.Adaptive.MaxReps = 10;
    W.Options.GammaOptions.Adaptive.MinReps = 3;
    W.Options.GammaOptions.Adaptive.MaxReps = 10;
    W.Models = calibrate(W.Plat, W.Options, &W.Report);
    std::vector<std::uint64_t> Sizes;
    for (std::uint64_t M = 8 * 1024; M <= 4 * 1024 * 1024; M *= 2)
      Sizes.push_back(M);
    W.Table = buildDecisionTable(W.Models, {16, 24}, Sizes);
    return W;
  }();
  return World;
}

} // namespace

TEST(DriftFeed, ConcurrentRepetitionsFeedInRepetitionOrder) {
  // A measurement replays its first repetitions side by side; the
  // sentinel must still see each cell's samples in repetition order,
  // exactly as the serial path inside a sweep worker feeds them. A
  // degraded link drives the residuals far enough to trip cells.
  const QuickWorld &W = quickWorld();
  const FaultSchedule Faults = makeFaultScenario("degraded-link");
  ScopedFaultInjection Injection(Faults);
  AdaptiveOptions Options;
  Options.MinReps = 6;
  Options.MaxReps = 12;
  auto measureAll = [&] {
    for (BcastAlgorithm Alg : {BcastAlgorithm::Binomial,
                               BcastAlgorithm::SplitBinary,
                               BcastAlgorithm::Chain})
      for (std::uint64_t M : {std::uint64_t{16 * 1024}, std::uint64_t{256 * 1024}}) {
        BcastConfig Config;
        Config.Algorithm = Alg;
        Config.MessageBytes = M;
        Config.SegmentBytes = W.Models.SegmentBytes;
        measureBcast(W.Plat, 16, Config, Options);
      }
  };

  DriftSentinel Concurrent(DriftMode::Warn);
  Concurrent.bindModels(&W.Models);
  {
    ScopedDriftSentinel Install(Concurrent);
    measureAll();
  }
  DriftSentinel Serial(DriftMode::Warn);
  Serial.bindModels(&W.Models);
  {
    ScopedDriftSentinel Install(Serial);
    // One task measures, on a worker of a two-thread sweep.
    sweepIndexed(2, 2, [&](std::size_t Task) {
      if (Task == 0)
        measureAll();
    });
  }

  EXPECT_GT(Concurrent.stats().Samples, 0u);
  EXPECT_EQ(Concurrent.report(), Serial.report());
  const DriftStats A = Concurrent.stats(), B = Serial.stats();
  EXPECT_EQ(A.Samples, B.Samples);
  EXPECT_EQ(A.Screened, B.Screened);
  EXPECT_EQ(A.Trips, B.Trips);
  EXPECT_EQ(A.Quarantined, B.Quarantined);
  EXPECT_EQ(A.Cells, B.Cells);
}

TEST(DriftQuarantine, SelectorDegradesQuarantinedRegionToOmpi) {
  const QuickWorld &W = quickWorld();
  DriftSentinel S(DriftMode::Repair);
  S.bindModels(&W.Models);
  ScopedDriftSentinel Install(S);
  const std::uint64_t M = 256 * 1024;

  RobustDecision Before = selectRobust(W.Models, W.Report, 16, M);
  EXPECT_FALSE(Before.DriftQuarantined);

  // Trip ANY algorithm's cell at (16, bucket of M) -- not necessarily
  // the argmin winner: the region degradation must fire regardless.
  feed(S, BcastAlgorithm::Linear, 16, M, 1.0, 3.0, 10);
  ASSERT_TRUE(S.anyQuarantined(16, M));

  RobustDecision During = selectRobust(W.Models, W.Report, 16, M);
  EXPECT_TRUE(During.DriftQuarantined);
  EXPECT_TRUE(During.UsedFallback);
  BcastDecision Ompi = ompiBcastDecisionFixed(16, M);
  EXPECT_EQ(During.Algorithm, Ompi.Algorithm);
  EXPECT_EQ(During.SegmentBytes, Ompi.SegmentBytes);
  // A non-quarantined size is untouched.
  RobustDecision Elsewhere = selectRobust(W.Models, W.Report, 16, 2048 * 1024);
  EXPECT_FALSE(Elsewhere.DriftQuarantined);

  S.clearQuarantine(BcastAlgorithm::Linear);
  RobustDecision After = selectRobust(W.Models, W.Report, 16, M);
  EXPECT_FALSE(After.DriftQuarantined);
  EXPECT_EQ(After.Algorithm, Before.Algorithm);
}

TEST(DriftRepair, HealthyRepairIsBitIdenticalToCleanCalibration) {
  const QuickWorld &W = quickWorld();
  const BcastAlgorithm Victim = BcastAlgorithm::SplitBinary;
  const unsigned V = static_cast<unsigned>(Victim);

  // Corrupt the victim's model in the deployed copy (what a fault
  // window during its calibration does, distilled), trip its cell,
  // then let the repair re-measure the healthy platform.
  CalibratedModels Deployed = W.Models;
  Deployed.Algorithms[V].Alpha *= 3.0;
  Deployed.Algorithms[V].Beta *= 3.5;
  DecisionTable Table = buildDecisionTable(Deployed, {16, 24},
                                           W.Table.MessageSizes);

  DriftSentinel S(DriftMode::Repair);
  S.bindModels(&Deployed);
  feed(S, Victim, 16, 64 * 1024, 1.0, 3.0, 10);
  ASSERT_EQ(S.trips().size(), 1u);

  const std::string TableFile =
      testing::TempDir() + "drift_repair_table.txt";
  DriftRepairReport R = repairDriftedCells(W.Plat, W.Options, S, Deployed,
                                           Table, /*Cache=*/nullptr,
                                           TableFile);
  EXPECT_EQ(R.CellsTripped, 1u);
  EXPECT_EQ(R.AlgorithmsRepaired, 1u);
  EXPECT_EQ(R.AlgorithmsGivenUp, 0u);
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_TRUE(R.TableWritten);

  // The repair used the same grid and seeds as the clean pass: the
  // patched parameters are bit-identical, not merely close.
  EXPECT_EQ(Deployed.Algorithms[V].Alpha, W.Models.Algorithms[V].Alpha);
  EXPECT_EQ(Deployed.Algorithms[V].Beta, W.Models.Algorithms[V].Beta);
  EXPECT_TRUE(diffDecisionTables(W.Table, Table).identical());
  EXPECT_FALSE(S.isQuarantined(Victim, 16, 64 * 1024));

  // The atomically rewritten table file holds the patched table.
  DecisionTable OnDisk;
  ASSERT_TRUE(readDecisionTableFile(TableFile, OnDisk));
  EXPECT_TRUE(diffDecisionTables(W.Table, OnDisk).identical());
  std::remove(TableFile.c_str());
}

TEST(DriftRepair, StrictAuditRejectsDefectivePatchAndGivesUp) {
  const QuickWorld &W = quickWorld();
  const BcastAlgorithm Victim = BcastAlgorithm::Chain;
  const unsigned V = static_cast<unsigned>(Victim);

  CalibratedModels Deployed = W.Models;
  Deployed.Algorithms[V].Alpha *= 4.0;
  DecisionTable Table = buildDecisionTable(Deployed, {16, 24},
                                           W.Table.MessageSizes);
  const double CorruptAlpha = Deployed.Algorithms[V].Alpha;

  DriftSentinel S(DriftMode::Repair);
  S.bindModels(&Deployed);
  feed(S, Victim, 16, 64 * 1024, 1.0, 3.0, 10);
  ASSERT_TRUE(S.isQuarantined(Victim, 16, 64 * 1024));

  // The recalibration seam returns a blatantly broken patch every
  // attempt: negative parameters produce negative predicted times,
  // which the audit flags as violations the clean baseline lacks.
  unsigned SeamCalls = 0;
  DriftRepairOptions Repair;
  Repair.MaxAttempts = 3;
  Repair.AuditPolicy = AuditMode::Strict;
  Repair.Recalibrate = [&SeamCalls, &W, V](BcastAlgorithm Alg,
                                           unsigned) {
    ++SeamCalls;
    AlgorithmCalibration Bad = W.Models.Algorithms[V];
    Bad.Algorithm = Alg;
    Bad.Alpha = -1.0;
    Bad.Beta = -1e-6;
    return Bad;
  };
  DriftRepairReport R = repairDriftedCells(W.Plat, W.Options, S, Deployed,
                                           Table, /*Cache=*/nullptr,
                                           /*TableFile=*/{}, Repair);
  EXPECT_EQ(SeamCalls, 3u);
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(R.AlgorithmsRepaired, 0u);
  EXPECT_EQ(R.AlgorithmsGivenUp, 1u);
  EXPECT_EQ(R.TableCellsChanged, 0u);
  EXPECT_FALSE(R.TableWritten);
  // The defective patch never reached the served artifacts, and the
  // quarantine stands: degraded, never wrong.
  EXPECT_EQ(Deployed.Algorithms[V].Alpha, CorruptAlpha);
  EXPECT_TRUE(S.isQuarantined(Victim, 16, 64 * 1024));
}

TEST(DriftRepair, WarnAuditAcceptsPatchTheStrictPolicyRejects) {
  // Same defective seam, Warn policy: the patch is accepted (with a
  // journal record in a real run) on the first attempt. This pins the
  // policy split -- Warn never burns the retry budget on audit
  // verdicts.
  const QuickWorld &W = quickWorld();
  const BcastAlgorithm Victim = BcastAlgorithm::Chain;
  const unsigned V = static_cast<unsigned>(Victim);
  CalibratedModels Deployed = W.Models;
  Deployed.Algorithms[V].Alpha *= 4.0;
  DecisionTable Table = buildDecisionTable(Deployed, {16, 24},
                                           W.Table.MessageSizes);

  DriftSentinel S(DriftMode::Repair);
  S.bindModels(&Deployed);
  feed(S, Victim, 16, 64 * 1024, 1.0, 3.0, 10);

  DriftRepairOptions Repair;
  Repair.AuditPolicy = AuditMode::Warn;
  Repair.Recalibrate = [&W, V](BcastAlgorithm Alg, unsigned) {
    AlgorithmCalibration Patch = W.Models.Algorithms[V];
    Patch.Algorithm = Alg;
    return Patch;
  };
  DriftRepairReport R = repairDriftedCells(W.Plat, W.Options, S, Deployed,
                                           Table, /*Cache=*/nullptr,
                                           /*TableFile=*/{}, Repair);
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_EQ(R.AlgorithmsRepaired, 1u);
  EXPECT_EQ(Deployed.Algorithms[V].Alpha, W.Models.Algorithms[V].Alpha);
  EXPECT_FALSE(S.isQuarantined(Victim, 16, 64 * 1024));
}

TEST(DriftRepair, RepairedArtifactsLandInTheDecisionCache) {
  const QuickWorld &W = quickWorld();
  const BcastAlgorithm Victim = BcastAlgorithm::Binary;
  const unsigned V = static_cast<unsigned>(Victim);
  CalibratedModels Deployed = W.Models;
  Deployed.Algorithms[V].Beta *= 5.0;
  DecisionTable Table = buildDecisionTable(Deployed, {16, 24},
                                           W.Table.MessageSizes);

  DriftSentinel S(DriftMode::Repair);
  S.bindModels(&Deployed);
  feed(S, Victim, 16, 64 * 1024, 1.0, 3.0, 10);

  const std::string CacheDir = testing::TempDir() + "drift_repair_cache";
  DriftRepairOptions Repair;
  Repair.Recalibrate = [&W, V](BcastAlgorithm Alg, unsigned) {
    AlgorithmCalibration Patch = W.Models.Algorithms[V];
    Patch.Algorithm = Alg;
    return Patch;
  };
  DriftRepairReport R;
  {
    DecisionCache Cache(CacheDir);
    R = repairDriftedCells(W.Plat, W.Options, S, Deployed, Table, &Cache,
                           /*TableFile=*/{}, Repair);
    EXPECT_EQ(R.AlgorithmsRepaired, 1u);
    ASSERT_FALSE(R.ModelsKey.empty());
    ASSERT_FALSE(R.TableKey.empty());

    // A fresh load through the same keys round-trips the patched
    // artifacts.
    CalibratedModels Loaded;
    ASSERT_TRUE(Cache.loadModels(R.ModelsKey, Loaded));
    EXPECT_EQ(Loaded.Algorithms[V].Alpha, W.Models.Algorithms[V].Alpha);
    DecisionTable LoadedTable;
    ASSERT_TRUE(Cache.loadTable(R.TableKey, LoadedTable));
    EXPECT_TRUE(diffDecisionTables(W.Table, LoadedTable).identical());
  }
  std::error_code Ignored;
  std::filesystem::remove_all(CacheDir, Ignored);
}

//===----------------------------------------------------------------------===//
// Size bucketing
//===----------------------------------------------------------------------===//

// Residual cells bucket by floor(log2 m); bit_width(0) is 0, so an
// m == 0 observation must clamp to bucket 0 instead of wrapping the
// bucket index. Pins the edge case alongside the normal ladder.
TEST(DriftSizeBucket, ZeroBytesClampsToBucketZero) {
  EXPECT_EQ(driftSizeBucket(0), 0u);
  EXPECT_EQ(driftSizeBucket(1), 0u);
  EXPECT_EQ(driftSizeBucket(2), 1u);
  EXPECT_EQ(driftSizeBucket(3), 1u);
  EXPECT_EQ(driftSizeBucket(4), 2u);
  EXPECT_EQ(driftSizeBucket(65535), 15u);
  EXPECT_EQ(driftSizeBucket(65536), 16u);
  EXPECT_EQ(driftSizeBucket(1u << 20), 20u);
}
