//===- tests/TestRobustness.cpp - Self-healing calibration tests ----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Covers the robustness pipeline end to end: adaptive measurement
// under non-convergence (honest reporting, retry budget, MAD
// screening), calibration quality gates and their structured report,
// the RobustSelector's restricted argmin and OMPI fallback, and the
// acceptance scenario -- a calibration campaign contaminated by
// injected faults must leave the robust selection near the fault-free
// oracle while the raw pipeline degrades.
//
//===----------------------------------------------------------------------===//

#include "coll/OmpiDecision.h"
#include "drift/Drift.h"
#include "fault/Fault.h"
#include "model/Calibration.h"
#include "model/RobustSelector.h"
#include "model/Runner.h"
#include "sim/Engine.h"
#include "stat/AdaptiveBenchmark.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

using namespace mpicsel;

//===----------------------------------------------------------------------===//
// measureAdaptively under non-convergence.
//===----------------------------------------------------------------------===//

TEST(AdaptiveMeasurement, NonConvergenceIsReportedHonestly) {
  // A hopeless measurement: alternating values whose CI can never
  // shrink to 2.5% of the mean.
  unsigned Calls = 0;
  AdaptiveOptions Options;
  Options.MinReps = 5;
  Options.MaxReps = 12;
  AdaptiveResult R = measureAdaptively(
      [&Calls](std::uint64_t) { return ++Calls % 2 ? 1.0 : 10.0; }, Options);
  EXPECT_FALSE(R.Converged);
  // Exactly MaxReps observations were taken -- not one more, and the
  // loop did not bail out early.
  EXPECT_EQ(R.Observations.size(), 12u);
  EXPECT_EQ(Calls, 12u);
  EXPECT_EQ(R.Attempts, 1u);
  // The statistics still describe the sample honestly.
  EXPECT_EQ(R.Stats.Count, 12u);
  EXPECT_GT(R.Stats.Mean, 1.0);
  EXPECT_LT(R.Stats.Mean, 10.0);
  EXPECT_GT(R.Stats.relativePrecision(), Options.TargetPrecision);
}

TEST(AdaptiveMeasurement, QuietDataConvergesAtMinReps) {
  unsigned Calls = 0;
  AdaptiveOptions Options;
  Options.MinReps = 5;
  Options.MaxReps = 40;
  AdaptiveResult R = measureAdaptively(
      [&Calls](std::uint64_t) {
        ++Calls;
        return 1.0;
      },
      Options);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Observations.size(), 5u);
  EXPECT_EQ(Calls, 5u);
  EXPECT_EQ(R.Attempts, 1u);
}

TEST(AdaptiveMeasurement, RetryBudgetIsBounded) {
  // Never converges: every attempt burns exactly MaxReps repetitions
  // and the retry loop stops after RetryAttempts extra attempts.
  unsigned Calls = 0;
  AdaptiveOptions Options;
  Options.MinReps = 3;
  Options.MaxReps = 6;
  Options.RetryAttempts = 2;
  AdaptiveResult R = measureAdaptively(
      [&Calls](std::uint64_t) { return ++Calls % 2 ? 1.0 : 10.0; }, Options);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(Calls, 3u * 6u);
  // Only the final attempt's observations are kept.
  EXPECT_EQ(R.Observations.size(), 6u);
}

TEST(AdaptiveMeasurement, RetrySucceedsWithFreshSeeds) {
  // The first attempt is hopeless, the second is quiet: the retry
  // must converge and report two attempts.
  unsigned Calls = 0;
  AdaptiveOptions Options;
  Options.MinReps = 3;
  Options.MaxReps = 6;
  Options.RetryAttempts = 2;
  AdaptiveResult R = measureAdaptively(
      [&Calls](std::uint64_t) {
        ++Calls;
        return Calls <= 6 ? (Calls % 2 ? 1.0 : 10.0) : 2.0;
      },
      Options);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Attempts, 2u);
  EXPECT_EQ(R.Observations.size(), 3u);
  EXPECT_DOUBLE_EQ(R.Stats.Mean, 2.0);
}

TEST(AdaptiveMeasurement, RetriesReseedTheRepetitionStream) {
  // Each attempt must hand the measurement a fresh seed sequence --
  // replaying a pathological draw would make the retry pointless.
  std::vector<std::uint64_t> Seeds;
  AdaptiveOptions Options;
  Options.MinReps = 2;
  Options.MaxReps = 4;
  Options.RetryAttempts = 1;
  measureAdaptively(
      [&Seeds](std::uint64_t Seed) {
        Seeds.push_back(Seed);
        return Seeds.size() % 2 ? 1.0 : 10.0;
      },
      Options);
  ASSERT_EQ(Seeds.size(), 8u);
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_NE(Seeds[I], Seeds[4 + I]) << "attempt 2 replayed seed " << I;
}

TEST(AdaptiveMeasurement, MadScreenRejectsPlantedOutliers) {
  // Clean observations jitter tightly around 1.0; every fourth is a
  // 50x contamination spike. The MAD screen must reject exactly the
  // spikes and converge on the clean core.
  unsigned Calls = 0;
  AdaptiveOptions Options;
  Options.MinReps = 8;
  Options.MaxReps = 8;
  Options.ScreenOutliers = true;
  AdaptiveResult R = measureAdaptively(
      [&Calls](std::uint64_t Seed) {
        ++Calls;
        if (Calls % 4 == 0)
          return 50.0;
        return 1.0 + static_cast<double>(Seed % 1024) * 1e-6;
      },
      Options);
  EXPECT_EQ(R.Observations.size(), 8u);
  EXPECT_EQ(R.OutliersRejected, 2u);
  EXPECT_EQ(R.Stats.Count, 6u);
  EXPECT_NEAR(R.Stats.Mean, 1.0, 1e-2);
  EXPECT_TRUE(R.Converged);
}

TEST(AdaptiveMeasurement, ScreeningOffKeepsContaminatedMean) {
  // Control for the test above: without the screen the spikes drag
  // the mean far from the clean core.
  unsigned Calls = 0;
  AdaptiveOptions Options;
  Options.MinReps = 8;
  Options.MaxReps = 8;
  AdaptiveResult R = measureAdaptively(
      [&Calls](std::uint64_t Seed) {
        ++Calls;
        if (Calls % 4 == 0)
          return 50.0;
        return 1.0 + static_cast<double>(Seed % 1024) * 1e-6;
      },
      Options);
  EXPECT_EQ(R.OutliersRejected, 0u);
  EXPECT_GT(R.Stats.Mean, 10.0);
  EXPECT_FALSE(R.Converged);
}

//===----------------------------------------------------------------------===//
// Calibration quality report.
//===----------------------------------------------------------------------===//

namespace {

/// One shared quick calibration on the healthy cluster, reused by the
/// report-structure and selector tests (calibration is the expensive
/// part; the assertions are all read-only).
struct CleanCalibration {
  CalibratedModels Models;
  CalibrationReport Report;
};

CalibrationOptions quickOptions(unsigned NumProcs) {
  CalibrationOptions Options;
  Options.NumProcs = NumProcs;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 10;
  Options.GammaOptions.Adaptive.MinReps = 3;
  Options.GammaOptions.Adaptive.MaxReps = 10;
  return Options;
}

const CleanCalibration &cleanCalibration() {
  static const CleanCalibration Calibrated = [] {
    CleanCalibration C;
    CalibrationOptions Options = quickOptions(16);
    Options.Quality.Enabled = true;
    C.Models = calibrate(makeGrisou(), Options, &C.Report);
    return C;
  }();
  return Calibrated;
}

/// The report with every algorithm forced usable -- the selector must
/// then coincide with the plain argmin regardless of what the quality
/// gates concluded on this quick campaign.
CalibrationReport allUsable(CalibrationReport Report) {
  for (AlgorithmCalibrationReport &A : Report.Algorithms)
    A.Usable = true;
  return Report;
}

CalibrationReport noneUsable(CalibrationReport Report) {
  for (AlgorithmCalibrationReport &A : Report.Algorithms)
    A.Usable = false;
  return Report;
}

std::vector<std::uint64_t> paperSweep() {
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t M = 8 * 1024; M <= 4 * 1024 * 1024; M *= 2)
    Sizes.push_back(M);
  return Sizes;
}

} // namespace

TEST(CalibrationReportTest, RecordsEveryExperiment) {
  const CleanCalibration &C = cleanCalibration();
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const AlgorithmCalibrationReport &A = C.Report.of(Alg);
    EXPECT_EQ(A.Algorithm, Alg);
    // The paper's sweep: 10 message sizes per algorithm.
    ASSERT_EQ(A.Experiments.size(), 10u);
    for (const ExperimentRecord &E : A.Experiments) {
      EXPECT_GT(E.MessageBytes, 0u);
      EXPECT_GT(E.GatherBytes, 0u);
      EXPECT_GT(E.Mean, 0.0);
      EXPECT_GE(E.Attempts, 1u);
      EXPECT_LE(E.Attempts,
                1u + CalibrationQualityOptions().MaxRetriesPerExperiment);
    }
    // Gates were evaluated (Quality.Enabled) and named.
    EXPECT_FALSE(A.Gates.empty());
    for (const QualityGateResult &G : A.Gates)
      EXPECT_FALSE(G.Gate.empty());
  }
  // A healthy cluster leaves (nearly) everything usable; the floor
  // guards against the gates becoming trigger-happy on clean data.
  EXPECT_GE(C.Report.usableCount(), 5u);
  // The human-readable rendering names every algorithm.
  std::string Text = C.Report.str();
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    EXPECT_NE(Text.find(bcastAlgorithmName(Alg)), std::string::npos);
}

TEST(CalibrationReportTest, DisabledQualityStillDescribesMeasurements) {
  CalibrationOptions Options = quickOptions(8);
  CalibrationReport Report;
  calibrate(makeGrisou(), Options, &Report);
  // With the policy off nothing is ever excluded and no gate runs,
  // but the measurement records are still filled in.
  EXPECT_EQ(Report.usableCount(), NumBcastAlgorithms);
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const AlgorithmCalibrationReport &A = Report.of(Alg);
    EXPECT_TRUE(A.Usable);
    EXPECT_TRUE(A.Gates.empty());
    EXPECT_EQ(A.Experiments.size(), 10u);
  }
}

//===----------------------------------------------------------------------===//
// RobustSelector.
//===----------------------------------------------------------------------===//

TEST(RobustSelector, AllUsableMatchesPlainArgmin) {
  const CleanCalibration &C = cleanCalibration();
  CalibrationReport Report = allUsable(C.Report);
  for (std::uint64_t M : paperSweep()) {
    RobustDecision D = selectRobust(C.Models, Report, 16, M);
    EXPECT_FALSE(D.UsedFallback);
    EXPECT_FALSE(D.ExcludedAny);
    BcastAlgorithm Plain = C.Models.selectBest(16, M);
    EXPECT_EQ(D.Algorithm, Plain);
    EXPECT_EQ(D.SegmentBytes, Plain == BcastAlgorithm::Linear
                                  ? 0u
                                  : C.Models.SegmentBytes);
  }
}

TEST(RobustSelector, ExcludedWinnerFallsToRunnerUp) {
  const CleanCalibration &C = cleanCalibration();
  const std::uint64_t M = 1024 * 1024;
  BcastAlgorithm Winner = C.Models.selectBest(16, M);
  CalibrationReport Report = allUsable(C.Report);
  Report.Algorithms[static_cast<unsigned>(Winner)].Usable = false;
  RobustDecision D = selectRobust(C.Models, Report, 16, M);
  EXPECT_FALSE(D.UsedFallback); // 5 usable models still compare fine.
  EXPECT_TRUE(D.ExcludedAny);
  EXPECT_NE(D.Algorithm, Winner);
  // The choice is the argmin over the surviving five.
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    if (Alg == Winner)
      continue;
    EXPECT_LE(C.Models.predict(D.Algorithm, 16, M),
              C.Models.predict(Alg, 16, M));
  }
}

TEST(RobustSelector, FallsBackToOmpiWhenTooFewModelsSurvive) {
  const CleanCalibration &C = cleanCalibration();
  CalibrationReport Report = noneUsable(C.Report);
  for (unsigned P : {8u, 16u, 64u}) {
    for (std::uint64_t M : paperSweep()) {
      RobustDecision D = selectRobust(C.Models, Report, P, M);
      EXPECT_TRUE(D.UsedFallback);
      EXPECT_TRUE(D.ExcludedAny);
      BcastDecision Ompi = ompiBcastDecisionFixed(P, M);
      EXPECT_EQ(D.Algorithm, Ompi.Algorithm);
      EXPECT_EQ(D.SegmentBytes, Ompi.SegmentBytes);
    }
  }
  // One usable model is still below the MinUsableModels=2 floor: an
  // argmin over a single candidate compares nothing.
  CalibrationReport OneLeft = noneUsable(C.Report);
  OneLeft.Algorithms[0].Usable = true;
  RobustDecision D = selectRobust(C.Models, OneLeft, 16, 64 * 1024);
  EXPECT_TRUE(D.UsedFallback);
}

//===----------------------------------------------------------------------===//
// Acceptance: contaminated calibration campaign.
//===----------------------------------------------------------------------===//

namespace {

/// Fault-free measured time of one deployed decision.
double measureDeployment(const Platform &Plat, unsigned NumProcs,
                         std::uint64_t MessageBytes, BcastAlgorithm Alg,
                         std::uint64_t SegmentBytes,
                         const AdaptiveOptions &Opts) {
  BcastConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = Alg == BcastAlgorithm::Linear ? 0 : SegmentBytes;
  return measureBcast(Plat, NumProcs, Config, Opts).Stats.Mean;
}

/// RAII: disables the per-run static pre-flight verifier for the
/// duration of the acceptance sweep. The sweep executes thousands of
/// large schedules whose static verification is covered by the rest
/// of the suite; re-verifying each repetition here only multiplies
/// the test's runtime.
struct PreflightOff {
  PreflightOff() : Was(preflightVerificationEnabled()) {
    setPreflightVerification(false);
  }
  ~PreflightOff() { setPreflightVerification(Was); }
  bool Was;
};

} // namespace

TEST(RobustnessAcceptance, ContaminatedCalibrationStaysNearOracle) {
  PreflightOff NoPreflight;
  Platform Plat = makeGrisou();
  // The paper's setup on Grisou: calibrate on 40 ranks, deploy the
  // selection at a larger communicator (90 is the paper's largest
  // selection point).
  const unsigned CalibProcs = 40;
  const unsigned NumProcs = 90;
  const FaultSchedule Scenario = makeFaultScenario("contaminated-calibration");
  const std::vector<std::uint64_t> Messages = paperSweep();

  // Fault-free oracle landscape: measured time of every algorithm at
  // the calibrated segment size.
  AdaptiveOptions OracleOpts;
  OracleOpts.MinReps = 5;
  OracleOpts.MaxReps = 20;
  const std::uint64_t SegmentBytes = CalibrationOptions().SegmentBytes;
  std::vector<std::array<double, NumBcastAlgorithms>> Landscape;
  std::vector<double> Oracle;
  for (std::uint64_t M : Messages) {
    std::array<double, NumBcastAlgorithms> Row{};
    double Best = 0.0;
    for (BcastAlgorithm Alg : AllBcastAlgorithms) {
      double T = measureDeployment(Plat, NumProcs, M, Alg, SegmentBytes,
                                   OracleOpts);
      Row[static_cast<unsigned>(Alg)] = T;
      if (Best == 0.0 || T < Best)
        Best = T;
    }
    Landscape.push_back(Row);
    Oracle.push_back(Best);
  }

  // Both pipelines calibrate under the same contaminated campaign; a
  // third, fault-free robust calibration provides the baseline the
  // contaminated one is held to.
  CalibrationReport RawReport, RobustReport, CleanReport;
  CalibrationOptions Raw = quickOptions(CalibProcs);
  Raw.Adaptive.MinReps = 5;
  Raw.Adaptive.MaxReps = 20;
  Raw.GammaOptions.Adaptive.MinReps = 5;
  Raw.GammaOptions.Adaptive.MaxReps = 16;
  CalibrationOptions Robust = Raw;
  Robust.Quality.Enabled = true;
  CalibratedModels RawModels, RobustModels;
  {
    ScopedFaultInjection Injection(Scenario);
    RawModels = calibrate(Plat, Raw, &RawReport);
    RobustModels = calibrate(Plat, Robust, &RobustReport);
  }
  CalibratedModels CleanModels = calibrate(Plat, Robust, &CleanReport);

  // Deploy the three selections on the healthy cluster.
  struct Outcome {
    double Worst = 0.0;
    double Sum = 0.0;
    double mean(std::size_t N) const {
      return Sum / static_cast<double>(N);
    }
    void add(double Deg) {
      Worst = std::max(Worst, Deg);
      Sum += Deg;
    }
  };
  Outcome RawOut, RobustOut, CleanOut;
  for (std::size_t I = 0; I != Messages.size(); ++I) {
    const std::uint64_t M = Messages[I];
    BcastAlgorithm RawChoice = RawModels.selectBest(NumProcs, M);
    double RawTime = Landscape[I][static_cast<unsigned>(RawChoice)];
    RawOut.add((RawTime - Oracle[I]) / Oracle[I]);

    auto deployRobust = [&](const CalibratedModels &Models,
                            const CalibrationReport &Report) {
      RobustDecision D = selectRobust(Models, Report, NumProcs, M);
      return D.SegmentBytes == SegmentBytes ||
                     D.Algorithm == BcastAlgorithm::Linear
                 ? Landscape[I][static_cast<unsigned>(D.Algorithm)]
                 : measureDeployment(Plat, NumProcs, M, D.Algorithm,
                                     D.SegmentBytes, OracleOpts);
    };
    double RobustTime = deployRobust(RobustModels, RobustReport);
    RobustOut.add((RobustTime - Oracle[I]) / Oracle[I]);
    double CleanTime = deployRobust(CleanModels, CleanReport);
    CleanOut.add((CleanTime - Oracle[I]) / Oracle[I]);
  }
  const std::size_t N = Messages.size();

  // The acceptance criteria of the robustness pipeline. The clean
  // baseline bounds what any calibration-based selection can achieve
  // on this platform (residual model error included); the robust
  // pipeline must not lose more than a whisker to the contamination,
  // must stay within 25% of the fault-free oracle on average, and the
  // raw pipeline -- same campaign, no screening, no gates -- must be
  // measurably worse.
  EXPECT_LE(RobustOut.mean(N), 0.25)
      << "robust mean degradation " << RobustOut.mean(N);
  EXPECT_LE(RobustOut.mean(N), CleanOut.mean(N) + 0.02)
      << "contamination cost: robust mean " << RobustOut.mean(N)
      << " vs clean-campaign mean " << CleanOut.mean(N);
  EXPECT_LE(RobustOut.Worst, CleanOut.Worst + 0.02)
      << "contamination cost: robust worst " << RobustOut.Worst
      << " vs clean-campaign worst " << CleanOut.Worst;
  EXPECT_GT(RawOut.mean(N), RobustOut.mean(N) + 0.05)
      << "raw mean " << RawOut.mean(N) << " vs robust mean "
      << RobustOut.mean(N);
  EXPECT_GE(RawOut.Worst, RobustOut.Worst)
      << "raw worst " << RawOut.Worst << " vs robust " << RobustOut.Worst;
}

TEST(RobustnessAcceptance, CleanRunNeverTripsDriftSentinel) {
  // The drift sentinel's false-positive pin: commissioned against a
  // healthy calibration and fed healthy replays (fresh noise draws),
  // it must never trip -- the paper's honest per-cell model error is
  // part of the reference profile, not drift.
  PreflightOff NoPreflight;
  const CleanCalibration &C = cleanCalibration();
  Platform Plat = makeGrisou();
  DriftSentinel Sentinel(DriftMode::Warn);
  Sentinel.bindModels(&C.Models);
  ScopedDriftSentinel Install(Sentinel);

  const std::vector<std::uint64_t> Messages = paperSweep();
  auto sweep = [&](std::uint64_t SeedBase, unsigned Reps) {
    for (std::size_t A = 0; A != AllBcastAlgorithms.size(); ++A) {
      BcastConfig Config;
      Config.Algorithm = AllBcastAlgorithms[A];
      Config.SegmentBytes = Config.Algorithm == BcastAlgorithm::Linear
                                ? 0
                                : C.Models.SegmentBytes;
      for (std::size_t S = 0; S != Messages.size(); ++S) {
        Config.MessageBytes = Messages[S];
        const Experiment Canary = prepareBcast(Plat, 16, Config);
        for (unsigned R = 0; R != Reps; ++R)
          Canary.run(SeedBase + 0x10000ull * A + 0x100ull * S + R);
      }
    }
  };
  Sentinel.beginReferenceCapture();
  sweep(0xC0AA51D5ull, 4);
  Sentinel.endReferenceCapture();
  sweep(0xDE7EC7ull, 8);

  const DriftStats Stats = Sentinel.stats();
  EXPECT_GT(Stats.Samples, 0u);
  EXPECT_EQ(Stats.Trips, 0u) << Sentinel.report();
  EXPECT_EQ(Stats.Quarantined, 0u);
}

TEST(RobustnessAcceptance, FaultTimelineIsReproducible) {
  // Same (platform, schedule seed, fault schedule) => the same
  // contaminated measurements, hence the same calibrated numbers.
  PreflightOff NoPreflight;
  Platform Plat = makeGrisou();
  FaultSchedule Scenario = makeFaultScenario("contaminated-calibration", 3);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 2 * 1024 * 1024;
  Config.SegmentBytes = 8 * 1024;
  ScopedFaultInjection Injection(Scenario);
  AdaptiveOptions Opts;
  Opts.MinReps = 5;
  Opts.MaxReps = 5;
  AdaptiveResult A = measureBcast(Plat, 24, Config, Opts);
  AdaptiveResult B = measureBcast(Plat, 24, Config, Opts);
  ASSERT_EQ(A.Observations.size(), B.Observations.size());
  for (std::size_t I = 0; I != A.Observations.size(); ++I)
    EXPECT_EQ(A.Observations[I], B.Observations[I]);
}
