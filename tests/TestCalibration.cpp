//===- tests/TestCalibration.cpp - end-to-end calibration tests ------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Integration tests of the full paper pipeline on small platforms:
// gamma estimation (Sect. 4.1), algorithm-specific alpha/beta
// (Sect. 4.2), prediction quality and the model-based selection.
//
//===----------------------------------------------------------------------===//

#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/Calibration.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "model/ScatterSelection.h"
#include "model/Selection.h"
#include "model/TraditionalModels.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

using namespace mpicsel;

namespace {

/// A small fast platform with mild noise for integration tests.
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

} // namespace

//===----------------------------------------------------------------------===//
// Gamma estimation
//===----------------------------------------------------------------------===//

TEST(GammaEstimation, GammaIsOneAtTwoAndGrows) {
  GammaEstimationOptions Options;
  Options.MaxP = 7;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  GammaEstimate E = estimateGamma(smallCluster(), Options);
  ASSERT_EQ(E.MeanCallTime.size(), 6u);
  EXPECT_DOUBLE_EQ(E.Gamma(2), 1.0);
  // Serialisation makes more children strictly slower on this
  // platform; gamma must be increasing and within the Eq. 1 bounds.
  for (unsigned P = 3; P <= 7; ++P) {
    EXPECT_GT(E.Gamma(P), E.Gamma(P - 1)) << "P=" << P;
    EXPECT_LE(E.Gamma(P), static_cast<double>(P - 1));
  }
}

TEST(GammaEstimation, BarrierTrainVariantAgreesRoughly) {
  Platform P = smallCluster();
  P.NoiseSigma = 0.0;
  GammaEstimationOptions Direct;
  Direct.MaxP = 5;
  Direct.Adaptive.MinReps = 2;
  Direct.Adaptive.MaxReps = 3;
  GammaEstimationOptions Train = Direct;
  Train.UseBarrierTrain = true;
  Train.CallsPerMeasurement = 20;
  GammaEstimate DirectE = estimateGamma(P, Direct);
  GammaEstimate TrainE = estimateGamma(P, Train);
  for (unsigned Procs = 3; Procs <= 5; ++Procs)
    EXPECT_NEAR(TrainE.Gamma(Procs), DirectE.Gamma(Procs),
                0.35 * DirectE.Gamma(Procs))
        << "P=" << Procs;
}

TEST(GammaEstimation, TrainRunnerProducesPositiveTimes) {
  Platform P = smallCluster();
  double Bcast = runLinearBcastTrainOnce(P, 5, 8192, 5, 1);
  double Barrier = runBarrierTrainOnce(P, 5, 5, 1);
  EXPECT_GT(Bcast, 0.0);
  EXPECT_GT(Barrier, 0.0);
  EXPECT_GT(Bcast, Barrier); // The broadcast adds real work.
}

//===----------------------------------------------------------------------===//
// Alpha/beta calibration
//===----------------------------------------------------------------------===//

TEST(Calibration, ProducesNonNegativeParamsForEveryAlgorithm) {
  CalibratedModels M = calibrate(smallCluster(), quickOptions(12));
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const AlgorithmCalibration &C = M.of(Alg);
    EXPECT_EQ(C.Algorithm, Alg);
    EXPECT_GE(C.Alpha, 0.0) << bcastAlgorithmName(Alg);
    EXPECT_GE(C.Beta, 0.0) << bcastAlgorithmName(Alg);
    EXPECT_GT(C.Alpha + C.Beta, 0.0) << bcastAlgorithmName(Alg);
    ASSERT_EQ(C.CanonicalX.size(), 5u);
    ASSERT_EQ(C.CanonicalT.size(), 5u);
    EXPECT_TRUE(C.Fit.Valid);
    for (double T : C.CanonicalT)
      EXPECT_GT(T, 0.0);
  }
}

TEST(Calibration, PredictionsTrackMeasurementsAtCalibrationPoints) {
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  CalibratedModels M = calibrate(Plat, Options);
  // At the calibrated (P, m) points, the model should predict the
  // *measured broadcast* within a modest factor -- the experiment
  // includes a gather, so exact agreement is not expected, but order
  // of magnitude and trend must hold.
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    for (std::uint64_t MessageBytes : Options.MessageSizes) {
      BcastConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      Config.SegmentBytes =
          Alg == BcastAlgorithm::Linear ? 0 : Options.SegmentBytes;
      double Measured = prepareBcast(Plat, 12, Config).run(99);
      double Predicted = M.predict(Alg, 12, MessageBytes);
      EXPECT_GT(Predicted, 0.25 * Measured)
          << bcastAlgorithmName(Alg) << " m=" << MessageBytes;
      EXPECT_LT(Predicted, 4.0 * Measured)
          << bcastAlgorithmName(Alg) << " m=" << MessageBytes;
    }
  }
}

TEST(Calibration, ParametersAreAlgorithmSpecific) {
  // The paper's Table 2 finding: (alpha, beta) differ by algorithm.
  CalibratedModels M = calibrate(smallCluster(), quickOptions(12));
  int Distinct = 0;
  for (unsigned I = 0; I + 1 < NumBcastAlgorithms; ++I) {
    const auto &A = M.Algorithms[I];
    const auto &B = M.Algorithms[I + 1];
    if (std::fabs(A.Alpha - B.Alpha) > 1e-12 ||
        std::fabs(A.Beta - B.Beta) > 1e-15)
      ++Distinct;
  }
  EXPECT_GE(Distinct, 4);
}

TEST(Calibration, DefaultsFillInProcsSizesAndGamma) {
  Platform Plat = smallCluster();
  CalibrationOptions Options;
  Options.Adaptive.MinReps = 2;
  Options.Adaptive.MaxReps = 4;
  Options.MessageSizes = {8192, 65536};
  CalibratedModels M = calibrate(Plat, Options);
  // Gamma was measured far enough for every model lookup at full
  // scale: ceil(log2 24) + 1 = 6.
  EXPECT_GE(M.Gamma.measuredMax(), 6u);
  EXPECT_EQ(M.SegmentBytes, 8192u);
}

TEST(Calibration, OlsVariantAlsoWorks) {
  CalibrationOptions Options = quickOptions(12);
  Options.UseHuber = false;
  CalibratedModels M = calibrate(smallCluster(), Options);
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    EXPECT_GE(M.of(Alg).Beta, 0.0);
}

using CalibrationDeathTest = ::testing::Test;

TEST(CalibrationDeathTest, EveryCollectiveRejectsFewerThanTwoProcesses) {
  // Rejected while resolving the grid, before any measurement: with
  // one rank the experiments carry no information.
  const Platform Plat = smallCluster();
  CalibrationOptions Options;
  Options.NumProcs = 1;
  constexpr const char *Error = "calibration needs at least 2 processes";
  EXPECT_DEATH(calibrate(Plat, Options), Error);
  EXPECT_DEATH(calibrateScatter(Plat, Options), Error);
  EXPECT_DEATH(calibrateReduce(Plat, Options), Error);
  EXPECT_DEATH(calibrateAllgather(Plat, Options), Error);
  EXPECT_DEATH(calibrateAllreduce(Plat, Options), Error);
}

//===----------------------------------------------------------------------===//
// Golden parameters of every collective
//===----------------------------------------------------------------------===//

namespace {

/// One algorithm's calibrated parameters, compared bit for bit.
struct GoldenFit {
  double Alpha;
  double Beta;
  double Intercept;
  double Slope;
};

/// The parameters of every algorithm of \p Models, in ordinal order.
template <typename ModelsT> std::vector<GoldenFit> fitsOf(const ModelsT &M) {
  std::vector<GoldenFit> Fits;
  for (const auto &A : M.Algorithms)
    Fits.push_back({A.Alpha, A.Beta, A.Fit.Intercept, A.Fit.Slope});
  return Fits;
}

/// 12 of 24 ranks, 3..5 repetitions for gamma and every experiment.
template <typename OptionsT> OptionsT goldenOptions() {
  OptionsT Options;
  Options.NumProcs = 12;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 5;
  Options.GammaOptions.Adaptive = Options.Adaptive;
  return Options;
}

} // namespace

TEST(CalibrationGolden, EveryCollectiveReproducesItsParametersBitForBit) {
  // Every op's calibrated parameters to the last bit: a changed seed
  // stride, gather ramp, cost coefficient or fit shows up here.
  const Platform Plat = smallCluster();
  const std::vector<std::uint64_t> VectorSizes = {8192, 65536, 524288};
  const std::vector<std::uint64_t> BlockSizes = {1024, 4096, 16384};

  auto Bcast = goldenOptions<CalibrationOptions>();
  Bcast.MessageSizes = VectorSizes;
  auto Scatter = goldenOptions<ScatterCalibrationOptions>();
  Scatter.MessageSizes = BlockSizes;
  auto Reduce = goldenOptions<ReduceCalibrationOptions>();
  Reduce.MessageSizes = VectorSizes;
  auto Allgather = goldenOptions<AllgatherCalibrationOptions>();
  Allgather.MessageSizes = BlockSizes;
  auto Allreduce = goldenOptions<AllreduceCalibrationOptions>();
  Allreduce.MessageSizes = VectorSizes;

  const std::vector<std::pair<const char *, std::vector<GoldenFit>>> Actual =
      {{"bcast", fitsOf(calibrate(Plat, Bcast))},
       {"scatter", fitsOf(calibrateScatter(Plat, Scatter))},
       {"reduce", fitsOf(calibrateReduce(Plat, Reduce))},
       {"allgather", fitsOf(calibrateAllgather(Plat, Allgather))},
       {"allreduce", fitsOf(calibrateAllreduce(Plat, Allreduce))}};
  // {Alpha, Beta, Fit.Intercept, Fit.Slope} per algorithm ordinal.
  // bcast chain's slope is negative and its Beta clamped to zero.
  const std::vector<std::vector<GoldenFit>> Expected = {
      {{2.3086271334853887e-06, 1.9260120785948036e-09,
        2.3086271334853887e-06, 1.9260120785948036e-09},
       {1.2143638693785294e-05, 0, 1.2143638693785294e-05,
        -8.0020034807330636e-11},
       {5.0745761998950358e-07, 2.0084839820531781e-09,
        5.0745761998950358e-07, 2.0084839820531781e-09},
       {2.1920004809838025e-06, 1.4471040268815703e-09,
        2.1920004809838025e-06, 1.4471040268815703e-09},
       {3.5727414593428047e-06, 1.2294888649919003e-09,
        3.5727414593428047e-06, 1.2294888649919003e-09},
       {2.0108092300265521e-06, 1.8215673801088299e-09,
        2.0108092300265521e-06, 1.8215673801088299e-09}},
      {{2.7536262150708112e-06, 1.3764434717701709e-09,
        2.7536262150708112e-06, 1.3764434717701709e-09},
       {3.9051985461291919e-06, 1.2168443616283678e-09,
        3.9051985461291919e-06, 1.2168443616283678e-09}},
      {{1.5429411627193846e-06, 1.0813030379570854e-09,
        1.5429411627193846e-06, 1.0813030379570854e-09},
       {1.1917105464147284e-05, 2.343695010959172e-11,
        1.1917105464147284e-05, 2.343695010959172e-11},
       {1.0625744689568791e-06, 1.7076135612479002e-09,
        1.0625744689568791e-06, 1.7076135612479002e-09}},
      {{8.067994299279505e-06, 9.9759722019344401e-10, 8.067994299279505e-06,
        9.9759722019344401e-10},
       {8.0654315378927239e-06, 9.9723478572484327e-10,
        8.0654315378927239e-06, 9.9723478572484327e-10},
       {6.3345482555968646e-06, 9.9630587339447363e-10,
        6.3345482555968646e-06, 9.9630587339447363e-10}},
      {{4.3165944554562816e-06, 1.2449138332345286e-09,
        4.3165944554562816e-06, 1.2449138332345286e-09},
       {1.0040545232758308e-05, 1.0435331348403306e-09,
        1.0040545232758308e-05, 1.0435331348403306e-09},
       {3.7314376060106589e-06, 1.5295563133011175e-09,
        3.7314376060106589e-06, 1.5295563133011175e-09}}};

  ASSERT_EQ(Actual.size(), Expected.size());
  for (std::size_t Op = 0; Op != Actual.size(); ++Op) {
    const auto &[Name, Fits] = Actual[Op];
    ASSERT_EQ(Fits.size(), Expected[Op].size()) << Name;
    for (std::size_t Alg = 0; Alg != Fits.size(); ++Alg) {
      SCOPED_TRACE(std::string(Name) + " algorithm " + std::to_string(Alg));
      EXPECT_EQ(Fits[Alg].Alpha, Expected[Op][Alg].Alpha);
      EXPECT_EQ(Fits[Alg].Beta, Expected[Op][Alg].Beta);
      EXPECT_EQ(Fits[Alg].Intercept, Expected[Op][Alg].Intercept);
      EXPECT_EQ(Fits[Alg].Slope, Expected[Op][Alg].Slope);
    }
  }
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

TEST(Selection, ModelBasedSelectionIsNearOptimalOnTheTestCluster) {
  Platform Plat = smallCluster();
  CalibratedModels M = calibrate(Plat, quickOptions(12));
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  double WorstDegradation = 0.0;
  for (std::uint64_t MessageBytes :
       {std::uint64_t(8192), std::uint64_t(131072), std::uint64_t(1 << 20),
        std::uint64_t(4 << 20)}) {
    SelectionPoint Point =
        evaluateSelectionPoint(Plat, 20, MessageBytes, M, Quick);
    EXPECT_GT(Point.BestTime, 0.0);
    EXPECT_GE(Point.modelDegradation(), -1e-9);
    WorstDegradation = std::max(WorstDegradation, Point.modelDegradation());
  }
  // The bar the paper sets on real clusters is ~10%; allow slack for
  // the coarse test calibration.
  EXPECT_LT(WorstDegradation, 0.35);
}

TEST(Selection, PointIsInternallyConsistent) {
  Platform Plat = smallCluster();
  CalibratedModels M = calibrate(Plat, quickOptions(12));
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  SelectionPoint Point = evaluateSelectionPoint(Plat, 16, 262144, M, Quick);
  // Best is the argmin of the measured landscape.
  double Min = Point.MeasuredTime[0];
  for (double T : Point.MeasuredTime)
    Min = std::min(Min, T);
  EXPECT_DOUBLE_EQ(Point.BestTime, Min);
  EXPECT_DOUBLE_EQ(Point.MeasuredTime[static_cast<unsigned>(Point.Best)],
                   Point.BestTime);
  // The model choice's measured time comes from the same landscape.
  EXPECT_DOUBLE_EQ(
      Point.ModelChoiceTime,
      Point.MeasuredTime[static_cast<unsigned>(Point.ModelChoice)]);
  EXPECT_GT(Point.OmpiChoiceTime, 0.0);
  EXPECT_GT(Point.ModelPredictedTime, 0.0);
}

TEST(Selection, SelectBestIsTheArgminOfPredict) {
  CalibratedModels M = calibrate(smallCluster(), quickOptions(12));
  for (std::uint64_t MessageBytes : {std::uint64_t(16384),
                                     std::uint64_t(1 << 20)}) {
    BcastAlgorithm Chosen = M.selectBest(20, MessageBytes);
    double ChosenTime = M.predict(Chosen, 20, MessageBytes);
    for (BcastAlgorithm Alg : AllBcastAlgorithms)
      EXPECT_LE(ChosenTime, M.predict(Alg, 20, MessageBytes) + 1e-15);
  }
}

namespace {

std::uint64_t runnerExperiments() {
  return obs::snapshotMetrics().counter(obs::Counter::RunnerExperiments);
}

/// What the oracle must reproduce at one point, measured directly
/// through the op's prepare<Op> under the op's seed rule.
template <typename AlgT> struct DirectOracle {
  /// The mean of one landscape measurement.
  std::function<double(AlgT)> Landscape;
  /// The fixed rule's pick and its time, given the landscape's times
  /// (measured again at a segment size of its own); empty for an op
  /// without a fixed rule.
  std::function<std::pair<AlgT, double>(const std::vector<double> &)> Fixed;
};

/// Checks evaluateSelectionPoint against \p Direct at (P, m): every
/// time bit for bit, the best, model and fixed-rule fields, and as many
/// replays (runner.experiments) as the direct measurements took.
template <typename AlgT>
void expectOracleIsTheDirectLoop(const Platform &Plat, unsigned P,
                                 std::uint64_t M,
                                 const CollectiveModels<AlgT> &Models,
                                 const AdaptiveOptions &Options,
                                 const DirectOracle<AlgT> &Direct) {
  SCOPED_TRACE(std::string(collectiveOpName(CollectiveDescriptor<AlgT>::Op)) +
               " m=" + std::to_string(M));
  const bool MetricsWereOn = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  std::uint64_t Before = runnerExperiments();
  const CollectiveSelectionPoint<AlgT> Pt =
      evaluateSelectionPoint(Plat, P, M, Models, Options);
  const std::uint64_t OracleReplays = runnerExperiments() - Before;

  Before = runnerExperiments();
  std::vector<double> Times;
  for (AlgT Alg : CollectiveDescriptor<AlgT>::Algorithms)
    Times.push_back(Direct.Landscape(Alg));
  std::pair<AlgT, double> Fixed{};
  if (Direct.Fixed)
    Fixed = Direct.Fixed(Times);
  EXPECT_EQ(OracleReplays, runnerExperiments() - Before);
  obs::setMetricsEnabled(MetricsWereOn);

  for (std::size_t I = 0; I != Times.size(); ++I)
    EXPECT_EQ(Pt.MeasuredTime[I], Times[I]) << "algorithm " << I;
  const auto Best = std::min_element(Times.begin(), Times.end());
  EXPECT_EQ(static_cast<std::size_t>(Pt.Best), Best - Times.begin());
  EXPECT_EQ(Pt.BestTime, *Best);
  const AlgT Model = Models.selectBest(P, M);
  EXPECT_EQ(Pt.ModelChoice, Model);
  EXPECT_EQ(Pt.ModelChoiceTime, Times[static_cast<unsigned>(Model)]);
  EXPECT_EQ(Pt.ModelPredictedTime, Models.predict(Model, P, M));
  ASSERT_EQ(CollectiveSelectionPoint<AlgT>::HasFixedRule,
            static_cast<bool>(Direct.Fixed));
  EXPECT_EQ(Pt.OmpiChoice.Algorithm, Fixed.first);
  EXPECT_EQ(Pt.OmpiChoiceTime, Fixed.second);
}

} // namespace

TEST(Selection, OracleIsTheDirectMeasurementLoopOfEveryCollective) {
  const Platform Plat = smallCluster();
  const unsigned P = 16;
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  Quick.BaseSeed = 77;
  auto seeded = [&](std::uint64_t Seed) {
    AdaptiveOptions Options = Quick;
    Options.BaseSeed = Seed;
    return Options;
  };
  auto measured = [](const Experiment &E, const AdaptiveOptions &Options) {
    return E.measure(Options).Stats.Mean;
  };

  // Broadcast salts Table 3's seeds. At 64 KiB Open MPI runs
  // split-binary at 1 KiB segments, a measurement of its own; at 1 MiB
  // it runs the chain at the calibrated 8 KiB.
  const CalibratedModels Bcast = calibrate(Plat, quickOptions(12));
  for (std::uint64_t M : {std::uint64_t(64 * 1024), std::uint64_t(1 << 20)}) {
    auto bcast = [&](BcastAlgorithm Alg, std::uint64_t Segment,
                     std::uint64_t Salt) {
      BcastConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = M;
      Config.SegmentBytes = Alg == BcastAlgorithm::Linear ? 0 : Segment;
      Config.KChainFanout = Bcast.KChainFanout;
      return measured(prepareBcast(Plat, P, Config),
                      seeded(Quick.BaseSeed + Salt + M + 0x10000ull * P));
    };
    expectOracleIsTheDirectLoop<BcastAlgorithm>(
        Plat, P, M, Bcast, Quick,
        {[&](BcastAlgorithm Alg) {
           return bcast(Alg, Bcast.SegmentBytes,
                        0x111ull * static_cast<unsigned>(Alg));
         },
         [&](const std::vector<double> &Times) {
           const BcastDecision D = ompiBcastDecisionFixed(P, M);
           EXPECT_EQ(D.SegmentBytes != Bcast.SegmentBytes, M == 64 * 1024);
           return std::pair{D.Algorithm,
                            D.SegmentBytes != Bcast.SegmentBytes
                                ? bcast(D.Algorithm, D.SegmentBytes, 0xBEEF)
                                : Times[static_cast<unsigned>(D.Algorithm)]};
         }});
  }

  // The other ops measure under the caller's seed.
  const std::uint64_t Block = 4096, Vector = 256 * 1024;
  CalibrationOptions BlockOptions = quickOptions(12);
  BlockOptions.MessageSizes = {1024, 4096, 16384, 65536};
  const ReduceModels Reduce = calibrateReduce(Plat, quickOptions(12));
  expectOracleIsTheDirectLoop<ReduceAlgorithm>(
      Plat, P, Vector, Reduce, Quick,
      {[&](ReduceAlgorithm Alg) {
         ReduceConfig Config;
         Config.Algorithm = Alg;
         Config.MessageBytes = Vector;
         Config.SegmentBytes =
             Alg == ReduceAlgorithm::Linear ? 0 : Reduce.SegmentBytes;
         return measured(prepareReduce(Plat, P, Config), Quick);
       },
       {}});
  const ScatterModels Scatter = calibrateScatter(Plat, BlockOptions);
  expectOracleIsTheDirectLoop<ScatterAlgorithm>(
      Plat, P, Block, Scatter, Quick,
      {[&](ScatterAlgorithm Alg) {
         ScatterConfig Config;
         Config.Algorithm = Alg;
         Config.BlockBytes = Block;
         return measured(prepareScatter(Plat, P, Config), Quick);
       },
       {}});
  const AllgatherModels Allgather = calibrateAllgather(Plat, BlockOptions);
  expectOracleIsTheDirectLoop<AllgatherAlgorithm>(
      Plat, P, Block, Allgather, Quick,
      {[&](AllgatherAlgorithm Alg) {
         AllgatherConfig Config;
         Config.Algorithm = Alg;
         Config.BlockBytes = Block;
         return measured(prepareAllgather(Plat, P, Config), Quick);
       },
       [&](const std::vector<double> &Times) {
         const AllgatherAlgorithm Alg = ompiAllgatherDecisionFixed(P, Block);
         return std::pair{Alg, Times[static_cast<unsigned>(Alg)]};
       }});
  const AllreduceModels Allreduce = calibrateAllreduce(Plat, quickOptions(12));
  expectOracleIsTheDirectLoop<AllreduceAlgorithm>(
      Plat, P, Vector, Allreduce, Quick,
      {[&](AllreduceAlgorithm Alg) {
         AllreduceConfig Config;
         Config.Algorithm = Alg;
         Config.MessageBytes = Vector;
         Config.SegmentBytes = Alg == AllreduceAlgorithm::ReduceBcast
                                   ? Allreduce.SegmentBytes
                                   : 0;
         return measured(prepareAllreduce(Plat, P, Config), Quick);
       },
       [&](const std::vector<double> &Times) {
         const AllreduceAlgorithm Alg = ompiAllreduceDecisionFixed(P, Vector);
         return std::pair{Alg, Times[static_cast<unsigned>(Alg)]};
       }});
}

TEST(Selection, OracleMeasuresTheKChainAtTheCalibratedFanout) {
  const Platform Plat = smallCluster();
  const unsigned P = 16;
  const std::uint64_t M = 256 * 1024;
  CalibratedModels Models = calibrate(Plat, quickOptions(12));
  Models.KChainFanout = 3;
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  auto kchain = [&](unsigned Fanout) {
    BcastConfig Config;
    Config.Algorithm = BcastAlgorithm::KChain;
    Config.MessageBytes = M;
    Config.SegmentBytes = Models.SegmentBytes;
    Config.KChainFanout = Fanout;
    AdaptiveOptions Options = Quick;
    Options.BaseSeed += 0x111ull * static_cast<unsigned>(Config.Algorithm) +
                        M + 0x10000ull * P;
    return prepareBcast(Plat, P, Config).measure(Options).Stats.Mean;
  };
  const SelectionPoint Pt = evaluateSelectionPoint(Plat, P, M, Models, Quick);
  ASSERT_NE(kchain(3), kchain(4));
  EXPECT_EQ(Pt.MeasuredTime[static_cast<unsigned>(BcastAlgorithm::KChain)],
            kchain(3));
}

//===----------------------------------------------------------------------===//
// Runner determinism and statistics
//===----------------------------------------------------------------------===//

TEST(Runner, BcastOnceIsDeterministicPerSeed) {
  Platform Plat = smallCluster();
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binary;
  Config.MessageBytes = 65536;
  EXPECT_EQ(prepareBcast(Plat, 12, Config).run(5),
            prepareBcast(Plat, 12, Config).run(5));
  EXPECT_NE(prepareBcast(Plat, 12, Config).run(5),
            prepareBcast(Plat, 12, Config).run(6));
}

TEST(Runner, NoiselessMeasurementConvergesImmediately) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 65536;
  AdaptiveOptions Options;
  Options.MinReps = 3;
  Options.MaxReps = 20;
  AdaptiveResult R = measureBcast(Plat, 8, Config, Options);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Observations.size(), 3u);
  EXPECT_DOUBLE_EQ(R.Stats.Variance, 0.0);
}

TEST(Runner, BcastGatherEndsOnRootAfterBcast) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binary;
  Config.MessageBytes = 262144;
  double BcastOnly = prepareBcast(Plat, 12, Config).run(0);
  double WithGather = prepareBcast(Plat, 12, Config, 4096).run(0);
  EXPECT_GT(WithGather, BcastOnly);
}

TEST(Runner, PingPongScalesWithMessageSize) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  double Small = runPingPongOnce(Plat, 0, 1, 1024, 0);
  double Large = runPingPongOnce(Plat, 0, 1, 1024 * 1024, 0);
  EXPECT_GT(Large, 10 * Small);
}

TEST(Runner, HockneyMeasurementRecoversPlatformScale) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  AdaptiveOptions Quick;
  Quick.MinReps = 2;
  Quick.MaxReps = 3;
  HockneyParams H = measureHockneyParams(Plat, 0, 1, {}, Quick);
  // Test platform: one-way latency path ~12us fixed + 1 ns/B.
  EXPECT_GT(H.Alpha, 5e-6);
  EXPECT_LT(H.Alpha, 30e-6);
  EXPECT_NEAR(H.Beta, 1e-9, 0.3e-9);
}
