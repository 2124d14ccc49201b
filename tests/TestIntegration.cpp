//===- tests/TestIntegration.cpp - Cross-module integration tests ----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Scenarios spanning several modules: noise robustness of the whole
// pipeline, incast contention, concurrent collectives, and long
// composed schedules.
//
//===----------------------------------------------------------------------===//

#include "coll/Barrier.h"
#include "coll/Bcast.h"
#include "coll/Gather.h"
#include "model/Calibration.h"
#include "model/Runner.h"
#include "model/Selection.h"
#include "sim/Engine.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mpicsel;

//===----------------------------------------------------------------------===//
// Failure injection: noise
//===----------------------------------------------------------------------===//

TEST(NoiseRobustness, CalibrationSurvivesHeavyNoise) {
  // Sigma 0.15 gives ~15% scatter per channel occupancy -- far worse
  // than a real dedicated cluster. The pipeline must still produce
  // sane parameters and a selection that is not pathological.
  Platform Plat = makeTestPlatform(24);
  Plat.NoiseSigma = 0.15;
  CalibrationOptions Options;
  Options.NumProcs = 12;
  Options.MessageSizes = {8192, 131072, 1048576};
  Options.Adaptive.MinReps = 5;
  Options.Adaptive.MaxReps = 25;
  CalibratedModels M = calibrate(Plat, Options);
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    EXPECT_GE(M.of(Alg).Alpha, 0.0);
    EXPECT_GE(M.of(Alg).Beta, 0.0);
    EXPECT_GT(M.of(Alg).Alpha + M.of(Alg).Beta, 0.0);
  }
  EXPECT_GT(M.Gamma(6), 1.0);
  EXPECT_LT(M.Gamma(6), 5.0);

  AdaptiveOptions Quick;
  Quick.MinReps = 5;
  Quick.MaxReps = 15;
  SelectionPoint Pt = evaluateSelectionPoint(Plat, 20, 262144, M, Quick);
  EXPECT_LT(Pt.modelDegradation(), 0.6);
}

TEST(NoiseRobustness, AdaptiveRunnerTightensTheMean) {
  Platform Plat = makeGrisou(); // sigma 0.03
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binary;
  Config.MessageBytes = 262144;
  AdaptiveOptions Options;
  Options.MinReps = 5;
  Options.MaxReps = 60;
  AdaptiveResult R = measureBcast(Plat, 24, Config, Options);
  EXPECT_TRUE(R.Converged);
  EXPECT_LE(R.Stats.relativePrecision(), 0.025);
  // The observations really scatter (noise is on).
  EXPECT_GT(R.Stats.Max, R.Stats.Min);
}

//===----------------------------------------------------------------------===//
// Incast: the rx channel under fan-in
//===----------------------------------------------------------------------===//

TEST(Incast, GatherDrainSerialisesAtTheRoot) {
  // P-1 simultaneous blocks into one node: total time is bounded
  // below by the sum of the drain occupancies -- the Eq. 8 regime.
  Platform P = makeTestPlatform(17);
  const std::uint64_t BlockBytes = 100000; // 100 us drain each.
  ScheduleBuilder B(17);
  GatherConfig Config;
  Config.BlockBytes = BlockBytes;
  appendLinearGather(B, Config);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  double DrainPerBlock =
      P.InterNode.rxOccupancy(BlockBytes); // 1us + 100us.
  EXPECT_GE(R.Makespan, 16 * DrainPerBlock);
  // And not absurdly above it (fan-in overlaps everything else).
  EXPECT_LT(R.Makespan, 16 * DrainPerBlock + 100e-6);
}

//===----------------------------------------------------------------------===//
// Concurrency and composition
//===----------------------------------------------------------------------===//

TEST(Composition, ConcurrentBcastsWithDistinctTagsDoNotCrossMatch) {
  // Two independent broadcasts from different roots, interleaved in
  // one schedule. Tags keep their channels apart; both must deliver.
  Platform P = makeTestPlatform(8);
  ScheduleBuilder B(8);
  BcastConfig A;
  A.Algorithm = BcastAlgorithm::Binomial;
  A.MessageBytes = 30000;
  A.SegmentBytes = 8192;
  A.Root = 0;
  A.Tag = 0;
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binary;
  C.MessageBytes = 50000;
  C.SegmentBytes = 8192;
  C.Root = 3;
  C.Tag = 100;
  appendBcast(B, A);
  appendBcast(B, C);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  for (unsigned Rank = 0; Rank != 8; ++Rank) {
    std::uint64_t Expected = 0;
    if (Rank != 0)
      Expected += 30000;
    if (Rank != 3)
      Expected += 50000;
    EXPECT_EQ(R.BytesReceived[Rank], Expected) << "rank " << Rank;
  }
}

TEST(Composition, LongTrainOfCollectivesStaysOrdered) {
  // bcast -> barrier -> gather -> barrier -> bcast: per-rank program
  // order must hold across the whole train.
  Platform P = makeTestPlatform(12);
  ScheduleBuilder B(12);
  BcastConfig Bc;
  Bc.Algorithm = BcastAlgorithm::Binomial;
  Bc.MessageBytes = 65536;
  Bc.SegmentBytes = 8192;
  std::vector<OpId> Exit = appendBcast(B, Bc);
  std::vector<OpId> Bcast1Exit = Exit;
  Exit = appendBarrier(B, 10, Exit);
  GatherConfig G;
  G.BlockBytes = 4096;
  G.Tag = 20;
  Exit = appendLinearGather(B, G, Exit);
  std::vector<OpId> GatherExit = Exit;
  Exit = appendBarrier(B, 30, Exit);
  Bc.Tag = 40;
  Exit = appendBcast(B, Bc, Exit);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  // The second broadcast cannot finish before the gather finished
  // anywhere (two barriers in between).
  double SecondBcastEnd = 0, GatherEnd = 0, FirstBcastEnd = 0;
  for (unsigned Rank = 0; Rank != 12; ++Rank) {
    SecondBcastEnd = std::max(SecondBcastEnd, R.doneTime(Exit[Rank]));
    GatherEnd = std::max(GatherEnd, R.doneTime(GatherExit[Rank]));
    FirstBcastEnd = std::max(FirstBcastEnd, R.doneTime(Bcast1Exit[Rank]));
  }
  EXPECT_GT(GatherEnd, FirstBcastEnd);
  EXPECT_GT(SecondBcastEnd, GatherEnd);
  // Volume check: everyone received two broadcasts (root received
  // gather blocks instead).
  for (unsigned Rank = 1; Rank != 12; ++Rank)
    EXPECT_EQ(R.BytesReceived[Rank], 2u * 65536u);
  EXPECT_EQ(R.BytesReceived[0], 11u * 4096u);
}

TEST(Composition, BarrierTrainScalesLinearlyInCalls) {
  Platform P = makeTestPlatform(8);
  double Five = runBarrierTrainOnce(P, 8, 5, 0);
  double Ten = runBarrierTrainOnce(P, 8, 10, 0);
  // Per-call mean should be nearly identical (steady state).
  EXPECT_NEAR(Five, Ten, 0.25 * Five);
}

//===----------------------------------------------------------------------===//
// Cross-checks between models and simulator at small scale
//===----------------------------------------------------------------------===//

TEST(ModelVsSim, ChainScalesWithSegmentsLikeTheModelSays) {
  // For the chain, doubling the message roughly adds n_s * stage-cost
  // once the pipeline is full: T(2m) - T(m) ~ T(4m) - T(2m) ... / 2.
  Platform P = makeTestPlatform(16);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Chain;
  Config.SegmentBytes = 8192;
  auto timeOf = [&](std::uint64_t M) {
    Config.MessageBytes = M;
    return prepareBcast(P, 16, Config).run(0);
  };
  double T1 = timeOf(1 << 20), T2 = timeOf(2 << 20), T4 = timeOf(4 << 20);
  double FirstDelta = T2 - T1, SecondDelta = T4 - T2;
  EXPECT_NEAR(SecondDelta, 2 * FirstDelta, 0.15 * SecondDelta);
}

TEST(ModelVsSim, LinearBcastTimeGrowsLinearlyInRanks) {
  // The gamma story: T_linear(P) is affine in P on a serialising
  // root.
  Platform P = makeTestPlatform(64);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Linear;
  Config.MessageBytes = 8192;
  Config.SegmentBytes = 0;
  auto timeOf = [&](unsigned Procs) {
    return prepareBcast(P, Procs, Config).run(0);
  };
  double T16 = timeOf(16), T32 = timeOf(32), T64 = timeOf(64);
  EXPECT_NEAR(T64 - T32, 2 * (T32 - T16), 0.10 * (T64 - T32));
}
