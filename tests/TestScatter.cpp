//===- tests/TestScatter.cpp - Scatter extension tests ----------------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Tests of the "future work" extension: the paper's methodology
// applied to MPI_Scatter (coll/Scatter.h + model/ScatterSelection.h).
//
//===----------------------------------------------------------------------===//

#include "coll/Scatter.h"
#include "model/ScatterSelection.h"
#include "sim/Engine.h"
#include "topo/Tree.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace mpicsel;

namespace {

Platform testPlatform(unsigned NumProcs) { return makeTestPlatform(NumProcs); }

using ScatterCase = std::tuple<ScatterAlgorithm, unsigned, unsigned>;

std::vector<ScatterCase> scatterCases() {
  std::vector<ScatterCase> Cases;
  for (ScatterAlgorithm Alg : AllScatterAlgorithms)
    for (unsigned Size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 24u, 33u})
      for (unsigned Root : {0u, 2u})
        if (Root < Size)
          Cases.emplace_back(Alg, Size, Root);
  return Cases;
}

} // namespace

class ScatterSweep : public ::testing::TestWithParam<ScatterCase> {};

TEST_P(ScatterSweep, ValidatesExecutesAndDeliversBlocks) {
  auto [Alg, Size, Root] = GetParam();
  const std::uint64_t BlockBytes = 3000;
  Platform P = testPlatform(Size);

  ScheduleBuilder B(Size);
  ScatterConfig Config;
  Config.Algorithm = Alg;
  Config.BlockBytes = BlockBytes;
  Config.Root = Root;
  std::vector<OpId> Exit = appendScatter(B, Config);
  ASSERT_EQ(Exit.size(), Size);
  Schedule S = B.take();

  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;

  // Every non-root rank receives its subtree bundle exactly once; in
  // the binomial variant interior ranks receive their whole subtree's
  // blocks, so check per-rank byte counts against the topology.
  if (Alg == ScatterAlgorithm::Linear) {
    for (unsigned Rank = 0; Rank != Size; ++Rank)
      EXPECT_EQ(R.BytesReceived[Rank],
                Rank == Root ? 0u : BlockBytes);
  } else {
    Tree T = buildBinomialTree(Size, Root);
    for (unsigned Rank = 0; Rank != Size; ++Rank)
      EXPECT_EQ(R.BytesReceived[Rank],
                Rank == Root ? 0u : T.subtreeSize(Rank) * BlockBytes);
  }
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_TRUE(R.Timings[Exit[Rank]].Done);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScatterSweep,
                         ::testing::ValuesIn(scatterCases()));

TEST(Scatter, NamesRoundTrip) {
  for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
    auto Parsed = parseScatterAlgorithm(scatterAlgorithmName(Alg));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Alg);
  }
  EXPECT_FALSE(parseScatterAlgorithm("bogus").has_value());
}

TEST(Scatter, BinomialMovesFewerMessagesButMoreRelayBytes) {
  Platform P = testPlatform(16);
  auto statsOf = [&](ScatterAlgorithm Alg) {
    ScheduleBuilder B(16);
    ScatterConfig Config;
    Config.Algorithm = Alg;
    Config.BlockBytes = 1000;
    appendScatter(B, Config);
    Schedule S = B.take();
    unsigned Sends = 0;
    std::uint64_t Bytes = 0;
    for (const OpRow &O : S.Rows)
      if (O.Kind == OpKind::Send) {
        ++Sends;
        Bytes += O.Bytes;
      }
    return std::pair(Sends, Bytes);
  };
  auto [LinearSends, LinearBytes] = statsOf(ScatterAlgorithm::Linear);
  auto [BinSends, BinBytes] = statsOf(ScatterAlgorithm::Binomial);
  EXPECT_EQ(LinearSends, 15u);
  EXPECT_EQ(LinearBytes, 15000u);
  // Binomial also sends 15 messages (each rank's bundle arrives once)
  // but relays bytes through the tree: total traffic is sum of
  // subtree sizes = 32 blocks for P = 16.
  EXPECT_EQ(BinSends, 15u);
  EXPECT_EQ(BinBytes, 32000u);
}

TEST(ScatterModels, LinearMatchesGammaForm) {
  GammaFunction G({1.0, 1.2, 1.4});
  CostCoefficients C =
      scatterCostCoefficients(ScatterAlgorithm::Linear, 4, 5000, G);
  EXPECT_DOUBLE_EQ(C.A, 1.4);
  EXPECT_DOUBLE_EQ(C.B, 1.4 * 5000);
}

TEST(ScatterModels, BinomialCriticalPathPowerOfTwo) {
  GammaFunction G;
  // P = 8: path 0 -> 4 (bundle 4 blocks) -> 6 (2) -> 7 (1):
  // A = 3, B = 7 blocks.
  CostCoefficients C =
      scatterCostCoefficients(ScatterAlgorithm::Binomial, 8, 1000, G);
  EXPECT_DOUBLE_EQ(C.A, 3.0);
  EXPECT_DOUBLE_EQ(C.B, 7000.0);
}

TEST(ScatterModels, SingleRankIsFree) {
  GammaFunction G;
  for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
    CostCoefficients C = scatterCostCoefficients(Alg, 1, 1000, G);
    EXPECT_DOUBLE_EQ(C.A, 0.0);
    EXPECT_DOUBLE_EQ(C.B, 0.0);
  }
}

TEST(ScatterCalibration, EndToEndSelectionIsReasonable) {
  Platform Plat = testPlatform(24);
  Plat.NoiseSigma = 0.01;
  ScatterCalibrationOptions Options;
  Options.NumProcs = 12;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 6;
  ScatterModels Models = calibrateScatter(Plat, Options);

  for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
    EXPECT_GE(Models.of(Alg).Alpha, 0.0);
    EXPECT_GE(Models.of(Alg).Beta, 0.0);
    EXPECT_GT(Models.of(Alg).Alpha + Models.of(Alg).Beta, 0.0);
  }

  // The selection must not lose badly against the measured best.
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  for (std::uint64_t BlockBytes :
       {std::uint64_t(1024), std::uint64_t(16384), std::uint64_t(131072)}) {
    double Best = 0, Chosen = 0;
    ScatterAlgorithm Choice = Models.selectBest(20, BlockBytes);
    for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
      ScatterConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = BlockBytes;
      double Time = measureScatter(Plat, 20, Config, Quick).Stats.Mean;
      if (Best == 0 || Time < Best)
        Best = Time;
      if (Alg == Choice)
        Chosen = Time;
    }
    EXPECT_LT(Chosen, 1.5 * Best) << "block " << BlockBytes;
  }
}

TEST(ScatterRunner, DeterministicAndComposable) {
  Platform Plat = testPlatform(8);
  ScatterConfig Config;
  Config.Algorithm = ScatterAlgorithm::Binomial;
  Config.BlockBytes = 2048;
  EXPECT_EQ(prepareScatter(Plat, 8, Config).run(3),
            prepareScatter(Plat, 8, Config).run(3));
  double ScatterOnly = prepareScatter(Plat, 8, Config).run(3);
  double WithGather = prepareScatter(Plat, 8, Config, 1024).run(3);
  EXPECT_GT(WithGather, ScatterOnly);
}
