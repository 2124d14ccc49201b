//===- tests/TestReduce.cpp - Reduce extension tests ------------------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//

#include "coll/Reduce.h"
#include "model/ReduceSelection.h"
#include "sim/Engine.h"
#include "topo/Tree.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace mpicsel;

namespace {

using ReduceCase = std::tuple<ReduceAlgorithm, unsigned, std::uint64_t>;

std::vector<ReduceCase> reduceCases() {
  std::vector<ReduceCase> Cases;
  for (ReduceAlgorithm Alg : AllReduceAlgorithms)
    for (unsigned Size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 24u})
      for (std::uint64_t Segment : {std::uint64_t(0), std::uint64_t(8192)})
        Cases.emplace_back(Alg, Size, Segment);
  return Cases;
}

} // namespace

class ReduceSweep : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceSweep, ValidatesExecutesAndConservesVolume) {
  auto [Alg, Size, Segment] = GetParam();
  const std::uint64_t MessageBytes = 20000;
  Platform P = makeTestPlatform(Size);

  ScheduleBuilder B(Size);
  ReduceConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = Segment;
  Config.ComputeSecondsPerByte = P.ReduceComputePerByte;
  std::vector<OpId> Exit = appendReduce(B, Config);
  ASSERT_EQ(Exit.size(), Size);
  Schedule S = B.take();

  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;

  if (Size == 1)
    return;
  // Every rank except the root sends its vector exactly once (the
  // tree algorithms forward partial results of the same size, so a
  // rank's sent bytes equal MessageBytes regardless of position).
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_EQ(R.BytesSent[Rank], Rank == 0 ? 0u : MessageBytes)
        << "rank " << Rank;
  // A rank receives MessageBytes per tree child it has.
  Tree T = Alg == ReduceAlgorithm::Binomial
               ? buildBinomialTree(Size, 0)
               : (Alg == ReduceAlgorithm::Chain ? buildChainTree(Size, 0, 1)
                                                : buildLinearTree(Size, 0));
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_EQ(R.BytesReceived[Rank],
              T.Children[Rank].size() * MessageBytes)
        << "rank " << Rank;
  // The root's exit is the last thing that happens on the root.
  EXPECT_GT(R.doneTime(Exit[0]), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReduceSweep,
                         ::testing::ValuesIn(reduceCases()));

TEST(Reduce, NamesRoundTrip) {
  for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
    auto Parsed = parseReduceAlgorithm(reduceAlgorithmName(Alg));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Alg);
  }
  EXPECT_FALSE(parseReduceAlgorithm("allreduce").has_value());
}

TEST(Reduce, ComputeCostIsCharged) {
  // The same reduction with an expensive combine must take longer.
  Platform P = makeTestPlatform(8);
  ReduceConfig Config;
  Config.Algorithm = ReduceAlgorithm::Binomial;
  Config.MessageBytes = 1 << 20;
  Config.SegmentBytes = 8192;
  Config.ComputeSecondsPerByte = 0.0;
  double Free = prepareReduce(P, 8, Config).run(0);
  // prepareReduce fills 0 from the platform; force distinct values.
  Config.ComputeSecondsPerByte = 1e-12; // Effectively free.
  double Cheap = prepareReduce(P, 8, Config).run(0);
  Config.ComputeSecondsPerByte = 5e-9; // Slower than the network.
  double Expensive = prepareReduce(P, 8, Config).run(0);
  EXPECT_GT(Expensive, 1.5 * Cheap);
  EXPECT_GT(Free, 0.0);
}

TEST(Reduce, PipelineBeatsLinearOnLargeVectors) {
  Platform P = makeTestPlatform(24);
  auto timeOf = [&](ReduceAlgorithm Alg) {
    ReduceConfig Config;
    Config.Algorithm = Alg;
    Config.MessageBytes = 4 << 20;
    Config.SegmentBytes = 8192;
    return prepareReduce(P, 24, Config).run(0);
  };
  // The linear reduce drains 23 x 4 MB through one NIC; the
  // segmented trees pipeline.
  EXPECT_LT(timeOf(ReduceAlgorithm::Chain),
            0.5 * timeOf(ReduceAlgorithm::Linear));
  EXPECT_LT(timeOf(ReduceAlgorithm::Binomial),
            timeOf(ReduceAlgorithm::Linear));
}

TEST(ReduceModels, CoefficientsMatchClosedForms) {
  GammaFunction G({1.0, 1.114, 1.219, 1.283, 1.451, 1.540});
  // Linear: Eq. 8 structure.
  CostCoefficients Lin =
      reduceCostCoefficients(ReduceAlgorithm::Linear, 10, 4096, 0, G);
  EXPECT_DOUBLE_EQ(Lin.A, 9.0);
  EXPECT_DOUBLE_EQ(Lin.B, 9.0 * 4096);
  // Chain mirrors the chain broadcast.
  CostCoefficients Chain = reduceCostCoefficients(ReduceAlgorithm::Chain, 10,
                                                  8 * 8192, 8192, G);
  EXPECT_DOUBLE_EQ(Chain.A, 16.0);
  // Binomial mirrors Eq. 6.
  CostCoefficients Bin = reduceCostCoefficients(ReduceAlgorithm::Binomial, 8,
                                                3 * 8192, 8192, G);
  EXPECT_NEAR(Bin.A, 3 * 1.219 + 1.114 + 1.0 - 1.0, 1e-12);
}

TEST(ReduceCalibration, EndToEndSelectionIsReasonable) {
  Platform Plat = makeTestPlatform(24);
  Plat.NoiseSigma = 0.01;
  ReduceCalibrationOptions Options;
  Options.NumProcs = 12;
  Options.MessageSizes = {8192, 131072, 1048576};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 6;
  ReduceModels Models = calibrateReduce(Plat, Options);

  for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
    EXPECT_GE(Models.of(Alg).Alpha, 0.0);
    EXPECT_GE(Models.of(Alg).Beta, 0.0);
    EXPECT_GT(Models.of(Alg).Alpha + Models.of(Alg).Beta, 0.0);
  }

  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  for (std::uint64_t MessageBytes :
       {std::uint64_t(16384), std::uint64_t(262144),
        std::uint64_t(2 << 20)}) {
    ReduceAlgorithm Choice = Models.selectBest(20, MessageBytes);
    double Best = 0, Chosen = 0;
    for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
      ReduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      Config.SegmentBytes =
          Alg == ReduceAlgorithm::Linear ? 0 : Models.SegmentBytes;
      double Time = measureReduce(Plat, 20, Config, Quick).Stats.Mean;
      if (Best == 0 || Time < Best)
        Best = Time;
      if (Alg == Choice)
        Chosen = Time;
    }
    EXPECT_LT(Chosen, 1.5 * Best) << "m=" << MessageBytes;
  }
}

TEST(ReduceRunner, DeterministicPerSeed) {
  Platform Plat = makeGros();
  ReduceConfig Config;
  Config.Algorithm = ReduceAlgorithm::Binomial;
  Config.MessageBytes = 65536;
  EXPECT_EQ(prepareReduce(Plat, 16, Config).run(9),
            prepareReduce(Plat, 16, Config).run(9));
  EXPECT_NE(prepareReduce(Plat, 16, Config).run(9),
            prepareReduce(Plat, 16, Config).run(10));
}
