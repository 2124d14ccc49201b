//===- tests/TestAllreduce.cpp - Allreduce extension tests -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Tests of the collective-zoo extension: the paper's methodology
// applied to MPI_Allreduce (coll/Allreduce.h +
// model/AllreduceSelection.h).
//
//===----------------------------------------------------------------------===//

#include "coll/Allreduce.h"
#include "coll/OmpiDecision.h"
#include "model/AllreduceSelection.h"
#include "sim/Engine.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace mpicsel;

namespace {

Platform testPlatform(unsigned NumProcs) { return makeTestPlatform(NumProcs); }

using AllreduceCase = std::tuple<AllreduceAlgorithm, unsigned, std::uint64_t>;

std::vector<AllreduceCase> allreduceCases() {
  std::vector<AllreduceCase> Cases;
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
    for (unsigned Size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 24u, 33u})
      for (std::uint64_t Bytes : {std::uint64_t(7), std::uint64_t(20000)})
        Cases.emplace_back(Alg, Size, Bytes);
  return Cases;
}

} // namespace

class AllreduceSweep : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceSweep, ValidatesExecutesAndBalancesTraffic) {
  auto [Alg, Size, MessageBytes] = GetParam();
  Platform P = testPlatform(Size);

  ScheduleBuilder B(Size);
  AllreduceConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.ComputeSecondsPerByte = 4e-10;
  std::vector<OpId> Exit = appendAllreduce(B, Config);
  ASSERT_EQ(Exit.size(), Size);
  Schedule S = B.take();

  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ScheduleContract C = allreduceContract(Config, Size);
  VerifyReport Report = verifySchedule(S, &C);
  // The degenerate single-rank schedule is one dependency-free join,
  // which the dead-op lint flags by design; errors/warnings still fail.
  if (Size == 1)
    ASSERT_TRUE(Report.clean(Severity::Warning)) << Report.str();
  else
    ASSERT_TRUE(Report.Findings.empty())
        << allreduceAlgorithmName(Alg) << " P=" << Size
        << " m=" << MessageBytes << ":\n"
        << Report.str();

  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_TRUE(R.Timings[Exit[Rank]].Done);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllreduceSweep,
                         ::testing::ValuesIn(allreduceCases()));

TEST(Allreduce, NamesRoundTripAndRejectGarbage) {
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    auto Parsed = parseAllreduceAlgorithm(allreduceAlgorithmName(Alg));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Alg);
  }
  EXPECT_FALSE(parseAllreduceAlgorithm("bogus").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("ring ").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("ring,").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("reduce_bcastx").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("").has_value());
}

TEST(Allreduce, RingBlocksSpreadTheRemainder) {
  // m = 10, P = 4: blocks 3, 3, 2, 2.
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 0), 3u);
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 1), 3u);
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 2), 2u);
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 3), 2u);
  // A vector shorter than the communicator leaves empty blocks.
  EXPECT_EQ(allreduceRingBlockBytes(2, 5, 0), 1u);
  EXPECT_EQ(allreduceRingBlockBytes(2, 5, 4), 0u);
  std::uint64_t Sum = 0;
  for (unsigned I = 0; I != 5; ++I)
    Sum += allreduceRingBlockBytes(2, 5, I);
  EXPECT_EQ(Sum, 2u);
}

TEST(Allreduce, RecursiveDoublingNonPowerOfTwoFoldsExtraRanks) {
  // P = 5: r = 1, so ranks {0, 1} fold; rank 0 sends once and
  // receives once, rank 1 carries H+1 = 3 exchanges per direction.
  ScheduleBuilder B(5);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::RecursiveDoubling;
  Config.MessageBytes = 4096;
  appendAllreduce(B, Config);
  Schedule S = B.take();
  std::vector<unsigned> Sends(5, 0), Recvs(5, 0);
  for (const OpRow &O : S.Rows) {
    if (O.Kind == OpKind::Send)
      ++Sends[O.Rank];
    if (O.Kind == OpKind::Recv)
      ++Recvs[O.Rank];
  }
  EXPECT_EQ(Sends[0], 1u);
  EXPECT_EQ(Recvs[0], 1u);
  EXPECT_EQ(Sends[1], 3u);
  EXPECT_EQ(Recvs[1], 3u);
  for (unsigned Rank : {2u, 3u, 4u}) {
    EXPECT_EQ(Sends[Rank], 2u) << Rank;
    EXPECT_EQ(Recvs[Rank], 2u) << Rank;
  }
}

TEST(AllreduceModels, CoefficientsMatchRoundArithmetic) {
  GammaFunction G;
  // P = 16 power of two: H = 4 full-vector rounds.
  CostCoefficients Rd = allreduceCostCoefficients(
      AllreduceAlgorithm::RecursiveDoubling, 16, 64000, 0, G);
  EXPECT_DOUBLE_EQ(Rd.A, 4.0);
  EXPECT_DOUBLE_EQ(Rd.B, 4.0 * 64000);
  // P = 5: the fold adds two rounds.
  CostCoefficients RdOdd = allreduceCostCoefficients(
      AllreduceAlgorithm::RecursiveDoubling, 5, 64000, 0, G);
  EXPECT_DOUBLE_EQ(RdOdd.A, 4.0);
  // Ring: 2(P-1) rounds of m/P.
  CostCoefficients Ring = allreduceCostCoefficients(
      AllreduceAlgorithm::Ring, 16, 64000, 0, G);
  EXPECT_DOUBLE_EQ(Ring.A, 30.0);
  EXPECT_DOUBLE_EQ(Ring.B, 30.0 * 64000 / 16);
  // The composition adds reduce and bcast coefficients.
  CostCoefficients Composed = allreduceCostCoefficients(
      AllreduceAlgorithm::ReduceBcast, 16, 64000, 8192, G);
  EXPECT_GT(Composed.A, 0.0);
  EXPECT_GT(Composed.B, 2.0 * 64000); // Two full traversals of m.
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    CostCoefficients C = allreduceCostCoefficients(Alg, 1, 64000, 0, G);
    EXPECT_DOUBLE_EQ(C.A, 0.0);
    EXPECT_DOUBLE_EQ(C.B, 0.0);
  }
}

TEST(AllreduceOmpi, FixedDecisionThresholds) {
  EXPECT_EQ(ompiAllreduceDecisionFixed(16, 1024),
            AllreduceAlgorithm::RecursiveDoubling);
  EXPECT_EQ(ompiAllreduceDecisionFixed(4, 1 << 20),
            AllreduceAlgorithm::RecursiveDoubling);
  EXPECT_EQ(ompiAllreduceDecisionFixed(16, 1 << 20),
            AllreduceAlgorithm::Ring);
  EXPECT_EQ(ompiAllreduceDecisionFixed(100, 10000),
            AllreduceAlgorithm::Ring);
}

TEST(AllreduceCalibration, EndToEndSelectionIsReasonable) {
  Platform Plat = testPlatform(24);
  Plat.NoiseSigma = 0.01;
  AllreduceCalibrationOptions Options;
  Options.NumProcs = 12;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 6;
  AllreduceModels Models = calibrateAllreduce(Plat, Options);

  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    EXPECT_GE(Models.of(Alg).Alpha, 0.0);
    EXPECT_GE(Models.of(Alg).Beta, 0.0);
    EXPECT_GT(Models.of(Alg).Alpha + Models.of(Alg).Beta, 0.0);
  }

  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  for (std::uint64_t MessageBytes :
       {std::uint64_t(8192), std::uint64_t(131072),
        std::uint64_t(1 << 21)}) {
    double Best = 0, Chosen = 0;
    AllreduceAlgorithm Choice = Models.selectBest(20, MessageBytes);
    for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
      AllreduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      double Time = measureAllreduce(Plat, 20, Config, Quick).Stats.Mean;
      if (Best == 0 || Time < Best)
        Best = Time;
      if (Alg == Choice)
        Chosen = Time;
    }
    EXPECT_LT(Chosen, 1.5 * Best) << "message " << MessageBytes;
  }
}

TEST(AllreduceRunner, DeterministicAndComposable) {
  Platform Plat = testPlatform(8);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::Ring;
  Config.MessageBytes = 65536;
  EXPECT_EQ(prepareAllreduce(Plat, 8, Config).run(3),
            prepareAllreduce(Plat, 8, Config).run(3));
  double AllreduceOnly = prepareAllreduce(Plat, 8, Config).run(3);
  double WithGather = prepareAllreduce(Plat, 8, Config, 1024).run(3);
  EXPECT_GT(WithGather, AllreduceOnly);
}
