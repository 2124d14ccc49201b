//===- tests/TestAllgather.cpp - Allgather extension tests -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Tests of the collective-zoo extension: the paper's methodology
// applied to MPI_Allgather (coll/Allgather.h +
// model/AllgatherSelection.h).
//
//===----------------------------------------------------------------------===//

#include "coll/Allgather.h"
#include "coll/OmpiDecision.h"
#include "model/AllgatherSelection.h"
#include "sim/Engine.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace mpicsel;

namespace {

Platform testPlatform(unsigned NumProcs) { return makeTestPlatform(NumProcs); }

using AllgatherCase = std::tuple<AllgatherAlgorithm, unsigned>;

std::vector<AllgatherCase> allgatherCases() {
  std::vector<AllgatherCase> Cases;
  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms)
    for (unsigned Size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 24u, 33u})
      Cases.emplace_back(Alg, Size);
  return Cases;
}

} // namespace

class AllgatherSweep : public ::testing::TestWithParam<AllgatherCase> {};

TEST_P(AllgatherSweep, ValidatesExecutesAndExchangesAllBlocks) {
  auto [Alg, Size] = GetParam();
  const std::uint64_t BlockBytes = 3000;
  Platform P = testPlatform(Size);

  ScheduleBuilder B(Size);
  AllgatherConfig Config;
  Config.Algorithm = Alg;
  Config.BlockBytes = BlockBytes;
  std::vector<OpId> Exit = appendAllgather(B, Config);
  ASSERT_EQ(Exit.size(), Size);
  Schedule S = B.take();

  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ScheduleContract C = allgatherContract(Config, Size);
  VerifyReport Report = verifySchedule(S, &C);
  // The degenerate single-rank schedule is one dependency-free join,
  // which the dead-op lint flags by design; errors/warnings still fail.
  if (Size == 1)
    ASSERT_TRUE(Report.clean(Severity::Warning)) << Report.str();
  else
    ASSERT_TRUE(Report.Findings.empty())
        << allgatherAlgorithmName(Alg) << " P=" << Size << ":\n"
        << Report.str();

  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  // Every rank both contributes and collects P-1 blocks.
  for (unsigned Rank = 0; Rank != Size; ++Rank) {
    EXPECT_EQ(R.BytesReceived[Rank], (Size - 1) * BlockBytes);
    EXPECT_EQ(R.BytesSent[Rank], (Size - 1) * BlockBytes);
    EXPECT_TRUE(R.Timings[Exit[Rank]].Done);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllgatherSweep,
                         ::testing::ValuesIn(allgatherCases()));

TEST(Allgather, NamesRoundTripAndRejectGarbage) {
  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
    auto Parsed = parseAllgatherAlgorithm(allgatherAlgorithmName(Alg));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Alg);
  }
  EXPECT_FALSE(parseAllgatherAlgorithm("bogus").has_value());
  EXPECT_FALSE(parseAllgatherAlgorithm("ring ").has_value());
  EXPECT_FALSE(parseAllgatherAlgorithm("ringx").has_value());
  EXPECT_FALSE(parseAllgatherAlgorithm("recursive_doubling2").has_value());
  EXPECT_FALSE(parseAllgatherAlgorithm("").has_value());
}

TEST(Allgather, FallbacksMatchOpenMpiRestrictions) {
  EXPECT_TRUE(
      allgatherAlgorithmApplies(AllgatherAlgorithm::RecursiveDoubling, 8));
  EXPECT_FALSE(
      allgatherAlgorithmApplies(AllgatherAlgorithm::RecursiveDoubling, 12));
  EXPECT_TRUE(
      allgatherAlgorithmApplies(AllgatherAlgorithm::NeighborExchange, 12));
  EXPECT_FALSE(
      allgatherAlgorithmApplies(AllgatherAlgorithm::NeighborExchange, 13));
  EXPECT_TRUE(allgatherAlgorithmApplies(AllgatherAlgorithm::Ring, 13));

  // The fallback really builds a ring: message counts are P-1 per
  // rank, not log2/neighbor counts.
  ScheduleBuilder B(6);
  AllgatherConfig Config;
  Config.Algorithm = AllgatherAlgorithm::RecursiveDoubling;
  Config.BlockBytes = 100;
  appendAllgather(B, Config);
  Schedule S = B.take();
  unsigned Sends = 0;
  for (const OpRow &O : S.Rows)
    if (O.Kind == OpKind::Send)
      ++Sends;
  EXPECT_EQ(Sends, 6u * 5u);
}

TEST(Allgather, RoundStructurePerAlgorithm) {
  auto sendsOf = [](AllgatherAlgorithm Alg, unsigned P) {
    ScheduleBuilder B(P);
    AllgatherConfig Config;
    Config.Algorithm = Alg;
    Config.BlockBytes = 1000;
    appendAllgather(B, Config);
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
  // P = 16: ring 15 rounds, rd 4 rounds, ne 8 rounds; all move the
  // same 15 blocks per rank.
  auto [RingSends, RingBytes] = sendsOf(AllgatherAlgorithm::Ring, 16);
  EXPECT_EQ(RingSends, 16u * 15u);
  EXPECT_EQ(RingBytes, 16u * 15u * 1000u);
  auto [RdSends, RdBytes] =
      sendsOf(AllgatherAlgorithm::RecursiveDoubling, 16);
  EXPECT_EQ(RdSends, 16u * 4u);
  EXPECT_EQ(RdBytes, 16u * 15u * 1000u);
  auto [NeSends, NeBytes] =
      sendsOf(AllgatherAlgorithm::NeighborExchange, 16);
  EXPECT_EQ(NeSends, 16u * 8u);
  EXPECT_EQ(NeBytes, 16u * 15u * 1000u);
}

TEST(AllgatherModels, CoefficientsMatchRoundArithmetic) {
  GammaFunction G;
  CostCoefficients Ring =
      allgatherCostCoefficients(AllgatherAlgorithm::Ring, 16, 1000, G);
  EXPECT_DOUBLE_EQ(Ring.A, 15.0);
  EXPECT_DOUBLE_EQ(Ring.B, 15000.0);
  CostCoefficients Rd = allgatherCostCoefficients(
      AllgatherAlgorithm::RecursiveDoubling, 16, 1000, G);
  EXPECT_DOUBLE_EQ(Rd.A, 4.0);
  EXPECT_DOUBLE_EQ(Rd.B, 15000.0);
  CostCoefficients Ne = allgatherCostCoefficients(
      AllgatherAlgorithm::NeighborExchange, 16, 1000, G);
  EXPECT_DOUBLE_EQ(Ne.A, 8.0);
  EXPECT_DOUBLE_EQ(Ne.B, 15000.0);
  // Inapplicable sizes price as the ring they fall back to.
  CostCoefficients RdOdd = allgatherCostCoefficients(
      AllgatherAlgorithm::RecursiveDoubling, 13, 1000, G);
  EXPECT_DOUBLE_EQ(RdOdd.A, 12.0);
  CostCoefficients NeOdd = allgatherCostCoefficients(
      AllgatherAlgorithm::NeighborExchange, 13, 1000, G);
  EXPECT_DOUBLE_EQ(NeOdd.A, 12.0);
  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
    CostCoefficients C = allgatherCostCoefficients(Alg, 1, 1000, G);
    EXPECT_DOUBLE_EQ(C.A, 0.0);
    EXPECT_DOUBLE_EQ(C.B, 0.0);
  }
}

TEST(AllgatherOmpi, FixedDecisionThresholds) {
  // Two ranks: always the pairwise exchange.
  EXPECT_EQ(ompiAllgatherDecisionFixed(2, 1 << 20),
            AllgatherAlgorithm::NeighborExchange);
  // Small totals: recursive doubling on powers of two, ring otherwise.
  EXPECT_EQ(ompiAllgatherDecisionFixed(8, 1024),
            AllgatherAlgorithm::RecursiveDoubling);
  EXPECT_EQ(ompiAllgatherDecisionFixed(6, 1024), AllgatherAlgorithm::Ring);
  // Large totals: neighbor exchange on even sizes, ring on odd.
  EXPECT_EQ(ompiAllgatherDecisionFixed(16, 1 << 20),
            AllgatherAlgorithm::NeighborExchange);
  EXPECT_EQ(ompiAllgatherDecisionFixed(13, 1 << 20),
            AllgatherAlgorithm::Ring);
}

TEST(AllgatherCalibration, EndToEndSelectionIsReasonable) {
  Platform Plat = testPlatform(24);
  Plat.NoiseSigma = 0.01;
  AllgatherCalibrationOptions Options;
  Options.NumProcs = 12;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 6;
  AllgatherModels Models = calibrateAllgather(Plat, Options);

  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
    EXPECT_GE(Models.of(Alg).Alpha, 0.0);
    EXPECT_GE(Models.of(Alg).Beta, 0.0);
    EXPECT_GT(Models.of(Alg).Alpha + Models.of(Alg).Beta, 0.0);
  }

  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  for (std::uint64_t BlockBytes :
       {std::uint64_t(1024), std::uint64_t(16384), std::uint64_t(131072)}) {
    double Best = 0, Chosen = 0;
    AllgatherAlgorithm Choice = Models.selectBest(20, BlockBytes);
    for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
      AllgatherConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = BlockBytes;
      double Time = measureAllgather(Plat, 20, Config, Quick).Stats.Mean;
      if (Best == 0 || Time < Best)
        Best = Time;
      if (Alg == Choice)
        Chosen = Time;
    }
    EXPECT_LT(Chosen, 1.5 * Best) << "block " << BlockBytes;
  }
}

TEST(AllgatherRunner, DeterministicAndComposable) {
  Platform Plat = testPlatform(8);
  AllgatherConfig Config;
  Config.Algorithm = AllgatherAlgorithm::RecursiveDoubling;
  Config.BlockBytes = 2048;
  EXPECT_EQ(prepareAllgather(Plat, 8, Config).run(3),
            prepareAllgather(Plat, 8, Config).run(3));
  double AllgatherOnly = prepareAllgather(Plat, 8, Config).run(3);
  double WithGather = prepareAllgather(Plat, 8, Config, 1024).run(3);
  EXPECT_GT(WithGather, AllgatherOnly);
}
