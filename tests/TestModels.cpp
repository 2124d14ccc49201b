//===- tests/TestModels.cpp - model/ analytical model tests ----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//

#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/TraditionalModels.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mpicsel;

namespace {

GammaFunction identityGamma() { return GammaFunction(); }

GammaFunction paperGrisouGamma() {
  // Paper Table 1, Grisou column (gamma(2) = 1 by definition).
  return GammaFunction({1.0, 1.114, 1.219, 1.283, 1.451, 1.540});
}

ModelQuery query(unsigned P, std::uint64_t M, std::uint64_t Seg = 8192,
                 unsigned K = 4) {
  ModelQuery Q;
  Q.NumProcs = P;
  Q.MessageBytes = M;
  Q.SegmentBytes = Seg;
  Q.KChainFanout = K;
  return Q;
}

} // namespace

//===----------------------------------------------------------------------===//
// GammaFunction
//===----------------------------------------------------------------------===//

TEST(GammaFunction, IdentityDefaultsToOne) {
  GammaFunction G;
  EXPECT_DOUBLE_EQ(G(2), 1.0);
  EXPECT_DOUBLE_EQ(G(7), 1.0);
  EXPECT_DOUBLE_EQ(G(100), 1.0);
}

TEST(GammaFunction, TableLookupWithinMeasuredRange) {
  GammaFunction G = paperGrisouGamma();
  EXPECT_DOUBLE_EQ(G(2), 1.0);
  EXPECT_DOUBLE_EQ(G(3), 1.114);
  EXPECT_DOUBLE_EQ(G(7), 1.540);
  EXPECT_EQ(G.measuredMax(), 7u);
}

TEST(GammaFunction, ExtrapolationIsLinearAndClamped) {
  GammaFunction G = paperGrisouGamma();
  ASSERT_TRUE(G.fit().Valid);
  // The paper's Grisou gammas are near linear: slope ~ 0.108/process.
  EXPECT_NEAR(G.fit().Slope, 0.108, 0.02);
  // Extrapolated values continue the trend...
  EXPECT_GT(G(8), G(7));
  EXPECT_LT(G(8), 2.0);
  // ... and respect the Eq. 1 bounds.
  EXPECT_GE(G(1000), 1.0);
  EXPECT_LE(G(1000), 999.0);
}

TEST(GammaFunction, SmallPIsAlwaysOne) {
  GammaFunction G = paperGrisouGamma();
  EXPECT_DOUBLE_EQ(G(1), 1.0);
  EXPECT_DOUBLE_EQ(G(0), 1.0);
}

//===----------------------------------------------------------------------===//
// Cost coefficients: closed forms
//===----------------------------------------------------------------------===//

TEST(CostModels, LinearMatchesEquationTwo) {
  GammaFunction G = paperGrisouGamma();
  // T = gamma(P) * (alpha + m beta): A = gamma(P), B = gamma(P) * m.
  CostCoefficients C =
      bcastCostCoefficients(BcastAlgorithm::Linear, query(7, 100000, 0), G);
  EXPECT_DOUBLE_EQ(C.A, 1.540);
  EXPECT_DOUBLE_EQ(C.B, 1.540 * 100000);
}

TEST(CostModels, ChainIsPipelineDepthPlusSegments) {
  GammaFunction G = identityGamma();
  // n_s = 8, P = 10: A = 8 + 10 - 2 = 16; B = 16 * m_s.
  CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::Chain,
                                             query(10, 8 * 8192), G);
  EXPECT_DOUBLE_EQ(C.A, 16.0);
  EXPECT_DOUBLE_EQ(C.B, 16.0 * 8192);
}

TEST(CostModels, ChainDegeneratesToPointToPointForTwoRanks) {
  GammaFunction G = identityGamma();
  CostCoefficients C =
      bcastCostCoefficients(BcastAlgorithm::Chain, query(2, 8192), G);
  EXPECT_DOUBLE_EQ(C.A, 1.0);
  EXPECT_DOUBLE_EQ(C.B, 8192.0);
}

TEST(CostModels, KChainUsesChainLengthAndRootGamma) {
  GammaFunction G = paperGrisouGamma();
  // P = 9, K = 4 -> chains of length 2; n_s = 4.
  // A = 4 * gamma(5) + (2 - 1) = 4 * 1.283 + 1.
  CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::KChain,
                                             query(9, 4 * 8192), G);
  EXPECT_NEAR(C.A, 4 * 1.283 + 1, 1e-12);
  EXPECT_NEAR(C.B, C.A * 8192, 1e-6);
}

TEST(CostModels, KChainClampsFanoutToCommunicator) {
  GammaFunction G = paperGrisouGamma();
  // P = 3 with K = 4 -> only 2 chains: behaves like linear with 2
  // children per segment: A = n_s * gamma(3).
  CostCoefficients C =
      bcastCostCoefficients(BcastAlgorithm::KChain, query(3, 2 * 8192), G);
  EXPECT_NEAR(C.A, 2 * 1.114, 1e-12);
}

TEST(CostModels, BinaryUsesHeapHeightAndGammaThree) {
  GammaFunction G = paperGrisouGamma();
  // P = 15: heap height 3. n_s = 4.
  // A = (4 + 3 - 1) * gamma(3) = 6 * 1.114.
  CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::Binary,
                                             query(15, 4 * 8192), G);
  EXPECT_NEAR(C.A, 6 * 1.114, 1e-12);
}

TEST(CostModels, BinomialMatchesEquationSixForPowerOfTwo) {
  GammaFunction G = paperGrisouGamma();
  // P = 8: ceil = floor = 3. n_s = 3 (paper's Fig. 3 example).
  // A = 3 * gamma(4) + gamma(3) + gamma(2) - 1
  //   = 3 * 1.219 + 1.114 + 1.0 - 1.
  CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::Binomial,
                                             query(8, 3 * 8192), G);
  EXPECT_NEAR(C.A, 3 * 1.219 + 1.114 + 1.0 - 1.0, 1e-12);
  EXPECT_NEAR(C.B, C.A * 8192, 1e-6);
}

TEST(CostModels, BinomialNonPowerOfTwoUsesCeilAndFloor) {
  GammaFunction G = paperGrisouGamma();
  // P = 6: ceil(log2) = 3, floor(log2) = 2.
  // A = n_s * gamma(4) + gamma(3) - 1 with n_s = 2.
  CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::Binomial,
                                             query(6, 2 * 8192), G);
  EXPECT_NEAR(C.A, 2 * 1.219 + 1.114 - 1.0, 1e-12);
}

TEST(CostModels, BinomialTwoRanksIsExactlyTheSegmentStream) {
  GammaFunction G = paperGrisouGamma();
  CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::Binomial,
                                             query(2, 4 * 8192), G);
  EXPECT_DOUBLE_EQ(C.A, 4.0);
  EXPECT_DOUBLE_EQ(C.B, 4.0 * 8192);
}

TEST(CostModels, SplitBinaryAddsTheExchangeTerm) {
  GammaFunction G = identityGamma();
  // P = 7 in-order tree height: blocks L(3): 1-(2,3), R(3): 4-(5,6)
  // -> height 2. m = 8 segments -> halves of 4 segments.
  // Tree part: (4 + 2 - 1) * gamma(3) = 5; exchange adds {1, m/2}.
  std::uint64_t M = 8 * 8192;
  CostCoefficients C =
      bcastCostCoefficients(BcastAlgorithm::SplitBinary, query(7, M), G);
  EXPECT_DOUBLE_EQ(C.A, 5.0 + 1.0);
  EXPECT_DOUBLE_EQ(C.B, 5.0 * 8192 + M / 2.0);
}

TEST(CostModels, SplitBinaryFallsBackToChainForTinyCases) {
  GammaFunction G = identityGamma();
  CostCoefficients Split =
      bcastCostCoefficients(BcastAlgorithm::SplitBinary, query(2, 8192), G);
  CostCoefficients Chain =
      bcastCostCoefficients(BcastAlgorithm::Chain, query(2, 8192), G);
  EXPECT_DOUBLE_EQ(Split.A, Chain.A);
  EXPECT_DOUBLE_EQ(Split.B, Chain.B);
}

TEST(CostModels, SingleRankCostsNothing) {
  GammaFunction G = paperGrisouGamma();
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    CostCoefficients C = bcastCostCoefficients(Alg, query(1, 8192), G);
    EXPECT_DOUBLE_EQ(C.A, 0.0);
    EXPECT_DOUBLE_EQ(C.B, 0.0);
  }
}

TEST(CostModels, GatherMatchesEquationEight) {
  CostCoefficients C = linearGatherCostCoefficients(40, 4096);
  EXPECT_DOUBLE_EQ(C.A, 39.0);
  EXPECT_DOUBLE_EQ(C.B, 39.0 * 4096);
  EXPECT_DOUBLE_EQ(linearGatherCostCoefficients(1, 4096).A, 0.0);
}

TEST(CostModels, EvaluateIsLinearInAlphaBeta) {
  CostCoefficients C{3.0, 12000.0};
  EXPECT_DOUBLE_EQ(C.evaluate(2e-6, 1e-9), 3 * 2e-6 + 12000 * 1e-9);
  CostCoefficients Sum = C + CostCoefficients{1.0, 500.0};
  EXPECT_DOUBLE_EQ(Sum.A, 4.0);
  EXPECT_DOUBLE_EQ(Sum.B, 12500.0);
}

//===----------------------------------------------------------------------===//
// Property sweeps over the models
//===----------------------------------------------------------------------===//

class ModelSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModelSweep, CoefficientsArePositiveAndMonotoneInMessageSize) {
  unsigned P = GetParam();
  GammaFunction G = paperGrisouGamma();
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    double PrevB = 0.0;
    for (std::uint64_t M = 8192; M <= (4u << 20); M *= 2) {
      CostCoefficients C = bcastCostCoefficients(Alg, query(P, M), G);
      EXPECT_GT(C.A, 0.0) << bcastAlgorithmName(Alg);
      EXPECT_GT(C.B, 0.0) << bcastAlgorithmName(Alg);
      // More bytes never cost less wire time.
      EXPECT_GE(C.B, PrevB) << bcastAlgorithmName(Alg) << " m=" << M;
      PrevB = C.B;
    }
  }
}

TEST_P(ModelSweep, PredictionGrowsWithCommunicatorForFixedMessage) {
  unsigned P = GetParam();
  if (P < 3)
    return;
  GammaFunction G = paperGrisouGamma();
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    // Split-binary's P = 2 chain fallback is legitimately more
    // expensive than the real split tree at P = 4: skip the boundary.
    if (Alg == BcastAlgorithm::SplitBinary && P == 3)
      continue;
    CostCoefficients Small =
        bcastCostCoefficients(Alg, query(P - 1, 1 << 20), G);
    CostCoefficients Large =
        bcastCostCoefficients(Alg, query(P + 1, 1 << 20), G);
    double Alpha = 2e-6, Beta = 1e-9;
    EXPECT_GE(Large.evaluate(Alpha, Beta) + 1e-15,
              Small.evaluate(Alpha, Beta))
        << bcastAlgorithmName(Alg) << " at P=" << P;
  }
}

INSTANTIATE_TEST_SUITE_P(Ps, ModelSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 16, 40, 90,
                                           124));

TEST(CostModels, MaxGammaArgumentCoversEveryModel) {
  // For P <= 124 with K = 4 the deepest gamma lookup is
  // ceil(log2 124) + 1 = 8.
  EXPECT_EQ(maxGammaArgument(124, 4), 8u);
  EXPECT_EQ(maxGammaArgument(90, 4), 8u);
  // Big K-chain fanouts dominate.
  EXPECT_EQ(maxGammaArgument(16, 12), 13u);
  EXPECT_GE(maxGammaArgument(2, 1), 3u);
}

//===----------------------------------------------------------------------===//
// Traditional models
//===----------------------------------------------------------------------===//

TEST(TraditionalModels, HockneyPointToPointForm) {
  HockneyParams H{50e-6, 1e-9};
  EXPECT_DOUBLE_EQ(H.pointToPoint(0), 50e-6);
  EXPECT_DOUBLE_EQ(H.pointToPoint(1 << 20), 50e-6 + (1 << 20) * 1e-9);
}

TEST(TraditionalModels, BinomialIsLogDepthTimesFullMessage) {
  HockneyParams H{10e-6, 1e-9};
  EXPECT_DOUBLE_EQ(traditionalBinomialBcast(H, 8, 1000),
                   3 * (10e-6 + 1000e-9));
  EXPECT_DOUBLE_EQ(traditionalBinomialBcast(H, 90, 1000),
                   7 * (10e-6 + 1000e-9));
  EXPECT_DOUBLE_EQ(traditionalBinomialBcast(H, 1, 1000), 0.0);
}

TEST(TraditionalModels, BinarySegmented) {
  HockneyParams H{10e-6, 1e-9};
  // P = 16 (ceil log = 4), n_s = 4: stages = 4 + 4 - 2 = 6, each
  // 2 * (alpha + m_s beta).
  double Expected = 6 * 2 * (10e-6 + 8192e-9);
  EXPECT_DOUBLE_EQ(traditionalBinaryBcast(H, 16, 4 * 8192, 8192), Expected);
  // Clamped to at least one stage.
  EXPECT_GT(traditionalBinaryBcast(H, 2, 100, 8192), 0.0);
}

TEST(TraditionalModels, TraditionalModelsIgnoreSerialisation) {
  // The defining flaw (Fig. 1): the traditional binomial model scales
  // with the whole message even when segmentation would pipeline, and
  // knows nothing about gamma. Verify the shape: model(m) is exactly
  // linear in m.
  HockneyParams H{10e-6, 1e-9};
  double T1 = traditionalBinomialBcast(H, 90, 1 << 20);
  double T2 = traditionalBinomialBcast(H, 90, 2 << 20);
  double T4 = traditionalBinomialBcast(H, 90, 4 << 20);
  EXPECT_NEAR(T4 - T2, 2 * (T2 - T1), 1e-9);
  EXPECT_GT(T2, T1);
}

//===----------------------------------------------------------------------===//
// Closed-form heights vs the actual topologies
//===----------------------------------------------------------------------===//

#include "topo/Tree.h"

TEST(CostModels, SplitBinaryHeightMatchesBuiltTopologyEverywhere) {
  // The runtime decision function uses closed-form tree heights so it
  // stays allocation-free; they must agree with the topo/ builders
  // the schedules actually use. Probe via the public coefficients:
  // A(split) - 1 = (ceil(n_s/2) + Hio - 1) * gamma(3) with gamma = 1
  // and n_s = 2 gives A - 1 = Hio.
  GammaFunction G;
  for (unsigned P = 3; P <= 300; ++P) {
    ModelQuery Q;
    Q.NumProcs = P;
    Q.MessageBytes = 2 * 8192;
    Q.SegmentBytes = 8192;
    CostCoefficients C =
        bcastCostCoefficients(BcastAlgorithm::SplitBinary, Q, G);
    unsigned Hio = buildInOrderBinaryTree(P, 0).height();
    EXPECT_DOUBLE_EQ(C.A - 1.0, static_cast<double>(Hio)) << "P=" << P;
  }
}

TEST(CostModels, BinaryHeightMatchesBuiltTopologyEverywhere) {
  GammaFunction G;
  for (unsigned P = 2; P <= 300; ++P) {
    ModelQuery Q;
    Q.NumProcs = P;
    Q.MessageBytes = 8192;
    Q.SegmentBytes = 8192;
    CostCoefficients C = bcastCostCoefficients(BcastAlgorithm::Binary, Q, G);
    unsigned Hb = buildBinaryTree(P, 0).height();
    // A = (1 + Hb - 1) * gamma(3) = Hb with gamma = 1.
    EXPECT_DOUBLE_EQ(C.A, static_cast<double>(Hb)) << "P=" << P;
  }
}
