//===- model/CostModels.h - Implementation-derived models -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's analytical performance models of the six Open MPI
/// broadcast algorithms, derived from the implementation (Sect. 3).
/// Every model is *linear in the Hockney parameters*: it reports
/// coefficients (A, B) such that
///
///   T_alg(P, m, n_s) = A * alpha + B * beta.
///
/// This exposes exactly the structure the Sect. 4.2 estimation needs:
/// each calibration experiment contributes one linear equation in
/// (alpha, beta), and the runtime selection is two multiply-adds per
/// algorithm.
///
/// With H = floor(log2 P), ceilH = ceil(log2 P), segment size
/// m_s = m / n_s, and gamma from model/Gamma.h:
///
///   linear        A = gamma(P)                         B = A * m
///                 (non-segmented; one non-blocking linear broadcast)
///   chain         A = n_s + P - 2                      B = A * m_s
///                 (pipeline: P-1 hops, n_s segments in flight)
///   k_chain       A = n_s*gamma(K'+1) + ceil((P-1)/K') - 1
///                                                      B = A * m_s
///                 (K' = min(K, P-1) chains; the root is a linear
///                 broadcast to the K' chain heads per segment)
///   binary        A = (n_s + Hb - 1) * gamma(3)        B = A * m_s
///                 (Hb = height of the heap-shaped binary tree; every
///                 stage is a linear broadcast to two children)
///   split_binary  A = (ceil(n_s/2) + Hio - 1)*gamma(3) + 1
///                 B = (ceil(n_s/2) + Hio - 1)*gamma(3)*m_s + m/2
///                 (halves pipelined down the two subtrees of the
///                 in-order tree of height Hio, then one pairwise
///                 exchange of m/2)
///   binomial      A = n_s*gamma(ceilH+1)
///                     + sum_{i=1}^{H-1} gamma(ceilH-i+1) - 1
///                 B = A * m_s                     (paper Eq. 6)
///
/// Tree heights are taken from the actual topo/ builders rather than
/// re-derived closed forms -- the models describe the code, and the
/// code is right there.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_COSTMODELS_H
#define MPICSEL_MODEL_COSTMODELS_H

#include "coll/Algorithms.h"
#include "model/Gamma.h"

#include <cstdint>

namespace mpicsel {

/// Coefficients of a model linear in the Hockney parameters:
/// T = A * alpha + B * beta.
struct CostCoefficients {
  double A = 0.0;
  double B = 0.0;

  double evaluate(double Alpha, double Beta) const {
    return A * Alpha + B * Beta;
  }

  CostCoefficients operator+(const CostCoefficients &O) const {
    return {A + O.A, B + O.B};
  }
};

/// Shape parameters shared by the model evaluations of every
/// collective (MessageBytes is the per-rank block for scatter and
/// allgather; KChainFanout only shapes the broadcast's K-chain).
struct ModelQuery {
  unsigned NumProcs = 2;
  std::uint64_t MessageBytes = 1;
  /// Segment size of the segmented algorithms (0 = unsegmented).
  std::uint64_t SegmentBytes = 8 * 1024;
  unsigned KChainFanout = 4;
};

/// The implementation-derived cost coefficients of \p Alg under
/// \p Query, using \p Gamma for the linear-broadcast serialisation
/// factor.
CostCoefficients bcastCostCoefficients(BcastAlgorithm Alg,
                                       const ModelQuery &Query,
                                       const GammaFunction &Gamma);

/// The Eq. 8 model of the linear gather without synchronisation:
/// T = (P-1) * (alpha + m_g * beta).
CostCoefficients linearGatherCostCoefficients(unsigned NumProcs,
                                              std::uint64_t GatherBytes);

/// Largest linear-broadcast size gamma is evaluated at by any of the
/// six models for communicators up to \p MaxProcs with K-chain fanout
/// \p KChainFanout -- tells the calibration how far to measure
/// gamma.
unsigned maxGammaArgument(unsigned MaxProcs, unsigned KChainFanout = 4);

} // namespace mpicsel

#endif // MPICSEL_MODEL_COSTMODELS_H
