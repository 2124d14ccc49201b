//===- model/AllgatherSelection.h - The method on MPI_Allgather -*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's recipe applied to MPI_Allgather (see coll/Allgather.h).
/// Implementation-derived models, linear in (alpha, beta):
///
///   ring                T = (P-1) * alpha + (P-1) * b * beta
///                       (P-1 sequential single-block rounds)
///   recursive_doubling  T = log2(P) * alpha + (P-1) * b * beta
///                       (log2 P rounds moving 2^k blocks each;
///                        power-of-two P only, else the ring model --
///                        the schedule falls back to the ring too)
///   neighbor_exchange   T = (P/2) * alpha + (P-1) * b * beta
///                       (one single-block round + P/2 - 1 two-block
///                        rounds; even P only, else the ring model)
///
/// All three move the same (P-1) * b bytes along the critical path
/// and differ only in round count -- which is exactly why the
/// selection is a latency-vs-size crossover and why a fixed rule
/// tuned on one cluster mis-picks on another.
///
/// Calibration follows Sect. 4.2 through the shared core
/// (model/Calibration.h): the modelled allgather followed by a linear
/// gather without synchronisation (root 0), timed on that root,
/// solved with Huber.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_ALLGATHERSELECTION_H
#define MPICSEL_MODEL_ALLGATHERSELECTION_H

#include "cluster/Platform.h"
#include "coll/Allgather.h"
#include "model/Calibration.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"

#include <cstdint>
#include <optional>

namespace mpicsel {

/// Implementation-derived cost coefficients of an allgather algorithm
/// (T = A * alpha + B * beta). Inapplicable algorithms (recursive
/// doubling on non-power-of-two P, neighbor exchange on odd P) return
/// the ring's coefficients, matching the schedule fallback.
CostCoefficients allgatherCostCoefficients(AllgatherAlgorithm Alg,
                                           unsigned NumProcs,
                                           std::uint64_t BlockBytes,
                                           const GammaFunction &Gamma);

/// The experiment of one allgather over ranks 0..NumProcs-1, observing
/// the collective's completion time (latest exit over all ranks) or,
/// with \p GatherBytes, the Sect. 4.2 calibration experiment:
/// allgather + linear gather without synchronisation to rank 0, timed
/// on that root.
Experiment
prepareAllgather(const Platform &P, unsigned NumProcs,
                 const AllgatherConfig &Config,
                 std::optional<std::uint64_t> GatherBytes = std::nullopt);

/// Allgather's contribution to the calibration core: per-rank blocks
/// of 1 KB .. 64 KB (the total data volume is P times larger), gathers
/// of a quarter block, no segmented algorithm.
template <> struct CollectiveDescriptor<AllgatherAlgorithm> {
  static constexpr CollectiveOp Op = CollectiveOp::Allgather;
  static constexpr const auto &Algorithms = AllAllgatherAlgorithms;
  static constexpr std::uint64_t MinBytes = 1024;
  static constexpr std::uint64_t MaxBytes = 64 * 1024;
  static constexpr GatherRamp Gather = {4, 512, UINT64_MAX};
  static constexpr unsigned SegmentedMask = 0;

  static CostCoefficients cost(AllgatherAlgorithm Alg, const ModelQuery &Query,
                               const GammaFunction &Gamma) {
    return allgatherCostCoefficients(Alg, Query.NumProcs, Query.MessageBytes,
                                     Gamma);
  }
  static Experiment prepare(const Platform &P, AllgatherAlgorithm Alg,
                            const ModelQuery &Query,
                            std::optional<std::uint64_t> GatherBytes) {
    return prepareAllgather(
        P, Query.NumProcs,
        {.Algorithm = Alg, .BlockBytes = Query.MessageBytes}, GatherBytes);
  }
  /// Open MPI 3.1's rule.
  static FixedDecision<AllgatherAlgorithm>
  fixedRule(unsigned NumProcs, std::uint64_t BlockBytes) {
    return {ompiAllgatherDecisionFixed(NumProcs, BlockBytes), std::nullopt};
  }
};

using AllgatherCalibrationOptions = CalibrationOptions;
using AllgatherModels = CollectiveModels<AllgatherAlgorithm>;

/// Runs the allgather calibration on \p P (Options.MessageSizes are the
/// per-rank block sizes).
inline AllgatherModels
calibrateAllgather(const Platform &P, const CalibrationOptions &Options = {},
                   CollectiveCalibrationReport<AllgatherAlgorithm> *Report =
                       nullptr) {
  return calibrateCollective<AllgatherAlgorithm>(P, Options, Report);
}

/// Adaptively measures one allgather (prepareAllgather(...).measure()).
AdaptiveResult measureAllgather(const Platform &P, unsigned NumProcs,
                                const AllgatherConfig &Config,
                                const AdaptiveOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_ALLGATHERSELECTION_H
