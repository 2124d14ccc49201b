//===- model/ScatterSelection.h - The method on a 2nd collective -*- C++ -*-=//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's conclusion poses the generalisation of the method to
/// other collective operations as the follow-up; this module carries
/// the whole recipe over to MPI_Scatter:
///
///  * implementation-derived models of the two scatter algorithms,
///    again linear in the Hockney parameters:
///      - linear:   T = gamma(P) * (alpha + m_b * beta)
///        (P-1 concurrent non-blocking sends of one block each -- the
///        same serialisation structure as the linear broadcast)
///      - binomial: T = sum over the critical path (root -> largest
///        child -> ...) of (alpha + bundle_bytes * beta), where the
///        bundle halves level by level; A = tree height, B = bytes
///        moved along that path (read off the actual topology)
///  * algorithm-specific (alpha, beta) from collective experiments:
///    the modelled scatter followed by a linear gather without
///    synchronisation, timed on the root, solved with Huber -- the
///    Sect. 4.2 recipe verbatim, run by the shared core
///    (model/Calibration.h) from the descriptor below;
///  * a runtime selector: argmin over the two models.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_SCATTERSELECTION_H
#define MPICSEL_MODEL_SCATTERSELECTION_H

#include "cluster/Platform.h"
#include "coll/Scatter.h"
#include "model/Calibration.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"

#include <cstdint>
#include <optional>

namespace mpicsel {

/// Implementation-derived cost coefficients of a scatter algorithm
/// (T = A * alpha + B * beta).
CostCoefficients scatterCostCoefficients(ScatterAlgorithm Alg,
                                         unsigned NumProcs,
                                         std::uint64_t BlockBytes,
                                         const GammaFunction &Gamma);

/// The experiment of one scatter over ranks 0..NumProcs-1, observing
/// the collective's completion time (latest exit over all ranks) or,
/// with \p GatherBytes, the Sect. 4.2 calibration experiment: scatter
/// + linear gather without synchronisation, timed on the root.
Experiment
prepareScatter(const Platform &P, unsigned NumProcs,
               const ScatterConfig &Config,
               std::optional<std::uint64_t> GatherBytes = std::nullopt);

/// Scatter's contribution to the calibration core: per-rank blocks of
/// 1 KB .. 64 KB (the total data volume is P times larger), gathers of
/// a quarter block, no segmented algorithm.
template <> struct CollectiveDescriptor<ScatterAlgorithm> {
  static constexpr CollectiveOp Op = CollectiveOp::Scatter;
  static constexpr const auto &Algorithms = AllScatterAlgorithms;
  static constexpr std::uint64_t MinBytes = 1024;
  static constexpr std::uint64_t MaxBytes = 64 * 1024;
  static constexpr GatherRamp Gather = {4, 512, UINT64_MAX};
  static constexpr unsigned SegmentedMask = 0;

  static CostCoefficients cost(ScatterAlgorithm Alg, const ModelQuery &Query,
                               const GammaFunction &Gamma) {
    return scatterCostCoefficients(Alg, Query.NumProcs, Query.MessageBytes,
                                   Gamma);
  }
  static Experiment prepare(const Platform &P, ScatterAlgorithm Alg,
                            const ModelQuery &Query,
                            std::optional<std::uint64_t> GatherBytes) {
    return prepareScatter(
        P, Query.NumProcs,
        {.Algorithm = Alg, .BlockBytes = Query.MessageBytes}, GatherBytes);
  }
};

using ScatterCalibrationOptions = CalibrationOptions;
using ScatterModels = CollectiveModels<ScatterAlgorithm>;

/// Runs the scatter calibration on \p P (Options.MessageSizes are the
/// per-rank block sizes).
inline ScatterModels
calibrateScatter(const Platform &P, const CalibrationOptions &Options = {},
                 CollectiveCalibrationReport<ScatterAlgorithm> *Report =
                     nullptr) {
  return calibrateCollective<ScatterAlgorithm>(P, Options, Report);
}

/// Adaptively measures one scatter (prepareScatter(...).measure()).
AdaptiveResult measureScatter(const Platform &P, unsigned NumProcs,
                              const ScatterConfig &Config,
                              const AdaptiveOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_SCATTERSELECTION_H
