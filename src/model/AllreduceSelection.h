//===- model/AllreduceSelection.h - The method on MPI_Allreduce -*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's recipe applied to MPI_Allreduce (see coll/Allreduce.h)
/// -- the collective the journal version models beyond broadcast.
/// Implementation-derived models, linear in (alpha, beta):
///
///   recursive_doubling  T = H * (alpha + m * beta), H = log2(P)
///                       (H full-vector exchange rounds; the combine
///                        per round rides on beta). Non-power-of-two
///                        P adds the pre/post fold: two more
///                        full-vector hops on the critical path,
///                        T = (H+2) * (alpha + m * beta).
///   ring                T = 2(P-1) * alpha + 2(P-1) * (m/P) * beta
///                       (2(P-1) rounds of ~m/P blocks: the
///                        bandwidth-optimal shape)
///   reduce_bcast        T = T_reduce(binomial) + T_bcast(binomial)
///                       (the composition's phases are serial, so the
///                        Eq. 6 coefficients of both phases add)
///
/// The combine arithmetic gets no parameter of its own: each
/// algorithm's calibrated beta absorbs its compute-per-byte along the
/// critical path, as in model/ReduceSelection.h.
///
/// Calibration follows Sect. 4.2 through the shared core
/// (model/Calibration.h): the modelled allreduce followed by a linear
/// gather of a varying m_g to rank 0, timed on that root.
/// The gather ramp keeps (alpha, beta) identifiable for the
/// fixed-round algorithms whose canonical x would otherwise be
/// degenerate across the sweep.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_ALLREDUCESELECTION_H
#define MPICSEL_MODEL_ALLREDUCESELECTION_H

#include "cluster/Platform.h"
#include "coll/Allreduce.h"
#include "model/Calibration.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"

#include <cstdint>
#include <optional>

namespace mpicsel {

/// Implementation-derived cost coefficients of an allreduce
/// algorithm (T = A * alpha + B * beta). \p SegmentBytes only
/// affects the reduce+bcast composition.
CostCoefficients allreduceCostCoefficients(AllreduceAlgorithm Alg,
                                           unsigned NumProcs,
                                           std::uint64_t MessageBytes,
                                           std::uint64_t SegmentBytes,
                                           const GammaFunction &Gamma);

/// The experiment of one allreduce over ranks 0..NumProcs-1, observing
/// the collective's completion time (latest exit over all ranks) or,
/// with \p GatherBytes, the Sect. 4.2 calibration experiment: the
/// allreduce followed by a linear gather without synchronisation to
/// rank 0, timed on that root. ComputeSecondsPerByte is filled from
/// the platform if the config leaves it 0.
Experiment
prepareAllreduce(const Platform &P, unsigned NumProcs,
                 const AllreduceConfig &Config,
                 std::optional<std::uint64_t> GatherBytes = std::nullopt);

/// Allreduce's contribution to the calibration core: the broadcast's
/// 8 KB .. 4 MB vectors, gathers of m/64 (at least 512 bytes), only
/// the reduce+bcast composition segmented.
template <> struct CollectiveDescriptor<AllreduceAlgorithm> {
  static constexpr CollectiveOp Op = CollectiveOp::Allreduce;
  static constexpr const auto &Algorithms = AllAllreduceAlgorithms;
  static constexpr std::uint64_t MinBytes = 8 * 1024;
  static constexpr std::uint64_t MaxBytes = 4 * 1024 * 1024;
  static constexpr GatherRamp Gather = {64, 512, UINT64_MAX};
  static constexpr unsigned SegmentedMask =
      1u << static_cast<unsigned>(AllreduceAlgorithm::ReduceBcast);

  static CostCoefficients cost(AllreduceAlgorithm Alg, const ModelQuery &Query,
                               const GammaFunction &Gamma) {
    return allreduceCostCoefficients(Alg, Query.NumProcs, Query.MessageBytes,
                                     Query.SegmentBytes, Gamma);
  }
  static Experiment prepare(const Platform &P, AllreduceAlgorithm Alg,
                            const ModelQuery &Query,
                            std::optional<std::uint64_t> GatherBytes) {
    return prepareAllreduce(P, Query.NumProcs,
                            {.Algorithm = Alg,
                             .MessageBytes = Query.MessageBytes,
                             .SegmentBytes = Query.SegmentBytes},
                            GatherBytes);
  }
  /// Open MPI 3.1's rule, at the calibrated segment size.
  static FixedDecision<AllreduceAlgorithm>
  fixedRule(unsigned NumProcs, std::uint64_t MessageBytes) {
    return {ompiAllreduceDecisionFixed(NumProcs, MessageBytes), std::nullopt};
  }
};

using AllreduceCalibrationOptions = CalibrationOptions;
using AllreduceModels = CollectiveModels<AllreduceAlgorithm>;

/// Runs the allreduce calibration on \p P.
inline AllreduceModels
calibrateAllreduce(const Platform &P, const CalibrationOptions &Options = {},
                   CollectiveCalibrationReport<AllreduceAlgorithm> *Report =
                       nullptr) {
  return calibrateCollective<AllreduceAlgorithm>(P, Options, Report);
}

/// Adaptively measures one allreduce (prepareAllreduce(...).measure()).
AdaptiveResult measureAllreduce(const Platform &P, unsigned NumProcs,
                                const AllreduceConfig &Config,
                                const AdaptiveOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_ALLREDUCESELECTION_H
