//===- model/ReduceSelection.h - The method on MPI_Reduce -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's recipe applied to MPI_Reduce (see coll/Reduce.h).
/// Implementation-derived models, linear in (alpha, beta) as always:
///
///   linear    T = (P-1) * (alpha + m * beta)
///             (the root drains P-1 full vectors, combine cost
///             absorbed by beta -- Eq. 8's incast structure)
///   chain     T = (n_s + P - 2) * (alpha + m_s * beta)
///             (pipeline reversed: identical stage structure)
///   binomial  T = Eq. 6 with the same gammas
///             (the reduction is the broadcast's mirror image: stage
///             k of the reduce is stage H-k of the broadcast, so the
///             stage-count arithmetic is unchanged)
///
/// The combine arithmetic (bytes * rho per operand pair) does not get
/// its own parameter: each algorithm's calibrated beta absorbs its
/// own compute-per-byte along the critical path. That is the paper's
/// Table 2 observation -- the parameters "capture more than just
/// sheer network characteristics" -- taken one step further.
///
/// The calibration experiments follow Sect. 4.2's shape exactly --
/// the modelled reduce followed by a linear gather of a varying m_g,
/// timed on the root -- and run through the shared core
/// (model/Calibration.h). The gather is not just ceremony here: a
/// reduce-only experiment has canonical x = m/n_s = m_s (constant)
/// for the segmented algorithms, so (alpha, beta) would be
/// unidentifiable without the gather's spread.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_REDUCESELECTION_H
#define MPICSEL_MODEL_REDUCESELECTION_H

#include "cluster/Platform.h"
#include "coll/Reduce.h"
#include "model/Calibration.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"

#include <cstdint>
#include <optional>

namespace mpicsel {

/// Implementation-derived cost coefficients of a reduce algorithm.
CostCoefficients reduceCostCoefficients(ReduceAlgorithm Alg,
                                        unsigned NumProcs,
                                        std::uint64_t MessageBytes,
                                        std::uint64_t SegmentBytes,
                                        const GammaFunction &Gamma);

/// The experiment of one reduce over ranks 0..NumProcs-1, observing
/// the time the combined result is ready on the root or, with
/// \p GatherBytes, the Sect. 4.2 calibration experiment: the reduce
/// followed by a linear gather without synchronisation, timed on the
/// root. ComputeSecondsPerByte is filled from the platform if the
/// config leaves it 0.
Experiment
prepareReduce(const Platform &P, unsigned NumProcs, const ReduceConfig &Config,
              std::optional<std::uint64_t> GatherBytes = std::nullopt);

/// Reduce's contribution to the calibration core: the broadcast's
/// 8 KB .. 4 MB vectors, gathers of m/64 (at least 512 bytes), chain
/// and binomial segmented.
template <> struct CollectiveDescriptor<ReduceAlgorithm> {
  static constexpr CollectiveOp Op = CollectiveOp::Reduce;
  static constexpr const auto &Algorithms = AllReduceAlgorithms;
  static constexpr std::uint64_t MinBytes = 8 * 1024;
  static constexpr std::uint64_t MaxBytes = 4 * 1024 * 1024;
  static constexpr GatherRamp Gather = {64, 512, UINT64_MAX};
  static constexpr unsigned SegmentedMask =
      (1u << static_cast<unsigned>(ReduceAlgorithm::Chain)) |
      (1u << static_cast<unsigned>(ReduceAlgorithm::Binomial));

  static CostCoefficients cost(ReduceAlgorithm Alg, const ModelQuery &Query,
                               const GammaFunction &Gamma) {
    return reduceCostCoefficients(Alg, Query.NumProcs, Query.MessageBytes,
                                  Query.SegmentBytes, Gamma);
  }
  static Experiment prepare(const Platform &P, ReduceAlgorithm Alg,
                            const ModelQuery &Query,
                            std::optional<std::uint64_t> GatherBytes) {
    return prepareReduce(P, Query.NumProcs,
                         {.Algorithm = Alg,
                          .MessageBytes = Query.MessageBytes,
                          .SegmentBytes = Query.SegmentBytes},
                         GatherBytes);
  }
};

using ReduceCalibrationOptions = CalibrationOptions;
using ReduceModels = CollectiveModels<ReduceAlgorithm>;

/// Runs the reduce calibration on \p P.
inline ReduceModels
calibrateReduce(const Platform &P, const CalibrationOptions &Options = {},
                CollectiveCalibrationReport<ReduceAlgorithm> *Report =
                    nullptr) {
  return calibrateCollective<ReduceAlgorithm>(P, Options, Report);
}

/// Adaptively measures one reduce (prepareReduce(...).measure()).
AdaptiveResult measureReduce(const Platform &P, unsigned NumProcs,
                             const ReduceConfig &Config,
                             const AdaptiveOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_REDUCESELECTION_H
