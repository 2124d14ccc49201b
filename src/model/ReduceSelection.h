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
/// timed on the root. The gather is not just ceremony here: a
/// reduce-only experiment has canonical x = m/n_s = m_s (constant)
/// for the segmented algorithms, so (alpha, beta) would be
/// unidentifiable without the gather's spread.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_REDUCESELECTION_H
#define MPICSEL_MODEL_REDUCESELECTION_H

#include "cluster/Platform.h"
#include "coll/Reduce.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"
#include "stat/Regression.h"

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace mpicsel {

/// Implementation-derived cost coefficients of a reduce algorithm.
CostCoefficients reduceCostCoefficients(ReduceAlgorithm Alg,
                                        unsigned NumProcs,
                                        std::uint64_t MessageBytes,
                                        std::uint64_t SegmentBytes,
                                        const GammaFunction &Gamma);

/// Options of the reduce calibration.
struct ReduceCalibrationOptions {
  /// Processes used in the experiments (0 = half the platform).
  unsigned NumProcs = 0;
  std::uint64_t SegmentBytes = 8 * 1024;
  /// Vector sizes of the experiments; empty selects 8 KB .. 4 MB
  /// doubling (the paper's broadcast sweep).
  std::vector<std::uint64_t> MessageSizes;
  GammaEstimationOptions GammaOptions;
  AdaptiveOptions Adaptive;
  bool UseHuber = true;
};

/// Calibration result of one reduce algorithm.
struct ReduceCalibration {
  ReduceAlgorithm Algorithm = ReduceAlgorithm::Linear;
  double Alpha = 0.0;
  double Beta = 0.0;
  LinearFit Fit;
};

/// The calibrated reduce models plus the runtime selector.
struct ReduceModels {
  GammaFunction Gamma;
  std::array<ReduceCalibration, NumReduceAlgorithms> Algorithms;
  std::uint64_t SegmentBytes = 8 * 1024;

  const ReduceCalibration &of(ReduceAlgorithm Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }

  /// Predicted reduce time of \p Alg.
  double predict(ReduceAlgorithm Alg, unsigned NumProcs,
                 std::uint64_t MessageBytes) const;

  /// The model-based decision function for MPI_Reduce.
  ReduceAlgorithm selectBest(unsigned NumProcs,
                             std::uint64_t MessageBytes) const;
};

/// Runs the reduce calibration on \p P.
ReduceModels calibrateReduce(const Platform &P,
                             const ReduceCalibrationOptions &Options = {});

/// Runs one reduce over ranks 0..NumProcs-1 and returns the time the
/// combined result is ready on the root. ComputeSecondsPerByte is
/// filled from the platform if the config leaves it 0.
double runReduceOnce(const Platform &P, unsigned NumProcs,
                     const ReduceConfig &Config, std::uint64_t Seed);

/// Adaptive wrapper around runReduceOnce.
AdaptiveResult measureReduce(const Platform &P, unsigned NumProcs,
                             const ReduceConfig &Config,
                             const AdaptiveOptions &Options = {});

/// One calibration experiment: the modelled reduce followed by a
/// linear gather without synchronisation of \p GatherBytes, timed on
/// the root (the Sect. 4.2 experiment shape).
double runReduceGatherOnce(const Platform &P, unsigned NumProcs,
                           const ReduceConfig &Config,
                           std::uint64_t GatherBytes, std::uint64_t Seed);

/// The experiment runReduceOnce replays or, with \p GatherBytes, the
/// one runReduceGatherOnce replays -- for callers that replay one
/// shape under seeds of their own choosing.
Experiment
prepareReduce(const Platform &P, unsigned NumProcs, const ReduceConfig &Config,
              std::optional<std::uint64_t> GatherBytes = std::nullopt);

} // namespace mpicsel

#endif // MPICSEL_MODEL_REDUCESELECTION_H
