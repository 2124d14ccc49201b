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
/// Calibration follows Sect. 4.2: the modelled allreduce followed by
/// a linear gather of a varying m_g to rank 0, timed on that root.
/// The gather ramp keeps (alpha, beta) identifiable for the
/// fixed-round algorithms whose canonical x would otherwise be
/// degenerate across the sweep.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_ALLREDUCESELECTION_H
#define MPICSEL_MODEL_ALLREDUCESELECTION_H

#include "cluster/Platform.h"
#include "coll/Allreduce.h"
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

/// Implementation-derived cost coefficients of an allreduce
/// algorithm (T = A * alpha + B * beta). \p SegmentBytes only
/// affects the reduce+bcast composition.
CostCoefficients allreduceCostCoefficients(AllreduceAlgorithm Alg,
                                           unsigned NumProcs,
                                           std::uint64_t MessageBytes,
                                           std::uint64_t SegmentBytes,
                                           const GammaFunction &Gamma);

/// Options of the allreduce calibration.
struct AllreduceCalibrationOptions {
  /// Processes used in the experiments (0 = half the platform).
  unsigned NumProcs = 0;
  /// Segment size of the reduce+bcast composition.
  std::uint64_t SegmentBytes = 8 * 1024;
  /// Vector sizes of the experiments; empty selects 8 KB .. 4 MB
  /// doubling (the paper's broadcast sweep).
  std::vector<std::uint64_t> MessageSizes;
  GammaEstimationOptions GammaOptions;
  AdaptiveOptions Adaptive;
  bool UseHuber = true;
};

/// Calibration result of one allreduce algorithm.
struct AllreduceCalibration {
  AllreduceAlgorithm Algorithm = AllreduceAlgorithm::RecursiveDoubling;
  double Alpha = 0.0;
  double Beta = 0.0;
  LinearFit Fit;
};

/// The calibrated allreduce models plus the runtime selector.
struct AllreduceModels {
  GammaFunction Gamma;
  std::array<AllreduceCalibration, NumAllreduceAlgorithms> Algorithms;
  std::uint64_t SegmentBytes = 8 * 1024;

  const AllreduceCalibration &of(AllreduceAlgorithm Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }

  /// Predicted allreduce time of \p Alg.
  double predict(AllreduceAlgorithm Alg, unsigned NumProcs,
                 std::uint64_t MessageBytes) const;

  /// The model-based decision function for MPI_Allreduce.
  AllreduceAlgorithm selectBest(unsigned NumProcs,
                                std::uint64_t MessageBytes) const;
};

/// Runs the allreduce calibration on \p P.
AllreduceModels
calibrateAllreduce(const Platform &P,
                   const AllreduceCalibrationOptions &Options = {});

/// Runs one allreduce over ranks 0..NumProcs-1 and returns the
/// collective's completion time (latest exit over all ranks).
/// ComputeSecondsPerByte is filled from the platform if the config
/// leaves it 0.
double runAllreduceOnce(const Platform &P, unsigned NumProcs,
                        const AllreduceConfig &Config, std::uint64_t Seed);

/// Adaptive wrapper around runAllreduceOnce.
AdaptiveResult measureAllreduce(const Platform &P, unsigned NumProcs,
                                const AllreduceConfig &Config,
                                const AdaptiveOptions &Options = {});

/// One calibration experiment: the modelled allreduce followed by a
/// linear gather without synchronisation of \p GatherBytes to rank 0,
/// timed on that root (the Sect. 4.2 experiment shape).
double runAllreduceGatherOnce(const Platform &P, unsigned NumProcs,
                              const AllreduceConfig &Config,
                              std::uint64_t GatherBytes,
                              std::uint64_t Seed);

/// The experiment runAllreduceOnce replays or, with \p GatherBytes, the
/// one runAllreduceGatherOnce replays -- for callers that replay one
/// shape under seeds of their own choosing.
Experiment
prepareAllreduce(const Platform &P, unsigned NumProcs,
                 const AllreduceConfig &Config,
                 std::optional<std::uint64_t> GatherBytes = std::nullopt);

} // namespace mpicsel

#endif // MPICSEL_MODEL_ALLREDUCESELECTION_H
