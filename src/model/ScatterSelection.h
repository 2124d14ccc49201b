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
///    Sect. 4.2 recipe verbatim;
///  * a runtime selector: argmin over the two models.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_SCATTERSELECTION_H
#define MPICSEL_MODEL_SCATTERSELECTION_H

#include "cluster/Platform.h"
#include "coll/Scatter.h"
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

/// Implementation-derived cost coefficients of a scatter algorithm
/// (T = A * alpha + B * beta).
CostCoefficients scatterCostCoefficients(ScatterAlgorithm Alg,
                                         unsigned NumProcs,
                                         std::uint64_t BlockBytes,
                                         const GammaFunction &Gamma);

/// Options of the scatter calibration.
struct ScatterCalibrationOptions {
  /// Processes used in the experiments (0 = half the platform).
  unsigned NumProcs = 0;
  /// Per-rank block sizes of the experiments; empty selects 1 KB ..
  /// 64 KB doubling (scatter blocks are per-rank, so the total data
  /// volume is P times larger).
  std::vector<std::uint64_t> BlockSizes;
  /// Gather block sizes (one per experiment); empty derives a ramp.
  std::vector<std::uint64_t> GatherSizes;
  GammaEstimationOptions GammaOptions;
  AdaptiveOptions Adaptive;
  bool UseHuber = true;
};

/// Calibration result of one scatter algorithm.
struct ScatterCalibration {
  ScatterAlgorithm Algorithm = ScatterAlgorithm::Linear;
  double Alpha = 0.0;
  double Beta = 0.0;
  LinearFit Fit;
};

/// The calibrated scatter models plus the runtime selector.
struct ScatterModels {
  GammaFunction Gamma;
  std::array<ScatterCalibration, NumScatterAlgorithms> Algorithms;

  const ScatterCalibration &of(ScatterAlgorithm Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }

  /// Predicted scatter time of \p Alg.
  double predict(ScatterAlgorithm Alg, unsigned NumProcs,
                 std::uint64_t BlockBytes) const;

  /// The model-based decision function for MPI_Scatter.
  ScatterAlgorithm selectBest(unsigned NumProcs,
                              std::uint64_t BlockBytes) const;
};

/// Runs the scatter calibration on \p P.
ScatterModels calibrateScatter(const Platform &P,
                               const ScatterCalibrationOptions &Options = {});

/// Runs one scatter over ranks 0..NumProcs-1 and returns the
/// collective's completion time (latest exit over all ranks).
double runScatterOnce(const Platform &P, unsigned NumProcs,
                      const ScatterConfig &Config, std::uint64_t Seed);

/// Adaptive wrapper around runScatterOnce.
AdaptiveResult measureScatter(const Platform &P, unsigned NumProcs,
                              const ScatterConfig &Config,
                              const AdaptiveOptions &Options = {});

/// One calibration experiment: scatter + linear gather without
/// synchronisation, timed on the root.
double runScatterGatherOnce(const Platform &P, unsigned NumProcs,
                            const ScatterConfig &Config,
                            std::uint64_t GatherBytes, std::uint64_t Seed);

/// The experiment runScatterOnce replays or, with \p GatherBytes, the
/// one runScatterGatherOnce replays -- for callers that replay one
/// shape under seeds of their own choosing.
Experiment
prepareScatter(const Platform &P, unsigned NumProcs,
               const ScatterConfig &Config,
               std::optional<std::uint64_t> GatherBytes = std::nullopt);

} // namespace mpicsel

#endif // MPICSEL_MODEL_SCATTERSELECTION_H
