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
/// Calibration follows Sect. 4.2: the modelled allgather followed by
/// a linear gather without synchronisation (root 0), timed on that
/// root, solved with Huber.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_ALLGATHERSELECTION_H
#define MPICSEL_MODEL_ALLGATHERSELECTION_H

#include "cluster/Platform.h"
#include "coll/Allgather.h"
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

/// Implementation-derived cost coefficients of an allgather algorithm
/// (T = A * alpha + B * beta). Inapplicable algorithms (recursive
/// doubling on non-power-of-two P, neighbor exchange on odd P) return
/// the ring's coefficients, matching the schedule fallback.
CostCoefficients allgatherCostCoefficients(AllgatherAlgorithm Alg,
                                           unsigned NumProcs,
                                           std::uint64_t BlockBytes,
                                           const GammaFunction &Gamma);

/// Options of the allgather calibration.
struct AllgatherCalibrationOptions {
  /// Processes used in the experiments (0 = half the platform).
  unsigned NumProcs = 0;
  /// Per-rank block sizes of the experiments; empty selects 1 KB ..
  /// 64 KB doubling (the total data volume is P times larger).
  std::vector<std::uint64_t> BlockSizes;
  /// Gather block sizes (one per experiment); empty derives a ramp.
  std::vector<std::uint64_t> GatherSizes;
  GammaEstimationOptions GammaOptions;
  AdaptiveOptions Adaptive;
  bool UseHuber = true;
};

/// Calibration result of one allgather algorithm.
struct AllgatherCalibration {
  AllgatherAlgorithm Algorithm = AllgatherAlgorithm::Ring;
  double Alpha = 0.0;
  double Beta = 0.0;
  LinearFit Fit;
};

/// The calibrated allgather models plus the runtime selector.
struct AllgatherModels {
  GammaFunction Gamma;
  std::array<AllgatherCalibration, NumAllgatherAlgorithms> Algorithms;

  const AllgatherCalibration &of(AllgatherAlgorithm Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }

  /// Predicted allgather time of \p Alg.
  double predict(AllgatherAlgorithm Alg, unsigned NumProcs,
                 std::uint64_t BlockBytes) const;

  /// The model-based decision function for MPI_Allgather.
  AllgatherAlgorithm selectBest(unsigned NumProcs,
                                std::uint64_t BlockBytes) const;
};

/// Runs the allgather calibration on \p P.
AllgatherModels
calibrateAllgather(const Platform &P,
                   const AllgatherCalibrationOptions &Options = {});

/// Runs one allgather over ranks 0..NumProcs-1 and returns the
/// collective's completion time (latest exit over all ranks).
double runAllgatherOnce(const Platform &P, unsigned NumProcs,
                        const AllgatherConfig &Config, std::uint64_t Seed);

/// Adaptive wrapper around runAllgatherOnce.
AdaptiveResult measureAllgather(const Platform &P, unsigned NumProcs,
                                const AllgatherConfig &Config,
                                const AdaptiveOptions &Options = {});

/// One calibration experiment: allgather + linear gather without
/// synchronisation to rank 0, timed on that root.
double runAllgatherGatherOnce(const Platform &P, unsigned NumProcs,
                              const AllgatherConfig &Config,
                              std::uint64_t GatherBytes, std::uint64_t Seed);

/// The experiment runAllgatherOnce replays or, with \p GatherBytes, the
/// one runAllgatherGatherOnce replays -- for callers that replay one
/// shape under seeds of their own choosing.
Experiment
prepareAllgather(const Platform &P, unsigned NumProcs,
                 const AllgatherConfig &Config,
                 std::optional<std::uint64_t> GatherBytes = std::nullopt);

} // namespace mpicsel

#endif // MPICSEL_MODEL_ALLGATHERSELECTION_H
