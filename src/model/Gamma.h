//===- model/Gamma.h - The gamma(P) model parameter -------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gamma(P) -- the ratio between the time of a *non-blocking linear
/// tree broadcast* to P-1 children and a single point-to-point
/// transfer (paper Eq. 3):
///
///   gamma(P) = T_linear^nonblock(P, m_s) / T_p2p(m_s),
///
/// bounded by 1 <= gamma(P) <= P-1 (Eq. 1). It captures how much of
/// the root's concurrent sends actually overlap on the platform, and
/// is the key ingredient the traditional models lack. Estimated once
/// per platform (Sect. 4.1): for each P, N successive calls to the
/// linear broadcast of one segment, separated by barriers, timed on
/// the root; gamma(P) = T2(P) / T2(2).
///
/// The paper observes the discrete estimate is near linear in P, so a
/// linear fit provides values beyond the measured range (needed e.g.
/// for gamma(ceil(log2 P) + 1) in the binomial model on large P).
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_GAMMA_H
#define MPICSEL_MODEL_GAMMA_H

#include "cluster/Platform.h"
#include "stat/AdaptiveBenchmark.h"
#include "stat/Regression.h"

#include <cstdint>
#include <vector>

namespace mpicsel {

/// The calibrated gamma(P) function: measured values for small P plus
/// a linear extrapolation beyond them.
class GammaFunction {
public:
  /// Identity gamma (gamma(P) == 1 for all P): turns every
  /// implementation-derived model into its naive counterpart; used by
  /// tests and ablations.
  GammaFunction() = default;

  /// \param Measured gamma values for P = 2, 3, ..., 2+Measured.size()-1.
  explicit GammaFunction(std::vector<double> Measured);

  /// gamma(P). P <= 2 returns 1 (by definition gamma(2) == 1);
  /// measured P returns the table value; larger P the linear fit
  /// (clamped below at 1).
  double operator()(unsigned P) const;

  /// Largest P covered by the measurement table (>= 2).
  unsigned measuredMax() const {
    return 2 + static_cast<unsigned>(
                   Measured.empty() ? 0 : Measured.size() - 1);
  }

  /// The linear fit over the measured points (gamma ~ Intercept +
  /// Slope * P); invalid when fewer than two points were measured.
  const LinearFit &fit() const { return Fit; }

private:
  std::vector<double> Measured; // Measured[i] = gamma(2 + i)
  LinearFit Fit;
};

/// Options of the gamma estimation experiment.
struct GammaEstimationOptions {
  /// Segment size broadcast in the experiment (the paper's 8 KB).
  std::uint64_t SegmentBytes = 8 * 1024;
  /// Estimate gamma(P) for P = 2..MaxP. The paper needs up to the
  /// largest linear-broadcast fanout appearing inside the segmented
  /// algorithms (ceil(log2 P_max) + 1).
  unsigned MaxP = 8;
  /// N: successive broadcast calls per measurement, separated by
  /// barriers (Sect. 4.1). Only used with UseBarrierTrain.
  unsigned CallsPerMeasurement = 10;
  /// True reproduces the paper's physical-cluster procedure (N calls
  /// separated by barriers, timed on the root, barrier-train
  /// subtracted). False (default) exploits the simulator's global
  /// clock and times the delivery of a single broadcast directly --
  /// same quantity, no barrier-overlap bias.
  bool UseBarrierTrain = false;
  /// Run the experiment with one rank per node (hostfile trick), so
  /// gamma probes the inter-node transport even on platforms that
  /// pack several ranks per node.
  bool OneRankPerNode = true;
  /// Statistical stopping rules for the repeated measurements.
  AdaptiveOptions Adaptive;
  /// Worker threads fanning the per-P measurements: how many of them,
  /// and so how many schedules, are live at once (0 = consult
  /// MPICSEL_THREADS, which defaults to 1). Each measurement's first
  /// repetitions replay on the helper threads the sweep leaves idle.
  /// Each P's experiment seeds derive from P alone, so any thread count
  /// is bit-identical to the serial loop.
  unsigned Threads = 0;
};

/// The raw product of the estimation experiment.
struct GammaEstimate {
  /// T2(P) = T1(P, N) / N for P = 2..MaxP (index 0 is P == 2).
  std::vector<double> MeanCallTime;
  /// gamma(P) = T2(P)/T2(2) wrapped with the linear fit.
  GammaFunction Gamma;
};

/// Runs the Sect. 4.1 experiment on \p P and returns the estimate.
GammaEstimate estimateGamma(const Platform &P,
                            const GammaEstimationOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_GAMMA_H
