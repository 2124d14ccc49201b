//===- stat/AdaptiveBenchmark.h - MPIBlib-style measurement -----*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adaptive repetition of a measurement until the sample mean is
/// statistically settled -- the role MPIBlib [24] plays in the paper's
/// methodology (Sect. 5.1): repeat until the 95% confidence interval
/// of the mean is within 2.5% of the mean, with sane minimum and
/// maximum repetition counts.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_STAT_ADAPTIVEBENCHMARK_H
#define MPICSEL_STAT_ADAPTIVEBENCHMARK_H

#include "stat/Statistics.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace mpicsel {

/// Stopping rules for adaptive measurement.
struct AdaptiveOptions {
  /// Never stop before this many repetitions.
  unsigned MinReps = 5;
  /// Hard cap on repetitions (a noisy measurement stops here even if
  /// the precision target was not met).
  unsigned MaxReps = 40;
  /// Target relative half-width of the 95% CI (the paper's 0.025).
  double TargetPrecision = 0.025;
  /// Base seed; repetition i runs with seed mix(BaseSeed, i) so every
  /// repetition sees an independent noise stream.
  std::uint64_t BaseSeed = 0x9E3779B97F4A7C15ull;

  // -- Robustness policy (all off by default: the defaults reproduce
  //    the paper's plain MPIBlib-style loop bit for bit). --

  /// Screen observations before computing statistics: values farther
  /// than OutlierMadSigma robust sigmas (MAD x 1.4826) from the
  /// sample median are excluded from the stats and the convergence
  /// check. The raw observations are kept for inspection.
  bool ScreenOutliers = false;
  /// Rejection threshold of the MAD screen, in robust sigmas. 3.5 is
  /// the conventional "certain outlier" cut.
  double OutlierMadSigma = 3.5;
  /// Extra whole-measurement attempts when the precision target was
  /// not met after MaxReps: each retry reseeds the repetition stream
  /// (so a pathological noise draw is not replayed) and starts over.
  /// 0 keeps the single-attempt behaviour.
  unsigned RetryAttempts = 0;
};

/// Result of an adaptive measurement.
struct AdaptiveResult {
  /// Statistics over the screened repetitions (== all repetitions
  /// when screening is off or nothing was rejected).
  SampleStats Stats;
  /// The raw observations of the final attempt, in execution order.
  std::vector<double> Observations;
  /// True if the precision target was met before MaxReps.
  bool Converged = false;
  /// Observations excluded by the MAD screen in the final attempt.
  unsigned OutliersRejected = 0;
  /// Whole-measurement attempts consumed (1 when no retry happened).
  unsigned Attempts = 1;
};

/// The batch form of a measurement: writes to Out[I] the observation
/// of the repetition seeded Seeds[I].
using BatchMeasure = std::function<void(std::span<const std::uint64_t> Seeds,
                                        std::span<double> Out)>;

/// Repeatedly evaluates \p Measure (a callable taking the repetition's
/// seed and returning one observation in seconds) under the stopping
/// rules of \p Options.
///
/// With \p First, every attempt hands the seeds of its first MinReps
/// repetitions -- the ones the stopping rule always runs -- to
/// \p First at once, and continues one repetition at a time with
/// \p Measure. The result is the serial loop's as long as \p First
/// writes what \p Measure returns for each seed.
AdaptiveResult
measureAdaptively(const std::function<double(std::uint64_t Seed)> &Measure,
                  const AdaptiveOptions &Options = AdaptiveOptions(),
                  const BatchMeasure &First = nullptr);

} // namespace mpicsel

#endif // MPICSEL_STAT_ADAPTIVEBENCHMARK_H
