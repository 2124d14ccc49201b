//===- stat/AdaptiveBenchmark.cpp - MPIBlib-style measurement --------------===//

#include "stat/AdaptiveBenchmark.h"

#include "stat/Regression.h"
#include "support/Random.h"

#include <cassert>
#include <cmath>

using namespace mpicsel;

namespace {

/// Statistics over the observations after the optional MAD screen.
/// With screening off (the default) this is plain computeStats, so
/// the historical behaviour is reproduced exactly.
SampleStats screenedStats(const std::vector<double> &Observations,
                          const AdaptiveOptions &Options,
                          unsigned &RejectedOut) {
  RejectedOut = 0;
  if (!Options.ScreenOutliers)
    return computeStats(Observations);
  double Center = median(Observations);
  double Sigma = medianAbsoluteDeviationSigma(Observations);
  if (Sigma <= 0.0)
    return computeStats(Observations);
  std::vector<double> Kept;
  Kept.reserve(Observations.size());
  for (double V : Observations)
    if (std::fabs(V - Center) <= Options.OutlierMadSigma * Sigma)
      Kept.push_back(V);
  RejectedOut = static_cast<unsigned>(Observations.size() - Kept.size());
  return computeStats(Kept);
}

/// One whole measurement attempt under the stopping rules, seeded by
/// \p AttemptSeed.
AdaptiveResult
measureOnce(const std::function<double(std::uint64_t Seed)> &Measure,
            const AdaptiveOptions &Options, std::uint64_t AttemptSeed,
            const BatchMeasure &First) {
  AdaptiveResult Result;
  SplitMix64 SeedStream(AttemptSeed);
  // Recomputes the statistics; true once the precision target is met.
  auto Settled = [&] {
    Result.Stats =
        screenedStats(Result.Observations, Options, Result.OutliersRejected);
    return Result.Stats.relativePrecision() <= Options.TargetPrecision;
  };
  if (First) {
    std::vector<std::uint64_t> Seeds(Options.MinReps);
    for (std::uint64_t &Seed : Seeds)
      Seed = SeedStream.next();
    Result.Observations.resize(Options.MinReps);
    First(Seeds, Result.Observations);
    if (Settled()) {
      Result.Converged = true;
      return Result;
    }
  }
  while (Result.Observations.size() != Options.MaxReps) {
    Result.Observations.push_back(Measure(SeedStream.next()));
    if (Result.Observations.size() < Options.MinReps)
      continue;
    if (Settled()) {
      Result.Converged = true;
      return Result;
    }
  }
  Result.Converged = Settled();
  return Result;
}

} // namespace

AdaptiveResult mpicsel::measureAdaptively(
    const std::function<double(std::uint64_t Seed)> &Measure,
    const AdaptiveOptions &Options, const BatchMeasure &First) {
  assert(Options.MinReps >= 1 && "need at least one repetition");
  assert(Options.MaxReps >= Options.MinReps && "MaxReps below MinReps");

  AdaptiveResult Result;
  for (unsigned Attempt = 0; Attempt <= Options.RetryAttempts; ++Attempt) {
    // Attempt 0 uses BaseSeed directly (the historical stream);
    // retries reseed so a pathological draw is not replayed.
    std::uint64_t AttemptSeed =
        Attempt == 0
            ? Options.BaseSeed
            : SplitMix64(Options.BaseSeed ^
                         (0xA5A5A5A5A5A5A5A5ull + Attempt))
                  .next();
    Result = measureOnce(Measure, Options, AttemptSeed, First);
    Result.Attempts = Attempt + 1;
    if (Result.Converged)
      break;
  }
  return Result;
}
