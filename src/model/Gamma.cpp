//===- model/Gamma.cpp - The gamma(P) model parameter ----------------------===//

#include "model/Gamma.h"

#include "model/Runner.h"
#include "stat/ParallelSweep.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace mpicsel;

GammaFunction::GammaFunction(std::vector<double> MeasuredValues)
    : Measured(std::move(MeasuredValues)) {
  assert(!Measured.empty() && "need at least gamma(2)");
  assert(Measured.front() > 0.99 && Measured.front() < 1.01 &&
         "gamma(2) must be 1 by definition");
  // Fit gamma ~ a + b*P over the measured range for extrapolation.
  std::vector<double> X, Y;
  for (size_t I = 0; I != Measured.size(); ++I) {
    X.push_back(static_cast<double>(2 + I));
    Y.push_back(Measured[I]);
  }
  Fit = fitLeastSquares(X, Y);
}

double GammaFunction::operator()(unsigned P) const {
  if (P <= 2 || Measured.empty())
    return 1.0;
  size_t Index = P - 2;
  if (Index < Measured.size())
    return Measured[Index];
  if (!Fit.Valid)
    return Measured.back();
  // Linear extrapolation, clamped to the theoretical bounds of Eq. 1:
  // 1 <= gamma(P) <= P - 1.
  double Value = Fit(static_cast<double>(P));
  return std::clamp(Value, 1.0, static_cast<double>(P - 1));
}

GammaEstimate mpicsel::estimateGamma(const Platform &FullPlat,
                                     const GammaEstimationOptions &Options) {
  assert(Options.MaxP >= 2 && "gamma needs at least P = 2");
  const Platform Plat =
      Options.OneRankPerNode ? FullPlat.withOneRankPerNode() : FullPlat;
  if (Options.MaxP > Plat.maxProcs())
    fatalError("gamma estimation needs more processes than the platform "
               "hosts");

  GammaEstimate Estimate;
  // Every P's experiment is independent and derives its seeds from P
  // alone, so the per-P measurements fan across the sweep pool with
  // bit-identical results (collected in P order below).
  const unsigned Threads = resolveSweepThreads(Options.Threads);
  Estimate.MeanCallTime = sweepIndexed<double>(
      Threads, Options.MaxP - 1, [&](std::size_t Index) {
    const unsigned P = 2 + static_cast<unsigned>(Index);
    // De-correlate the seeds of different P's experiments.
    AdaptiveOptions Adaptive = Options.Adaptive;
    Adaptive.BaseSeed = Options.Adaptive.BaseSeed + 0x1000ull * P;
    AdaptiveResult R;
    if (Options.UseBarrierTrain) {
      // The faithful real-cluster procedure (paper Sect. 4.1): N
      // broadcast calls separated by barriers, timed on the root; the
      // barrier both prevents pipelining across calls and lets the
      // root-side timer observe each delivery. A barrier-only train
      // is subtracted to remove the barrier's own cost. The
      // subtraction is slightly biased (the barrier overlaps the
      // broadcast's tail), which is why the direct method below is
      // the default on the simulator.
      R = prepareLinearBcastTrain(Plat, P, Options.SegmentBytes,
                                  Options.CallsPerMeasurement)
              .measure(Adaptive);
      Adaptive.BaseSeed = Options.Adaptive.BaseSeed + 0x1000ull * P + 7;
      AdaptiveResult Barriers =
          prepareBarrierTrain(Plat, P, Options.CallsPerMeasurement)
              .measure(Adaptive);
      R.Stats.Mean -= Barriers.Stats.Mean;
    } else {
      // Direct method: the simulator has a global clock, so
      // T_linear^nonblock(P, m_s) -- time from the root's start to
      // the last child's delivery -- is observable without the
      // barrier dance a physical cluster requires.
      BcastConfig Config;
      Config.Algorithm = BcastAlgorithm::Linear;
      Config.MessageBytes = Options.SegmentBytes;
      Config.SegmentBytes = 0;
      R = measureBcast(Plat, P, Config, Adaptive);
    }
    assert(R.Stats.Mean > 0 && "degenerate gamma measurement");
    return R.Stats.Mean;
  });

  double T2OfTwo = Estimate.MeanCallTime.front();
  assert(T2OfTwo > 0 && "degenerate gamma experiment");
  std::vector<double> Gammas;
  Gammas.reserve(Estimate.MeanCallTime.size());
  for (double T2 : Estimate.MeanCallTime)
    Gammas.push_back(T2 / T2OfTwo);
  // Pin the definition gamma(2) == 1 exactly (it is 1 up to noise).
  Gammas.front() = 1.0;
  Estimate.Gamma = GammaFunction(std::move(Gammas));
  return Estimate;
}
