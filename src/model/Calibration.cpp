//===- model/Calibration.cpp - Algorithm-specific alpha/beta --------------===//

#include "model/Calibration.h"

#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "model/ScatterSelection.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "stat/ParallelSweep.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

using namespace mpicsel;

namespace {

/// Measures one calibration experiment, retrying with reseed and a
/// MaxReps backoff when the quality policy is enabled and the
/// measurement does not converge. With the policy disabled this is a
/// single measurement with the historical options -- bit-identical to
/// the unguarded pass.
AdaptiveResult measureExperiment(const Experiment &E, const ModelQuery &Query,
                                 AdaptiveOptions Adaptive,
                                 const CalibrationQualityOptions &Quality,
                                 unsigned &AttemptsOut) {
  if (Quality.Enabled) {
    Adaptive.ScreenOutliers = true;
    Adaptive.OutlierMadSigma = Quality.OutlierMadSigma;
  }
  const std::uint64_t BaseSeed = Adaptive.BaseSeed;
  const unsigned BaseMaxReps = Adaptive.MaxReps;
  AdaptiveResult Best;
  for (unsigned Attempt = 0;; ++Attempt) {
    // Attempt 0 keeps the caller's seed (the historical stream);
    // retries reseed so a pathological draw is not replayed, and grow
    // the repetition budget so a noisier regime can still converge.
    if (Attempt != 0) {
      Adaptive.BaseSeed =
          SplitMix64(BaseSeed ^ (0xC13FA9A902A6328Full + Attempt)).next();
      double Grown = static_cast<double>(BaseMaxReps) *
                     std::pow(Quality.BackoffGrowth, Attempt);
      Adaptive.MaxReps = static_cast<unsigned>(std::ceil(Grown));
      // Retries are where a contaminated regime costs wall-clock, so
      // each reseed/backoff is journalled with its grown budget.
      obs::bump(obs::Counter::CalibRetries);
      obs::Journal &J = obs::Journal::global();
      if (J.enabled()) {
        JsonObject Event = J.line("calib_retry");
        Event.set("attempt", Attempt);
        Event.set("max_reps", Adaptive.MaxReps);
        Event.set("procs", Query.NumProcs);
        Event.set("message_bytes", Query.MessageBytes);
        J.write(Event);
      }
    }
    AdaptiveResult R = E.measure(Adaptive);
    AttemptsOut = Attempt + 1;
    obs::bump(obs::Counter::CalibExperiments);
    obs::bump(obs::Counter::CalibOutliers, R.OutliersRejected);
    // Timing contamination is one-sided (stalls and spikes only add
    // time), so of several attempts the one with the lowest screened
    // mean is closest to the truth.
    if (Attempt == 0 || R.Stats.Mean < Best.Stats.Mean)
      Best = R;
    if (!Quality.Enabled || Attempt >= Quality.MaxRetriesPerExperiment)
      return Best;
    // A batch whose screen rejected a large fraction is suspicious
    // even when it converged: if the contaminated cluster was the
    // majority, the screen kept *it* and rejected the clean tail.
    double RejectedFraction =
        R.Observations.empty()
            ? 0.0
            : static_cast<double>(R.OutliersRejected) /
                  static_cast<double>(R.Observations.size());
    if (R.Converged && RejectedFraction < 0.3)
      return Best;
  }
}

/// Appends one gate verdict and folds it into the usable flag.
template <typename AlgT>
void addGate(CollectiveAlgorithmReport<AlgT> &Rep, const char *Gate,
             bool Passed, std::string Detail) {
  Rep.Gates.push_back({Gate, Passed, std::move(Detail)});
  Rep.Usable = Rep.Usable && Passed;
}

/// Evaluates the per-algorithm quality gates against the canonical
/// fit and the experiment records.
template <typename AlgT>
void evaluateGates(const CollectiveAlgorithmCalibration<AlgT> &Calib,
                   CollectiveAlgorithmReport<AlgT> &Rep,
                   const CalibrationQualityOptions &Quality) {
  if (!Calib.Fit.Valid) {
    addGate(Rep, "fit-valid", false, "degenerate regression");
    return; // The remaining gates are meaningless without a line.
  }
  addGate(Rep, "fit-valid", true, "");

  unsigned ConvergedCount = 0;
  for (const ExperimentRecord &E : Rep.Experiments)
    ConvergedCount += E.Converged ? 1 : 0;
  double ConvergedFraction =
      Rep.Experiments.empty()
          ? 1.0
          : static_cast<double>(ConvergedCount) /
                static_cast<double>(Rep.Experiments.size());
  addGate(Rep, "converged-fraction",
          ConvergedFraction >= Quality.MinConvergedFraction,
          strFormat("%u/%zu converged (need %s)", ConvergedCount,
                    Rep.Experiments.size(),
                    formatPercent(Quality.MinConvergedFraction).c_str()));

  const double MedianT = median(Calib.CanonicalT);

  bool AlphaOk = Calib.Fit.Intercept <= Quality.MaxAlpha &&
                 Calib.Fit.Intercept >= -Quality.AlphaSlack * MedianT;
  addGate(Rep, "alpha", AlphaOk,
          strFormat("intercept %s (median t %s)",
                    formatSci(Calib.Fit.Intercept).c_str(),
                    formatSci(MedianT).c_str()));

  // A small negative slope is healed downstream (Beta is clamped to
  // zero for prediction), so it only disqualifies the model when the
  // fitted line collapses within the calibrated range: the prediction
  // at the largest observed x must stay a meaningful fraction of the
  // median time. A steep contamination-driven negative slope fails
  // this; the near-flat fits of alpha-dominated algorithms pass.
  const double MaxX =
      Calib.CanonicalX.empty()
          ? 0.0
          : *std::max_element(Calib.CanonicalX.begin(),
                              Calib.CanonicalX.end());
  const double FitAtMaxX = Calib.Fit.Intercept + Calib.Fit.Slope * MaxX;
  bool BetaOk = Calib.Fit.Slope <= Quality.MaxBeta &&
                (Calib.Fit.Slope >= 0.0 ||
                 FitAtMaxX >= Quality.BetaSlack * MedianT);
  addGate(Rep, "beta", BetaOk,
          strFormat("slope %s, fit at max x %s (median t %s)",
                    formatSci(Calib.Fit.Slope).c_str(),
                    formatSci(FitAtMaxX).c_str(),
                    formatSci(MedianT).c_str()));

  addGate(Rep, "r2", Calib.Fit.R2 >= Quality.MinR2,
          strFormat("R2 %.3f (need %.3f)", Calib.Fit.R2, Quality.MinR2));

  bool ResidualOk =
      MedianT > 0.0 && Calib.Fit.Rmse <= Quality.MaxRelativeRmse * MedianT;
  addGate(Rep, "residual", ResidualOk,
          strFormat("rmse %s = %s of median t",
                    formatSci(Calib.Fit.Rmse).c_str(),
                    formatPercent(MedianT > 0.0 ? Calib.Fit.Rmse / MedianT
                                                : 0.0)
                        .c_str()));
}

/// The resolved stage-2 experiment grid: process count plus the
/// paired size/gather ramps. calibrateCollective() and
/// calibrateSingleAlgorithm() must resolve identically, or the
/// targeted repair loses its bit-identity with the full pass.
struct CalibrationGrid {
  unsigned NumProcs = 0;
  std::vector<std::uint64_t> MessageSizes;
  std::vector<std::uint64_t> GatherSizes;
};

template <typename AlgT>
CalibrationGrid resolveCalibrationGrid(const Platform &Plat,
                                       const CalibrationOptions &Options) {
  using Descriptor = CollectiveDescriptor<AlgT>;
  CalibrationGrid Grid;
  Grid.NumProcs = Options.NumProcs;
  if (Grid.NumProcs == 0)
    Grid.NumProcs = std::max(2u, Plat.maxProcs() / 2);
  if (Grid.NumProcs > Plat.maxProcs())
    fatalError("calibration requests more processes than the platform hosts");
  // With one rank the gather is empty and neither the experiment nor
  // its model carries any information.
  if (Grid.NumProcs < 2)
    fatalError("calibration needs at least 2 processes");
  Grid.MessageSizes = Options.MessageSizes;
  if (Grid.MessageSizes.empty())
    for (std::uint64_t Bytes = Descriptor::MinBytes;
         Bytes <= Descriptor::MaxBytes; Bytes *= 2)
      Grid.MessageSizes.push_back(Bytes);
  Grid.GatherSizes = Options.GatherSizes;
  if (Grid.GatherSizes.empty())
    for (std::uint64_t Bytes : Grid.MessageSizes) {
      std::uint64_t GatherBytes =
          std::clamp(Bytes / Descriptor::Gather.Divisor,
                     Descriptor::Gather.Min, Descriptor::Gather.Max);
      if (Descriptor::SegmentedMask != 0 &&
          GatherBytes == Options.SegmentBytes)
        GatherBytes += 512;
      Grid.GatherSizes.push_back(GatherBytes);
    }
  if (Grid.GatherSizes.size() != Grid.MessageSizes.size())
    fatalError("calibration needs one gather size per message size");
  return Grid;
}

/// One stage-2 measurement plus its quality record.
struct ExperimentOutcome {
  AdaptiveResult Result;
  ExperimentRecord Record;
};

/// Runs the (Alg, I) stage-2 experiment of \p Grid. The seed derives
/// from the op and the grid position off \p BaseAdaptive, so any
/// sweep order -- and the single-algorithm repair pass -- reproduces
/// the full pass's measurement stream bit for bit.
template <typename AlgT>
ExperimentOutcome runCalibrationPoint(const Platform &Plat,
                                      const CalibrationGrid &Grid,
                                      const CalibrationOptions &Options,
                                      const AdaptiveOptions &BaseAdaptive,
                                      AlgT Alg, std::size_t I) {
  const ModelQuery Query =
      collectiveQuery(Alg, Grid.NumProcs, Grid.MessageSizes[I],
                      Options.SegmentBytes, Options.KChainFanout);
  const std::uint64_t AlgorithmStride =
      0x100000ull << static_cast<unsigned>(CollectiveDescriptor<AlgT>::Op);
  AdaptiveOptions Adaptive = BaseAdaptive;
  Adaptive.BaseSeed = BaseAdaptive.BaseSeed +
                      AlgorithmStride * static_cast<unsigned>(Alg) +
                      0x100ull * I;
  ExperimentOutcome Outcome;
  Outcome.Record.MessageBytes = Grid.MessageSizes[I];
  Outcome.Record.GatherBytes = Grid.GatherSizes[I];
  Outcome.Result = measureExperiment(
      CollectiveDescriptor<AlgT>::prepare(Plat, Alg, Query,
                                          Grid.GatherSizes[I]),
      Query, Adaptive, Options.Quality, Outcome.Record.Attempts);
  Outcome.Record.OutliersRejected = Outcome.Result.OutliersRejected;
  Outcome.Record.Converged = Outcome.Result.Converged;
  Outcome.Record.Precision = Outcome.Result.Stats.relativePrecision();
  Outcome.Record.Mean = Outcome.Result.Stats.Mean;
  return Outcome;
}

/// Measures the (algorithm x size) experiments of \p Algorithms over
/// \p Grid, algorithm-major. The experiments are mutually independent
/// and each derives its seed from its grid position, so they fan
/// across the sweep pool with results bit-identical to a nested
/// serial loop for any thread count.
template <typename AlgT>
std::vector<ExperimentOutcome>
measureGrid(const Platform &Plat, const CalibrationGrid &Grid,
            const CalibrationOptions &Options,
            const AdaptiveOptions &BaseAdaptive,
            std::span<const AlgT> Algorithms, unsigned Threads) {
  const std::size_t NumSizes = Grid.MessageSizes.size();
  return sweepIndexed<ExperimentOutcome>(
      Threads, Algorithms.size() * NumSizes, [&](std::size_t Task) {
        return runCalibrationPoint(Plat, Grid, Options, BaseAdaptive,
                                   Algorithms[Task / NumSizes],
                                   Task % NumSizes);
      });
}

/// Assembles one algorithm's canonical system from its \p Outcomes
/// (one per grid size, in grid order), fits it, applies the
/// physical clamps and -- when enabled -- the quality gates.
template <typename AlgT>
void assembleAlgorithm(const CalibrationGrid &Grid,
                       const CalibrationOptions &Options,
                       const GammaFunction &Gamma, AlgT Alg,
                       const ExperimentOutcome *Outcomes,
                       CollectiveAlgorithmCalibration<AlgT> &Calib,
                       CollectiveAlgorithmReport<AlgT> &Rep) {
  Calib.Algorithm = Alg;
  Rep.Algorithm = Alg;
  for (std::size_t I = 0; I != Grid.MessageSizes.size(); ++I) {
    const ExperimentOutcome &Outcome = Outcomes[I];
    Rep.Experiments.push_back(Outcome.Record);

    // Canonical form of Fig. 4: T / (A_tot) = alpha + beta * (B_tot
    // / A_tot).
    CostCoefficients Total =
        CollectiveDescriptor<AlgT>::cost(
            Alg,
            collectiveQuery(Alg, Grid.NumProcs, Grid.MessageSizes[I],
                            Options.SegmentBytes, Options.KChainFanout),
            Gamma) +
        linearGatherCostCoefficients(Grid.NumProcs, Grid.GatherSizes[I]);
    assert(Total.A > 0 && "degenerate experiment coefficients");
    Calib.CanonicalX.push_back(Total.B / Total.A);
    Calib.CanonicalT.push_back(Outcome.Result.Stats.Mean / Total.A);
  }

  Calib.Fit = Options.UseHuber
                  ? fitHuber(Calib.CanonicalX, Calib.CanonicalT)
                  : fitLeastSquares(Calib.CanonicalX, Calib.CanonicalT);
  if (!Calib.Fit.Valid && !Options.Quality.Enabled)
    fatalError("alpha/beta regression degenerate for algorithm " +
               std::string(collectiveAlgorithmName(
                   CollectiveDescriptor<AlgT>::Op,
                   static_cast<unsigned>(Alg))));
  // Physically, both parameters are non-negative; tiny negative
  // intercepts are regression noise (the paper's alphas are
  // O(1e-12)).
  Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
  Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  if (Options.Quality.Enabled)
    evaluateGates(Calib, Rep, Options.Quality);
}

} // namespace

template <typename AlgT>
double CollectiveModels<AlgT>::predict(AlgT Alg, unsigned NumProcs,
                                       std::uint64_t MessageBytes) const {
  const CollectiveAlgorithmCalibration<AlgT> &Params = of(Alg);
  return CollectiveDescriptor<AlgT>::cost(
             Alg,
             collectiveQuery(Alg, NumProcs, MessageBytes, SegmentBytes,
                             KChainFanout),
             Gamma)
      .evaluate(Params.Alpha, Params.Beta);
}

template <typename AlgT>
AlgT CollectiveModels<AlgT>::selectBest(unsigned NumProcs,
                                        std::uint64_t MessageBytes) const {
  const auto &All = CollectiveDescriptor<AlgT>::Algorithms;
  AlgT Best = All.front();
  double BestTime = predict(Best, NumProcs, MessageBytes);
  for (AlgT Alg : All) {
    double Time = predict(Alg, NumProcs, MessageBytes);
    if (Time < BestTime) {
      Best = Alg;
      BestTime = Time;
    }
  }
  return Best;
}

template <typename AlgT>
std::string CollectiveCalibrationReport<AlgT>::str() const {
  std::string Out;
  for (const CollectiveAlgorithmReport<AlgT> &A : Algorithms) {
    Out += strFormat("%-14s %s",
                     collectiveAlgorithmName(CollectiveDescriptor<AlgT>::Op,
                                             static_cast<unsigned>(
                                                 A.Algorithm)),
                     A.Usable ? "usable  " : "EXCLUDED");
    Out += strFormat("  retries %u  outliers %u", A.totalRetries(),
                     A.totalOutliersRejected());
    for (const QualityGateResult &G : A.Gates)
      if (!G.Passed)
        Out += strFormat("  [%s: %s]", G.Gate.c_str(), G.Detail.c_str());
    Out += '\n';
  }
  return Out;
}

template <typename AlgT>
CollectiveModels<AlgT>
mpicsel::calibrateCollective(const Platform &Plat,
                             const CalibrationOptions &Options,
                             CollectiveCalibrationReport<AlgT> *Report) {
  obs::PhaseSpan CalibSpan(obs::Phase::Calibration, Plat.Name);
  CollectiveModels<AlgT> Models;
  Models.SegmentBytes = Options.SegmentBytes;
  Models.KChainFanout = Options.KChainFanout;

  const CalibrationGrid Grid = resolveCalibrationGrid<AlgT>(Plat, Options);

  // Resolve the sweep parallelism once; both stages fan their
  // independent experiments over it with bit-identical results.
  const unsigned Threads = resolveSweepThreads(Options.Threads);

  // Stage 1 (Sect. 4.1): gamma, measured far enough for every gamma
  // argument the models can ask for.
  GammaEstimationOptions GammaOpts = Options.GammaOptions;
  GammaOpts.Threads = Threads;
  GammaOpts.MaxP = std::max(
      GammaOpts.MaxP,
      maxGammaArgument(Plat.maxProcs(), Options.KChainFanout));
  GammaOpts.MaxP = std::min(GammaOpts.MaxP, Plat.maxProcs());
  GammaOpts.SegmentBytes = Options.SegmentBytes;
  if (Options.Quality.Enabled) {
    GammaOpts.Adaptive.ScreenOutliers = true;
    GammaOpts.Adaptive.OutlierMadSigma = Options.Quality.OutlierMadSigma;
  }
  {
    obs::PhaseSpan GammaSpan(obs::Phase::GammaFit);
    Models.Gamma = estimateGamma(Plat, GammaOpts).Gamma;
  }

  // Stage 2 (Sect. 4.2): one linear system per algorithm, measured in
  // parallel and assembled serially in grid order.
  const std::span<const AlgT> Algorithms =
      CollectiveDescriptor<AlgT>::Algorithms;
  const std::vector<ExperimentOutcome> Outcomes = measureGrid(
      Plat, Grid, Options, Options.Adaptive, Algorithms, Threads);
  CollectiveCalibrationReport<AlgT> LocalReport;
  for (AlgT Alg : Algorithms) {
    const unsigned Index = static_cast<unsigned>(Alg);
    assembleAlgorithm(Grid, Options, Models.Gamma, Alg,
                      Outcomes.data() + Index * Grid.MessageSizes.size(),
                      Models.Algorithms[Index],
                      LocalReport.Algorithms[Index]);
  }
  if (Report)
    *Report = std::move(LocalReport);
  return Models;
}

template <typename AlgT>
CollectiveAlgorithmCalibration<AlgT> mpicsel::calibrateSingleAlgorithm(
    const Platform &Plat, const CalibrationOptions &Options,
    const GammaFunction &Gamma, AlgT Alg, unsigned Attempt,
    std::type_identity_t<CollectiveAlgorithmReport<AlgT>> *Report) {
  const CalibrationGrid Grid = resolveCalibrationGrid<AlgT>(Plat, Options);
  const unsigned Threads = resolveSweepThreads(Options.Threads);

  // Attempt 0 replays the full pass's exact measurement stream for
  // this algorithm (the per-experiment seeds derive from the grid
  // position). Repair retries reseed the whole stream and grow the
  // repetition budget, mirroring the per-experiment retry policy.
  AdaptiveOptions Base = Options.Adaptive;
  if (Attempt != 0) {
    Base.BaseSeed =
        SplitMix64(Base.BaseSeed ^ (0xA24BAED4963EE407ull + Attempt)).next();
    const double Growth =
        Options.Quality.Enabled ? Options.Quality.BackoffGrowth : 2.0;
    Base.MaxReps = static_cast<unsigned>(std::ceil(
        static_cast<double>(Base.MaxReps) * std::pow(Growth, Attempt)));
  }

  const std::vector<ExperimentOutcome> Outcomes =
      measureGrid(Plat, Grid, Options, Base, std::span<const AlgT>(&Alg, 1),
                  Threads);

  CollectiveAlgorithmCalibration<AlgT> Calib;
  CollectiveAlgorithmReport<AlgT> Rep;
  assembleAlgorithm(Grid, Options, Gamma, Alg, Outcomes.data(), Calib, Rep);
  if (Report)
    *Report = std::move(Rep);
  return Calib;
}

// The five collectives the core serves.
#define MPICSEL_INSTANTIATE_CALIBRATION(AlgT)                                  \
  template struct mpicsel::CollectiveModels<AlgT>;                             \
  template struct mpicsel::CollectiveCalibrationReport<AlgT>;                  \
  template CollectiveModels<AlgT> mpicsel::calibrateCollective(                \
      const Platform &, const CalibrationOptions &,                            \
      CollectiveCalibrationReport<AlgT> *);                                    \
  template CollectiveAlgorithmCalibration<AlgT>                                \
  mpicsel::calibrateSingleAlgorithm(const Platform &,                          \
                                    const CalibrationOptions &,                \
                                    const GammaFunction &, AlgT, unsigned,     \
                                    CollectiveAlgorithmReport<AlgT> *);
MPICSEL_INSTANTIATE_CALIBRATION(BcastAlgorithm)
MPICSEL_INSTANTIATE_CALIBRATION(ScatterAlgorithm)
MPICSEL_INSTANTIATE_CALIBRATION(ReduceAlgorithm)
MPICSEL_INSTANTIATE_CALIBRATION(AllgatherAlgorithm)
MPICSEL_INSTANTIATE_CALIBRATION(AllreduceAlgorithm)
#undef MPICSEL_INSTANTIATE_CALIBRATION
