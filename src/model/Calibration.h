//===- model/Calibration.h - Algorithm-specific alpha/beta ------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second innovation (Sect. 4.2): estimate alpha and beta
/// *separately for each collective algorithm*, from communication
/// experiments in which the modelled algorithm itself dominates. This
/// is the one implementation of the recipe; all five collectives run
/// through it.
///
/// Experiment (one per size m_i): the modelled collective over P
/// ranks, immediately followed by a linear gather without
/// synchronisation of m_g_i per rank, timed on the gather's root. Its
/// model is
///
///   T_i = (A_i + P - 1) * alpha + (B_i + (P-1) * m_g_i) * beta,
///
/// where (A_i, B_i) are the collective's implementation-derived cost
/// coefficients. Dividing by (A_i + P - 1) puts every equation in the
/// canonical form `alpha + beta * x_i = t_i` of the paper's Fig. 4;
/// the stacked system over the sizes is solved with the Huber
/// regressor [25]. The runtime selection is the argmin of the fitted
/// models.
///
/// Everything in which collectives differ -- cost coefficients,
/// experiment, default sizes and gather ramp, which algorithms are
/// segmented -- is the op's CollectiveDescriptor: broadcast's below,
/// the others' in model/<Op>Selection.h. The core consists of class
/// and function templates over the op's algorithm enum, explicitly
/// instantiated for the five collectives in Calibration.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_CALIBRATION_H
#define MPICSEL_MODEL_CALIBRATION_H

#include "cluster/Platform.h"
#include "coll/Algorithms.h"
#include "coll/Collective.h"
#include "coll/OmpiDecision.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"
#include "stat/Regression.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace mpicsel {

/// Robustness policy of the calibration pass: per-experiment outlier
/// screening and retries, plus per-algorithm quality gates on the
/// canonical fit. Disabled by default -- the plain pass assumes every
/// experiment succeeds, exactly as before; the robustness pipeline
/// (bench/robustness_faults, model/RobustSelector) enables it to
/// survive contaminated measurements.
struct CalibrationQualityOptions {
  /// Master switch: off reproduces the unguarded pass bit for bit.
  bool Enabled = false;
  /// Extra attempts per experiment when the adaptive measurement does
  /// not converge; each retry reseeds and grows MaxReps by
  /// BackoffGrowth (measure-again-with-backoff).
  unsigned MaxRetriesPerExperiment = 2;
  /// MaxReps multiplier applied on every retry.
  double BackoffGrowth = 2.0;
  /// MAD screen threshold handed to AdaptiveOptions (robust sigmas).
  double OutlierMadSigma = 3.5;
  /// Gate: minimum R^2 of the canonical fit.
  double MinR2 = 0.9;
  /// Gate: maximum Rmse of the canonical fit relative to the median
  /// canonical time.
  double MaxRelativeRmse = 0.25;
  /// Gate: alpha (the fitted intercept, seconds) must lie in
  /// [-AlphaSlack * median(t), MaxAlpha]. Strongly negative intercepts
  /// mean the fit is extrapolating garbage, not measurement noise.
  double MaxAlpha = 1.0;
  double AlphaSlack = 0.25;
  /// Gate: beta (the fitted slope, seconds/byte in canonical units)
  /// must not exceed MaxBeta. A negative slope is tolerated (the
  /// calibrated Beta clamps it to zero) unless the fitted line
  /// collapses inside the calibrated range: the prediction at the
  /// largest observed x must stay >= BetaSlack * median(t).
  double MaxBeta = 1e-3;
  double BetaSlack = 0.25;
  /// Gate: at least this fraction of the algorithm's experiments must
  /// have converged (after retries).
  double MinConvergedFraction = 0.7;
};

/// Options of the full calibration pass, shared by every collective.
struct CalibrationOptions {
  /// Processes used in the alpha/beta experiments; at least 2. 0
  /// selects the paper's choice: roughly half the platform's ranks
  /// (the paper used 40 of 90 on Grisou and all 124 on Gros; it
  /// reports that using more nodes does not change the estimates).
  unsigned NumProcs = 0;
  /// Segment size of the segmented algorithms (the paper's 8 KB).
  std::uint64_t SegmentBytes = 8 * 1024;
  /// K of the broadcast's K-chain algorithm.
  unsigned KChainFanout = 4;
  /// Sizes of the experiments (message bytes, or per-rank block bytes
  /// for scatter and allgather); empty selects the op's default
  /// doubling sweep -- for broadcast the paper's 10 sizes from 8 KB to
  /// 4 MB, constant step in log scale.
  std::vector<std::uint64_t> MessageSizes;
  /// Gather block sizes m_g_i, one per size; empty derives the op's
  /// default ramp (GatherRamp).
  std::vector<std::uint64_t> GatherSizes;
  /// Options of the gamma estimation stage; MaxP is raised
  /// automatically to cover every gamma argument the models need.
  GammaEstimationOptions GammaOptions;
  /// Statistical stopping rules of each timing.
  AdaptiveOptions Adaptive;
  /// Solve the canonical system with Huber (paper) or plain OLS
  /// (ablation).
  bool UseHuber = true;
  /// Robustness policy (screening, retries, quality gates).
  CalibrationQualityOptions Quality;
  /// Threads of the calibration sweeps: how many experiments, and so
  /// how many schedules, are live at once. 0 (the default) consults
  /// the MPICSEL_THREADS environment variable, which itself defaults to
  /// 1 -- i.e. the historical serial pass. The sweeps use at most the
  /// hardware thread count, whatever is asked, and each experiment's
  /// first repetitions replay on the helper threads the sweep leaves
  /// idle (support/ThreadPool.h). Any thread count
  /// produces bit-identical results: every experiment derives
  /// its seed from its grid position and the per-algorithm systems
  /// are assembled in serial order (stat/ParallelSweep.h). The thread
  /// count is deliberately excluded from the DecisionCache content
  /// hash for the same reason.
  unsigned Threads = 0;
};

/// The default gather block size of the experiment of size s:
/// clamp(s / Divisor, Min, Max). An op with segmented algorithms also
/// steps it 512 bytes off the segment size (the paper requires
/// m_g != m_s).
struct GatherRamp {
  std::uint64_t Divisor;
  std::uint64_t Min;
  std::uint64_t Max;
};

/// A fixed decision rule's pick at one (P, m): an algorithm and, if
/// the rule sets one, its own segment size (unset: the calibrated one).
template <typename AlgT> struct FixedDecision {
  AlgT Algorithm{};
  std::optional<std::uint64_t> SegmentBytes;
};

/// What one collective contributes to the calibration core and the
/// selection oracle (model/Selection.h); they read nothing else about
/// the op. Specialised per algorithm enum -- broadcast below, the
/// others in model/<Op>Selection.h -- with the op tag (its ordinal
/// also spaces the experiment seeds), its algorithms, the default
/// sizes MinBytes..MaxBytes (doubling), the default gather ramp, a
/// mask of the segmented algorithm ordinals, and two functions:
/// cost(), the algorithm's implementation-derived model, and
/// prepare(), the op's prepare<Op>: with a gather size the Sect. 4.2
/// experiment, without one the plain collective the oracle measures.
/// Both see Query.SegmentBytes = 0 for an unsegmented algorithm. Two
/// hooks are optional: fixedRule(P, m), Open MPI's fixed decision, and
/// oracleSeed(), the seed of each oracle measurement (without it the
/// oracle measures under the caller's seed).
template <typename AlgT> struct CollectiveDescriptor;

/// The model query of \p Alg at one (P, size) point: segmented
/// algorithms run at \p SegmentBytes, the others unsegmented.
template <typename AlgT>
ModelQuery collectiveQuery(AlgT Alg, unsigned NumProcs, std::uint64_t Bytes,
                           std::uint64_t SegmentBytes, unsigned KChainFanout) {
  const unsigned Mask = CollectiveDescriptor<AlgT>::SegmentedMask;
  const bool Segmented = (Mask >> static_cast<unsigned>(Alg)) & 1u;
  ModelQuery Query;
  Query.NumProcs = NumProcs;
  Query.MessageBytes = Bytes;
  Query.SegmentBytes = Segmented ? SegmentBytes : 0;
  Query.KChainFanout = KChainFanout;
  return Query;
}

/// Broadcast, the paper's collective: the six Open MPI algorithms,
/// every one but linear segmented.
template <> struct CollectiveDescriptor<BcastAlgorithm> {
  static constexpr CollectiveOp Op = CollectiveOp::Bcast;
  static constexpr const auto &Algorithms = AllBcastAlgorithms;
  /// The paper's sweep: 8 KB .. 4 MB.
  static constexpr std::uint64_t MinBytes = 8 * 1024;
  static constexpr std::uint64_t MaxBytes = 4 * 1024 * 1024;
  /// m_i / 64, clamped: spreads the canonical x_i enough to identify
  /// alpha and beta separately while the broadcast still dominates.
  static constexpr GatherRamp Gather = {64, 1024, 256 * 1024};
  static constexpr unsigned SegmentedMask =
      ((1u << NumBcastAlgorithms) - 1) &
      ~(1u << static_cast<unsigned>(BcastAlgorithm::Linear));

  static CostCoefficients cost(BcastAlgorithm Alg, const ModelQuery &Query,
                               const GammaFunction &Gamma) {
    return bcastCostCoefficients(Alg, Query, Gamma);
  }
  static Experiment prepare(const Platform &P, BcastAlgorithm Alg,
                            const ModelQuery &Query,
                            std::optional<std::uint64_t> GatherBytes) {
    return prepareBcast(P, Query.NumProcs,
                        {.Algorithm = Alg,
                         .MessageBytes = Query.MessageBytes,
                         .SegmentBytes = Query.SegmentBytes,
                         .KChainFanout = Query.KChainFanout},
                        GatherBytes);
  }
  /// Open MPI 3.1's rule picks a segment size of its own.
  static FixedDecision<BcastAlgorithm> fixedRule(unsigned NumProcs,
                                                 std::uint64_t MessageBytes) {
    const BcastDecision D = ompiBcastDecisionFixed(NumProcs, MessageBytes);
    return {D.Algorithm, D.SegmentBytes};
  }
  /// Table 3's seeds: \p BaseSeed + m + 0x10000 P, salted by
  /// 0x111 * algorithm, or by 0xBEEF for the fixed rule's measurement
  /// at its own segment size.
  static std::uint64_t oracleSeed(std::uint64_t BaseSeed,
                                  const ModelQuery &Query, BcastAlgorithm Alg,
                                  bool FixedRule) {
    const std::uint64_t Salt =
        FixedRule ? 0xBEEFull : 0x111ull * static_cast<unsigned>(Alg);
    return BaseSeed + Salt + Query.MessageBytes + 0x10000ull * Query.NumProcs;
  }
};

/// What happened to one calibration experiment (one message size of
/// one algorithm): every retry, rejection and the final verdict.
struct ExperimentRecord {
  std::uint64_t MessageBytes = 0;
  std::uint64_t GatherBytes = 0;
  /// Measurement attempts consumed (1 = no retry).
  unsigned Attempts = 1;
  /// Observations the MAD screen rejected in the final attempt.
  unsigned OutliersRejected = 0;
  /// Whether the final attempt met the precision target.
  bool Converged = false;
  /// Relative precision achieved by the final attempt.
  double Precision = 0.0;
  /// The mean used in the canonical system.
  double Mean = 0.0;
};

/// One quality-gate verdict for one algorithm's calibration.
struct QualityGateResult {
  /// Gate identifier ("fit-valid", "r2", "residual", "alpha",
  /// "beta", "converged-fraction").
  std::string Gate;
  bool Passed = true;
  /// Human-readable detail ("R2 0.31 < 0.90").
  std::string Detail;
};

/// The structured per-algorithm quality record of a calibration run.
template <typename AlgT> struct CollectiveAlgorithmReport {
  AlgT Algorithm{};
  std::vector<ExperimentRecord> Experiments;
  std::vector<QualityGateResult> Gates;
  /// All gates passed: the model is fit for selection.
  bool Usable = true;

  unsigned totalRetries() const {
    unsigned Retries = 0;
    for (const ExperimentRecord &E : Experiments)
      Retries += E.Attempts - 1;
    return Retries;
  }
  unsigned totalOutliersRejected() const {
    unsigned Rejected = 0;
    for (const ExperimentRecord &E : Experiments)
      Rejected += E.OutliersRejected;
    return Rejected;
  }
};

/// The full calibration quality report: one record per algorithm.
/// With gates disabled every model is marked usable and the records
/// still describe what was measured.
template <typename AlgT> struct CollectiveCalibrationReport {
  std::array<CollectiveAlgorithmReport<AlgT>,
             CollectiveDescriptor<AlgT>::Algorithms.size()>
      Algorithms;

  const CollectiveAlgorithmReport<AlgT> &of(AlgT Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }
  unsigned usableCount() const {
    unsigned Count = 0;
    for (const CollectiveAlgorithmReport<AlgT> &A : Algorithms)
      Count += A.Usable ? 1 : 0;
    return Count;
  }
  /// Renders the report as a human-readable multi-line summary.
  std::string str() const;
};

/// Calibration result for one algorithm.
template <typename AlgT> struct CollectiveAlgorithmCalibration {
  AlgT Algorithm{};
  /// The algorithm-specific Hockney parameters (paper Table 2).
  double Alpha = 0.0;
  double Beta = 0.0;
  /// The canonical-form regression (x_i, t_i) actually solved --
  /// exposed for tests, benches and the EXPERIMENTS.md write-up.
  std::vector<double> CanonicalX;
  std::vector<double> CanonicalT;
  LinearFit Fit;
};

/// Everything the runtime selection of one collective needs: gamma
/// plus per-algorithm (alpha, beta).
template <typename AlgT> struct CollectiveModels {
  GammaFunction Gamma;
  std::array<CollectiveAlgorithmCalibration<AlgT>,
             CollectiveDescriptor<AlgT>::Algorithms.size()>
      Algorithms;
  std::uint64_t SegmentBytes = 8 * 1024;
  unsigned KChainFanout = 4;

  const CollectiveAlgorithmCalibration<AlgT> &of(AlgT Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }

  /// Predicted time of \p Alg for \p NumProcs ranks and \p MessageBytes
  /// (block bytes for scatter and allgather), at the calibrated
  /// segment size.
  double predict(AlgT Alg, unsigned NumProcs,
                 std::uint64_t MessageBytes) const;

  /// The model-based decision function: argmin of predict over the
  /// op's algorithms. This is the paper's runtime selection -- two
  /// multiply-adds per algorithm, no search.
  AlgT selectBest(unsigned NumProcs, std::uint64_t MessageBytes) const;
};

using AlgorithmCalibrationReport = CollectiveAlgorithmReport<BcastAlgorithm>;
using CalibrationReport = CollectiveCalibrationReport<BcastAlgorithm>;
using AlgorithmCalibration = CollectiveAlgorithmCalibration<BcastAlgorithm>;
using CalibratedModels = CollectiveModels<BcastAlgorithm>;

/// Runs the full calibration (gamma, then per-algorithm alpha/beta) of
/// the collective whose algorithm enum is \p AlgT on \p P. This is the
/// offline stage of the paper's method; its cost is independent of
/// the application. Aborts when the resolved process count is below 2
/// or above what the platform hosts.
///
/// With Options.Quality.Enabled the per-experiment measurements are
/// screened and retried and the per-algorithm fits are checked
/// against the quality gates; \p Report (if non-null) receives the
/// structured record of every retry, rejection and gate verdict.
/// With the quality policy disabled (the default) the behaviour --
/// and every produced number -- is identical to the unguarded pass,
/// and a degenerate regression aborts.
template <typename AlgT>
CollectiveModels<AlgT>
calibrateCollective(const Platform &P, const CalibrationOptions &Options = {},
                    CollectiveCalibrationReport<AlgT> *Report = nullptr);

/// The broadcast calibration.
inline CalibratedModels calibrate(const Platform &P,
                                  const CalibrationOptions &Options = {},
                                  CalibrationReport *Report = nullptr) {
  return calibrateCollective<BcastAlgorithm>(P, Options, Report);
}

/// Recalibrates a single algorithm's stage-2 system (alpha/beta) on
/// \p P, reusing an already-estimated \p Gamma instead of re-running
/// stage 1. With \p Attempt == 0 the experiments, their seeds, the
/// canonical assembly and the fit are exactly those the full
/// calibrateCollective() pass runs for \p Alg, so the result is
/// bit-identical to a full pass under the same conditions -- this is
/// the targeted repair primitive of the drift sentinel
/// (drift/Drift.h): one algorithm's ~10 experiments instead of the
/// full campaign. \p Attempt != 0 reseeds the whole measurement
/// stream and grows the repetition budget (the repair retry/backoff),
/// deterministically per attempt.
template <typename AlgT>
CollectiveAlgorithmCalibration<AlgT> calibrateSingleAlgorithm(
    const Platform &P, const CalibrationOptions &Options,
    const GammaFunction &Gamma, AlgT Alg, unsigned Attempt = 0,
    std::type_identity_t<CollectiveAlgorithmReport<AlgT>> *Report = nullptr);

} // namespace mpicsel

#endif // MPICSEL_MODEL_CALIBRATION_H
