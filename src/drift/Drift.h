//===- drift/Drift.h - Online model-drift sentinel --------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online half of model auditing: a drift sentinel that watches
/// per-replay (predicted, observed) timing pairs and notices when the
/// calibrated models walk away from what the platform actually
/// delivers. The static auditor (audit/Audit.h) checks invariants a
/// model set must satisfy in isolation; the sentinel checks the one
/// property statics cannot -- that predictions still track
/// measurements -- and drives the self-healing loop when they stop.
///
/// Detection. Residuals are grouped per (algorithm, P, m-bucket)
/// cell, where the bucket is floor(log2 m): the paper's message sweep
/// doubles, so each calibrated size owns its bucket. The paper's
/// models carry substantial *honest* error against a single replay
/// (the alpha/beta system is fitted on bcast+gather means, and small
/// messages extrapolate worst), so the magnitude of the symmetric
/// relative error r = max(p/o, o/p) - 1 cannot separate a drifted
/// model from an honest one. Instead each cell is judged against a
/// per-cell *reference* residual captured at commissioning time
/// (beginReferenceCapture()/endReferenceCapture() around a healthy
/// replay sweep): the scored deviation is the two-sided log-ratio
/// |log1p(r) - log1p(r_ref)|, which is ~0 for a model tracking as
/// well as it did at commissioning and grows in either direction --
/// a model that suddenly predicts *better* than its honest error
/// profile is as suspicious as one that predicts worse. Cells with
/// no reference fall back to r_ref = 0 (pure magnitude). Each cell
/// keeps a MAD screen over a small ring of recent deviations -- a
/// lone spike is screened out, exactly like the calibration-time
/// outlier screen -- and a CUSUM-style score: every in-window
/// deviation above the deadband adds its excess, every in-band
/// sample drains the score by the leak, and the cell trips when the
/// score crosses the threshold with enough samples behind it. All
/// state updates are plain arithmetic on the observation stream, so
/// a cell's verdict is bit-deterministic given the same per-cell
/// sample order. The replay feed preserves it: one grid point's
/// measurement runs on one thread, and although its first
/// repetitions replay side by side on helper threads, the measuring
/// thread feeds their observations in repetition order.
///
/// Quarantine and repair. Under MPICSEL_DRIFT=repair a tripped cell
/// is quarantined: model/RobustSelector degrades exactly that cell to
/// the calibration-free OMPI decision until repairDriftedCells() has
/// recalibrated the violated algorithm (only its stage-2 system --
/// gamma and the five healthy algorithms are not re-measured), passed
/// the patch through the static auditor (strict policy rejects a
/// patch that introduces violations, with bounded reseed/backoff
/// retries), and swapped the repaired rows into the decision table
/// atomically (temp + rename; the DecisionCache entry is restored
/// under its content-hash key). `warn` detects and journals without
/// touching selection; `off` (the default) keeps the sentinel
/// entirely out of the process -- bit-identical to a build without
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_DRIFT_DRIFT_H
#define MPICSEL_DRIFT_DRIFT_H

#include "audit/Audit.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mpicsel {

/// The sentinel policy, normally from MPICSEL_DRIFT: Off keeps the
/// run bit-identical to a sentinel-free process, Warn detects and
/// journals trips without touching selection, Repair additionally
/// quarantines tripped cells (RobustSelector degrades them to the
/// OMPI fallback) until repairDriftedCells() heals them.
enum class DriftMode : unsigned { Off, Warn, Repair };

const char *driftModeName(DriftMode Mode);

/// MPICSEL_DRIFT: "off" (or unset/empty), "warn", "repair". Any other
/// value is a fatal usage error.
DriftMode driftModeFromEnv();

/// Detector tuning. The defaults are set against the repo's synthetic
/// platforms: a clean calibration predicts replay times well within
/// the deadband, while a corrupted per-algorithm model (e.g. one
/// calibrated under the degraded-link scenario) overshoots it on
/// every sample of the affected cells (bench/drift_recovery pins
/// both).
struct DriftDetectorOptions {
  /// Log-ratio deviation from the cell's reference residual tolerated
  /// per replay; only the excess above it accumulates. Must sit above
  /// the platform's replay noise (a deviation of 0.35 means the
  /// residual ratio moved ~40% away from its commissioned value), or
  /// clean runs trip.
  double Deadband = 0.35;
  /// Trip when a cell's accumulated excess reaches this.
  double TripThreshold = 1.5;
  /// Score drained per in-band sample, so transient excursions decay
  /// instead of ratcheting toward a trip.
  double Leak = 0.05;
  /// A cell may not trip before this many unscreened samples.
  unsigned MinSamples = 5;
  /// MAD screen: a residual further than MadSigma robust sigmas from
  /// the ring median is screened out of the score (but still enters
  /// the ring, so a persistent regime change shifts the median and
  /// stops being screened).
  double MadSigma = 6.0;
  /// Capacity of the per-cell residual ring behind the screen.
  unsigned ScreenWindow = 8;
};

/// One tripped cell.
struct DriftTrip {
  BcastAlgorithm Algorithm = BcastAlgorithm::Linear;
  unsigned NumProcs = 0;
  /// floor(log2 MessageBytes) -- one bucket per calibrated size.
  unsigned SizeBucket = 0;
  /// The message size that tripped the cell.
  std::uint64_t MessageBytes = 0;
  /// CUSUM score, raw residual and reference deviation at the moment
  /// of the trip.
  double Score = 0.0;
  double Residual = 0.0;
  double Deviation = 0.0;
  unsigned Samples = 0;
};

/// Aggregate sentinel statistics (cumulative over clearQuarantine).
struct DriftStats {
  std::uint64_t Samples = 0;
  std::uint64_t Screened = 0;
  unsigned Trips = 0;
  /// Cells currently quarantined.
  unsigned Quarantined = 0;
  /// Cells with any state.
  unsigned Cells = 0;
};

/// The m-bucket of a residual cell: floor(log2 MessageBytes), with
/// m = 0 clamping to bucket 0 (there is no log2 of zero; a zero-byte
/// probe belongs in the smallest cell). Exposed so the clamp is
/// pinned by tests rather than implied by a loop's non-execution.
unsigned driftSizeBucket(std::uint64_t MessageBytes);

/// The drift sentinel: a mutex-guarded residual accumulator fed by
/// model/Runner's replay path (via the process-global install below)
/// or directly through observePair(). One instance watches one model
/// set; bind the models before feeding.
class DriftSentinel {
public:
  explicit DriftSentinel(DriftMode SentinelMode,
                         const DriftDetectorOptions &DetectorOptions = {});

  DriftMode mode() const { return Mode; }
  const DriftDetectorOptions &options() const { return Options; }

  /// Points the sentinel at the models whose predictions the replay
  /// feed is judged against. The pointer must outlive the feeding.
  void bindModels(const CalibratedModels *Models);
  const CalibratedModels *models() const;

  /// Commissioning: between begin and end, observations are recorded
  /// as each cell's healthy residual profile instead of being scored.
  /// endReferenceCapture() freezes the per-cell reference (the median
  /// of the captured residuals) and resets the detector dynamics, so
  /// subsequent feeding is judged as deviation from that profile.
  /// clearQuarantine() preserves the reference: a repair that
  /// restores the commissioned model is judged against the same
  /// yardstick. Hosts that repair into a genuinely new regime should
  /// re-capture.
  void beginReferenceCapture();
  void endReferenceCapture();

  /// Feeds one replay observation; the prediction comes from the
  /// bound models. No-op (returns false) when Off or unbound.
  /// Returns true when this observation tripped the cell.
  bool observe(BcastAlgorithm Alg, unsigned NumProcs,
               std::uint64_t MessageBytes, double ObservedSeconds);

  /// The explicit-pair feed (tests, offline replay). \p TripOut, if
  /// non-null, receives the trip record when the cell trips.
  bool observePair(BcastAlgorithm Alg, unsigned NumProcs,
                   std::uint64_t MessageBytes, double PredictedSeconds,
                   double ObservedSeconds, DriftTrip *TripOut = nullptr);

  /// Whether the cell covering (Alg, P, m) is quarantined. Cheap
  /// enough for the selection path: one map lookup under the mutex.
  bool isQuarantined(BcastAlgorithm Alg, unsigned NumProcs,
                     std::uint64_t MessageBytes) const;

  /// Whether *any* algorithm's cell at (P, m) is quarantined. This is
  /// what the robust selector consults: an argmin that consumed a
  /// quarantined (lying) prediction is untrustworthy no matter which
  /// algorithm it ranked first, so the whole (P, m) region degrades
  /// to the calibration-free fallback until repaired.
  bool anyQuarantined(unsigned NumProcs, std::uint64_t MessageBytes) const;

  /// Lifts the quarantine and resets the detector state of every cell
  /// of \p Alg -- called by repairDriftedCells() after a patch is
  /// accepted, so the repaired model is judged afresh.
  void clearQuarantine(BcastAlgorithm Alg);

  /// Every tripped (still unrepaired) cell, in cell-key order.
  std::vector<DriftTrip> trips() const;

  /// The algorithms with at least one tripped cell, in enum order.
  std::vector<BcastAlgorithm> trippedAlgorithms() const;

  DriftStats stats() const;

  /// Human-readable per-cell summary, one line per cell in cell-key
  /// order: bit-identical for any feeding thread count as long as
  /// each cell's samples arrive in a deterministic order.
  std::string report() const;

private:
  struct CellKey {
    unsigned Alg = 0;
    unsigned Procs = 0;
    unsigned Bucket = 0;
    bool operator<(const CellKey &O) const {
      if (Alg != O.Alg)
        return Alg < O.Alg;
      if (Procs != O.Procs)
        return Procs < O.Procs;
      return Bucket < O.Bucket;
    }
  };
  struct CellState {
    std::uint64_t MessageBytes = 0;
    unsigned Samples = 0;
    unsigned Screened = 0;
    double Score = 0.0;
    double Residual = 0.0;
    double Deviation = 0.0;
    /// Commissioned residual profile (median of the capture sweep).
    double Reference = 0.0;
    bool HasReference = false;
    bool Tripped = false;
    bool Quarantined = false;
    /// Residuals recorded during reference capture.
    std::vector<double> Captured;
    /// Recent deviations behind the MAD screen (ring, oldest first).
    std::vector<double> Ring;
    unsigned RingNext = 0;
  };

  bool observeLocked(const CellKey &Key, std::uint64_t MessageBytes,
                     double Residual, DriftTrip *TripOut);

  DriftMode Mode;
  DriftDetectorOptions Options;
  mutable std::mutex Mutex;
  const CalibratedModels *Bound = nullptr;
  bool Capturing = false;
  std::map<CellKey, CellState> Cells;
  std::uint64_t TotalSamples = 0;
  std::uint64_t TotalScreened = 0;
  unsigned TotalTrips = 0;
};

/// The process-global sentinel consulted by model/Runner (replay
/// feed) and model/RobustSelector (quarantine check). Mirrors the
/// fault-injection idiom: install returns the previous pointer, the
/// instance must stay valid until replaced, nullptr uninstalls.
DriftSentinel *setGlobalDriftSentinel(DriftSentinel *Sentinel);
DriftSentinel *globalDriftSentinel();

/// One-call host wiring for the MPICSEL_DRIFT environment variable:
/// `off` (or unset) installs nothing and returns null, so the process
/// stays bit-identical to a sentinel-free build; `warn`/`repair`
/// install a process-lifetime sentinel with that mode (latched on the
/// first installing call), bind it to \p Models and return it, so the
/// host can run its commissioning sweep (beginReferenceCapture) and,
/// under `repair`, drive repairDriftedCells() on trips. Hosts call
/// this right after obtaining the model set they serve.
DriftSentinel *installDriftSentinelFromEnv(const CalibratedModels *Models);

/// RAII installation for benches and tests.
class ScopedDriftSentinel {
public:
  explicit ScopedDriftSentinel(DriftSentinel &Sentinel)
      : Previous(setGlobalDriftSentinel(&Sentinel)) {}
  ~ScopedDriftSentinel() { setGlobalDriftSentinel(Previous); }
  ScopedDriftSentinel(const ScopedDriftSentinel &) = delete;
  ScopedDriftSentinel &operator=(const ScopedDriftSentinel &) = delete;

private:
  DriftSentinel *Previous;
};

/// Policy of one repair pass.
struct DriftRepairOptions {
  /// Recalibration attempts per violated algorithm before giving up;
  /// attempt k reseeds the measurement stream and grows the
  /// repetition budget by BackoffGrowth^k.
  unsigned MaxAttempts = 2;
  double BackoffGrowth = 2.0;
  /// How the post-patch audit verdict is applied: Strict rejects a
  /// patch whose violation count exceeds the pre-patch baseline,
  /// Warn accepts it with a journal record, Off skips the audit.
  AuditMode AuditPolicy = AuditMode::Warn;
  /// Grid of the patch audit; set Procs to the serving platform's
  /// range (the default grid reaches P=128).
  AuditOptions Audit;
  /// Test seam: replaces the measurement-based recalibration of one
  /// algorithm (arguments: algorithm, attempt). Used to inject
  /// defective patches.
  std::function<AlgorithmCalibration(BcastAlgorithm, unsigned)> Recalibrate;
};

/// What one repair pass did.
struct DriftRepairReport {
  unsigned CellsTripped = 0;
  unsigned AlgorithmsRepaired = 0;
  unsigned AlgorithmsGivenUp = 0;
  /// Total recalibration attempts consumed.
  unsigned Attempts = 0;
  /// Decision-table cells whose choice changed under the patch.
  unsigned TableCellsChanged = 0;
  /// Audit violations before / after the accepted patches.
  unsigned ViolationsBefore = 0;
  unsigned ViolationsAfter = 0;
  /// Cache key the patched models were stored under (empty when no
  /// cache was given or nothing was repaired).
  std::string ModelsKey;
  bool TableWritten = false;
};

/// Heals the model set behind \p Sentinel: for every algorithm with a
/// tripped cell, recalibrates *only that algorithm's* stage-2 system
/// (model/Calibration.h calibrateSingleAlgorithm -- same grid, same
/// seeds, so a healthy repair is bit-identical to a clean full pass
/// for that algorithm), audits the patched model set, and on
/// acceptance splices the patch into \p Models, lifts the quarantine,
/// rebuilds \p Table's choices, rewrites \p TableFile atomically
/// (when non-empty) and restores the DecisionCache models entry (when
/// \p Cache is non-null) under its content-hash key. A rejected
/// patch retries with reseed/backoff up to MaxAttempts, then the
/// algorithm is given up: journalled, counted, and its cells stay
/// quarantined (selection keeps degrading to the OMPI fallback --
/// degraded, never wrong).
DriftRepairReport repairDriftedCells(const Platform &Plat,
                                     const CalibrationOptions &Options,
                                     DriftSentinel &Sentinel,
                                     CalibratedModels &Models,
                                     DecisionTable &Table,
                                     DecisionCache *Cache = nullptr,
                                     const std::string &TableFile = {},
                                     const DriftRepairOptions &Repair = {});

} // namespace mpicsel

#endif // MPICSEL_DRIFT_DRIFT_H
