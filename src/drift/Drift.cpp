//===- drift/Drift.cpp - Online model-drift sentinel ----------------------===//

#include "drift/Drift.h"

#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

using namespace mpicsel;

const char *mpicsel::driftModeName(DriftMode Mode) {
  switch (Mode) {
  case DriftMode::Off:
    return "off";
  case DriftMode::Warn:
    return "warn";
  case DriftMode::Repair:
    return "repair";
  }
  return "unknown";
}

DriftMode mpicsel::driftModeFromEnv() {
  const char *Env = std::getenv("MPICSEL_DRIFT");
  if (!Env || !*Env || std::string(Env) == "off")
    return DriftMode::Off;
  const std::string Value(Env);
  if (Value == "warn")
    return DriftMode::Warn;
  if (Value == "repair")
    return DriftMode::Repair;
  fatalError("MPICSEL_DRIFT must be off, warn or repair (got '" + Value +
             "')");
}

//===----------------------------------------------------------------------===//
// Detection
//===----------------------------------------------------------------------===//

namespace {

/// floor(log2 m): the m-bucket of a cell. The paper's message sweep
/// doubles, so every calibrated size owns a distinct bucket.
unsigned sizeBucket(std::uint64_t MessageBytes) {
  // m = 0 has no log2; it clamps to bucket 0 explicitly so a
  // zero-byte residual lands in the smallest cell instead of relying
  // on the loop below happening to not run.
  if (MessageBytes == 0)
    return 0;
  unsigned Bucket = 0;
  while (MessageBytes >>= 1)
    ++Bucket;
  return Bucket;
}

} // namespace

unsigned mpicsel::driftSizeBucket(std::uint64_t MessageBytes) {
  return sizeBucket(MessageBytes);
}

namespace {

/// Symmetric relative error: 0 when the prediction is exact, 1 when
/// it is off by 2x in either direction. Degenerate inputs (zero,
/// negative, non-finite) count as maximally wrong -- a model that
/// predicts them has already drifted past arguing about.
double symmetricResidual(double Predicted, double Observed) {
  if (!std::isfinite(Predicted) || !std::isfinite(Observed) ||
      Predicted <= 0.0 || Observed <= 0.0)
    return 1e6;
  return std::max(Predicted / Observed, Observed / Predicted) - 1.0;
}

/// Median of a small sample (by copy; rings hold <= ScreenWindow
/// values).
double medianOf(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  const std::size_t N = Values.size();
  return N % 2 ? Values[N / 2]
               : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

} // namespace

DriftSentinel::DriftSentinel(DriftMode SentinelMode,
                             const DriftDetectorOptions &DetectorOptions)
    : Mode(SentinelMode), Options(DetectorOptions) {}

void DriftSentinel::bindModels(const CalibratedModels *Models) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Bound = Models;
}

const CalibratedModels *DriftSentinel::models() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Bound;
}

void DriftSentinel::beginReferenceCapture() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Capturing = true;
}

void DriftSentinel::endReferenceCapture() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Capturing = false;
  for (auto &Entry : Cells) {
    CellState &Cell = Entry.second;
    if (!Cell.Captured.empty()) {
      Cell.Reference = medianOf(Cell.Captured);
      Cell.HasReference = true;
      Cell.Captured.clear();
      Cell.Captured.shrink_to_fit();
    }
    Cell.Samples = 0;
    Cell.Screened = 0;
    Cell.Score = 0.0;
    Cell.Residual = 0.0;
    Cell.Deviation = 0.0;
    Cell.Ring.clear();
    Cell.RingNext = 0;
  }
}

bool DriftSentinel::observe(BcastAlgorithm Alg, unsigned NumProcs,
                            std::uint64_t MessageBytes,
                            double ObservedSeconds) {
  if (Mode == DriftMode::Off)
    return false;
  const CalibratedModels *M = models();
  if (!M)
    return false;
  const double Predicted = M->predict(Alg, NumProcs, MessageBytes);
  return observePair(Alg, NumProcs, MessageBytes, Predicted,
                     ObservedSeconds);
}

bool DriftSentinel::observePair(BcastAlgorithm Alg, unsigned NumProcs,
                                std::uint64_t MessageBytes,
                                double PredictedSeconds,
                                double ObservedSeconds, DriftTrip *TripOut) {
  if (Mode == DriftMode::Off)
    return false;
  obs::bump(obs::Counter::DriftSamples);
  CellKey Key;
  Key.Alg = static_cast<unsigned>(Alg);
  Key.Procs = NumProcs;
  Key.Bucket = sizeBucket(MessageBytes);
  const double Residual =
      symmetricResidual(PredictedSeconds, ObservedSeconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  return observeLocked(Key, MessageBytes, Residual, TripOut);
}

bool DriftSentinel::observeLocked(const CellKey &Key,
                                  std::uint64_t MessageBytes,
                                  double Residual, DriftTrip *TripOut) {
  CellState &Cell = Cells[Key];
  if (Cell.MessageBytes == 0)
    Cell.MessageBytes = MessageBytes;
  ++TotalSamples;

  // Commissioning: record the healthy residual profile, no scoring.
  if (Capturing) {
    Cell.Captured.push_back(Residual);
    return false;
  }

  // The scored quantity is the two-sided log-ratio deviation from the
  // commissioned residual profile (see the header): ~0 while the
  // model tracks as well as it did at commissioning, growing when it
  // gets worse *or* suspiciously better. Without a reference the
  // deviation degrades to log1p(residual), pure magnitude.
  const double Deviation =
      std::abs(std::log1p(Residual) -
               std::log1p(Cell.HasReference ? Cell.Reference : 0.0));

  // The MAD screen: with enough ring history, a deviation far from
  // the ring median is a lone spike (a noisy replay, not model drift)
  // and stays out of the score. It still enters the ring, so a
  // persistent regime change drags the median along and stops being
  // screened after ~half a window.
  bool Screened = false;
  if (Cell.Ring.size() >= 3) {
    const double Med = medianOf(Cell.Ring);
    std::vector<double> Dev;
    Dev.reserve(Cell.Ring.size());
    for (double R : Cell.Ring)
      Dev.push_back(std::abs(R - Med));
    const double Mad = 1.4826 * medianOf(std::move(Dev));
    Screened = Mad > 0.0 && std::abs(Deviation - Med) > Options.MadSigma * Mad;
  }
  if (Cell.Ring.size() < Options.ScreenWindow) {
    Cell.Ring.push_back(Deviation);
  } else {
    Cell.Ring[Cell.RingNext] = Deviation;
    Cell.RingNext = (Cell.RingNext + 1) % Options.ScreenWindow;
  }
  if (Screened) {
    ++Cell.Screened;
    ++TotalScreened;
    obs::bump(obs::Counter::DriftScreened);
    return false;
  }

  ++Cell.Samples;
  Cell.Residual = Residual;
  Cell.Deviation = Deviation;
  const double Excess = Deviation - Options.Deadband;
  if (Excess > 0.0)
    Cell.Score += Excess;
  else
    Cell.Score = std::max(0.0, Cell.Score - Options.Leak);

  if (Cell.Tripped || Cell.Samples < Options.MinSamples ||
      Cell.Score < Options.TripThreshold)
    return false;

  Cell.Tripped = true;
  Cell.Quarantined = Mode == DriftMode::Repair;
  ++TotalTrips;
  obs::bump(obs::Counter::DriftTrips);
  obs::Journal &J = obs::Journal::global();
  if (J.enabled()) {
    JsonObject Event = J.line("drift_trip");
    Event.set("alg", bcastAlgorithmName(static_cast<BcastAlgorithm>(Key.Alg)));
    Event.set("procs", Key.Procs);
    Event.set("bucket", Key.Bucket);
    Event.set("message_bytes", Cell.MessageBytes);
    Event.set("score", Cell.Score);
    Event.set("residual", Cell.Residual);
    Event.set("deviation", Cell.Deviation);
    Event.set("reference", Cell.Reference);
    Event.set("samples", Cell.Samples);
    Event.set("quarantined", Cell.Quarantined);
    J.write(Event);
  }
  if (TripOut) {
    TripOut->Algorithm = static_cast<BcastAlgorithm>(Key.Alg);
    TripOut->NumProcs = Key.Procs;
    TripOut->SizeBucket = Key.Bucket;
    TripOut->MessageBytes = Cell.MessageBytes;
    TripOut->Score = Cell.Score;
    TripOut->Residual = Cell.Residual;
    TripOut->Deviation = Cell.Deviation;
    TripOut->Samples = Cell.Samples;
  }
  return true;
}

bool DriftSentinel::isQuarantined(BcastAlgorithm Alg, unsigned NumProcs,
                                  std::uint64_t MessageBytes) const {
  CellKey Key;
  Key.Alg = static_cast<unsigned>(Alg);
  Key.Procs = NumProcs;
  Key.Bucket = sizeBucket(MessageBytes);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Cells.find(Key);
  return It != Cells.end() && It->second.Quarantined;
}

bool DriftSentinel::anyQuarantined(unsigned NumProcs,
                                   std::uint64_t MessageBytes) const {
  CellKey Key;
  Key.Procs = NumProcs;
  Key.Bucket = sizeBucket(MessageBytes);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (unsigned Alg = 0; Alg != NumBcastAlgorithms; ++Alg) {
    Key.Alg = Alg;
    auto It = Cells.find(Key);
    if (It != Cells.end() && It->second.Quarantined)
      return true;
  }
  return false;
}

void DriftSentinel::clearQuarantine(BcastAlgorithm Alg) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Cells) {
    if (Entry.first.Alg != static_cast<unsigned>(Alg))
      continue;
    CellState &Cell = Entry.second;
    Cell.Tripped = false;
    Cell.Quarantined = false;
    Cell.Score = 0.0;
    Cell.Residual = 0.0;
    Cell.Deviation = 0.0;
    Cell.Samples = 0;
    Cell.Screened = 0;
    Cell.Ring.clear();
    Cell.RingNext = 0;
    // The commissioned reference survives: a healthy repair restores
    // the model the profile was captured against.
  }
}

std::vector<DriftTrip> DriftSentinel::trips() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<DriftTrip> Out;
  for (const auto &Entry : Cells) {
    const CellState &Cell = Entry.second;
    if (!Cell.Tripped)
      continue;
    DriftTrip T;
    T.Algorithm = static_cast<BcastAlgorithm>(Entry.first.Alg);
    T.NumProcs = Entry.first.Procs;
    T.SizeBucket = Entry.first.Bucket;
    T.MessageBytes = Cell.MessageBytes;
    T.Score = Cell.Score;
    T.Residual = Cell.Residual;
    T.Deviation = Cell.Deviation;
    T.Samples = Cell.Samples;
    Out.push_back(T);
  }
  return Out;
}

std::vector<BcastAlgorithm> DriftSentinel::trippedAlgorithms() const {
  std::array<bool, NumBcastAlgorithms> Seen{};
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &Entry : Cells)
      if (Entry.second.Tripped)
        Seen[Entry.first.Alg] = true;
  }
  std::vector<BcastAlgorithm> Out;
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    if (Seen[static_cast<unsigned>(Alg)])
      Out.push_back(Alg);
  return Out;
}

DriftStats DriftSentinel::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  DriftStats S;
  S.Samples = TotalSamples;
  S.Screened = TotalScreened;
  S.Trips = TotalTrips;
  S.Cells = static_cast<unsigned>(Cells.size());
  for (const auto &Entry : Cells)
    S.Quarantined += Entry.second.Quarantined ? 1 : 0;
  return S;
}

std::string DriftSentinel::report() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out;
  for (const auto &Entry : Cells) {
    const CellState &Cell = Entry.second;
    Out += strFormat(
        "%-14s P=%-4u bucket=%-2u samples=%-3u screened=%-2u ref=%-9.3g "
        "dev=%-9.3g score=%.9g",
        bcastAlgorithmName(static_cast<BcastAlgorithm>(Entry.first.Alg)),
        Entry.first.Procs, Entry.first.Bucket, Cell.Samples, Cell.Screened,
        Cell.HasReference ? Cell.Reference : 0.0, Cell.Deviation, Cell.Score);
    if (Cell.Tripped)
      Out += Cell.Quarantined ? "  TRIPPED quarantined" : "  TRIPPED";
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Global installation
//===----------------------------------------------------------------------===//

namespace {
std::atomic<DriftSentinel *> GlobalSentinel{nullptr};
} // namespace

DriftSentinel *mpicsel::setGlobalDriftSentinel(DriftSentinel *Sentinel) {
  return GlobalSentinel.exchange(Sentinel, std::memory_order_acq_rel);
}

DriftSentinel *mpicsel::globalDriftSentinel() {
  return GlobalSentinel.load(std::memory_order_acquire);
}

DriftSentinel *
mpicsel::installDriftSentinelFromEnv(const CalibratedModels *Models) {
  const DriftMode Mode = driftModeFromEnv();
  if (Mode == DriftMode::Off)
    return nullptr;
  // Process-lifetime storage; the mode is latched by the first
  // installing call (the environment does not change mid-process).
  static DriftSentinel Sentinel(Mode);
  Sentinel.bindModels(Models);
  setGlobalDriftSentinel(&Sentinel);
  return &Sentinel;
}

//===----------------------------------------------------------------------===//
// Targeted repair
//===----------------------------------------------------------------------===//

DriftRepairReport mpicsel::repairDriftedCells(
    const Platform &Plat, const CalibrationOptions &Options,
    DriftSentinel &Sentinel, CalibratedModels &Models, DecisionTable &Table,
    DecisionCache *Cache, const std::string &TableFile,
    const DriftRepairOptions &Repair) {
  DriftRepairReport Report;
  Report.CellsTripped = static_cast<unsigned>(Sentinel.trips().size());
  const std::vector<BcastAlgorithm> Violated = Sentinel.trippedAlgorithms();
  if (Violated.empty())
    return Report;

  const bool Auditing = Repair.AuditPolicy != AuditMode::Off;
  if (Auditing)
    Report.ViolationsBefore =
        auditModels(Models, Repair.Audit).violations();
  Report.ViolationsAfter = Report.ViolationsBefore;

  obs::Journal &J = obs::Journal::global();
  for (BcastAlgorithm Alg : Violated) {
    bool Repaired = false;
    unsigned AttemptsUsed = 0;
    for (unsigned Attempt = 0; Attempt != Repair.MaxAttempts; ++Attempt) {
      ++Report.Attempts;
      AttemptsUsed = Attempt + 1;
      CalibrationOptions AttemptOptions = Options;
      if (Attempt != 0 && AttemptOptions.Quality.Enabled)
        AttemptOptions.Quality.BackoffGrowth = Repair.BackoffGrowth;
      AlgorithmCalibration Fresh =
          Repair.Recalibrate
              ? Repair.Recalibrate(Alg, Attempt)
              : calibrateSingleAlgorithm(Plat, AttemptOptions, Models.Gamma,
                                         Alg, Attempt);
      CalibratedModels Candidate = Models;
      Candidate.Algorithms[static_cast<unsigned>(Alg)] = Fresh;
      Candidate.Algorithms[static_cast<unsigned>(Alg)].Algorithm = Alg;

      unsigned After = 0;
      if (Auditing)
        After = auditModels(Candidate, Repair.Audit).violations();
      const bool Introduced = After > Report.ViolationsBefore;
      if (Introduced && Repair.AuditPolicy == AuditMode::Strict)
        continue; // Rejected; the next attempt reseeds and backs off.

      Models = std::move(Candidate);
      Report.ViolationsAfter = After;
      Sentinel.clearQuarantine(Alg);
      ++Report.AlgorithmsRepaired;
      obs::bump(obs::Counter::DriftRepairs);
      if (J.enabled()) {
        JsonObject Event = J.line("drift_repair");
        Event.set("alg", bcastAlgorithmName(Alg));
        Event.set("attempts", AttemptsUsed);
        Event.set("violations_before", Report.ViolationsBefore);
        Event.set("violations_after", After);
        J.write(Event);
      }
      Repaired = true;
      break;
    }
    if (!Repaired) {
      ++Report.AlgorithmsGivenUp;
      obs::bump(obs::Counter::DriftGiveups);
      if (J.enabled()) {
        JsonObject Event = J.line("drift_giveup");
        Event.set("alg", bcastAlgorithmName(Alg));
        Event.set("attempts", AttemptsUsed);
        J.write(Event);
      }
    }
  }

  if (Report.AlgorithmsRepaired == 0)
    return Report;

  // The atomic swap: rebuild the choices from the patched models and
  // publish -- writeDecisionTableFile goes through temp + rename, so
  // a concurrent reader sees either the old table or the repaired
  // one, never a half-patched file. The models entry is restored
  // under its content-hash key: a healthy repair reproduces what a
  // clean calibration would have stored.
  DecisionTable Patched =
      buildDecisionTable(Models, Table.Procs, Table.MessageSizes);
  const TableDiff Diff = diffDecisionTables(Table, Patched);
  Report.TableCellsChanged = static_cast<unsigned>(Diff.Changed.size());
  Table = std::move(Patched);
  if (!TableFile.empty())
    Report.TableWritten = writeDecisionTableFile(TableFile, Table);
  if (Cache) {
    Report.ModelsKey = DecisionCache::calibrationKey(Plat, Options);
    Cache->storeModels(Report.ModelsKey, Models);
  }
  // Hand the repaired table to the serving layer (when one is
  // installed): readers of the decision service observe the swap
  // atomically, closing the detect -> repair -> serve loop without a
  // local recalibration on their side.
  notifyTablePublish(Table, "drift_repair");
  return Report;
}
