//===- model/DecisionCache.h - Persistent calibration memoisation -*- C++ -*-=//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disk-persisted memoisation of the calibration pass, and the
/// decision table with its file formats. Calibration is the dominant
/// wall-clock cost of every bench and tool invocation, yet its result
/// is a pure function of (platform, calibration options, active fault
/// scenario) -- exactly the inputs folded into the cache key's content
/// hash, so a repeated invocation skips recalibration entirely and a
/// *changed* input never matches a stale entry (invalidation by
/// construction; there is nothing to expire).
///
/// Entries are small versioned text files, one per key, with doubles
/// stored as C99 hex-floats so the round-trip is bit-exact: a cache
/// hit yields the same CalibratedModels, bit for bit, that the
/// calibration pass would produce. The directory is chosen by (in
/// precedence order) the constructor argument, the MPICSEL_CACHE_DIR
/// environment variable, and the default `.mpicsel-cache/` under the
/// current working directory.
///
/// Only models are cached. A decision table is rebuilt from them in
/// microseconds (buildDecisionTable); tools hand tables to each other
/// as files (writeDecisionTableFile / readDecisionTableFile), and the
/// serving layer takes them through the publish hook below.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_DECISIONCACHE_H
#define MPICSEL_MODEL_DECISIONCACHE_H

#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Collective.h"
#include "model/Calibration.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mpicsel {

/// Hit/miss counters of one DecisionCache instance, reported by the
/// bench `--json` records.
struct DecisionCacheStats {
  unsigned Hits = 0;
  unsigned Misses = 0;
  unsigned Stores = 0;
  /// Entries that were read successfully but failed to parse; every
  /// corrupt entry is also counted as a miss.
  unsigned Corrupt = 0;
};

/// The model-based selection evaluated over an explicit (P, m) grid:
/// the runtime decision procedure flattened into a lookup table, the
/// deployable artifact of the paper's method (cf. Open MPI's tuned
/// decision tables). Cheap to rebuild from CalibratedModels, so only
/// the models are cached; tools exchange tables as files
/// (writeDecisionTableFile / readDecisionTableFile).
struct DecisionTable {
  /// Which collective's algorithm registry the ordinals in Choice
  /// index (coll/Collective.h). Tables of different collectives are
  /// never comparable, whatever their grids.
  CollectiveOp Collective = CollectiveOp::Bcast;
  std::vector<unsigned> Procs;
  std::vector<std::uint64_t> MessageSizes;
  /// Row-major over (Procs x MessageSizes); each entry is an
  /// algorithm ordinal of Collective, always <
  /// collectiveAlgorithmCount(Collective).
  std::vector<unsigned> Choice;

  unsigned at(std::size_t ProcIndex, std::size_t SizeIndex) const {
    return Choice[ProcIndex * MessageSizes.size() + SizeIndex];
  }
  /// The registered name of the cell at (row, col).
  const char *nameAt(std::size_t ProcIndex, std::size_t SizeIndex) const {
    return collectiveAlgorithmName(Collective, at(ProcIndex, SizeIndex));
  }
};

/// Evaluates selectBest of \p Models over the grid, tagged with the
/// models' collective.
template <typename AlgT>
DecisionTable buildDecisionTable(const CollectiveModels<AlgT> &Models,
                                 std::vector<unsigned> Procs,
                                 std::vector<std::uint64_t> MessageSizes) {
  DecisionTable T;
  T.Collective = CollectiveDescriptor<AlgT>::Op;
  T.Procs = std::move(Procs);
  T.MessageSizes = std::move(MessageSizes);
  T.Choice.reserve(T.Procs.size() * T.MessageSizes.size());
  for (unsigned P : T.Procs)
    for (std::uint64_t M : T.MessageSizes)
      T.Choice.push_back(static_cast<unsigned>(Models.selectBest(P, M)));
  return T;
}

/// buildDecisionTable for the symmetric collectives.
DecisionTable
buildAllgatherDecisionTable(const CollectiveModels<AllgatherAlgorithm> &Models,
                            std::vector<unsigned> Procs,
                            std::vector<std::uint64_t> BlockSizes);
DecisionTable
buildAllreduceDecisionTable(const CollectiveModels<AllreduceAlgorithm> &Models,
                            std::vector<unsigned> Procs,
                            std::vector<std::uint64_t> MessageSizes);

/// A directory of memoised calibration results.
class DecisionCache {
public:
  /// \p Directory empty selects MPICSEL_CACHE_DIR, falling back to
  /// ".mpicsel-cache". The directory is created lazily on the first
  /// store.
  explicit DecisionCache(std::string Directory = "");

  /// Journals this instance's final hit/miss/store/corrupt tally as a
  /// `cache_stats` event (when the run journal is open and anything
  /// happened), so offline tools can correlate repairs with cache
  /// churn without parsing bench --json records. Non-copyable so the
  /// tally is emitted exactly once per instance.
  ~DecisionCache();
  DecisionCache(const DecisionCache &) = delete;
  DecisionCache &operator=(const DecisionCache &) = delete;

  const std::string &directory() const { return Dir; }

  /// The content-hash key of a calibration request: a stable hex
  /// digest of the platform, every result-affecting calibration
  /// option (Threads is excluded -- the sweep is bit-identical for
  /// any thread count), the active global fault scenario, and the
  /// entry-format version.
  static std::string calibrationKey(const Platform &P,
                                    const CalibrationOptions &Options);

  /// Loads the entry of \p Key into \p Out. Returns false (and leaves
  /// \p Out untouched) when the entry is absent, unreadable or
  /// malformed -- a corrupt file is treated as a miss, never an error.
  bool loadModels(const std::string &Key, CalibratedModels &Out);

  /// Persists an entry under \p Key (write-to-temp + rename, so a
  /// concurrent reader never observes a half-written file). Returns
  /// false when the directory or file cannot be written.
  bool storeModels(const std::string &Key, const CalibratedModels &Models);

  /// Deletes every cache entry in the directory; returns the number
  /// removed.
  unsigned clear();

  const DecisionCacheStats &stats() const { return Stats; }

private:
  std::string entryPath(const char *Kind, const std::string &Key) const;

  std::string Dir;
  DecisionCacheStats Stats;
};

/// calibrate() with memoisation: returns the cached CalibratedModels
/// when \p Cache holds an entry for this request, otherwise runs the
/// calibration and stores the result. On a hit the models are
/// bit-identical to what the pass would compute; \p Report (if
/// non-null) is default-initialised on a hit, since quality records
/// describe a measurement campaign that did not run.
///
/// Every returned model set -- fresh or cache hit -- passes through
/// the post-calibration audit (audit/Audit.h): a cached entry that
/// parses cleanly but violates the performance guidelines is reported
/// (MPICSEL_AUDIT=warn, the default) or rejected fatally
/// (MPICSEL_AUDIT=strict) instead of being served silently.
CalibratedModels calibrateCached(const Platform &P,
                                 const CalibrationOptions &Options,
                                 DecisionCache &Cache,
                                 CalibrationReport *Report = nullptr);

/// File-level entry IO for tools (modellint --diff / --dump-table):
/// the same versioned text formats the cache stores, read from and
/// written to explicit paths. The readers fail softly (false on a
/// missing, unreadable or malformed file).
bool readCalibratedModelsFile(const std::string &Path, CalibratedModels &Out);
bool readDecisionTableFile(const std::string &Path, DecisionTable &Out);
bool writeDecisionTableFile(const std::string &Path, const DecisionTable &T);
/// Writes \p Models in the cache's versioned text format (temp +
/// rename); the drift-repair sweep uses it to hand patched models to
/// modellint.
bool writeCalibratedModelsFile(const std::string &Path,
                               const CalibratedModels &Models);

//===----------------------------------------------------------------------===//
// Table publication hook
//===----------------------------------------------------------------------===//

/// Callback invoked whenever a fresh decision table becomes
/// authoritative: after a calibration (cached or fresh) and after a
/// drift repair rebuilds the table. \p Origin names the producing
/// path ("calibrate", "drift_repair", ...). The serving layer
/// (serve/DecisionService.h) installs itself here so repaired tables
/// reach readers without the model library depending on serve --
/// the hook is a plain function pointer precisely so this header
/// stays free of any serve type.
using TablePublishHook = void (*)(const DecisionTable &Table,
                                  const char *Origin);

/// Installs \p Hook (nullptr uninstalls); returns the previous hook.
TablePublishHook setTablePublishHook(TablePublishHook Hook);

/// The currently installed hook, or nullptr.
TablePublishHook tablePublishHook();

/// Invokes the installed hook with (\p Table, \p Origin); a no-op
/// when none is installed. Publication is a cold path: the hook may
/// write files and take locks.
void notifyTablePublish(const DecisionTable &Table, const char *Origin);

} // namespace mpicsel

#endif // MPICSEL_MODEL_DECISIONCACHE_H
