//===- mpi/ScheduleIntern.h - Compiled-schedule interning -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of the compiled schedules that measurements
/// are replaying right now. The paper's method runs many repetitions
/// per (collective, algorithm, P, m, segment) grid point -- calibration
/// trains, gamma experiments, selection sweeps -- and every repetition
/// of one point executes the *same* schedule with a different seed. A
/// measurement interns its schedule once, replays every repetition
/// from the reference it holds, and drops it when it returns;
/// concurrent measurements of one shape (on different ParallelSweep
/// workers) share the same immutable CompiledSchedule.
///
/// Keys are explicit strings assembled by the caller from everything
/// that determines the schedule's shape (collective, algorithm, rank
/// count, message size, segment size, root, fanout, tag, call count).
/// Entries are weak: the cache keeps a schedule only while some caller
/// still holds its reference, so the resident schedules are bounded by
/// the measurements in flight, not by the grid points ever touched.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MPI_SCHEDULEINTERN_H
#define MPICSEL_MPI_SCHEDULEINTERN_H

#include "mpi/CompiledSchedule.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace mpicsel {

/// What a schedule generator produces for one grid point: the schedule
/// plus the exit ops the experiment's timer reads (the observation is
/// the latest of their completion times).
struct BuiltSchedule {
  Schedule S;
  std::vector<OpId> Exit;
};

/// One cache entry: the compiled schedule and its exit ops. Immutable
/// after construction; shared across threads.
struct InternedSchedule {
  CompiledSchedule Compiled;
  std::vector<OpId> Exit;
};

using InternedScheduleRef = std::shared_ptr<const InternedSchedule>;

/// Thread-safe interning cache of weak entries. Lookups take a mutex;
/// misses build and compile *outside* the lock (so concurrent workers
/// hitting distinct keys never serialise on schedule construction) and
/// insert-if-absent afterwards -- the loser of a racing build discards
/// its copy and adopts the winner's entry, which is identical because
/// schedule generation is deterministic in the key. An entry whose
/// last reference was dropped is dead: the next intern of its key
/// builds again, and insertions sweep dead entries out of the map.
class ScheduleInternCache {
public:
  /// Cache observability for tests and tools.
  struct CacheStats {
    std::uint64_t Hits = 0;
    /// Times a schedule was built (a lost insertion race counts as a
    /// miss too: the build did happen).
    std::uint64_t Misses = 0;
    /// Live entries: schedules some caller still references.
    std::size_t Entries = 0;
  };

  /// The process-wide instance shared by all sweeps.
  static ScheduleInternCache &global();

  /// Returns the entry for \p Key, invoking \p Build exactly when no
  /// live entry exists. \p Build must be a pure function of the key.
  /// The entry stays shared only while the returned reference (or a
  /// copy) is held.
  template <typename BuildFn>
  InternedScheduleRef intern(const std::string &Key, BuildFn &&Build) {
    if (InternedScheduleRef Hit = lookup(Key))
      return Hit;
    BuiltSchedule B = Build();
    auto Entry = std::make_shared<InternedSchedule>(InternedSchedule{
        compileSchedule(std::move(B.S)), std::move(B.Exit)});
    return insert(Key, std::move(Entry));
  }

  CacheStats stats() const;

  /// Forgets every entry and resets the counters (in-flight references
  /// stay valid).
  void clear();

private:
  InternedScheduleRef lookup(const std::string &Key);
  InternedScheduleRef insert(const std::string &Key, InternedScheduleRef Entry);

  mutable std::mutex Lock;
  std::unordered_map<std::string, std::weak_ptr<const InternedSchedule>>
      Entries;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
};

} // namespace mpicsel

#endif // MPICSEL_MPI_SCHEDULEINTERN_H
