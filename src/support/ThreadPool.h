//===- support/ThreadPool.h - The process-wide helper pool -----*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one pool of worker threads in the process. HelperPool::global()
/// runs both kinds of parallel work: the measurement sweeps
/// (stat/ParallelSweep.h), with at most their `Threads` seats, and the
/// first repetitions of one measurement (model/Runner.h).
///
/// The pool executes opaque tasks and makes no determinism promises
/// itself; determinism is the *caller's* job, and the sweeps and
/// measurements built on top get it by deriving every task's seed
/// from its index and collecting results by index.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_SUPPORT_THREADPOOL_H
#define MPICSEL_SUPPORT_THREADPOOL_H

#include <atomic>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace mpicsel {

/// Helper threads that join one caller's batch of independent tasks:
/// the caller runs tasks too, and each helper claims the next one not
/// yet taken, so a batch of N tasks runs on up to N threads. Each
/// thread of a batch sits in a seat: the caller in seat 0, helper k in
/// seat k, which it takes only in batches of more than k seats.
///
/// Tasks are handed out through one atomic claim word, and the caller
/// waits only for tasks a helper has already claimed, never for a
/// helper to pick one up. When the helpers are busy, slow to wake or
/// absent, the caller runs the whole batch itself. A forked child (a
/// gtest death test) inherits the pool object but none of its threads,
/// and still finishes: no lock sits on the caller's path that the fork
/// could have copied in the held state. Such a child must leave
/// through _exit or abort, as death tests do: the pool's destructor
/// joins the helpers, which the child does not have.
///
/// A batch started inside a batch's task -- a measurement inside a
/// sweep, or a sweep inside a sweep -- runs on its caller alone: the
/// outer batch already occupies the seats.
class HelperPool {
public:
  /// The process-wide pool: one helper per hardware thread beyond the
  /// caller's, started on first use and joined at exit.
  static HelperPool &global();

  /// Starts \p NumHelpers helper threads (0 is allowed: every batch
  /// then runs on its caller).
  explicit HelperPool(unsigned NumHelpers);
  ~HelperPool();

  HelperPool(const HelperPool &) = delete;
  HelperPool &operator=(const HelperPool &) = delete;

  /// The most tasks one claim word hands out; run() hands a larger
  /// batch out in rounds of this size.
  static constexpr std::size_t MaxBatch = 0xFFFF;

  /// The seats a batch of \p Count tasks run from this thread uses, at
  /// most \p MaxSeats: min(Count, MaxSeats, helpers + 1), or 1 inside
  /// a batch's task.
  unsigned seats(std::size_t Count, unsigned MaxSeats = UINT_MAX) const;

  /// The task of a batch: Task(I, Seat) runs task I in seat Seat.
  using BatchTask = std::function<void(std::size_t, unsigned)>;

  /// Runs \p Task for tasks 0..Count-1, each exactly once, in seats
  /// below seats(Count, MaxSeats), and returns when all have finished.
  /// While another caller's batch holds the helpers, the caller runs
  /// every task in seat 0. Tasks must not throw.
  void run(std::size_t Count, const BatchTask &Task,
           unsigned MaxSeats = UINT_MAX);

private:
  void helperLoop(unsigned Seat);
  /// Hands out the tasks First..First+Count-1 of the held batch as one
  /// round and returns when all have finished.
  void runRound(std::size_t First, std::uint32_t Count);
  /// Claims and runs tasks of round \p Round from \p Seat until none is
  /// left or the batch has no more than Seat seats.
  void work(std::uint32_t Round, unsigned Seat);

  /// Round number (bits 32-63), task count (bits 16-31) and next
  /// unclaimed task (bits 0-15) of the current round, in one word so
  /// that a claim succeeds only against the round it read.
  std::atomic<std::uint64_t> Claim{0};
  /// The latest round number; helpers sleep on it.
  std::atomic<std::uint32_t> Epoch{0};
  /// Tasks of the current round that have finished.
  std::atomic<std::uint32_t> Finished{0};
  /// Seats of the current batch; written before its first round is
  /// published, read by a helper before it claims.
  std::atomic<unsigned> Seats{0};
  /// Held by the caller whose batch owns the helpers.
  std::atomic<bool> Busy{false};
  std::atomic<bool> Stopping{false};
  /// The current batch's task and the index of the current round's
  /// first task; written by the caller before the round is published,
  /// read by a helper only after a successful claim.
  const BatchTask *Task = nullptr;
  std::size_t First = 0;
  /// Declared last: the helpers use every member above.
  std::vector<std::thread> Helpers;
};

} // namespace mpicsel

#endif // MPICSEL_SUPPORT_THREADPOOL_H
