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
/// first repetitions of one measurement (model/Runner.h) -- inside a
/// sweep's task too, on the helpers the sweep does not seat.
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
#include <memory>
#include <thread>
#include <vector>

namespace mpicsel {

/// Helper threads that join their callers' batches of independent
/// tasks: the caller runs tasks too, and each helper claims the next
/// one not yet taken, so a batch of N tasks runs on up to N threads.
/// Each thread of a batch sits in a seat, the caller in seat 0.
///
/// Two levels of batches run at once. A top-level batch -- one started
/// outside any batch -- seats helper k in seat k, which it takes only
/// in batches of more than k seats. A batch started inside a top-level
/// batch's task is nested: it can seat the helpers the top-level batch
/// does not, and the ones that have run out of its tasks. They join in
/// any order, each in its own seat 1..n-1, at most once per round. A
/// measurement's first repetitions inside a sweep's task are the usual
/// nested batch. A batch started inside a nested batch's task runs on
/// its caller alone. So no more threads run tasks than the pool has,
/// the caller's included.
///
/// Tasks are handed out through one atomic claim word per running
/// batch, and a caller waits only for tasks a helper has already
/// claimed, never for a helper to pick one up. When the helpers are
/// busy, slow to wake or absent, the caller runs the whole batch
/// itself. A forked child (a gtest death test) inherits the pool
/// object but none of its threads, and still finishes: no lock sits on
/// the caller's path that the fork could have copied in the held state.
/// Such a child must leave through _exit or abort, as death tests do:
/// the pool's destructor joins the helpers, which the child does not
/// have.
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
  /// most \p MaxSeats: min(Count, MaxSeats, helpers + 1) at top level;
  /// inside a top-level batch's task, the same with helpers + 1 cut to
  /// one more than the helpers that batch does not seat; 1 inside a
  /// nested batch's task.
  unsigned seats(std::size_t Count, unsigned MaxSeats = UINT_MAX) const;

  /// The task of a batch: Task(I, Seat) runs task I in seat Seat.
  using BatchTask = std::function<void(std::size_t, unsigned)>;

  /// Runs \p Task for tasks 0..Count-1, each exactly once, in seats
  /// below seats(Count, MaxSeats), and returns when all have finished.
  /// While another caller's top-level batch holds the helpers, the
  /// caller runs every task in seat 0. Tasks must not throw.
  void run(std::size_t Count, const BatchTask &Task,
           unsigned MaxSeats = UINT_MAX);

  /// True on a helper thread of any pool.
  static bool onHelperThread();

private:
  /// The hand-out state of one running batch. Lane 0 holds the
  /// top-level batch, lane 1 + s the batch started inside the task that
  /// top-level seat s runs; each seat runs one task at a time, so no
  /// two running batches share a lane.
  struct alignas(64) Lane {
    /// Round number (bits 32-63), task count (bits 16-31) and next
    /// unclaimed task (bits 0-15) of the current round, in one word so
    /// that a claim succeeds only against the round it read.
    std::atomic<std::uint64_t> Claim{0};
    /// Round number (bits 32-63), the batch's seats (bits 16-31) and,
    /// in a nested lane, the helper seats taken this round (bits 0-15):
    /// a helper takes a seat only against the round it read.
    std::atomic<std::uint64_t> Seating{0};
    /// Tasks of the current round that have finished.
    std::atomic<std::uint32_t> Finished{0};
    /// The batch's task and the index of the current round's first
    /// task; written by the caller before the round is published, read
    /// by a helper only after a successful claim.
    const BatchTask *Task = nullptr;
    std::size_t First = 0;
  };

  void helperLoop(unsigned Seat);
  /// Runs \p Count tasks of \p Task in \p L over \p BatchSeats seats,
  /// round by round.
  void runBatch(Lane &L, std::size_t Count, const BatchTask &Task,
                unsigned BatchSeats);
  /// Hands out the tasks First..First+Count-1 of \p L's batch as one
  /// round and returns when all have finished.
  void runRound(Lane &L, unsigned BatchSeats, std::size_t First,
                std::uint32_t Count);
  /// Claims and runs tasks of round \p Round of \p L from \p Seat until
  /// none is left.
  void work(Lane &L, std::uint32_t Round, unsigned Seat);
  /// One pass of helper \p Seat over the lanes: its seat of the
  /// top-level batch first, then a free seat of each nested batch.
  void serve(unsigned Seat);

  /// Bumped after every round is published; helpers sleep on it.
  std::atomic<std::uint32_t> Epoch{0};
  /// The last round number handed out, over all lanes.
  std::atomic<std::uint32_t> Rounds{0};
  /// Held by the caller whose top-level batch owns lane 0.
  std::atomic<bool> Busy{false};
  std::atomic<bool> Stopping{false};
  /// helpers + 2 lanes: the top-level one and one per top-level seat.
  unsigned NumLanes;
  std::unique_ptr<Lane[]> Lanes;
  /// Declared last: the helpers use every member above.
  std::vector<std::thread> Helpers;
};

} // namespace mpicsel

#endif // MPICSEL_SUPPORT_THREADPOOL_H
