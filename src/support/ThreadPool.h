//===- support/ThreadPool.h - Work-stealing thread pool --------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the measurement sweeps. Each
/// worker owns a deque; submitted tasks are distributed round-robin
/// and an idle worker steals from the front of its siblings' deques,
/// so a sweep whose tasks have wildly different costs (large-message
/// calibration experiments next to tiny ones) still load-balances.
///
/// The pool executes opaque thunks and makes no determinism promises
/// itself; determinism is the *caller's* job and the sweeps built on
/// top (stat/ParallelSweep.h) get it by deriving every task's seed
/// from its index and collecting results by index.
///
/// HelperPool, below, is the process-wide crew that lets one caller
/// spread a small batch (a measurement's first repetitions) over the
/// idle cores.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_SUPPORT_THREADPOOL_H
#define MPICSEL_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mpicsel {

/// A fixed-size work-stealing pool. Construction spawns the workers;
/// destruction drains outstanding tasks and joins them. Tasks must
/// not throw (the library aborts on invariant violations instead of
/// raising) and must not submit to the pool they run on's wait()er.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers. 0 is clamped to 1.
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues \p Task for execution on some worker.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished executing.
  void wait();

  /// The thread count requested via the MPICSEL_THREADS environment
  /// variable: a positive integer, or "max" for the hardware
  /// concurrency. Unset, empty, malformed, zero ("0", "00") or
  /// absurdly large (> 100000) values all mean 1 (serial).
  static unsigned threadCountFromEnvironment();

private:
  /// One worker's deque. A worker pops from the back of its own
  /// queue (LIFO: cache-warm) and steals from the front of others'
  /// (FIFO: oldest, largest-granularity work first).
  struct WorkerQueue {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  void workerLoop(unsigned WorkerIndex);
  bool popOwn(unsigned WorkerIndex, std::function<void()> &TaskOut);
  bool stealOther(unsigned WorkerIndex, std::function<void()> &TaskOut);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  /// Guards the sleep/wake protocol and the completion count.
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  std::size_t Pending = 0; // submitted, not yet finished
  std::size_t NextQueue = 0;
  bool ShuttingDown = false;
};

/// Helper threads that join one caller's batch of independent tasks:
/// the caller runs tasks too, and each helper claims the next one not
/// yet taken, so a batch of N tasks runs on up to N threads. Each
/// thread of a batch sits in a seat: the caller in seat 0, helper k in
/// seat k, which it takes only in batches of more than k tasks.
///
/// Why not ThreadPool: ThreadPool::wait() returns only once every
/// submitted task has run, so its caller depends on the workers
/// picking the tasks up. A HelperPool caller does not. Tasks are
/// handed out through one atomic claim word, and the caller waits only
/// for tasks a helper has already claimed. When the helpers are busy,
/// slow to wake or absent, the caller runs the whole batch itself. A
/// forked child (a gtest death test) inherits the pool object but none
/// of its threads, and still finishes: no lock sits on the caller's
/// path that the fork could have copied in the held state. Such a
/// child must leave through _exit or abort, as death tests do: the
/// pool's destructor joins the helpers, which the child does not have.
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

  /// The largest batch the helpers take part in.
  static constexpr std::size_t MaxBatch = 0xFFFF;

  /// The seats a batch of \p Count tasks run from this thread may use:
  /// min(Count, helpers + 1), or 1 when the caller runs the whole
  /// batch -- on a ThreadPool worker (a parallel sweep already
  /// occupies the cores) and for batches above MaxBatch.
  unsigned seats(std::size_t Count) const;

  /// The task of a batch: Task(I, Seat) runs task I in seat Seat.
  using BatchTask = std::function<void(std::size_t, unsigned)>;

  /// Runs \p Task for tasks 0..Count-1, each exactly once, in seats
  /// below seats(Count), and returns when all have finished. While
  /// another caller's batch holds the helpers, the caller runs every
  /// task in seat 0. Tasks must not throw.
  void run(std::size_t Count, const BatchTask &Task);

private:
  void helperLoop(unsigned Seat);
  /// Claims and runs tasks of batch \p Batch from \p Seat until none
  /// is left or the batch has no more than Seat tasks.
  void work(std::uint32_t Batch, unsigned Seat);

  /// Batch number (bits 32-63), task count (bits 16-31) and next
  /// unclaimed task (bits 0-15) of the current batch, in one word so
  /// that a claim succeeds only against the batch it read.
  std::atomic<std::uint64_t> Claim{0};
  /// The latest batch number; helpers sleep on it.
  std::atomic<std::uint32_t> Epoch{0};
  /// Tasks of the current batch that have finished.
  std::atomic<std::uint32_t> Finished{0};
  /// Held by the caller whose batch owns the helpers.
  std::atomic<bool> Busy{false};
  std::atomic<bool> Stopping{false};
  /// The current batch's task; written by its caller before the batch
  /// is published, read by a helper only after a successful claim.
  const BatchTask *Task = nullptr;
  /// Declared last: the helpers use every member above.
  std::vector<std::thread> Helpers;
};

} // namespace mpicsel

#endif // MPICSEL_SUPPORT_THREADPOOL_H
