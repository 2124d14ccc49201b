//===- support/ThreadPool.cpp - Work-stealing thread pool ------------------===//

#include "support/ThreadPool.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cstdlib>
#include <string>

using namespace mpicsel;

namespace {
/// Set on ThreadPool workers: a HelperPool batch started there runs
/// on the worker alone.
thread_local bool OnPoolWorker = false;
} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = 1;
  obs::gaugeMax(obs::Gauge::PoolThreads, NumThreads);
  Queues.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    WorkerQueue &Q = *Queues[NextQueue];
    NextQueue = (NextQueue + 1) % Queues.size();
    ++Pending;
    std::lock_guard<std::mutex> QueueLock(Q.Mutex);
    Q.Tasks.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Pending == 0; });
}

bool ThreadPool::popOwn(unsigned WorkerIndex,
                        std::function<void()> &TaskOut) {
  WorkerQueue &Q = *Queues[WorkerIndex];
  std::lock_guard<std::mutex> Lock(Q.Mutex);
  if (Q.Tasks.empty())
    return false;
  TaskOut = std::move(Q.Tasks.back());
  Q.Tasks.pop_back();
  return true;
}

bool ThreadPool::stealOther(unsigned WorkerIndex,
                            std::function<void()> &TaskOut) {
  for (std::size_t Offset = 1; Offset != Queues.size(); ++Offset) {
    WorkerQueue &Q = *Queues[(WorkerIndex + Offset) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (Q.Tasks.empty())
      continue;
    TaskOut = std::move(Q.Tasks.front());
    Q.Tasks.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::workerLoop(unsigned WorkerIndex) {
  OnPoolWorker = true;
  for (;;) {
    std::function<void()> Task;
    bool Stolen = false;
    if (popOwn(WorkerIndex, Task) ||
        (Stolen = stealOther(WorkerIndex, Task))) {
      obs::bump(obs::Counter::PoolTasks);
      if (Stolen)
        obs::bump(obs::Counter::PoolSteals);
      Task();
      Task = nullptr; // Release captures before signalling completion.
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Pending == 0)
        AllDone.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> Lock(Mutex);
    if (ShuttingDown)
      return;
    // Re-check under the lock: a task may have been submitted between
    // the failed pop and acquiring the lock.
    bool AnyQueued = false;
    for (const std::unique_ptr<WorkerQueue> &Q : Queues) {
      std::lock_guard<std::mutex> QueueLock(Q->Mutex);
      if (!Q->Tasks.empty()) {
        AnyQueued = true;
        break;
      }
    }
    if (AnyQueued)
      continue;
    WorkAvailable.wait(Lock);
  }
}

unsigned ThreadPool::threadCountFromEnvironment() {
  const char *Value = std::getenv("MPICSEL_THREADS");
  if (!Value || !*Value)
    return 1;
  std::string Text(Value);
  if (Text == "max") {
    unsigned Hardware = std::thread::hardware_concurrency();
    return Hardware == 0 ? 1 : Hardware;
  }
  unsigned Count = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return 1;
    Count = Count * 10 + static_cast<unsigned>(C - '0');
    // Absurd values mean a typo; fail to serial. Checked after the
    // digit is folded in, so a six-digit value cannot slip through
    // on the last iteration.
    if (Count > 100000)
      return 1;
  }
  // "0" and "00" reach here with Count == 0: a zero-thread sweep is
  // meaningless, so non-positive normalises to serial.
  return Count == 0 ? 1 : Count;
}

HelperPool &HelperPool::global() {
  static HelperPool Pool(std::max(std::thread::hardware_concurrency(), 1u) -
                         1);
  return Pool;
}

HelperPool::HelperPool(unsigned NumHelpers) {
  Helpers.reserve(NumHelpers);
  for (unsigned I = 0; I != NumHelpers; ++I)
    Helpers.emplace_back([this, I] { helperLoop(I + 1); });
}

HelperPool::~HelperPool() {
  Stopping.store(true, std::memory_order_release);
  Epoch.fetch_add(1, std::memory_order_release);
  Epoch.notify_all();
  for (std::thread &Helper : Helpers)
    Helper.join();
}

unsigned HelperPool::seats(std::size_t Count) const {
  if (Count > MaxBatch || OnPoolWorker)
    return 1;
  return static_cast<unsigned>(
      std::min<std::size_t>(std::max<std::size_t>(Count, 1),
                            Helpers.size() + 1));
}

void HelperPool::run(std::size_t Count, const BatchTask &Fn) {
  if (seats(Count) < 2 || Busy.exchange(true, std::memory_order_acquire)) {
    for (std::size_t I = 0; I != Count; ++I)
      Fn(I, 0);
    return;
  }
  Task = &Fn;
  Finished.store(0, std::memory_order_relaxed);
  const std::uint32_t Batch = Epoch.load(std::memory_order_relaxed) + 1;
  Claim.store(std::uint64_t{Batch} << 32 | std::uint64_t{Count} << 16,
              std::memory_order_release);
  Epoch.store(Batch, std::memory_order_release);
  Epoch.notify_all();
  work(Batch, 0);
  // Every task is claimed now; wait for the ones helpers are running.
  for (std::uint32_t Done;
       (Done = Finished.load(std::memory_order_acquire)) != Count;)
    Finished.wait(Done, std::memory_order_acquire);
  Busy.store(false, std::memory_order_release);
}

void HelperPool::work(std::uint32_t Batch, unsigned Seat) {
  std::uint64_t Word = Claim.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t Count = (Word >> 16) & 0xFFFF;
    const std::uint32_t Next = Word & 0xFFFF;
    if ((Word >> 32) != Batch || Next >= Count || Seat >= Count)
      return;
    if (!Claim.compare_exchange_weak(Word, Word + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      continue;
    (*Task)(Next, Seat);
    // The caller waits for the last helper-run task, never for itself.
    if (Finished.fetch_add(1, std::memory_order_acq_rel) + 1 == Count &&
        Seat != 0)
      Finished.notify_one();
    ++Word;
  }
}

void HelperPool::helperLoop(unsigned Seat) {
  std::uint32_t Seen = 0;
  for (;;) {
    Epoch.wait(Seen, std::memory_order_acquire);
    if (Stopping.load(std::memory_order_acquire))
      return;
    Seen = Epoch.load(std::memory_order_acquire);
    work(Seen, Seat);
  }
}
