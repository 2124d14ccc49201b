//===- support/ThreadPool.cpp - The process-wide helper pool ---------------===//

#include "support/ThreadPool.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace mpicsel;

namespace {
/// Set while this thread runs a batch's task, and on helper threads
/// for good: a batch started there runs on its caller alone.
thread_local bool InBatch = false;
} // namespace

HelperPool &HelperPool::global() {
  static HelperPool Pool(std::max(std::thread::hardware_concurrency(), 1u) -
                         1);
  return Pool;
}

HelperPool::HelperPool(unsigned NumHelpers) {
  obs::gaugeMax(obs::Gauge::PoolThreads, NumHelpers + 1);
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

unsigned HelperPool::seats(std::size_t Count, unsigned MaxSeats) const {
  if (InBatch)
    return 1;
  return static_cast<unsigned>(
      std::min<std::size_t>({std::max<std::size_t>(Count, 1), MaxSeats,
                             Helpers.size() + 1}));
}

void HelperPool::run(std::size_t Count, const BatchTask &Fn,
                     unsigned MaxSeats) {
  const unsigned BatchSeats = seats(Count, MaxSeats);
  const bool Nested = InBatch;
  InBatch = true;
  if (BatchSeats < 2 || Busy.exchange(true, std::memory_order_acquire)) {
    for (std::size_t I = 0; I != Count; ++I)
      Fn(I, 0);
  } else {
    Task = &Fn;
    Seats.store(BatchSeats);
    for (std::size_t Next = 0; Next < Count; Next += MaxBatch)
      runRound(Next, static_cast<std::uint32_t>(
                         std::min(MaxBatch, Count - Next)));
    Busy.store(false, std::memory_order_release);
  }
  InBatch = Nested;
}

void HelperPool::runRound(std::size_t RoundFirst, std::uint32_t Count) {
  First = RoundFirst;
  Finished.store(0, std::memory_order_relaxed);
  const std::uint32_t Round = Epoch.load(std::memory_order_relaxed) + 1;
  Claim.store(std::uint64_t{Round} << 32 | std::uint64_t{Count} << 16,
              std::memory_order_release);
  Epoch.store(Round, std::memory_order_release);
  Epoch.notify_all();
  work(Round, 0);
  // Every task is claimed now; wait for the ones helpers are running.
  for (std::uint32_t Done;
       (Done = Finished.load(std::memory_order_acquire)) != Count;)
    Finished.wait(Done, std::memory_order_acquire);
}

void HelperPool::work(std::uint32_t Round, unsigned Seat) {
  std::uint64_t Word = Claim.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t Count = (Word >> 16) & 0xFFFF;
    const std::uint32_t Next = Word & 0xFFFF;
    // A stale Seats value belongs to a later batch, and then the claim
    // below fails against the later round's word.
    if ((Word >> 32) != Round || Next >= Count || Seat >= Seats.load())
      return;
    if (!Claim.compare_exchange_weak(Word, Word + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      continue;
    (*Task)(First + Next, Seat);
    // The caller waits for the last helper-run task, never for itself.
    if (Finished.fetch_add(1, std::memory_order_acq_rel) + 1 == Count &&
        Seat != 0)
      Finished.notify_one();
    ++Word;
  }
}

void HelperPool::helperLoop(unsigned Seat) {
  InBatch = true;
  std::uint32_t Seen = 0;
  for (;;) {
    Epoch.wait(Seen, std::memory_order_acquire);
    if (Stopping.load(std::memory_order_acquire))
      return;
    Seen = Epoch.load(std::memory_order_acquire);
    work(Seen, Seat);
  }
}
