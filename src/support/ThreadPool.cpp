//===- support/ThreadPool.cpp - The process-wide helper pool ---------------===//

#include "support/ThreadPool.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace mpicsel;

namespace {

/// The pool whose batch's task this thread runs (null outside any
/// batch), and the lane a batch started here takes: 1 + this thread's
/// seat in the pool's top-level batch, or 0 when such a batch runs on
/// its caller alone -- inside a nested batch's task, or inside a batch
/// that runs alone itself.
thread_local const HelperPool *InPool = nullptr;
thread_local unsigned NestLane = 0;
thread_local bool IsHelper = false;

/// Sets this thread's batch context for a scope.
class ScopedContext {
public:
  ScopedContext(const HelperPool *Pool, unsigned Lane)
      : SavedPool(InPool), SavedLane(NestLane) {
    InPool = Pool;
    NestLane = Lane;
  }
  ~ScopedContext() {
    InPool = SavedPool;
    NestLane = SavedLane;
  }
  ScopedContext(const ScopedContext &) = delete;
  ScopedContext &operator=(const ScopedContext &) = delete;

private:
  const HelperPool *SavedPool;
  unsigned SavedLane;
};

/// The round number of a claim or seating word.
std::uint32_t roundOf(std::uint64_t Word) {
  return static_cast<std::uint32_t>(Word >> 32);
}

/// The 16-bit field of \p Word at bit \p Shift.
std::uint32_t field(std::uint64_t Word, unsigned Shift) {
  return static_cast<std::uint32_t>(Word >> Shift) & 0xFFFF;
}

} // namespace

HelperPool &HelperPool::global() {
  static HelperPool Pool(std::max(std::thread::hardware_concurrency(), 1u) -
                         1);
  return Pool;
}

HelperPool::HelperPool(unsigned NumHelpers)
    : NumLanes(NumHelpers + 2), Lanes(std::make_unique<Lane[]>(NumLanes)) {
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

bool HelperPool::onHelperThread() { return IsHelper; }

unsigned HelperPool::seats(std::size_t Count, unsigned MaxSeats) const {
  std::size_t Free = Helpers.size();
  if (InPool) {
    if (InPool != this || NestLane == 0)
      return 1;
    // Inside a top-level batch's task: the helpers it does not seat.
    Free = Helpers.size() + 1 -
           field(Lanes[0].Seating.load(std::memory_order_relaxed), 16);
  }
  return static_cast<unsigned>(std::min<std::size_t>(
      {std::max<std::size_t>(Count, 1), MaxSeats, Free + 1}));
}

void HelperPool::run(std::size_t Count, const BatchTask &Fn,
                     unsigned MaxSeats) {
  const unsigned BatchSeats = seats(Count, MaxSeats);
  if (!InPool && BatchSeats < 2) {
    // Holds no seat: a batch in its tasks is top-level too.
    for (std::size_t I = 0; I != Count; ++I)
      Fn(I, 0);
    return;
  }
  if (!InPool && !Busy.exchange(true, std::memory_order_acquire)) {
    {
      ScopedContext Top(this, 1);
      runBatch(Lanes[0], Count, Fn, BatchSeats);
    }
    Busy.store(false, std::memory_order_release);
    return;
  }
  if (InPool && BatchSeats >= 2) {
    // seats() offers a nested batch more than one seat only inside a
    // top-level batch's task of this pool.
    Lane &L = Lanes[NestLane];
    ScopedContext Nested(this, 0);
    runBatch(L, Count, Fn, BatchSeats);
    return;
  }
  // Another caller's top-level batch holds the helpers, or no helper is
  // free for this nested batch.
  ScopedContext Alone(this, 0);
  for (std::size_t I = 0; I != Count; ++I)
    Fn(I, 0);
}

void HelperPool::runBatch(Lane &L, std::size_t Count, const BatchTask &Fn,
                          unsigned BatchSeats) {
  L.Task = &Fn;
  for (std::size_t Next = 0; Next < Count; Next += MaxBatch)
    runRound(L, BatchSeats, Next,
             static_cast<std::uint32_t>(std::min(MaxBatch, Count - Next)));
}

void HelperPool::runRound(Lane &L, unsigned BatchSeats,
                          std::size_t RoundFirst, std::uint32_t Count) {
  L.First = RoundFirst;
  L.Finished.store(0, std::memory_order_relaxed);
  // Round numbers are unique over all lanes, so a helper holding a
  // stale word of any lane fails its claim.
  const std::uint64_t Round = Rounds.fetch_add(1, std::memory_order_relaxed) +
                              std::uint64_t{1};
  L.Seating.store(Round << 32 | std::uint64_t{BatchSeats} << 16,
                  std::memory_order_relaxed);
  L.Claim.store(Round << 32 | std::uint64_t{Count} << 16,
                std::memory_order_release);
  Epoch.fetch_add(1, std::memory_order_release);
  Epoch.notify_all();
  work(L, static_cast<std::uint32_t>(Round), 0);
  // Every task is claimed now; wait for the ones helpers are running.
  for (std::uint32_t Done;
       (Done = L.Finished.load(std::memory_order_acquire)) != Count;)
    L.Finished.wait(Done, std::memory_order_acquire);
}

void HelperPool::work(Lane &L, std::uint32_t Round, unsigned Seat) {
  std::uint64_t Word = L.Claim.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t Count = field(Word, 16);
    const std::uint32_t Next = field(Word, 0);
    if (roundOf(Word) != Round || Next >= Count)
      return;
    if (!L.Claim.compare_exchange_weak(Word, Word + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
      continue;
    (*L.Task)(L.First + Next, Seat);
    // The caller waits for the last helper-run task, never for itself.
    if (L.Finished.fetch_add(1, std::memory_order_acq_rel) + 1 == Count &&
        Seat != 0)
      L.Finished.notify_one();
    ++Word;
  }
}

void HelperPool::serve(unsigned Seat) {
  // The helper's static seat of the top-level batch, if the batch has
  // it. A seating word of another round belongs to another batch.
  {
    Lane &Top = Lanes[0];
    const std::uint64_t Word = Top.Claim.load(std::memory_order_acquire);
    const std::uint64_t Seating =
        Top.Seating.load(std::memory_order_acquire);
    if (field(Word, 0) < field(Word, 16) &&
        roundOf(Seating) == roundOf(Word) && Seat < field(Seating, 16)) {
      ScopedContext InTop(this, 1 + Seat);
      work(Top, roundOf(Word), Seat);
    }
  }
  // Then the next free seat of every nested batch with tasks left.
  for (unsigned I = 1; I != NumLanes; ++I) {
    Lane &L = Lanes[I];
    const std::uint64_t Word = L.Claim.load(std::memory_order_acquire);
    if (field(Word, 0) >= field(Word, 16))
      continue;
    std::uint64_t Seating = L.Seating.load(std::memory_order_acquire);
    while (roundOf(Seating) == roundOf(Word) &&
           field(Seating, 0) + 1 < field(Seating, 16))
      if (L.Seating.compare_exchange_weak(Seating, Seating + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        work(L, roundOf(Word), field(Seating, 0) + 1);
        break;
      }
  }
}

void HelperPool::helperLoop(unsigned Seat) {
  IsHelper = true;
  // Outside the top-level batch a helper only runs nested tasks, and a
  // batch started in one runs alone.
  InPool = this;
  NestLane = 0;
  for (;;) {
    const std::uint32_t Seen = Epoch.load(std::memory_order_acquire);
    if (Stopping.load(std::memory_order_acquire))
      return;
    serve(Seat);
    Epoch.wait(Seen, std::memory_order_acquire);
  }
}
