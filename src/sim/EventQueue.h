//===- sim/EventQueue.h - Simulator event queues ----------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event queues of the two replay engines:
///
///  * ReplayHeap, the compiled engine's (sim/Engine): a 4-ary min-heap
///    over 16-byte events, reserved to a worst-case bound, whose pop
///    walks the hole to a leaf with branch-free child selection;
///  * CalendarQueue, the streaming engine's (sim/StreamEngine): a
///    calendar queue (Brown, CACM 1988) over 32-byte stream events. A
///    d-ary heap costs O(log n) per operation with a deep
///    cache-hostile walk at large n; the calendar buckets events by
///    time so push and pop are amortized O(1) for the near-uniform
///    event populations a discrete-event network simulation produces.
///
/// Determinism contract: both pop in the strict total order
/// (Time, Key) -- Key embeds the unique creation sequence -- so each
/// pops exactly the sequence any correct priority queue would, and the
/// streaming, compiled and legacy engines stay bit-identical. All
/// sizing decisions (bucket count, bucket width) depend only on the
/// push/pop sequence, never on wall-clock or addresses, so identical
/// runs make identical decisions.
///
/// Memory contract: storage retains its high-water capacity across
/// reset(), so the second identical run performs no heap allocation
/// (bench/micro_engine gates this).
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_SIM_EVENTQUEUE_H
#define MPICSEL_SIM_EVENTQUEUE_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace mpicsel {

/// One compiled-replay event, packed to 16 bytes. Key is the engine's
/// payload with the unique creation sequence in its top bits, so
/// (Time, Key) is a strict total order reproducing the legacy
/// (Time, Seq) tiebreak.
///
/// No default member initializers: heap storage is allocated
/// uninitialized, so only the slots a run reaches become resident.
struct ReplayEvent {
  double Time;
  std::uint64_t Key;
};
static_assert(sizeof(ReplayEvent) == 16, "replay events must stay packed");

/// The compiled engine's event queue: a 4-ary min-heap on (Time, Key).
///
/// Both orders are compared as one unsigned 128-bit integer, the IEEE
/// bits of Time above Key: for non-negative, non-NaN times the bit
/// pattern orders like the value, so one integer compare replaces the
/// two-level (Time, Key) branch. pop() is Floyd's bottom-up variant:
/// the hole left by the root sinks to a leaf along the smallest child
/// of each group of four, picked without a data-dependent branch, and
/// the former last event then sifts up from that leaf -- usually not
/// at all, since it is among the latest events in the heap. The three
/// slots past the live events hold a sentinel above every legal event,
/// so the last, partial group of children needs no special case.
///
/// Storage is sized by reset() to a caller-supplied bound on live
/// events; push() never allocates.
class ReplayHeap {
public:
  /// Empties the heap and makes room for \p Bound live events.
  /// Returns whether the retained storage already had that room, i.e.
  /// whether this reset reused the arena without allocating.
  bool reset(std::size_t Bound) {
    const std::size_t Needed = Bound + Arity;
    const bool Reused = Capacity >= Needed;
    if (!Reused) {
      // Exact, so the capacity tracks the largest bound seen.
      Slots = std::make_unique_for_overwrite<ReplayEvent[]>(Needed);
      Capacity = Needed;
    }
    Count = 0;
    std::fill_n(Slots.get(), Arity - 1, sentinel());
    return Reused;
  }

  bool empty() const { return Count == 0; }
  std::size_t size() const { return Count; }

  void push(const ReplayEvent &E) {
    assert(!std::signbit(E.Time) && !std::isnan(E.Time) &&
           "event times must be non-negative numbers");
    assert(Count + Arity < Capacity && "event heap outgrew its bound");
    ReplayEvent *H = Slots.get();
    H[Count + Arity - 1] = sentinel(); // the tail moves one slot right
    const Order K = order(E);
    std::size_t I = Count++;
    while (I != 0) {
      const std::size_t Parent = (I - 1) / Arity;
      if (!(K < order(H[Parent])))
        break;
      H[I] = H[Parent];
      I = Parent;
    }
    H[I] = E;
  }

  ReplayEvent pop() {
    assert(Count != 0 && "pop from an empty event heap");
    ReplayEvent *H = Slots.get();
    const ReplayEvent Top = H[0];
    const std::size_t N = --Count;
    const ReplayEvent Last = H[N];
    H[N] = sentinel();
    if (N == 0)
      return Top;
    // While the hole has children, the first child is live, so the
    // smallest of the group is too: the hole never enters the tail.
    std::size_t Hole = 0;
    for (std::size_t First = 1; First < N; First = Arity * Hole + 1) {
      const std::size_t Best = First + smallestOfFour(H + First);
      H[Hole] = H[Best];
      Hole = Best;
    }
    const Order K = order(Last);
    while (Hole != 0) {
      const std::size_t Parent = (Hole - 1) / Arity;
      if (!(K < order(H[Parent])))
        break;
      H[Hole] = H[Parent];
      Hole = Parent;
    }
    H[Hole] = Last;
    return Top;
  }

private:
  static constexpr std::size_t Arity = 4;

  using Order = unsigned __int128;

  static Order order(const ReplayEvent &E) {
    return static_cast<Order>(std::bit_cast<std::uint64_t>(E.Time)) << 64 |
           E.Key;
  }

  /// Orders above every legal event: all-ones time bits are a NaN.
  static ReplayEvent sentinel() {
    return {std::bit_cast<double>(~std::uint64_t{0}),
            std::numeric_limits<std::uint64_t>::max()};
  }

  /// Index (0-3) of the smallest of the four events at \p C, as a
  /// two-round tournament of selects rather than branches.
  static std::size_t smallestOfFour(const ReplayEvent *C) {
    const Order K0 = order(C[0]), K1 = order(C[1]);
    const Order K2 = order(C[2]), K3 = order(C[3]);
    const std::size_t Right01 = K1 < K0;
    const std::size_t Right23 = K3 < K2;
    const Order Min01 = Right01 ? K1 : K0;
    const Order Min23 = Right23 ? K3 : K2;
    const std::size_t RightHalf = Min23 < Min01;
    // A mask select, not ?:, which GCC compiles to a branch here.
    const std::size_t Within =
        Right01 ^ ((Right01 ^ Right23) & (std::size_t{0} - RightHalf));
    return RightHalf << 1 | Within;
  }

  /// Live events in [0, Count), sentinels in [Count, Count + 3); the
  /// rest holds stale or uninitialized slots that are never read.
  std::unique_ptr<ReplayEvent[]> Slots;
  std::size_t Capacity = 0;
  std::size_t Count = 0;
};

/// One streaming-replay event. Ops are addressed as (owning rank,
/// local index inside the rank's op block) -- global op ids would
/// need the O(P) prefix-sum table the streaming engine avoids.
struct StreamEvent {
  double Time = 0.0;
  /// (Seq << 2) | Kind: unique creation order in the high bits makes
  /// (Time, Key) a strict total order reproducing the legacy
  /// (Time, Seq) tiebreak.
  std::uint64_t Key = 0;
  /// Owning rank of the op (for message events: the sender).
  std::uint32_t Rank = 0;
  /// Local op index within the rank's block.
  std::uint32_t Local = 0;
  /// Event-kind-specific datum; MsgArrival carries the message's
  /// last-byte arrival time here, which is what lets the engine drop
  /// the O(total ops) LastByteArrival array.
  double Payload = 0.0;
};
static_assert(sizeof(StreamEvent) == 32, "stream events must stay packed");

/// Calendar queue over StreamEvents. Power-of-two bucket array; each
/// bucket is kept sorted descending by (Time, Key) so the minimum is
/// a pop_back. The current "day" (bucket) advances with popped time;
/// a full empty lap of the calendar falls back to a direct search of
/// all buckets (and, if that keeps happening, forces a re-estimate of
/// the bucket width from the live population).
class CalendarQueue {
public:
  CalendarQueue() { reset(); }

  /// Restores the deterministic initial state; capacity is retained.
  void reset() {
    for (std::vector<StreamEvent> &B : Buckets)
      B.clear();
    Count = 0;
    PeakCount = 0;
    NumBuckets = MinBuckets;
    Mask = NumBuckets - 1;
    if (Buckets.size() < NumBuckets)
      Buckets.resize(NumBuckets);
    Width = 1.0;
    CurrentDay = 0;
    CurrentBucket = 0;
    DirectSearches = 0;
    OpsSinceRebuild = 0;
  }

  bool empty() const { return Count == 0; }
  std::size_t size() const { return Count; }

  /// High-water event count since reset() -- the "active events" the
  /// O(active) claim is about; the scale bench reports it.
  std::size_t peakSize() const { return PeakCount; }

  void push(const StreamEvent &E) {
    if (Count + 1 > 2 * NumBuckets && NumBuckets < MaxBuckets)
      rebuild(NumBuckets * 2);
    // An event can land on a day the scan has already passed (pushes
    // are not bound to the popped clock); rewind so the lap scan never
    // skips it. Days are integers so the check is exact.
    const std::uint64_t Day = dayOf(E.Time);
    if (Count == 0 || Day < CurrentDay)
      setDay(Day);
    insert(E);
    ++Count;
    ++OpsSinceRebuild;
    if (Count > PeakCount)
      PeakCount = Count;
    // Resize rebuilds stop once the population plateaus, but event
    // density can keep rising (broadcast wave fronts grow
    // exponentially), overcrowding the frozen day width. A crowded
    // bucket triggers a width re-estimate -- rate-limited so
    // unseparable equal-time bursts cannot thrash rebuilds.
    if (Buckets[bucketOf(E.Time)].size() > HotBucketThreshold &&
        OpsSinceRebuild > Count)
      rebuild(NumBuckets);
  }

  StreamEvent pop() {
    assert(Count > 0 && "pop from an empty calendar");
    for (std::size_t Scanned = 0; Scanned != NumBuckets; ++Scanned) {
      std::vector<StreamEvent> &B = Buckets[CurrentBucket];
      if (!B.empty() && dayOf(B.back().Time) == CurrentDay)
        return take(B);
      ++CurrentDay;
      CurrentBucket = (CurrentBucket + 1) & Mask;
    }
    // A whole lap found nothing due: the next event lives in a later
    // "year". Locate the global minimum directly instead of lapping.
    if (++DirectSearches > ForcedRebuildThreshold) {
      // The width is badly mis-estimated for the current population
      // (events far sparser than at the last rebuild). Re-estimate.
      rebuild(NumBuckets);
    }
    std::size_t BestBucket = 0;
    const StreamEvent *Best = nullptr;
    for (std::size_t I = 0; I != NumBuckets; ++I) {
      const std::vector<StreamEvent> &B = Buckets[I];
      if (B.empty())
        continue;
      const StreamEvent &Candidate = B.back();
      if (!Best || earlier(Candidate, *Best)) {
        Best = &Candidate;
        BestBucket = I;
      }
    }
    assert(Best && "count positive but no event found");
    setDay(dayOf(Best->Time));
    assert(BestBucket == CurrentBucket && "day does not map to its bucket");
    (void)BestBucket;
    return take(Buckets[CurrentBucket]);
  }

  /// Bytes of heap memory retained by the queue (capacities, not
  /// sizes) -- the streaming engine's footprint accounting.
  std::size_t footprintBytes() const {
    std::size_t Bytes = Buckets.capacity() * sizeof(Buckets[0]) +
                        Scratch.capacity() * sizeof(StreamEvent);
    for (const std::vector<StreamEvent> &B : Buckets)
      Bytes += B.capacity() * sizeof(StreamEvent);
    return Bytes;
  }

private:
  static constexpr std::size_t MinBuckets = 4;
  static constexpr std::size_t MaxBuckets = std::size_t{1} << 20;
  static constexpr std::uint64_t ForcedRebuildThreshold = 64;
  static constexpr std::size_t HotBucketThreshold = 16;

  static bool earlier(const StreamEvent &A, const StreamEvent &B) {
    if (A.Time != B.Time)
      return A.Time < B.Time;
    return A.Key < B.Key;
  }

  /// The integer "day" of \p Time. Day arithmetic is exact, so the
  /// lap scan, the push rewind and bucketOf can never disagree the way
  /// accumulated floating-point day boundaries could.
  std::uint64_t dayOf(double Time) const {
    return static_cast<std::uint64_t>(Time / Width);
  }

  std::size_t bucketOf(double Time) const {
    return static_cast<std::size_t>(dayOf(Time)) & Mask;
  }

  void setDay(std::uint64_t Day) {
    CurrentDay = Day;
    CurrentBucket = static_cast<std::size_t>(Day) & Mask;
  }

  /// Inserts into the bucket's descending order. Scans from the back
  /// (the minimum): simulation pushes cluster near the current time,
  /// so the insertion point is almost always within a few slots.
  void insert(const StreamEvent &E) {
    std::vector<StreamEvent> &B = Buckets[bucketOf(E.Time)];
    std::size_t I = B.size();
    while (I != 0 && earlier(B[I - 1], E))
      --I;
    B.insert(B.begin() + static_cast<std::ptrdiff_t>(I), E);
  }

  StreamEvent take(std::vector<StreamEvent> &B) {
    StreamEvent E = B.back();
    B.pop_back();
    --Count;
    ++OpsSinceRebuild;
    DirectSearches = 0;
    if (NumBuckets > MinBuckets && Count >= MinBuckets &&
        Count < NumBuckets / 2)
      rebuild(NumBuckets / 2);
    return E;
  }

  /// Re-buckets every live event into \p NewBuckets buckets with a
  /// width re-estimated from the live population (~3 events per
  /// bucket-day over the *dense* region). Deterministic: inputs are
  /// the live events only.
  void rebuild(std::size_t NewBuckets) {
    Scratch.clear();
    for (std::vector<StreamEvent> &B : Buckets) {
      for (const StreamEvent &E : B)
        Scratch.push_back(E);
      B.clear();
    }
    std::sort(Scratch.begin(), Scratch.end(), earlier);

    NumBuckets = NewBuckets;
    Mask = NumBuckets - 1;
    if (Buckets.size() < NumBuckets)
      Buckets.resize(NumBuckets);

    // Width from the densest 64-event window of the live population:
    // simulation populations are far from uniform (a broadcast wave
    // front grows exponentially, stragglers trail over hundreds of
    // microseconds), so a mean-gap estimate makes days that hold whole
    // bursts -- and since the hot region drifts with simulated time,
    // every bucket would eventually retain that burst's capacity. The
    // densest window bounds simultaneous events per day (~3) where it
    // matters most.
    double NewWidth = 1.0;
    const std::size_t N = Scratch.size();
    if (N >= 2) {
      const std::size_t Window = std::min<std::size_t>(64, N - 1);
      double MinSpan = Scratch[N - 1].Time - Scratch[0].Time;
      for (std::size_t I = 0; I + Window < N; ++I)
        MinSpan =
            std::min(MinSpan, Scratch[I + Window].Time - Scratch[I].Time);
      NewWidth = 3.0 * MinSpan / static_cast<double>(Window);
      if (!(NewWidth > 0.0)) // an unseparable equal-time burst
        NewWidth = 3.0 * (Scratch[N - 1].Time - Scratch[0].Time) /
                   static_cast<double>(N - 1);
    }
    if (!(NewWidth > 0.0) || !std::isfinite(NewWidth))
      NewWidth = 1.0;
    Width = NewWidth;

    // Descending order appends at each bucket's back (the minimum
    // end), so redistribution never shifts bucket contents.
    for (auto It = Scratch.rbegin(); It != Scratch.rend(); ++It)
      insert(*It);

    // Resume the day scan at the earliest live event.
    setDay(Scratch.empty() ? 0 : dayOf(Scratch.front().Time));
    OpsSinceRebuild = 0;
    ++RebuildCount;
  }

  std::vector<std::vector<StreamEvent>> Buckets;
  std::vector<StreamEvent> Scratch;
  std::size_t Count = 0;
  std::size_t PeakCount = 0;
  std::size_t NumBuckets = MinBuckets;
  std::size_t Mask = MinBuckets - 1;
  double Width = 1.0;
  std::uint64_t CurrentDay = 0;
  std::size_t CurrentBucket = 0;
  std::uint64_t DirectSearches = 0;
  std::uint64_t OpsSinceRebuild = 0;
  std::uint64_t RebuildCount = 0; // instrumentation: rebuilds since reset
};

} // namespace mpicsel

#endif // MPICSEL_SIM_EVENTQUEUE_H
