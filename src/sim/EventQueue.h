//===- sim/EventQueue.h - The simulator's event queue -----------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event queue of both replay engines: EventHeap, a 4-ary min-heap
/// whose pop walks the hole to a leaf with branch-free child selection.
/// The compiled engine (sim/Engine) holds an EventHeap<ReplayEvent>
/// reserved to its worst-case bound, so its replay never grows it; the
/// streaming engine (sim/StreamEngine) holds an EventHeap<StreamEvent>
/// reset without a bound, which doubles its storage whenever it fills,
/// so its capacity stays under twice the peak number of live events
/// and its memory O(active events).
///
/// Determinism contract: the heap pops in the strict total order
/// (Time, Key) -- Key embeds the unique creation sequence -- so it pops
/// exactly the sequence any correct priority queue would, and the
/// streaming, compiled and legacy engines stay bit-identical.
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

/// One streaming-replay event. Ops are addressed as (owning rank,
/// local index inside the rank's op block) -- global op ids would
/// need the O(P) prefix-sum table the streaming engine avoids. No
/// default member initializers, as for ReplayEvent.
struct StreamEvent {
  double Time;
  /// (Seq << 2) | Kind: unique creation order in the high bits makes
  /// (Time, Key) a strict total order reproducing the legacy
  /// (Time, Seq) tiebreak.
  std::uint64_t Key;
  /// Owning rank of the op (for message events: the sender).
  std::uint32_t Rank;
  /// Local op index within the rank's block.
  std::uint32_t Local;
  /// Event-kind-specific datum; MsgArrival carries the message's
  /// last-byte arrival time here, which is what lets the engine drop
  /// the O(total ops) LastByteArrival array.
  double Payload;
};
static_assert(sizeof(StreamEvent) == 32, "stream events must stay packed");

/// A 4-ary min-heap on (Time, Key) over any event with a `double Time`
/// and a `std::uint64_t Key`.
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
/// reset() makes room for a caller-supplied bound on live events; a
/// push() past it doubles the room, so a heap reset without a bound
/// grows to fit whatever the run holds.
template <typename Event> class EventHeap {
public:
  /// Empties the heap and makes room for \p Bound live events.
  /// Returns whether the retained storage already had that room, i.e.
  /// whether this reset reused the arena without allocating.
  bool reset(std::size_t Bound = 0) {
    const std::size_t Needed = Bound + Arity;
    const bool Reused = Capacity >= Needed;
    if (!Reused) {
      // Exact, so the capacity tracks the largest bound seen.
      Slots = std::make_unique_for_overwrite<Event[]>(Needed);
      Capacity = Needed;
    }
    Count = 0;
    std::fill_n(Slots.get(), Arity - 1, sentinel());
    return Reused;
  }

  bool empty() const { return Count == 0; }
  std::size_t size() const { return Count; }

  /// Slots of retained storage: room for capacity() - 4 live events
  /// plus the sentinel tail.
  std::size_t capacity() const { return Capacity; }

  void push(const Event &E) {
    assert(!std::signbit(E.Time) && !std::isnan(E.Time) &&
           "event times must be non-negative numbers");
    if (Count + Arity >= Capacity)
      grow();
    Event *H = Slots.get();
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

  Event pop() {
    assert(Count != 0 && "pop from an empty event heap");
    Event *H = Slots.get();
    const Event Top = H[0];
    const std::size_t N = --Count;
    const Event Last = H[N];
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
  /// Live events the first growth makes room for (64 slots).
  static constexpr std::size_t MinGrowth = 64 - Arity;

  using Order = unsigned __int128;

  static Order order(const Event &E) {
    return static_cast<Order>(std::bit_cast<std::uint64_t>(E.Time)) << 64 |
           E.Key;
  }

  /// Orders above every legal event: all-ones time bits are a NaN.
  static Event sentinel() {
    Event S{};
    S.Time = std::bit_cast<double>(~std::uint64_t{0});
    S.Key = std::numeric_limits<std::uint64_t>::max();
    return S;
  }

  /// Index (0-3) of the smallest of the four events at \p C, as a
  /// two-round tournament of selects rather than branches.
  static std::size_t smallestOfFour(const Event *C) {
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

  /// Doubles the room for live events (to at least MinGrowth), moving
  /// the live events and the sentinel tail over. It runs only when the
  /// heap is full, so past MinGrowth the room stays under twice the
  /// peak number of live events. Out of line: a heap reset to its
  /// bound never calls it.
  [[gnu::noinline]] void grow() {
    assert(Slots && "push before the first reset");
    const std::size_t Live = std::max(2 * (Capacity - Arity), MinGrowth);
    std::unique_ptr<Event[]> Grown =
        std::make_unique_for_overwrite<Event[]>(Live + Arity);
    std::copy_n(Slots.get(), Count + Arity - 1, Grown.get());
    Slots = std::move(Grown);
    Capacity = Live + Arity;
  }

  /// Live events in [0, Count), sentinels in [Count, Count + 3); the
  /// rest holds stale or uninitialized slots that are never read.
  std::unique_ptr<Event[]> Slots;
  std::size_t Capacity = 0;
  std::size_t Count = 0;
};

/// The compiled engine's event queue.
using ReplayHeap = EventHeap<ReplayEvent>;

} // namespace mpicsel

#endif // MPICSEL_SIM_EVENTQUEUE_H
