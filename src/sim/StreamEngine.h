//===- sim/StreamEngine.h - O(active) streaming replay ----------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a closed-form broadcast plan (coll/BcastStream.h) without
/// ever materializing the schedule. The compiled engine (sim/Engine.h)
/// holds O(total ops) state -- the op table, CSR successor rows,
/// per-op timings and last-byte clocks -- which caps simulation at a
/// few thousand ranks times a few hundred segments. This engine holds
/// O(P + active events):
///
///  * per rank, a 32-byte state machine (CPU clock plus progress
///    counters) replaces the rank's compiled rows: the broadcast
///    roles' completions are provably monotone (FIFO channels, a
///    monotone CPU clock, one send group in flight per rank), so a
///    handful of counters decide exactly which op a finished event
///    releases next -- in the same order decrement-indegree would;
///  * events live in the compiled engine's 4-ary heap
///    (sim/EventQueue.h), reset without a bound so it grows by doubling
///    with the wave front, and carry the op coordinates (rank,
///    block-local index) and the message's last-byte arrival, so no
///    per-op side arrays exist;
///  * match state is three counters per receiving rank: a rank has
///    exactly one incoming edge in every streamed broadcast, and the
///    non-overtaking clamp makes every edge deliver in injection (that
///    is, segment) order, so the k-th message matched is segment k.
///
/// Bit-identity: both engines run the transport law of
/// sim/Transport.h, and this one creates its events in the compiled
/// engine's order, so with equal (plan, platform, seed, faults) the
/// timeline -- makespan, per-op timestamps, byte counts -- is
/// bit-identical to compiling appendBcast's schedule and replaying it
/// (pinned by tests/TestStreamingSchedule.cpp). The arrival clamp
/// costs one O(P) clock array per run; fault schedules add the O(P)
/// op-id base table (message-delay hashing is keyed by global send-op
/// id).
///
/// There is no pre-flight verification here: streamed plans are
/// deadlock-free by construction, and the differential suite checks
/// the engine against the verified materialized oracle.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_SIM_STREAM_ENGINE_H
#define MPICSEL_SIM_STREAM_ENGINE_H

#include "coll/BcastStream.h"
#include "sim/Engine.h"
#include "sim/EventQueue.h"
#include "sim/Transport.h"

#include <cstdint>
#include <vector>

namespace mpicsel {

/// Per-run knobs of the streaming replay.
struct StreamOptions {
  /// Record per-op OpTiming rows (O(total ops) memory - differential
  /// tests only; plain replay leaves Result.Timings empty).
  bool RecordTimings = false;
};

/// Replays BcastStreamPlans. Like sim/Engine, one StreamEngine is
/// single-threaded and reuses all per-run state: after the first run
/// of a given plan shape, a run performs no heap allocation
/// (bench/micro_engine --scale gates this).
///
/// run() returns a reference to the engine's internal result, valid
/// until the next run() on the same engine.
class StreamEngine {
public:
  const ExecutionResult &run(const BcastStreamPlan &Plan, const Platform &P,
                             std::uint64_t Seed = 0,
                             const FaultSchedule *Faults = nullptr,
                             const StreamOptions &Opts = {});

  /// Events popped by the most recent run().
  std::uint64_t eventsProcessed() const { return LastEvents; }

  /// High-water concurrent event count of the most recent run() -- the
  /// "active" in O(active). For the streamed broadcasts this tracks
  /// the propagation wave front, not the op count.
  std::size_t peakEvents() const { return PeakEvents; }

  /// Bytes of heap memory retained by the engine's arenas (capacity,
  /// not size): the streaming-footprint number the scale bench pins
  /// against the materialized path.
  std::size_t footprintBytes() const;

  /// Per-rank replay state. CpuFree is the rank's CPU clock; the
  /// counters drive the role state machine and the incoming-edge
  /// match bookkeeping (every non-root rank receives from exactly one
  /// parent on one tag).
  struct RankState {
    double CpuFree = 0.0;
    std::uint32_t RecvsDone = 0;   ///< receives completed (overhead paid)
    std::uint32_t JoinsDone = 0;   ///< segment joins completed
    std::uint32_t SendsDone = 0;   ///< sends completed in the open group
    std::uint32_t MatchedMsgs = 0; ///< completeRecv calls issued
    std::uint32_t PostedExcess = 0; ///< recvs posted but not yet matched
    std::uint32_t Arrived = 0;      ///< messages available but not matched
  };

private:
  friend class StreamExecutor;

  EventHeap<StreamEvent> Events;
  std::vector<RankState> Ranks;
  /// Channel clocks; the per-edge arrival clamp is indexed by the
  /// receiving rank.
  TransportClocks Clocks;
  /// The global op-id base of every rank's block, filled only for runs
  /// with faults (message-delay decisions hash the global send-op id)
  /// or with the timeline.
  std::vector<std::uint64_t> OpBases;

  ExecutionResult Result;
  std::uint64_t LastEvents = 0;
  std::size_t PeakEvents = 0;
};

} // namespace mpicsel

#endif // MPICSEL_SIM_STREAM_ENGINE_H
