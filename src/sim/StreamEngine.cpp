//===- sim/StreamEngine.cpp - O(active) streaming replay -------------------===//

#include "sim/StreamEngine.h"

#include "obs/Metrics.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace mpicsel;

namespace {

/// What a block-local op index means for a given role.
struct OpRef {
  enum Type : std::uint8_t { Send, Recv, Join } Kind = Join;
  std::uint64_t Seg = 0;
  std::uint64_t Child = 0; // send only: which child
};

OpRef decodeLocal(const BcastRankPlan &RP, std::uint64_t NumSegments,
                  std::uint64_t Local) {
  const std::uint64_t C = RP.NumChildren;
  OpRef Ref;
  switch (RP.Role) {
  case StreamRole::Trivial:
    assert(Local == 0);
    return Ref; // the lone join
  case StreamRole::Root: {
    Ref.Seg = Local / (C + 1);
    const std::uint64_t Rem = Local % (C + 1);
    if (Rem < C) {
      Ref.Kind = OpRef::Send;
      Ref.Child = Rem;
    }
    return Ref;
  }
  case StreamRole::Interior: {
    Ref.Seg = Local / (C + 2);
    const std::uint64_t Rem = Local % (C + 2);
    if (Rem == 0)
      Ref.Kind = OpRef::Recv;
    else if (Rem <= C) {
      Ref.Kind = OpRef::Send;
      Ref.Child = Rem - 1;
    }
    return Ref;
  }
  case StreamRole::Leaf:
    if (Local < NumSegments) {
      Ref.Kind = OpRef::Recv;
      Ref.Seg = Local;
    }
    return Ref;
  case StreamRole::LinearRoot:
    if (Local < C) {
      Ref.Kind = OpRef::Send;
      Ref.Child = Local;
    }
    return Ref;
  case StreamRole::LinearLeaf:
    assert(Local == 0);
    Ref.Kind = OpRef::Recv;
    return Ref;
  }
  return Ref;
}

/// Block-local index of receive number \p Seg for a receiving role.
std::uint64_t recvLocalOf(const BcastRankPlan &RP, std::uint64_t Seg) {
  switch (RP.Role) {
  case StreamRole::Leaf:
    return Seg;
  case StreamRole::Interior:
    return Seg * (RP.NumChildren + 2);
  case StreamRole::LinearLeaf:
    assert(Seg == 0);
    return 0;
  default:
    assert(false && "role does not receive");
    return 0;
  }
}

} // namespace

namespace mpicsel {

/// The per-run executor, borrowing all arenas from a StreamEngine. It
/// runs the transport law of sim/Transport.h and creates its events in
/// the compiled engine's order; only op lookup differs -- closed-form
/// arithmetic on (rank, local) instead of the compiled op table.
class StreamExecutor {
public:
  StreamExecutor(StreamEngine &Eng, const BcastStreamPlan &StreamPlan,
                 const Platform &Plat, std::uint64_t Seed,
                 const FaultSchedule *FaultSched, const StreamOptions &Options)
      : E(Eng), Plan(StreamPlan), P(Plat),
        Law(Eng.Clocks, Plat, Seed, FaultSched), Opts(Options) {}

  void run();

private:
  void pushEvent(double Time, EventKind Kind, unsigned Rank,
                 std::uint64_t Local, double Payload = 0.0) {
    assert(Local <= 0xffffffffu && "rank block outgrew the event encoding");
    E.Events.push({Time, (NextSeq++ << 2) | static_cast<std::uint64_t>(Kind),
                   Rank, static_cast<std::uint32_t>(Local), Payload});
  }

  /// Global op id of (rank, local); only meaningful when OpBases was
  /// filled (faults or timing recording).
  std::uint64_t globalId(unsigned Rank, std::uint64_t Local) const {
    return E.OpBases[Rank] + Local;
  }

  void recordReady(unsigned Rank, std::uint64_t Local, double Now) {
    if (Opts.RecordTimings)
      E.Result.Timings[globalId(Rank, Local)].ReadyTime = Now;
  }
  void recordStart(unsigned Rank, std::uint64_t Local, double Now) {
    if (Opts.RecordTimings)
      E.Result.Timings[globalId(Rank, Local)].StartTime = Now;
  }

  /// A send's segment, receiver and message. The receiving rank names
  /// the match channel: every rank receives from exactly one parent on
  /// one tag.
  struct SendRef {
    std::uint64_t Seg;
    unsigned Dst;
    Transport::Message Msg;
  };

  SendRef sendOf(unsigned Rank, std::uint64_t Local) const {
    const OpRef Ref = decodeLocal(Plan.rankPlan(Rank), Plan.NumSegments, Local);
    assert(Ref.Kind == OpRef::Send);
    const unsigned Dst = Plan.childOf(Rank, static_cast<unsigned>(Ref.Child));
    return {Ref.Seg, Dst,
            {P.nodeOf(Rank), P.nodeOf(Dst), Plan.segmentBytes(Ref.Seg), Dst}};
  }

  void activateSend(unsigned Rank, std::uint64_t Local, double Now) {
    recordReady(Rank, Local, Now);
    const Transport::Span Cpu = Law.sendCpu(E.Ranks[Rank].CpuFree, Rank, Now);
    recordStart(Rank, Local, Cpu.Start);
    pushEvent(Cpu.Done, EventKind::TxAcquire, Rank, Local);
  }

  void onTxAcquire(unsigned Rank, std::uint64_t Local, double Now) {
    const SendRef Send = sendOf(Rank, Local);
    // Message-delay faults hash the global send-op id; the op-id bases
    // exist only for faulted or recorded runs.
    const OpId MsgId =
        Law.faults() ? static_cast<OpId>(globalId(Rank, Local)) : 0;
    const Transport::Injection In = Law.inject(Send.Msg, MsgId, Now);
    pushEvent(In.TxDone, EventKind::OpDone, Rank, Local);
    E.Result.BytesSent[Rank] += Send.Msg.Bytes;
    pushEvent(In.Arrival, EventKind::MsgArrival, Rank, Local, In.LastByte);
  }

  void onMsgArrival(unsigned Rank, std::uint64_t Local, double Now,
                    double LastByte) {
    pushEvent(Law.drain(sendOf(Rank, Local).Msg, LastByte, Now),
              EventKind::MsgAvailable, Rank, Local);
  }

  /// MsgAvailable of send (\p Rank, \p Local): match the receiver's
  /// oldest posted receive, or count the message as arrived.
  void onMsgAvailable(unsigned Rank, std::uint64_t Local, double Now) {
    const SendRef Send = sendOf(Rank, Local);
    StreamEngine::RankState &St = E.Ranks[Send.Dst];
    // The edge delivers in injection order, i.e. in segment order.
    assert(Send.Seg == St.MatchedMsgs + St.Arrived &&
           "message available out of segment order");
    if (St.PostedExcess > 0) {
      // The oldest posted receive is match number MatchedMsgs; posts
      // happen in segment order, so its local index is closed-form.
      --St.PostedExcess;
      const std::uint64_t RecvLocal =
          recvLocalOf(Plan.rankPlan(Send.Dst), St.MatchedMsgs);
      ++St.MatchedMsgs;
      completeRecv(Send.Dst, RecvLocal, Now, Send.Msg.Bytes);
      return;
    }
    ++St.Arrived;
  }

  void postRecv(unsigned Rank, std::uint64_t Local, double Now) {
    recordReady(Rank, Local, Now);
    StreamEngine::RankState &St = E.Ranks[Rank];
    if (St.Arrived > 0) {
      // A message is already waiting: segment MatchedMsgs, the oldest
      // one. The posting receive is necessarily the oldest unmatched.
      assert(St.PostedExcess == 0);
      assert(recvLocalOf(Plan.rankPlan(Rank), St.MatchedMsgs) == Local &&
             "receive posted out of segment order");
      --St.Arrived;
      const std::uint64_t Bytes = Plan.segmentBytes(St.MatchedMsgs++);
      completeRecv(Rank, Local, Now, Bytes);
      return;
    }
    ++St.PostedExcess;
  }

  void completeRecv(unsigned Rank, std::uint64_t RecvLocal, double Now,
                    std::uint64_t Bytes) {
    const Transport::Span Cpu = Law.recvCpu(E.Ranks[Rank].CpuFree, Rank, Now);
    recordStart(Rank, RecvLocal, Cpu.Start);
    E.Result.BytesReceived[Rank] += Bytes;
    pushEvent(Cpu.Done, EventKind::OpDone, Rank, RecvLocal);
  }

  /// Joins are zero-duration compute ops.
  void activateJoin(unsigned Rank, std::uint64_t Local, double Now) {
    recordReady(Rank, Local, Now);
    const Transport::Span Cpu =
        Law.compute(E.Ranks[Rank].CpuFree, Rank, Now, 0.0);
    recordStart(Rank, Local, Cpu.Start);
    if (Cpu.Done == Now) {
      finishOp(Rank, Local, Now);
      return;
    }
    pushEvent(Cpu.Done, EventKind::OpDone, Rank, Local);
  }

  /// OpDone: record completion and run the role's release rules in
  /// ascending block-local order -- exactly the order decrement-
  /// indegree over the materialized successor rows would release.
  void finishOp(unsigned Rank, std::uint64_t Local, double Now) {
    if (Opts.RecordTimings) {
      OpTiming &T = E.Result.Timings[globalId(Rank, Local)];
      assert(!T.Done && "op finished twice");
      T.Done = true;
      T.DoneTime = Now;
    }
    E.Result.Makespan = std::max(E.Result.Makespan, Now);
    ++DoneCount;

    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const OpRef Ref = decodeLocal(RP, Plan.NumSegments, Local);
    const std::uint64_t S = Plan.NumSegments;
    const std::uint64_t C = RP.NumChildren;
    StreamEngine::RankState &St = E.Ranks[Rank];

    switch (Ref.Kind) {
    case OpRef::Send:
      assert(Ref.Seg == St.JoinsDone && "send outside the open group");
      if (++St.SendsDone == C) {
        // The group's join: last local index of the segment (for the
        // linear root, the block's final op).
        const std::uint64_t JoinLocal =
            RP.Role == StreamRole::Root   ? Ref.Seg * (C + 1) + C
            : RP.Role == StreamRole::Interior ? Ref.Seg * (C + 2) + C + 1
                                              : C;
        activateJoin(Rank, JoinLocal, Now);
      }
      return;

    case OpRef::Recv:
      ++St.RecvsDone;
      if (RP.Role == StreamRole::Leaf) {
        if (Ref.Seg + 2 < S)
          postRecv(Rank, Ref.Seg + 2, Now);
        if (St.RecvsDone == S)
          activateJoin(Rank, S, Now);
        return;
      }
      if (RP.Role == StreamRole::Interior) {
        // The segment's forwarding sends also need the previous
        // segment's join (their second dependency).
        if (Ref.Seg == 0 || St.JoinsDone >= Ref.Seg)
          for (std::uint64_t K = 0; K != C; ++K)
            activateSend(Rank, Ref.Seg * (C + 2) + 1 + K, Now);
        return;
      }
      // LinearLeaf: the block is done.
      return;

    case OpRef::Join:
      St.JoinsDone = static_cast<std::uint32_t>(Ref.Seg) + 1;
      St.SendsDone = 0;
      if (RP.Role == StreamRole::Root) {
        if (Ref.Seg + 1 < S)
          for (std::uint64_t K = 0; K != C; ++K)
            activateSend(Rank, (Ref.Seg + 1) * (C + 1) + K, Now);
        return;
      }
      if (RP.Role == StreamRole::Interior) {
        if (Ref.Seg + 1 < S && St.RecvsDone >= Ref.Seg + 2)
          for (std::uint64_t K = 0; K != C; ++K)
            activateSend(Rank, (Ref.Seg + 1) * (C + 2) + 1 + K, Now);
        if (Ref.Seg + 2 < S)
          postRecv(Rank, (Ref.Seg + 2) * (C + 2), Now);
        return;
      }
      // Root-of-one-segment leaves nothing; Leaf/Trivial/LinearRoot
      // joins are terminal.
      return;
    }
  }

  StreamEngine &E;
  const BcastStreamPlan &Plan;
  const Platform &P;
  Transport Law;
  const StreamOptions Opts;
  std::uint64_t NextSeq = 0;
  std::uint64_t DoneCount = 0;
  std::uint64_t EventsPopped = 0;
};

} // namespace mpicsel

void StreamExecutor::run() {
  const unsigned RankCount = Plan.RankCount;
  const std::uint64_t TotalOps = Plan.totalOps();
  ExecutionResult &Result = E.Result;

  Result.Completed = false;
  Result.Timings.assign(Opts.RecordTimings ? TotalOps : 0, OpTiming());
  Result.Makespan = 0.0;
  Result.BytesReceived.assign(RankCount, 0);
  Result.BytesSent.assign(RankCount, 0);
  Result.Diagnostic.clear();
  Result.FaultWindows.clear();
  Result.FaultScenario.clear();

  const FaultSchedule *Faults = Law.faults();
  E.Ranks.assign(RankCount, StreamEngine::RankState());
  // One match channel per receiving rank.
  E.Clocks.reset(P.NodeCount, RankCount);
  E.Events.reset();

  if (Faults || Opts.RecordTimings) {
    assert(TotalOps <= 0xffffffffu &&
           "op ids overflow OpId; run without faults/timings at this scale");
    Plan.rankOpBases(E.OpBases);
  }

  // Activate the statically dependency-free ops at t = 0 in global
  // op-id order: block by block (rank order for trees, root block
  // first for linear), ascending local index within a block.
  for (unsigned Block = 0; Block != RankCount; ++Block) {
    const unsigned Rank = Plan.blockRank(Block);
    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const std::uint64_t C = RP.NumChildren;
    switch (RP.Role) {
    case StreamRole::Trivial:
      activateJoin(Rank, 0, 0.0);
      break;
    case StreamRole::Root:
    case StreamRole::LinearRoot:
      for (std::uint64_t K = 0; K != C; ++K)
        activateSend(Rank, K, 0.0);
      break;
    case StreamRole::Leaf:
    case StreamRole::Interior:
      // Double-buffered receives: segments 0 and 1 post up front.
      postRecv(Rank, 0, 0.0);
      if (Plan.NumSegments >= 2)
        postRecv(Rank, recvLocalOf(RP, 1), 0.0);
      break;
    case StreamRole::LinearLeaf:
      postRecv(Rank, 0, 0.0);
      break;
    }
  }

  // Handlers only push, so the queue peaks just before some pop.
  std::size_t PeakEvents = 0;
  while (!E.Events.empty()) {
    PeakEvents = std::max(PeakEvents, E.Events.size());
    const StreamEvent Ev = E.Events.pop();
    ++EventsPopped;
    switch (static_cast<EventKind>(Ev.Key & 3)) {
    case EventKind::TxAcquire:
      onTxAcquire(Ev.Rank, Ev.Local, Ev.Time);
      break;
    case EventKind::MsgArrival:
      onMsgArrival(Ev.Rank, Ev.Local, Ev.Time, Ev.Payload);
      break;
    case EventKind::MsgAvailable:
      onMsgAvailable(Ev.Rank, Ev.Local, Ev.Time);
      break;
    case EventKind::OpDone:
      finishOp(Ev.Rank, Ev.Local, Ev.Time);
      break;
    }
  }

  // Credited once per replay, never per event (same contract as the
  // compiled engine's counters).
  obs::bump(obs::Counter::StreamReplays);
  obs::bump(obs::Counter::StreamEvents, EventsPopped);
  E.LastEvents = EventsPopped;
  E.PeakEvents = PeakEvents;

  Result.Completed = DoneCount == TotalOps;
  if (Faults) {
    Result.FaultWindows = Faults->windows(Result.Makespan);
    Result.FaultScenario = Faults->name();
  }
  if (!Result.Completed)
    // Streamed plans are deadlock-free by construction, so a shortfall
    // is an engine bug, not a schedule bug; the differential suite is
    // the place to localize it.
    Result.Diagnostic = strFormat(
        "streaming replay stalled: %llu of %llu ops never completed",
        static_cast<unsigned long long>(TotalOps - DoneCount),
        static_cast<unsigned long long>(TotalOps));
}

const ExecutionResult &StreamEngine::run(const BcastStreamPlan &Plan,
                                         const Platform &P,
                                         std::uint64_t Seed,
                                         const FaultSchedule *Faults,
                                         const StreamOptions &Opts) {
  assert(Plan.RankCount <= P.maxProcs() &&
         "plan does not fit on the platform");
  StreamExecutor Exec(*this, Plan, P, Seed, resolveFaultSchedule(Faults),
                      Opts);
  Exec.run();
  return Result;
}

std::size_t StreamEngine::footprintBytes() const {
  std::size_t Bytes = Events.capacity() * sizeof(StreamEvent);
  Bytes += Ranks.capacity() * sizeof(RankState);
  Bytes += Clocks.footprintBytes();
  Bytes += OpBases.capacity() * sizeof(std::uint64_t);
  Bytes += Result.Timings.capacity() * sizeof(OpTiming);
  Bytes += (Result.BytesReceived.capacity() + Result.BytesSent.capacity()) *
           sizeof(std::uint64_t);
  return Bytes;
}
