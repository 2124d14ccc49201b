//===- sim/Engine.cpp - Discrete-event network simulator ------------------===//

#include "sim/Engine.h"

#include "obs/Metrics.h"
#include "sim/EventQueue.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"
#include "verify/Verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <queue>
#include <unordered_map>

using namespace mpicsel;

namespace {

/// Heap events. Dependency releases are handled inline (they occur at
/// the same timestamp as the completion that triggered them); only
/// future effects live on the heap. Channels are acquired at the
/// moment the contender physically reaches them -- the injection
/// channel when the CPU hands the message over, the drain channel
/// when the first byte arrives -- so FIFO order matches physical
/// arrival order rather than event-processing order.
enum class EventKind : std::uint8_t {
  /// A send's CPU work is done; contend for the injection channel.
  TxAcquire,
  /// A message's first byte reaches the destination node; contend for
  /// the drain channel.
  MsgArrival,
  /// A message has fully drained and can match a posted receive.
  MsgAvailable,
  /// An operation finishes (Send injection done, Compute done, Recv
  /// completion overhead paid).
  OpDone,
};

struct Event {
  double Time;
  std::uint64_t Seq; // tie-breaker: creation order => determinism
  EventKind Kind;
  OpId Id; // the op concerned (for messages: the sending op)
};

struct EventLater {
  bool operator()(const Event &A, const Event &B) const {
    if (A.Time != B.Time)
      return A.Time > B.Time;
    return A.Seq > B.Seq;
  }
};

/// FIFO matching state of one (src, dst, tag) channel.
struct MatchChannel {
  /// Messages that arrived before a receive was posted: available
  /// time + payload size of each.
  std::deque<std::pair<double, std::uint64_t>> ArrivedMsgs;
  /// Receives posted before their message arrived.
  std::deque<OpId> PostedRecvs;
};

/// The executor for one run. Single-threaded and strictly
/// deterministic: the heap orders by (time, sequence) and dependents
/// are activated in op-id order.
class Executor {
public:
  /// \p FaultSched may be null (fault-free) and must otherwise stay
  /// valid for the run; an empty schedule must be passed as null so
  /// the unperturbed code path is taken.
  Executor(const Schedule &Sched, const Platform &Plat, std::uint64_t Seed,
           const FaultSchedule *FaultSched)
      : S(Sched), P(Plat), Rng(Seed), RunSeed(Seed), Faults(FaultSched) {}

  ExecutionResult run();

private:
  /// Noise factor for a cost paid at \p Now; fault noise-regime shifts
  /// scale the sigma. The draw count is identical with and without
  /// faults, so fault-free runs are bit-identical to pre-fault builds.
  double noise(double Now) {
    double Sigma = P.NoiseSigma;
    if (Faults)
      Sigma *= Faults->sigmaMultiplier(Now);
    return Rng.nextLogNormalFactor(Sigma);
  }

  /// Straggler multiplier of \p Rank's CPU costs at \p Now.
  double cpuFactor(unsigned Rank, double Now) const {
    return Faults ? Faults->cpuMultiplier(Rank, Now) : 1.0;
  }

  void push(double Time, EventKind Kind, OpId Id) {
    Heap.push(Event{Time, NextSeq++, Kind, Id});
  }

  /// Called when all deps of \p Id are satisfied at time \p Now.
  void activateOp(OpId Id, double Now);

  /// Send activation: pay the CPU initiation cost, then contend for
  /// the injection channel at the moment the CPU is done.
  void startSend(OpId Id, double Now);

  /// The send's CPU work finished at \p Now: occupy the injection
  /// channel and emit the message.
  void onTxAcquire(OpId Id, double Now);

  /// First byte of the message of send op \p Id reached the
  /// destination at \p Now: occupy the drain channel.
  void onMsgArrival(OpId Id, double Now);

  /// Runs a Compute op through the CPU.
  void startCompute(OpId Id, double Now);

  /// A receive whose dependencies are done: match or enqueue.
  void postRecv(OpId Id, double Now);

  /// Pairs receive \p RecvId with a message fully drained by \p Now.
  void completeRecv(OpId RecvId, double Now, std::uint64_t Bytes);

  /// Marks \p Id done at \p Now and releases its dependents.
  void finishOp(OpId Id, double Now);

  std::uint64_t channelKey(unsigned Src, unsigned Dst, int Tag) const {
    // Ranks are < 2^20 in any realistic platform; tags fit in 24 bits.
    return (static_cast<std::uint64_t>(Src) << 44) |
           (static_cast<std::uint64_t>(Dst) << 24) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(Tag) &
                                      0xffffffu);
  }

  const Schedule &S;
  const Platform &P;
  Xoshiro256 Rng;
  const std::uint64_t RunSeed;
  const FaultSchedule *Faults;

  std::priority_queue<Event, std::vector<Event>, EventLater> Heap;
  std::uint64_t NextSeq = 0;

  // Dependency bookkeeping.
  std::vector<std::uint32_t> PendingDeps;
  std::vector<std::vector<OpId>> Dependents;

  // Resources: free-at times.
  std::vector<double> CpuFree;   // per rank
  std::vector<double> NicTxFree; // per node
  std::vector<double> NicRxFree; // per node
  std::vector<double> MemTxFree; // per node
  std::vector<double> MemRxFree; // per node

  // Per-send-op message state: when its last byte leaves the wire
  // (drain cannot finish earlier even on an idle channel -- the data
  // streams in at the injection rate).
  std::vector<double> LastByteArrival;

  std::unordered_map<std::uint64_t, MatchChannel> Channels;

  // Per (src, dst, tag) channel monotonic clocks enforcing MPI's
  // non-overtaking guarantee: a delayed message holds up everything
  // behind it on its channel instead of being overtaken (which would
  // mismatch the FIFO pairing). Arrival order needs the clamp even
  // fault-free -- latency noise can reorder same-channel messages of
  // different sizes. Availability stays FIFO by construction there
  // (the drain channel serializes same-channel messages), so its
  // clamp is only consulted under faults.
  std::unordered_map<std::uint64_t, double> ChannelLastArrival;
  std::unordered_map<std::uint64_t, double> ChannelLastAvail;

  ExecutionResult Result;
  std::uint32_t DoneCount = 0;
};

} // namespace

void Executor::finishOp(OpId Id, double Now) {
  OpTiming &T = Result.Timings[Id];
  assert(!T.Done && "op finished twice");
  T.Done = true;
  T.DoneTime = Now;
  Result.Makespan = std::max(Result.Makespan, Now);
  ++DoneCount;
  for (OpId Dep : Dependents[Id]) {
    assert(PendingDeps[Dep] > 0 && "dependent already released");
    if (--PendingDeps[Dep] == 0)
      activateOp(Dep, Now);
  }
}

void Executor::activateOp(OpId Id, double Now) {
  const Op &O = S.op(Id);
  Result.Timings[Id].ReadyTime = Now;
  switch (O.Kind) {
  case OpKind::Send:
    startSend(Id, Now);
    return;
  case OpKind::Compute:
    startCompute(Id, Now);
    return;
  case OpKind::Recv:
    postRecv(Id, Now);
    return;
  }
}

void Executor::startSend(OpId Id, double Now) {
  const Op &O = S.op(Id);
  // CPU: the software cost of initiating the send. Acquisition
  // happens now (activation order = FIFO on the CPU).
  double CpuStart = std::max(Now, CpuFree[O.Rank]);
  double CpuDone =
      CpuStart + P.SendOverhead * noise(CpuStart) * cpuFactor(O.Rank, CpuStart);
  CpuFree[O.Rank] = CpuDone;
  Result.Timings[Id].StartTime = CpuStart;
  push(CpuDone, EventKind::TxAcquire, Id);
}

void Executor::onTxAcquire(OpId Id, double Now) {
  const Op &O = S.op(Id);
  const LinkParams &Link = P.linkBetween(O.Rank, O.Peer);
  bool Intra = P.sameNode(O.Rank, O.Peer);
  unsigned SrcNode = P.nodeOf(O.Rank);

  // Injection channel of the source node: FIFO in hand-over order.
  // A degraded-link fault stretches the occupancy (background traffic
  // sharing the channel).
  double &TxFree = Intra ? MemTxFree[SrcNode] : NicTxFree[SrcNode];
  double TxStart = std::max(Now, TxFree);
  double TxOccupancy = Link.txOccupancy(O.Bytes) * noise(TxStart);
  if (Faults && !Intra)
    TxOccupancy *= Faults->txGapMultiplier(SrcNode, TxStart);
  double TxDone = TxStart + TxOccupancy;
  TxFree = TxDone;

  // Local (buffered) completion once injected.
  push(TxDone, EventKind::OpDone, Id);
  Result.BytesSent[O.Rank] += O.Bytes;

  // The message streams across the wire: its first byte lands
  // Latency after injection starts, its last byte Latency after
  // injection ends. Degraded links stretch the latency; latency
  // spikes and stalls delay this message's bytes wholesale (a hung
  // transfer is delayed, never dropped).
  double Latency = Link.Latency * noise(TxStart);
  if (Faults && !Intra) {
    unsigned DstNode = P.nodeOf(O.Peer);
    Latency *= Faults->latencyMultiplier(SrcNode, DstNode, TxStart);
    Latency += Faults->messageDelay(RunSeed, Id, TxStart);
    double &Prev = ChannelLastArrival[channelKey(O.Rank, O.Peer, O.Tag)];
    double Arrival = std::max(TxStart + Latency, Prev);
    Prev = Arrival;
    LastByteArrival[Id] = Arrival + (TxDone - TxStart);
    push(Arrival, EventKind::MsgArrival, Id);
    return;
  }
  // Latency noise alone can invert same-channel first-byte order: a
  // short message injected right behind a long one may draw a smaller
  // latency and overtake it, which the strict arrival-order matcher
  // would pair with the wrong receive. Enforce non-overtaking here
  // too; the non-inverting case keeps the exact pre-clamp arithmetic
  // so unaffected runs stay bit-identical.
  const double Arrival = TxStart + Latency;
  double &Prev = ChannelLastArrival[channelKey(O.Rank, O.Peer, O.Tag)];
  if (Arrival >= Prev) {
    Prev = Arrival;
    LastByteArrival[Id] = TxDone + Latency;
    push(Arrival, EventKind::MsgArrival, Id);
    return;
  }
  LastByteArrival[Id] = Prev + (TxDone - TxStart);
  push(Prev, EventKind::MsgArrival, Id);
}

void Executor::onMsgArrival(OpId Id, double Now) {
  const Op &O = S.op(Id);
  const LinkParams &Link = P.linkBetween(O.Rank, O.Peer);
  bool Intra = P.sameNode(O.Rank, O.Peer);
  unsigned DstNode = P.nodeOf(O.Peer);

  // Drain channel of the destination node, acquired in first-byte-
  // arrival order. The drain overlaps the injection: it cannot finish
  // before the last byte leaves the wire, but it does not wait for it
  // to start -- so an uncontended transfer costs one occupancy, not
  // two (cut-through, not store-and-forward).
  double &RxFree = Intra ? MemRxFree[DstNode] : NicRxFree[DstNode];
  double RxStart = std::max(Now, RxFree);
  double RxOccupancy = Link.rxOccupancy(O.Bytes) * noise(RxStart);
  if (Faults && !Intra)
    RxOccupancy *= Faults->rxGapMultiplier(DstNode, RxStart);
  double RxDone = std::max(RxStart + RxOccupancy, LastByteArrival[Id]);
  RxFree = RxDone;
  if (Faults) {
    double &Prev = ChannelLastAvail[channelKey(O.Rank, O.Peer, O.Tag)];
    RxDone = std::max(RxDone, Prev);
    Prev = RxDone;
  }
  push(RxDone, EventKind::MsgAvailable, Id);
}

void Executor::startCompute(OpId Id, double Now) {
  const Op &O = S.op(Id);
  double CpuStart = std::max(Now, CpuFree[O.Rank]);
  double CpuDone = CpuStart + O.Duration * cpuFactor(O.Rank, CpuStart);
  CpuFree[O.Rank] = CpuDone;
  Result.Timings[Id].StartTime = CpuStart;
  if (CpuDone == Now) {
    // Zero-length join: finish inline to avoid flooding the heap.
    finishOp(Id, Now);
    return;
  }
  push(CpuDone, EventKind::OpDone, Id);
}

void Executor::postRecv(OpId Id, double Now) {
  const Op &O = S.op(Id);
  MatchChannel &Channel = Channels[channelKey(O.Peer, O.Rank, O.Tag)];
  if (!Channel.ArrivedMsgs.empty()) {
    auto [AvailTime, Bytes] = Channel.ArrivedMsgs.front();
    Channel.ArrivedMsgs.pop_front();
    assert(AvailTime <= Now && "message matched before it arrived");
    completeRecv(Id, Now, Bytes);
    return;
  }
  Channel.PostedRecvs.push_back(Id);
}

void Executor::completeRecv(OpId RecvId, double Now, std::uint64_t Bytes) {
  const Op &O = S.op(RecvId);
  assert(O.Bytes == Bytes && "matched message size mismatch");
  double CpuStart = std::max(Now, CpuFree[O.Rank]);
  double CpuDone =
      CpuStart + P.RecvOverhead * noise(CpuStart) * cpuFactor(O.Rank, CpuStart);
  CpuFree[O.Rank] = CpuDone;
  Result.Timings[RecvId].StartTime = CpuStart;
  Result.BytesReceived[O.Rank] += Bytes;
  push(CpuDone, EventKind::OpDone, RecvId);
}

ExecutionResult Executor::run() {
  const std::uint32_t NumOps = static_cast<std::uint32_t>(S.Ops.size());
  Result.Timings.assign(NumOps, OpTiming());
  Result.BytesReceived.assign(S.RankCount, 0);
  Result.BytesSent.assign(S.RankCount, 0);
  LastByteArrival.assign(NumOps, 0.0);

  PendingDeps.assign(NumOps, 0);
  Dependents.assign(NumOps, {});
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const Op &O = S.Ops[Id];
    PendingDeps[Id] = static_cast<std::uint32_t>(O.Deps.size());
    for (OpId Dep : O.Deps)
      Dependents[Dep].push_back(Id);
  }

  CpuFree.assign(S.RankCount, 0.0);
  NicTxFree.assign(P.NodeCount, 0.0);
  NicRxFree.assign(P.NodeCount, 0.0);
  MemTxFree.assign(P.NodeCount, 0.0);
  MemRxFree.assign(P.NodeCount, 0.0);

  // Activate the roots of the DAG at t = 0, in op-id order. Gate on
  // the static dependency list, not the live counter: a zero-duration
  // root finishing inline during this loop already releases (and
  // activates) its dependents, whose counters then read zero.
  for (OpId Id = 0; Id != NumOps; ++Id)
    if (S.Ops[Id].Deps.empty())
      activateOp(Id, 0.0);

  while (!Heap.empty()) {
    Event E = Heap.top();
    Heap.pop();
    switch (E.Kind) {
    case EventKind::TxAcquire:
      onTxAcquire(E.Id, E.Time);
      break;
    case EventKind::MsgArrival:
      onMsgArrival(E.Id, E.Time);
      break;
    case EventKind::OpDone:
      finishOp(E.Id, E.Time);
      break;
    case EventKind::MsgAvailable: {
      const Op &SendOp = S.op(E.Id);
      MatchChannel &Channel =
          Channels[channelKey(SendOp.Rank, SendOp.Peer, SendOp.Tag)];
      if (!Channel.PostedRecvs.empty()) {
        OpId RecvId = Channel.PostedRecvs.front();
        Channel.PostedRecvs.pop_front();
        completeRecv(RecvId, E.Time, SendOp.Bytes);
      } else {
        Channel.ArrivedMsgs.emplace_back(E.Time, SendOp.Bytes);
      }
      break;
    }
    }
  }

  Result.Completed = DoneCount == NumOps;
  if (Faults) {
    Result.FaultWindows = Faults->windows(Result.Makespan);
    Result.FaultScenario = Faults->name();
  }
  if (!Result.Completed) {
    // List every never-completed operation (capped), not just the
    // first: the shape of the stuck set is usually what identifies
    // the bug (one stuck rank vs. a cross-rank wait cycle).
    constexpr unsigned MaxListed = 8;
    unsigned Stuck = 0;
    std::string Detail;
    for (OpId Id = 0; Id != NumOps; ++Id) {
      if (Result.Timings[Id].Done)
        continue;
      if (Stuck++ < MaxListed) {
        const Op &O = S.Ops[Id];
        Detail += strFormat(
            "\n  op %u on rank %u (%s peer=%u tag=%d bytes=%llu)", Id,
            O.Rank,
            O.Kind == OpKind::Send
                ? "send"
                : (O.Kind == OpKind::Recv ? "recv" : "compute"),
            O.Peer, O.Tag,
            static_cast<unsigned long long>(O.Bytes));
      }
    }
    if (Stuck > MaxListed)
      Detail += strFormat("\n  ... and %u more", Stuck - MaxListed);
    Result.Diagnostic =
        strFormat("deadlock: %u of %u ops never completed:%s", Stuck,
                  static_cast<unsigned>(NumOps), Detail.c_str());
  }
  return std::move(Result);
}

namespace {

bool envRequestsVerification() {
  const char *Value = std::getenv("MPICSEL_VERIFY");
  if (!Value)
    return false;
  std::string V(Value);
  return V == "1" || V == "on" || V == "true" || V == "yes";
}

std::atomic<bool> &preflightFlag() {
  static std::atomic<bool> Flag{envRequestsVerification()};
  return Flag;
}

} // namespace

void mpicsel::setPreflightVerification(bool Enabled) {
  preflightFlag().store(Enabled, std::memory_order_relaxed);
}

bool mpicsel::preflightVerificationEnabled() {
  return preflightFlag().load(std::memory_order_relaxed);
}

namespace {

/// Resolves the effective fault schedule: an explicit argument wins,
/// otherwise the process-wide one (MPICSEL_FAULTS or
/// ScopedFaultInjection). An empty schedule degenerates to null so
/// the fault-free fast path stays bit-identical.
const FaultSchedule *resolveFaultSchedule(const FaultSchedule *Faults) {
  if (!Faults)
    Faults = globalFaultSchedule();
  if (Faults && Faults->empty())
    Faults = nullptr;
  return Faults;
}

/// Cross-checks the static pre-flight verdict against what actually
/// happened. The static analysis is exact for this IR (sends are
/// buffered), so any disagreement is a bug in the engine or the
/// verifier.
void crossCheckPreflight(ExecutionResult &Result, const VerifyReport &Report) {
  if (Result.Completed && Report.deadlocks())
    fatalError(strFormat("schedule completed but the static verifier "
                         "predicted deadlock:\n%s",
                         Report.str().c_str()));
  if (!Result.Completed) {
    if (Report.deadlocks())
      Result.Diagnostic +=
          strFormat("\nstatic verifier agrees:\n%s", Report.str().c_str());
    else
      Result.Diagnostic += "\nstatic verifier did NOT predict this "
                           "deadlock (analyzer gap)";
  }
}

} // namespace

ExecutionResult mpicsel::runScheduleLegacy(const Schedule &S,
                                           const Platform &P,
                                           std::uint64_t Seed,
                                           const FaultSchedule *Faults) {
  for ([[maybe_unused]] const Op &O : S.Ops)
    assert(O.Rank < S.RankCount && "schedule rank outside platform");
  assert(S.RankCount <= P.maxProcs() &&
         "schedule does not fit on the platform");

  Faults = resolveFaultSchedule(Faults);

  // Optional static pre-flight: prove the schedule deadlock-free (or
  // not) before spending any simulated time on it.
  const bool Preflight = preflightVerificationEnabled();
  VerifyReport Report;
  if (Preflight)
    Report = verifySchedule(S);

  Executor Exec(S, P, Seed, Faults);
  ExecutionResult Result = Exec.run();
  obs::bump(obs::Counter::EngineLegacyRuns);

  if (Preflight)
    crossCheckPreflight(Result, Report);
  return Result;
}

//===----------------------------------------------------------------------===//
// Compiled replay
//===----------------------------------------------------------------------===//

namespace {

/// Packs a compiled-replay event key: Seq << 34 | Kind << 32 | Id. The
/// creation sequence occupies the top bits, so ordering equal-Time
/// events by Key reproduces the legacy (Time, Seq) tiebreak.
std::uint64_t packEventKey(std::uint64_t Seq, EventKind Kind, OpId Id) {
  static_assert(static_cast<unsigned>(EventKind::OpDone) < 4 &&
                    static_cast<unsigned>(EventKind::MsgAvailable) < 4,
                "event kind must fit in two bits");
  assert(Seq < (std::uint64_t{1} << 30) && "event sequence overflow");
  return (Seq << 34) | (static_cast<std::uint64_t>(Kind) << 32) | Id;
}

EventKind eventKind(const ReplayEvent &E) {
  return static_cast<EventKind>((E.Key >> 32) & 3);
}

OpId eventOp(const ReplayEvent &E) { return static_cast<OpId>(E.Key); }

} // namespace

/// All per-run mutable state of the compiled replay. Every container
/// is sized by assign()/resize(), which reuse capacity: after the
/// first run of a given schedule shape nothing here touches the heap
/// again (the event heap is reserved to its worst case up front, see
/// CompiledExecutor::run). Without the timeline (Result.Timings, 32
/// bytes per op) a run keeps 4 bytes per op, 20 per send and 4 per
/// receive, plus the event heap's live part.
struct Engine::RunState {
  ReplayHeap Events;
  std::vector<std::uint32_t> PendingDeps;

  // Resources: free-at times.
  std::vector<double> CpuFree;   // per rank
  std::vector<double> NicTxFree; // per node
  std::vector<double> NicRxFree; // per node
  std::vector<double> MemTxFree; // per node
  std::vector<double> MemRxFree; // per node

  /// Platform::nodeOf per rank, computed once per run so the per-
  /// message hot path reads a table instead of dividing.
  std::vector<std::uint32_t> NodeOfRank;

  /// Last-byte arrival time of each message in flight, per send:
  /// channel C's messages use the slots of its ChannelSendOffsets row
  /// in injection order. Every channel delivers in injection order
  /// (the non-overtaking clamps of onTxAcquire), so a message's k-th
  /// arrival on its channel finds the slot of its k-th injection.
  std::vector<double> LastByteArrival;
  std::vector<std::uint32_t> Injected; // per channel
  std::vector<std::uint32_t> Arrived;  // per channel

  /// Bit per op: whether it is one of the run's ExitOps (set only for
  /// runs without the timeline).
  std::vector<std::uint64_t> ExitMask;

  // Bump-pointer match queues. Channel C's messages live in slots
  // [ChannelSendOffsets[C], ChannelSendOffsets[C+1]) of the arenas,
  // its posted receives in the ChannelRecvOffsets row; Head/Tail are
  // counts relative to the row base. Each send enqueues at most one
  // message and each receive posts at most once, so the rows never
  // overflow and never need to wrap.
  std::vector<double> MsgAvail;
  std::vector<OpId> MsgSender;
  std::vector<OpId> PostedRecvQ;
  std::vector<std::uint32_t> MsgHead;
  std::vector<std::uint32_t> MsgTail;
  std::vector<std::uint32_t> RecvHead;
  std::vector<std::uint32_t> RecvTail;

  // Per-channel monotonic clocks for the fault path's non-overtaking
  // clamps (the legacy engine's hash maps, as dense arrays).
  std::vector<double> ChanLastArrival;
  std::vector<double> ChanLastAvail;

  ExecutionResult Result;

  /// Worst-case live events: every op can hold one completion event,
  /// and every send one additional in-flight message event. Reserving
  /// the bound (rather than warming up to an observed size) keeps
  /// replay allocation-free across *seeds* -- noise shifts how full
  /// the heap actually gets from run to run.
  static std::size_t eventBound(const CompiledSchedule &CS) {
    return std::size_t{CS.numOps()} + CS.NumSends;
  }

  /// Gives every container but the event heap the capacity a run of
  /// \p CS on \p P under \p Opts fills.
  void reserve(const CompiledSchedule &CS, const Platform &P,
               const ReplayOptions &Opts) {
    const std::uint32_t NumOps = CS.numOps();
    if (Opts.RecordTimings)
      Result.Timings.reserve(NumOps);
    Result.ExitTimes.reserve(Opts.ExitOps.size());
    Result.BytesReceived.reserve(CS.RankCount);
    Result.BytesSent.reserve(CS.RankCount);
    PendingDeps.reserve(NumOps);
    CpuFree.reserve(CS.RankCount);
    for (std::vector<double> *Clock :
         {&NicTxFree, &NicRxFree, &MemTxFree, &MemRxFree})
      Clock->reserve(P.NodeCount);
    NodeOfRank.reserve(CS.RankCount);
    LastByteArrival.reserve(CS.NumSends);
    if (!Opts.RecordTimings)
      ExitMask.reserve((NumOps + 63) / 64);
    MsgAvail.reserve(CS.NumSends);
    MsgSender.reserve(CS.NumSends);
    PostedRecvQ.reserve(CS.NumRecvs);
    for (std::vector<std::uint32_t> *PerChannel :
         {&Injected, &Arrived, &MsgHead, &MsgTail, &RecvHead, &RecvTail})
      PerChannel->reserve(CS.NumChannels);
    ChanLastArrival.reserve(CS.NumChannels);
    ChanLastAvail.reserve(CS.NumChannels);
  }
};

namespace {

/// The compiled-replay twin of Executor: identical event semantics and
/// noise-draw order over the flat IR, with all mutable state borrowed
/// from a reusable Engine::RunState. Readiness is decrement-indegree
/// over the CSR successor rows; the event queue is the ReplayHeap of
/// sim/EventQueue.h, keyed on the same (time, sequence) order -- a
/// strict total order (sequence numbers are unique), so it pops events
/// in exactly the order the legacy binary heap did.
class CompiledExecutor {
public:
  CompiledExecutor(Engine::RunState &State, const CompiledSchedule &Compiled,
                   const Platform &Plat, std::uint64_t Seed,
                   const FaultSchedule *FaultSched, const ReplayOptions &Opts)
      : RS(State), CS(Compiled), P(Plat), Rng(Seed), RunSeed(Seed),
        Faults(FaultSched), Record(Opts.RecordTimings),
        ExitOps(Opts.ExitOps) {}

  /// Replays the schedule into RS.Result; returns the events popped.
  std::uint64_t run();

private:
  double noise(double Now) {
    double Sigma = P.NoiseSigma;
    if (Faults)
      Sigma *= Faults->sigmaMultiplier(Now);
    return Rng.nextLogNormalFactor(Sigma);
  }

  double cpuFactor(unsigned Rank, double Now) const {
    return Faults ? Faults->cpuMultiplier(Rank, Now) : 1.0;
  }

  void pushEvent(double Time, EventKind Kind, OpId Id) {
    RS.Events.push(ReplayEvent{Time, packEventKey(NextSeq++, Kind, Id)});
  }

  void activateOp(OpId Id, double Now) {
    if (Record)
      RS.Result.Timings[Id].ReadyTime = Now;
    const CompiledOp &O = CS.Hot[Id];
    switch (O.Kind) {
    case OpKind::Send:
      startSend(Id, O, Now);
      return;
    case OpKind::Compute:
      startCompute(Id, O, Now);
      return;
    case OpKind::Recv:
      postRecv(Id, O, Now);
      return;
    }
  }

  void startSend(OpId Id, const CompiledOp &O, double Now) {
    double CpuStart = std::max(Now, RS.CpuFree[O.Rank]);
    double CpuDone = CpuStart + P.SendOverhead * noise(CpuStart) *
                                    cpuFactor(O.Rank, CpuStart);
    RS.CpuFree[O.Rank] = CpuDone;
    if (Record)
      RS.Result.Timings[Id].StartTime = CpuStart;
    pushEvent(CpuDone, EventKind::TxAcquire, Id);
  }

  void onTxAcquire(OpId Id, double Now) {
    const CompiledOp &O = CS.Hot[Id];
    const unsigned SrcNode = RS.NodeOfRank[O.Rank];
    const bool Intra = SrcNode == RS.NodeOfRank[O.Peer];
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;

    double &TxFree =
        Intra ? RS.MemTxFree[SrcNode] : RS.NicTxFree[SrcNode];
    double TxStart = std::max(Now, TxFree);
    double TxOccupancy = Link.txOccupancy(O.Bytes) * noise(TxStart);
    if (Faults && !Intra)
      TxOccupancy *= Faults->txGapMultiplier(SrcNode, TxStart);
    double TxDone = TxStart + TxOccupancy;
    TxFree = TxDone;

    pushEvent(TxDone, EventKind::OpDone, Id);
    RS.Result.BytesSent[O.Rank] += O.Bytes;
    double &LastByte = RS.LastByteArrival[CS.ChannelSendOffsets[O.Channel] +
                                          RS.Injected[O.Channel]++];

    double Latency = Link.Latency * noise(TxStart);
    if (Faults && !Intra) {
      unsigned DstNode = RS.NodeOfRank[O.Peer];
      Latency *= Faults->latencyMultiplier(SrcNode, DstNode, TxStart);
      Latency += Faults->messageDelay(RunSeed, Id, TxStart);
      double &Prev = RS.ChanLastArrival[O.Channel];
      double Arrival = std::max(TxStart + Latency, Prev);
      Prev = Arrival;
      LastByte = Arrival + (TxDone - TxStart);
      pushEvent(Arrival, EventKind::MsgArrival, Id);
      return;
    }
    // Latency noise alone can invert same-channel first-byte order: a
    // short message injected right behind a long one may draw a smaller
    // latency and overtake it, which the strict arrival-order matcher
    // would pair with the wrong receive. Enforce non-overtaking here
    // too; the non-inverting case keeps the exact pre-clamp arithmetic
    // so unaffected runs stay bit-identical.
    const double Arrival = TxStart + Latency;
    double &Prev = RS.ChanLastArrival[O.Channel];
    if (Arrival >= Prev) {
      Prev = Arrival;
      LastByte = TxDone + Latency;
      pushEvent(Arrival, EventKind::MsgArrival, Id);
      return;
    }
    LastByte = Prev + (TxDone - TxStart);
    pushEvent(Prev, EventKind::MsgArrival, Id);
  }

  void onMsgArrival(OpId Id, double Now) {
    const CompiledOp &O = CS.Hot[Id];
    const unsigned DstNode = RS.NodeOfRank[O.Peer];
    const bool Intra = RS.NodeOfRank[O.Rank] == DstNode;
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;

    double &RxFree =
        Intra ? RS.MemRxFree[DstNode] : RS.NicRxFree[DstNode];
    double RxStart = std::max(Now, RxFree);
    double RxOccupancy = Link.rxOccupancy(O.Bytes) * noise(RxStart);
    if (Faults && !Intra)
      RxOccupancy *= Faults->rxGapMultiplier(DstNode, RxStart);
    const double LastByte =
        RS.LastByteArrival[CS.ChannelSendOffsets[O.Channel] +
                           RS.Arrived[O.Channel]++];
    double RxDone = std::max(RxStart + RxOccupancy, LastByte);
    RxFree = RxDone;
    if (Faults) {
      double &Prev = RS.ChanLastAvail[O.Channel];
      RxDone = std::max(RxDone, Prev);
      Prev = RxDone;
    }
    pushEvent(RxDone, EventKind::MsgAvailable, Id);
  }

  void startCompute(OpId Id, const CompiledOp &O, double Now) {
    double CpuStart = std::max(Now, RS.CpuFree[O.Rank]);
    double CpuDone = CpuStart + O.Duration * cpuFactor(O.Rank, CpuStart);
    RS.CpuFree[O.Rank] = CpuDone;
    if (Record)
      RS.Result.Timings[Id].StartTime = CpuStart;
    if (CpuDone == Now) {
      // Zero-length join: finish inline to avoid flooding the heap.
      finishOp(Id, Now);
      return;
    }
    pushEvent(CpuDone, EventKind::OpDone, Id);
  }

  void postRecv(OpId Id, const CompiledOp &O, double Now) {
    const std::uint32_t C = O.Channel;
    if (RS.MsgHead[C] != RS.MsgTail[C]) {
      const std::uint32_t Slot = CS.ChannelSendOffsets[C] + RS.MsgHead[C]++;
      assert(RS.MsgAvail[Slot] <= Now && "message matched before it arrived");
      completeRecv(Id, Now, CS.Hot[RS.MsgSender[Slot]].Bytes);
      return;
    }
    RS.PostedRecvQ[CS.ChannelRecvOffsets[C] + RS.RecvTail[C]++] = Id;
  }

  void completeRecv(OpId RecvId, double Now, std::uint64_t Bytes) {
    assert(CS.Hot[RecvId].Bytes == Bytes && "matched message size mismatch");
    const unsigned Rank = CS.Hot[RecvId].Rank;
    double CpuStart = std::max(Now, RS.CpuFree[Rank]);
    double CpuDone =
        CpuStart + P.RecvOverhead * noise(CpuStart) * cpuFactor(Rank, CpuStart);
    RS.CpuFree[Rank] = CpuDone;
    if (Record)
      RS.Result.Timings[RecvId].StartTime = CpuStart;
    RS.Result.BytesReceived[Rank] += Bytes;
    pushEvent(CpuDone, EventKind::OpDone, RecvId);
  }

  void finishOp(OpId Id, double Now) {
    if (Record) {
      OpTiming &T = RS.Result.Timings[Id];
      assert(!T.Done && "op finished twice");
      T.Done = true;
      T.DoneTime = Now;
    } else if ((RS.ExitMask[Id / 64] >> (Id % 64)) & 1) {
      for (std::size_t I = 0; I != ExitOps.size(); ++I)
        if (ExitOps[I] == Id)
          RS.Result.ExitTimes[I] = Now;
    }
    RS.Result.Makespan = std::max(RS.Result.Makespan, Now);
    ++DoneCount;
    for (OpId Dep : CS.succsOf(Id)) {
      assert(RS.PendingDeps[Dep] > 0 && "dependent already released");
      if (--RS.PendingDeps[Dep] == 0)
        activateOp(Dep, Now);
    }
  }

  Engine::RunState &RS;
  const CompiledSchedule &CS;
  const Platform &P;
  Xoshiro256 Rng;
  const std::uint64_t RunSeed;
  const FaultSchedule *Faults;
  const bool Record;
  const std::span<const OpId> ExitOps;
  std::uint64_t NextSeq = 0;
  std::uint32_t DoneCount = 0;
};

std::uint64_t CompiledExecutor::run() {
  const std::uint32_t NumOps = CS.numOps();
  ExecutionResult &Result = RS.Result;

  RS.reserve(CS, P, ReplayOptions{Record, ExitOps});
  Result.Completed = false;
  if (Record)
    Result.Timings.assign(NumOps, OpTiming());
  else
    Result.Timings.clear();
  Result.ExitTimes.assign(ExitOps.size(), -1.0);
  Result.Makespan = 0.0;
  Result.BytesReceived.assign(CS.RankCount, 0);
  Result.BytesSent.assign(CS.RankCount, 0);
  Result.Diagnostic.clear();
  Result.FaultWindows.clear();
  Result.FaultScenario.clear();

  RS.PendingDeps.assign(CS.InDegree.begin(), CS.InDegree.end());
  RS.CpuFree.assign(CS.RankCount, 0.0);
  RS.NicTxFree.assign(P.NodeCount, 0.0);
  RS.NicRxFree.assign(P.NodeCount, 0.0);
  RS.MemTxFree.assign(P.NodeCount, 0.0);
  RS.MemRxFree.assign(P.NodeCount, 0.0);
  RS.NodeOfRank.resize(CS.RankCount);
  for (unsigned Rank = 0; Rank != CS.RankCount; ++Rank)
    RS.NodeOfRank[Rank] = P.nodeOf(Rank);
  RS.LastByteArrival.assign(CS.NumSends, 0.0);
  RS.Injected.assign(CS.NumChannels, 0);
  RS.Arrived.assign(CS.NumChannels, 0);
  if (!Record) {
    RS.ExitMask.assign((NumOps + 63) / 64, 0);
    for (OpId Id : ExitOps) {
      assert(Id < NumOps && "exit op out of range");
      RS.ExitMask[Id / 64] |= std::uint64_t{1} << (Id % 64);
    }
  }

  obs::bump(RS.Events.reset(Engine::RunState::eventBound(CS))
                ? obs::Counter::EngineArenaReuses
                : obs::Counter::EngineArenaWarmups);

  RS.MsgAvail.resize(CS.NumSends);
  RS.MsgSender.resize(CS.NumSends);
  RS.PostedRecvQ.resize(CS.NumRecvs);
  RS.MsgHead.assign(CS.NumChannels, 0);
  RS.MsgTail.assign(CS.NumChannels, 0);
  RS.RecvHead.assign(CS.NumChannels, 0);
  RS.RecvTail.assign(CS.NumChannels, 0);
  RS.ChanLastArrival.assign(CS.NumChannels, 0.0);
  RS.ChanLastAvail.assign(CS.NumChannels, 0.0);

  // Activate the roots of the DAG at t = 0, in op-id order. Roots are
  // the *statically* dependency-free ops: a zero-duration root
  // finishing inline during this loop already releases (and
  // activates) its dependents, whose live counters then read zero.
  for (OpId Id : CS.Roots)
    activateOp(Id, 0.0);

  std::uint64_t EventsPopped = 0;
  while (!RS.Events.empty()) {
    const ReplayEvent E = RS.Events.pop();
    ++EventsPopped;
    const OpId Id = eventOp(E);
    switch (eventKind(E)) {
    case EventKind::TxAcquire:
      onTxAcquire(Id, E.Time);
      break;
    case EventKind::MsgArrival:
      onMsgArrival(Id, E.Time);
      break;
    case EventKind::OpDone:
      finishOp(Id, E.Time);
      break;
    case EventKind::MsgAvailable: {
      const std::uint32_t C = CS.Hot[Id].Channel;
      if (RS.RecvHead[C] != RS.RecvTail[C]) {
        OpId RecvId =
            RS.PostedRecvQ[CS.ChannelRecvOffsets[C] + RS.RecvHead[C]++];
        completeRecv(RecvId, E.Time, CS.Hot[Id].Bytes);
      } else {
        const std::uint32_t Slot = CS.ChannelSendOffsets[C] + RS.MsgTail[C]++;
        RS.MsgAvail[Slot] = E.Time;
        RS.MsgSender[Slot] = Id;
      }
      break;
    }
    }
  }

  // Counters are credited once per replay (never per event) so the
  // hot loop stays free of atomics; a local tally costs one register
  // increment per event.
  obs::bump(obs::Counter::EngineReplays);
  obs::bump(obs::Counter::EngineEvents, EventsPopped);

  Result.Completed = DoneCount == NumOps;
  if (Faults) {
    Result.FaultWindows = Faults->windows(Result.Makespan);
    Result.FaultScenario = Faults->name();
  }
  if (Record)
    for (std::size_t I = 0; I != ExitOps.size(); ++I) {
      assert(ExitOps[I] < NumOps && "exit op out of range");
      Result.ExitTimes[I] = Result.Timings[ExitOps[I]].DoneTime;
    }
  // Without the timeline, Engine::run reruns a deadlock to list it.
  if (!Result.Completed && Record) {
    // List every never-completed operation (capped), not just the
    // first: the shape of the stuck set is usually what identifies
    // the bug (one stuck rank vs. a cross-rank wait cycle).
    constexpr unsigned MaxListed = 8;
    unsigned Stuck = 0;
    std::string Detail;
    for (OpId Id = 0; Id != NumOps; ++Id) {
      if (Result.Timings[Id].Done)
        continue;
      if (Stuck++ < MaxListed)
        Detail += strFormat(
            "\n  op %u on rank %u (%s peer=%u tag=%d bytes=%llu)", Id,
            CS.OpRank[Id],
            CS.Kind[Id] == OpKind::Send
                ? "send"
                : (CS.Kind[Id] == OpKind::Recv ? "recv" : "compute"),
            CS.OpPeer[Id], CS.OpTag[Id],
            static_cast<unsigned long long>(CS.OpBytes[Id]));
    }
    if (Stuck > MaxListed)
      Detail += strFormat("\n  ... and %u more", Stuck - MaxListed);
    Result.Diagnostic =
        strFormat("deadlock: %u of %u ops never completed:%s", Stuck,
                  static_cast<unsigned>(NumOps), Detail.c_str());
  }
  return EventsPopped;
}

} // namespace

Engine::Engine() : State(std::make_unique<RunState>()) {}
Engine::~Engine() = default;

void Engine::reserve(const CompiledSchedule &CS, const Platform &P,
                     const ReplayOptions &Opts) {
  State->reserve(CS, P, Opts);
  State->Events.reset(RunState::eventBound(CS));
}

const ExecutionResult &Engine::run(const CompiledSchedule &CS,
                                   const Platform &P, std::uint64_t Seed,
                                   const FaultSchedule *Faults,
                                   const ReplayOptions &Opts) {
  assert(CS.RankCount <= P.maxProcs() &&
         "schedule does not fit on the platform");

  Faults = resolveFaultSchedule(Faults);

  // The pre-flight analyses the same CSR arrays the replay below
  // executes (see the CompiledSchedule verifySchedule overload).
  const bool Preflight = preflightVerificationEnabled();
  VerifyReport Report;
  if (Preflight)
    Report = verifySchedule(CS);

  LastEvents = CompiledExecutor(*State, CS, P, Seed, Faults, Opts).run();
  if (!State->Result.Completed && !Opts.RecordTimings) {
    // A lean run keeps no record of which ops completed. The same seed
    // replays the same events, so a rerun with the timeline lists the
    // stuck ops; its timeline is dropped again afterwards.
    ReplayOptions WithTimeline = Opts;
    WithTimeline.RecordTimings = true;
    CompiledExecutor(*State, CS, P, Seed, Faults, WithTimeline).run();
    State->Result.Timings.clear();
  }

  if (Preflight)
    crossCheckPreflight(State->Result, Report);
  return State->Result;
}

namespace {

EngineMode envEngineMode() {
  const char *Value = std::getenv("MPICSEL_ENGINE");
  if (Value && std::string(Value) == "legacy")
    return EngineMode::Legacy;
  return EngineMode::Compiled;
}

std::atomic<EngineMode> &engineModeFlag() {
  static std::atomic<EngineMode> Mode{envEngineMode()};
  return Mode;
}

} // namespace

EngineMode mpicsel::engineMode() {
  return engineModeFlag().load(std::memory_order_relaxed);
}

void mpicsel::setEngineMode(EngineMode Mode) {
  engineModeFlag().store(Mode, std::memory_order_relaxed);
}

ExecutionResult mpicsel::runSchedule(const Schedule &S, const Platform &P,
                                     std::uint64_t Seed,
                                     const FaultSchedule *Faults) {
  if (engineMode() == EngineMode::Legacy)
    return runScheduleLegacy(S, P, Seed, Faults);
  // One-shot compile + replay. Loops that re-execute one schedule
  // should compile once (or intern, mpi/ScheduleIntern.h) and drive a
  // long-lived Engine directly; this facade keeps the historical
  // signature for single-shot callers and tests.
  Engine E;
  return E.run(compileSchedule(S), P, Seed, Faults);
}
