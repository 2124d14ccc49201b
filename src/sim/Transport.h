//===- sim/Transport.h - The simulator's transport law ----------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport law of the compiled and the streaming replay, written
/// once: CPU overheads, injection and drain occupancies, wire latency,
/// seeded log-normal noise, fault multipliers and the non-overtaking
/// clamp. An engine keeps only what differs: how it finds an op's
/// rank, nodes, bytes, channel and message id, where it keeps a
/// message's last-byte time, and its own events, queue and readiness
/// bookkeeping. Both engines call the same stages in the same order,
/// so they draw the same noise and produce the same timeline bit for
/// bit. The legacy interpreter (runScheduleLegacy) keeps its own copy
/// of the law as the independent reference the tests compare against.
///
/// Internal to sim/.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_SIM_TRANSPORT_H
#define MPICSEL_SIM_TRANSPORT_H

#include "cluster/Platform.h"
#include "fault/Fault.h"
#include "support/Random.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpicsel {

/// Replay event kinds, packed beside the unique creation sequence in
/// each engine's event key so events pop in (time, sequence) order.
/// Dependency releases happen inline, at the completion's timestamp;
/// only future effects are events. A channel is acquired when the
/// contender physically reaches it -- the injection channel when the
/// CPU hands the message over, the drain channel when the first byte
/// arrives -- so FIFO order is physical arrival order.
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

/// The effective fault schedule of a run: an explicit argument wins,
/// otherwise the process-wide one (MPICSEL_FAULTS or
/// ScopedFaultInjection). An empty schedule degenerates to null, so
/// the fault-free path stays bit-identical.
inline const FaultSchedule *resolveFaultSchedule(const FaultSchedule *Faults) {
  if (!Faults)
    Faults = globalFaultSchedule();
  if (Faults && Faults->empty())
    Faults = nullptr;
  return Faults;
}

/// When each channel of a run is next free. An engine keeps one across
/// runs, so a warm replay allocates nothing.
struct TransportClocks {
  // Per node: the NIC and the intra-node memory channel, each with an
  // injection (tx) and a drain (rx) side.
  std::vector<double> NicTxFree, NicRxFree, MemTxFree, MemRxFree;
  // Per match channel, MPI's non-overtaking guarantee: a delayed
  // message holds up everything behind it on its channel, so every
  // channel delivers in injection order. LastArrival clamps first-byte
  // arrivals; drain keeps that order (see Transport::drain).
  std::vector<double> LastArrival;

  void reserve(unsigned Nodes, std::size_t Channels) {
    for (std::vector<double> *Clock :
         {&NicTxFree, &NicRxFree, &MemTxFree, &MemRxFree})
      Clock->reserve(Nodes);
    LastArrival.reserve(Channels);
  }

  void reset(unsigned Nodes, std::size_t Channels) {
    for (std::vector<double> *Clock :
         {&NicTxFree, &NicRxFree, &MemTxFree, &MemRxFree})
      Clock->assign(Nodes, 0.0);
    LastArrival.assign(Channels, 0.0);
  }

  /// Heap bytes retained (capacities, not sizes).
  std::size_t footprintBytes() const {
    return (NicTxFree.capacity() + NicRxFree.capacity() +
            MemTxFree.capacity() + MemRxFree.capacity() +
            LastArrival.capacity()) *
           sizeof(double);
  }
};

/// The transport law of one run over an engine's clocks. Each stage
/// updates the clocks and returns the times the engine turns into
/// events; the engine keeps the per-rank CPU clocks and passes one in.
class Transport {
public:
  /// \p FaultSched is resolved (resolveFaultSchedule); null is
  /// fault-free.
  Transport(TransportClocks &Clocks, const Platform &Plat, std::uint64_t Seed,
            const FaultSchedule *FaultSched)
      : C(Clocks), P(Plat), Rng(Seed), RunSeed(Seed), Faults(FaultSched) {}

  const FaultSchedule *faults() const { return Faults; }

  struct Message {
    unsigned SrcNode;
    unsigned DstNode;
    std::uint64_t Bytes;
    std::uint32_t Channel; ///< index into the per-channel clocks
  };

  /// A CPU stage: acquired at Start, released at Done.
  struct Span {
    double Start;
    double Done;
  };

  /// A send's initiation: SendOverhead on the sender's CPU.
  Span sendCpu(double &CpuFree, unsigned Rank, double Now) {
    return overhead(CpuFree, Rank, Now, P.SendOverhead);
  }

  /// A matched receive's completion: RecvOverhead on the receiver's CPU.
  Span recvCpu(double &CpuFree, unsigned Rank, double Now) {
    return overhead(CpuFree, Rank, Now, P.RecvOverhead);
  }

  /// \p Duration seconds of local work: noise-free, stretched only by a
  /// straggler fault.
  Span compute(double &CpuFree, unsigned Rank, double Now, double Duration) {
    const double Start = std::max(Now, CpuFree);
    CpuFree = Start + Duration * cpuFactor(Rank, Start);
    return {Start, CpuFree};
  }

  struct Injection {
    double TxDone;   ///< injection ends: the send completes (buffered)
    double Arrival;  ///< the first byte reaches the destination node
    double LastByte; ///< the last byte leaves the wire
  };

  /// The sender's CPU hands \p M over at \p Now. It occupies the source
  /// node's injection channel, FIFO in hand-over order; its first byte
  /// lands Latency after injection starts, its last byte Latency after
  /// injection ends. A degraded link stretches occupancy and latency;
  /// latency spikes and stalls, decided by hashing \p MsgId, delay the
  /// whole message (a hung transfer is delayed, never dropped).
  Injection inject(const Message &M, OpId MsgId, double Now) {
    const bool Intra = M.SrcNode == M.DstNode;
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;
    double &TxFree = Intra ? C.MemTxFree[M.SrcNode] : C.NicTxFree[M.SrcNode];
    const double TxStart = std::max(Now, TxFree);
    double TxOccupancy = Link.txOccupancy(M.Bytes) * noise(TxStart);
    if (Faults && !Intra)
      TxOccupancy *= Faults->txGapMultiplier(M.SrcNode, TxStart);
    const double TxDone = TxStart + TxOccupancy;
    TxFree = TxDone;

    double Latency = Link.Latency * noise(TxStart);
    double &Prev = C.LastArrival[M.Channel];
    if (Faults && !Intra) {
      Latency *= Faults->latencyMultiplier(M.SrcNode, M.DstNode, TxStart);
      Latency += Faults->messageDelay(RunSeed, MsgId, TxStart);
      const double Arrival = std::max(TxStart + Latency, Prev);
      Prev = Arrival;
      return {TxDone, Arrival, Arrival + (TxDone - TxStart)};
    }
    // Latency noise alone can invert same-channel first-byte order: a
    // short message injected right behind a long one may draw a smaller
    // latency and overtake it, which the arrival-order matcher would
    // pair with the wrong receive. Without an inversion the arithmetic
    // is exactly the unclamped one.
    const double Arrival = TxStart + Latency;
    if (Arrival >= Prev) {
      Prev = Arrival;
      return {TxDone, Arrival, TxDone + Latency};
    }
    return {TxDone, Prev, Prev + (TxDone - TxStart)};
  }

  /// The first byte of \p M reaches its destination node at \p Now;
  /// returns when the message has drained and can match. The drain
  /// channel is acquired in first-byte order and overlaps the
  /// injection: it cannot end before \p LastByte but does not wait for
  /// it to start, so an uncontended transfer costs one occupancy, not
  /// two (cut-through). It needs no clamp of its own: a channel's
  /// messages reach it in injection order (the arrival clamp, with
  /// ties popped by creation sequence) and share one node drain clock
  /// that only moves forward, so each one is available no earlier than
  /// its predecessor.
  double drain(const Message &M, double LastByte, double Now) {
    const bool Intra = M.SrcNode == M.DstNode;
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;
    double &RxFree = Intra ? C.MemRxFree[M.DstNode] : C.NicRxFree[M.DstNode];
    const double RxStart = std::max(Now, RxFree);
    double RxOccupancy = Link.rxOccupancy(M.Bytes) * noise(RxStart);
    if (Faults && !Intra)
      RxOccupancy *= Faults->rxGapMultiplier(M.DstNode, RxStart);
    RxFree = std::max(RxStart + RxOccupancy, LastByte);
    return RxFree;
  }

private:
  /// Noise factor for a cost paid at \p Now; a noise-regime fault
  /// scales sigma. Faults never change the draw count.
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

  Span overhead(double &CpuFree, unsigned Rank, double Now, double Cost) {
    const double Start = std::max(Now, CpuFree);
    CpuFree = Start + Cost * noise(Start) * cpuFactor(Rank, Start);
    return {Start, CpuFree};
  }

  TransportClocks &C;
  const Platform &P;
  Xoshiro256 Rng;
  const std::uint64_t RunSeed;
  const FaultSchedule *const Faults;
};

} // namespace mpicsel

#endif // MPICSEL_SIM_TRANSPORT_H
