//===- cluster/Platform.h - Simulated cluster descriptions -----*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Describes the hardware the simulator executes on: node count,
/// process-to-node mapping, and the LogGP-flavoured parameters of the
/// inter-node and intra-node transports.
///
/// The paper's testbeds are two Grid'5000 clusters (Sect. 5.1):
///   * Grisou: 51 nodes, 2 x Intel Xeon E5-2630 v3 (one MPI process per
///     CPU, so two ranks per node), 10 Gbps Ethernet, max 90 processes.
///   * Gros: 124 nodes, 1 x Intel Xeon Gold 5220, 2 x 25 Gb Ethernet,
///     one rank per node, max 124 processes.
/// makeGrisou() / makeGros() build synthetic stand-ins whose parameters
/// are chosen to land in the same regime (latency-dominated small
/// messages over TCP/Ethernet, ~1-5 GB/s effective per-flow bandwidth).
/// Absolute times will not match the physical machines; the
/// reproduction targets behavioural shape, as documented in DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_CLUSTER_PLATFORM_H
#define MPICSEL_CLUSTER_PLATFORM_H

#include <cassert>
#include <cstdint>
#include <string>

namespace mpicsel {

/// Transport parameters of one class of links (inter-node NIC path or
/// intra-node shared-memory path). The decomposition follows LogGP:
/// a per-message fixed cost, a per-byte streaming cost on both the
/// injection (tx) and drain (rx) sides, and a wire latency that
/// overlaps across concurrent messages.
struct LinkParams {
  /// One-way wire latency (seconds): a message's first byte reaches the
  /// receiver this long after its injection starts, its last byte this
  /// long after injection ends. Latencies of concurrent messages
  /// overlap fully.
  double Latency = 0.0;
  /// Fixed occupancy of the sender's injection channel per message.
  double TxGapPerMessage = 0.0;
  /// Per-byte occupancy of the sender's injection channel. Messages
  /// leaving the same node serialise through this channel.
  double TxGapPerByte = 0.0;
  /// Fixed occupancy of the receiver's drain channel per message.
  double RxGapPerMessage = 0.0;
  /// Per-byte occupancy of the receiver's drain channel. Messages
  /// arriving at the same node serialise through this channel.
  double RxGapPerByte = 0.0;

  /// The serialised injection-side cost of an \p Bytes-byte message.
  double txOccupancy(std::uint64_t Bytes) const {
    return TxGapPerMessage + static_cast<double>(Bytes) * TxGapPerByte;
  }

  /// The serialised drain-side cost of an \p Bytes-byte message.
  double rxOccupancy(std::uint64_t Bytes) const {
    return RxGapPerMessage + static_cast<double>(Bytes) * RxGapPerByte;
  }
};

/// How ranks are laid out over nodes.
enum class MappingKind {
  /// Ranks 0..ProcsPerNode-1 on node 0, the next block on node 1, ...
  /// (mpirun --map-by core).
  Block,
  /// Rank r on node r mod NodeCount (mpirun --map-by node): consecutive
  /// ranks land on distinct nodes, so small-communicator experiments
  /// exercise the inter-node transport.
  Cyclic,
};

/// A homogeneous cluster: identical nodes, a configurable rank-to-node
/// mapping, one transport parameter set for node-local pairs and one
/// for remote pairs.
struct Platform {
  /// Human-readable name ("grisou", "gros", ...).
  std::string Name;
  /// Number of physical nodes.
  unsigned NodeCount = 1;
  /// MPI processes launched per node (the paper uses one per CPU
  /// socket: 2 on Grisou, 1 on Gros).
  unsigned ProcsPerNode = 1;
  /// CPU time consumed by the sending process to initiate a (non-)
  /// blocking send. Consecutive sends from one process serialise
  /// through this overhead -- one ingredient of the paper's gamma(P).
  double SendOverhead = 0.0;
  /// CPU time consumed by the receiving process to complete a receive.
  double RecvOverhead = 0.0;
  /// Transport between processes on different nodes.
  LinkParams InterNode;
  /// Transport between processes on the same node.
  LinkParams IntraNode;
  /// Sigma of the multiplicative log-normal noise applied to every
  /// channel occupancy and latency. 0 gives a noiseless simulator.
  double NoiseSigma = 0.0;
  /// Rank-to-node layout.
  MappingKind Mapping = MappingKind::Block;
  /// CPU cost of combining one byte of one operand pair in a
  /// reduction (seconds/byte) -- e.g. ~0.1 ns/B for a memory-bound
  /// MPI_SUM on doubles.
  double ReduceComputePerByte = 0.1e-9;

  /// Largest number of ranks this platform can host.
  unsigned maxProcs() const { return NodeCount * ProcsPerNode; }

  /// Node hosting \p Rank under the configured mapping.
  unsigned nodeOf(unsigned Rank) const {
    assert(ProcsPerNode > 0 && "platform not initialised");
    assert(Rank < maxProcs() && "rank outside the platform");
    if (Mapping == MappingKind::Cyclic)
      return Rank % NodeCount;
    return Rank / ProcsPerNode;
  }

  /// True if \p RankA and \p RankB share a node.
  bool sameNode(unsigned RankA, unsigned RankB) const {
    return nodeOf(RankA) == nodeOf(RankB);
  }

  /// The transport parameters governing a message between two ranks.
  const LinkParams &linkBetween(unsigned From, unsigned To) const {
    return sameNode(From, To) ? IntraNode : InterNode;
  }

  /// A copy of this platform launched with one rank per node (the
  /// "one slot per host" hostfile trick). Micro-benchmarks that probe
  /// inter-node behaviour -- the gamma(P) estimation in particular --
  /// run on this layout so that small communicators do not fold onto
  /// a single node.
  Platform withOneRankPerNode() const {
    Platform Copy = *this;
    Copy.ProcsPerNode = 1;
    return Copy;
  }
};

/// Synthetic stand-in for the Grid'5000 Grisou cluster (45+ usable
/// nodes x 2 ranks, 10 GbE). Supports the paper's 90-process runs.
Platform makeGrisou();

/// Synthetic stand-in for the Grid'5000 Gros cluster (124 nodes x 1
/// rank, 2 x 25 Gb Ethernet). Supports the paper's 124-process runs.
Platform makeGros();

/// A Grisou-parameter cluster scaled out to host \p RankCount ranks
/// (two per node, block-mapped): the platform behind the streaming
/// engine's 100k-1M-rank scale runs. Purely synthetic -- no physical
/// Ethernet fabric stays flat at half a million NICs -- but it keeps
/// the per-node contention pattern of the calibrated regime while the
/// event core is stressed.
Platform makeScalePlatform(unsigned RankCount);

/// A deliberately tiny, perfectly noiseless platform for unit tests:
/// every parameter is a round number so expected event times can be
/// computed by hand.
Platform makeTestPlatform(unsigned NodeCount, unsigned ProcsPerNode = 1);

/// Looks up a platform by name ("grisou", "gros"); aborts on unknown
/// names. Used by the bench/example command lines.
Platform platformByName(const std::string &Name);

} // namespace mpicsel

#endif // MPICSEL_CLUSTER_PLATFORM_H
