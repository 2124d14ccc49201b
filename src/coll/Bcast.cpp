//===- coll/Bcast.cpp - Segmented tree broadcast schedules -----------------===//

#include "coll/Bcast.h"

#include "coll/Primitives.h"
#include "support/Error.h"
#include "support/Format.h"
#include "topo/Tree.h"

#include <algorithm>
#include <cassert>

using namespace mpicsel;

std::uint64_t mpicsel::bcastSegmentCount(std::uint64_t MessageBytes,
                                         std::uint64_t SegmentBytes) {
  assert(MessageBytes >= 1 && "empty broadcast");
  if (SegmentBytes == 0 || SegmentBytes >= MessageBytes)
    return 1;
  return (MessageBytes + SegmentBytes - 1) / SegmentBytes;
}

std::uint64_t mpicsel::bcastSegmentBytes(std::uint64_t MessageBytes,
                                         std::uint64_t SegmentBytes,
                                         std::uint64_t NumSegments,
                                         std::uint64_t Seg) {
  assert(Seg < NumSegments && "segment index out of range");
  if (NumSegments == 1)
    return MessageBytes;
  if (Seg + 1 < NumSegments)
    return SegmentBytes;
  return MessageBytes - SegmentBytes * (NumSegments - 1);
}

namespace {

/// A message as the segmented algorithms cut it.
struct Segmented {
  Segmented(std::uint64_t Total, std::uint64_t Segment)
      : Bytes(Total), SegmentBytes(Segment),
        Count(bcastSegmentCount(Total, Segment)) {}

  std::uint64_t segment(std::uint64_t Seg) const {
    return bcastSegmentBytes(Bytes, SegmentBytes, Count, Seg);
  }

  std::uint64_t Bytes;
  std::uint64_t SegmentBytes;
  std::uint64_t Count;
};

/// Emits the ops of one non-root rank of a segmented tree broadcast of
/// \p Msg from \p Parent to \p Children, after \p First, and returns
/// the rank's exit. The request structure is Open MPI's:
///   leaf:     double-buffered receives -- irecv(s) is posted after
///             recv(s-2) completed (two outstanding requests) -- and
///             one final waitall;
///   interior: irecv(0); for s in 1..n_s-1: irecv(s), wait(recv s-1),
///             isend seg s-1 to children, waitall(sends);
///             wait(recv n_s-1), isend last seg, waitall.
/// \p Scratch is the caller's reusable op list.
OpId appendTreeBcastRole(ScheduleBuilder &B, unsigned Rank, unsigned Parent,
                         std::span<const unsigned> Children,
                         const Segmented &Msg, int Tag,
                         std::span<const OpId> First,
                         std::vector<OpId> &Scratch) {
  Scratch.clear();
  if (Children.empty()) {
    for (std::uint64_t Seg = 0; Seg != Msg.Count; ++Seg)
      Scratch.push_back(B.addRecv(Rank, Parent, Msg.segment(Seg), Tag,
                                  Seg < 2 ? First : depOn(Scratch[Seg - 2])));
    return B.addJoin(Rank, Scratch);
  }

  // SendJoin[0] closes the sends of segment s-1, SendJoin[1] those of
  // segment s-2.
  OpId SendJoin[2] = {InvalidOpId, InvalidOpId};
  for (std::uint64_t Seg = 0; Seg != Msg.Count; ++Seg) {
    const std::uint64_t Bytes = Msg.segment(Seg);
    // irecv(s) is posted at the top of loop iteration s, i.e. after
    // iteration s-1 finished its waitall of the sends of segment s-2.
    const OpId Recv = B.addRecv(Rank, Parent, Bytes, Tag,
                                Seg < 2 ? First : depOn(SendJoin[1]));
    // Forward segment s once received; the isends are also
    // program-ordered after the previous segment's waitall.
    const OpId SendDeps[] = {Recv, SendJoin[0]};
    const std::span<const OpId> SendAfter(SendDeps, Seg == 0 ? 1 : 2);
    Scratch.clear();
    for (unsigned Child : Children)
      Scratch.push_back(B.addSend(Rank, Child, Bytes, Tag, SendAfter));
    SendJoin[1] = SendJoin[0];
    SendJoin[0] = B.addJoin(Rank, Scratch);
  }
  return SendJoin[0];
}

/// The tree of a tree broadcast: its kind and, for chains, the number
/// of chains.
struct TreeShape {
  TreeKind Kind;
  unsigned Fanout;
};

/// The ops appendTreeBcast emits over \p Shape, from the closed-form
/// child counts (no tree is built): the root emits |children| sends + 1
/// join per segment, a leaf one recv per segment + 1 final join, an
/// interior rank recv + |children| sends + join per segment.
std::uint64_t treeBcastOpCount(TreeShape Shape, unsigned P, unsigned Root,
                               const Segmented &Msg) {
  std::uint64_t OpCount = 0;
  for (unsigned Rank = 0; Rank != P; ++Rank) {
    const std::uint64_t NumChildren =
        treeNodeInfo(Shape.Kind, P, Root, Shape.Fanout, Rank).NumChildren;
    if (Rank == Root)
      OpCount += Msg.Count * (NumChildren + 1);
    else if (NumChildren == 0)
      OpCount += Msg.Count + 1;
    else
      OpCount += Msg.Count * (NumChildren + 2);
  }
  return OpCount;
}

/// The generic segmented tree broadcast engine, a schedule-level
/// transcription of `ompi_coll_base_bcast_intra_generic` (Open MPI
/// 3.1, coll/base/coll_base_bcast.c). Emits ops for every rank of the
/// tree of \p Shape rooted at \p Root and returns the per-rank exits.
/// The root sends each segment to all its children and waits for those
/// sends; every other rank plays appendTreeBcastRole.
std::vector<OpId> appendTreeBcast(ScheduleBuilder &B, TreeShape Shape,
                                  unsigned Root, const Segmented &Msg,
                                  int Tag, std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(P >= 2 && "a one-rank broadcast is a lone join");
  const Tree T = buildTreeOfKind(Shape.Kind, P, Root, Shape.Fanout);

  B.reserveOps(treeBcastOpCount(Shape, P, Root, Msg));

  std::vector<OpId> Exit(P, InvalidOpId);
  std::vector<OpId> Scratch;
  for (unsigned Rank = 0; Rank != P; ++Rank) {
    const std::vector<unsigned> &Children = T.Children[Rank];
    const std::span<const OpId> First = entryDep(Entry, Rank);
    if (Rank != T.Root) {
      Exit[Rank] = appendTreeBcastRole(B, Rank,
                                       static_cast<unsigned>(T.Parent[Rank]),
                                       Children, Msg, Tag, First, Scratch);
      continue;
    }
    // Root: no receives; per segment isend to every child + waitall.
    OpId PrevJoin = InvalidOpId;
    for (std::uint64_t Seg = 0; Seg != Msg.Count; ++Seg) {
      const std::uint64_t Bytes = Msg.segment(Seg);
      Scratch.clear();
      for (unsigned Child : Children)
        Scratch.push_back(B.addSend(Rank, Child, Bytes, Tag,
                                    Seg == 0 ? First : depOn(PrevJoin)));
      PrevJoin = B.addJoin(Rank, Scratch);
    }
    Exit[Rank] = PrevJoin;
  }
  return Exit;
}

/// Open MPI basic linear broadcast: the root posts a non-blocking send
/// of the whole (unsegmented) message to every other rank, in
/// increasing shifted-rank order, and waits for all of them; receivers
/// post one receive.
std::vector<OpId> appendLinearBcast(ScheduleBuilder &B,
                                    const BcastConfig &Config,
                                    std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  const unsigned Root = Config.Root;
  B.reserveOps(bcastOpCount(Config, P));
  const std::span<const OpId> RootFirst = entryDep(Entry, Root);
  std::vector<OpId> Sends;
  Sends.reserve(P - 1);
  for (unsigned Offset = 1; Offset != P; ++Offset)
    Sends.push_back(B.addSend(Root, (Root + Offset) % P, Config.MessageBytes,
                              Config.Tag, RootFirst));
  std::vector<OpId> Exit(P, InvalidOpId);
  Exit[Root] = B.addJoin(Root, Sends);
  for (unsigned Rank = 0; Rank != P; ++Rank)
    if (Rank != Root)
      Exit[Rank] = B.addRecv(Rank, Root, Config.MessageBytes, Config.Tag,
                             entryDep(Entry, Rank));
  return Exit;
}

/// Split-binary's shape: the in-order binary tree, its two subtrees'
/// ranks in ascending virtual-rank order, and the message's halves.
struct SplitBinaryPlan {
  SplitBinaryPlan(unsigned P, const BcastConfig &Config)
      : T(buildInOrderBinaryTree(P, Config.Root)),
        Half{{(Config.MessageBytes + 1) / 2, Config.SegmentBytes},
             {Config.MessageBytes / 2, Config.SegmentBytes}} {
    const unsigned Root = Config.Root;
    assert(T.Children[Root].size() == 2 && "split tree root must have two "
                                           "subtrees for P >= 3");
    // Pair by ascending virtual rank; subtree blocks are contiguous in
    // vrank space, so sorting by vrank is well defined.
    auto byVrank = [&](unsigned A, unsigned C) {
      return (A + P - Root) % P < (C + P - Root) % P;
    };
    for (int H = 0; H != 2; ++H) {
      Subtree[H] = T.subtreeRanks(T.Children[Root][H]);
      std::sort(Subtree[H].begin(), Subtree[H].end(), byVrank);
    }
  }

  /// Closed-form op count across both phases (see the emission loops
  /// of appendSplitBinaryBcast for the per-role breakdown).
  std::uint64_t opCount() const {
    // Root phase 1: S0 + S1 sends, one join per round.
    std::uint64_t OpCount =
        Half[0].Count + Half[1].Count + std::max(Half[0].Count, Half[1].Count);
    for (int H = 0; H != 2; ++H) {
      for (unsigned Rank : Subtree[H]) {
        const std::uint64_t NumChildren = T.Children[Rank].size();
        OpCount += NumChildren == 0 ? Half[H].Count + 1
                                    : Half[H].Count * (NumChildren + 2);
      }
    }
    // Phase 2: each pair swaps both halves segment-wise and joins.
    const std::uint64_t NumPairs =
        std::min(Subtree[0].size(), Subtree[1].size());
    OpCount += NumPairs * (2 * (Half[0].Count + Half[1].Count) + 2);
    // Unpaired left ranks drain half 1 from the root.
    const std::uint64_t Unpaired = Subtree[0].size() - NumPairs;
    OpCount += Unpaired * (2 * Half[1].Count + 1) + (Unpaired != 0 ? 1 : 0);
    return OpCount;
  }

  Tree T;
  std::vector<unsigned> Subtree[2];
  Segmented Half[2];
};

/// Tiny communicators degenerate exactly as in Open MPI, which falls
/// back for size <= 3 or messages that cannot be split: split-binary
/// then broadcasts down a chain.
bool splitBinaryFallsBack(unsigned P, std::uint64_t MessageBytes) {
  return P <= 2 || MessageBytes < 2;
}
constexpr TreeShape SplitBinaryFallback = {TreeKind::Chain, 1};

/// Split-binary broadcast (`bcast_intra_split_bintree`): the message
/// is split in two halves pipelined down the two subtrees of an
/// in-order binary tree; afterwards each left-subtree rank exchanges
/// halves with its positional pair in the right subtree. When the
/// left subtree is larger, the unpaired rank receives the missing
/// half directly from the root (a simplification of Open MPI's
/// remainder handling that preserves the communication volume and the
/// single extra exchange step).
std::vector<OpId> appendSplitBinaryBcast(ScheduleBuilder &B,
                                         const BcastConfig &Config,
                                         std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  const unsigned Root = Config.Root;

  if (splitBinaryFallsBack(P, Config.MessageBytes))
    return appendTreeBcast(B, SplitBinaryFallback, Root,
                           Segmented(Config.MessageBytes, Config.SegmentBytes),
                           Config.Tag, Entry);

  const SplitBinaryPlan Plan(P, Config);
  const Tree &T = Plan.T;
  const std::vector<unsigned> &LeftRanks = Plan.Subtree[0];
  const std::vector<unsigned> &RightRanks = Plan.Subtree[1];
  const auto &Half = Plan.Half;
  B.reserveOps(Plan.opCount());

  // Phase 1: pipeline half h down subtree h, with the half's tag. The
  // root interleaves the two halves' segments round by round (the
  // round-robin of the Open MPI implementation): per round, segment s
  // of half 0 to the left child and of half 1 to the right child, then
  // a waitall. Subtree members play the tree broadcast's roles.
  std::vector<OpId> PhaseOneExit(P, InvalidOpId);
  {
    const std::span<const OpId> First = entryDep(Entry, Root);
    OpId PrevJoin = InvalidOpId;
    const std::uint64_t Rounds = std::max(Half[0].Count, Half[1].Count);
    for (std::uint64_t Seg = 0; Seg != Rounds; ++Seg) {
      OpId Sends[2];
      std::size_t NumSends = 0;
      for (int H = 0; H != 2; ++H)
        if (Seg < Half[H].Count)
          Sends[NumSends++] =
              B.addSend(Root, T.Children[Root][H], Half[H].segment(Seg),
                        Config.Tag + H, Seg == 0 ? First : depOn(PrevJoin));
      PrevJoin = B.addJoin(Root, std::span(Sends, NumSends));
    }
    PhaseOneExit[Root] = PrevJoin;
  }
  std::vector<OpId> Scratch;
  for (int H = 0; H != 2; ++H)
    for (unsigned Rank : Plan.Subtree[H])
      PhaseOneExit[Rank] = appendTreeBcastRole(
          B, Rank, static_cast<unsigned>(T.Parent[Rank]), T.Children[Rank],
          Half[H], Config.Tag + H, entryDep(Entry, Rank), Scratch);

  // Phase 2: pairwise exchange of halves. Left rank i <-> right rank
  // i swap their halves with a sendrecv; an unpaired left rank (left
  // subtree is at most one larger) receives the right half from the
  // root. The exchanged half travels as segments -- on a physical
  // wire the sendrecv's bytes interleave with other traffic at packet
  // granularity, and segmenting is how this message-granularity
  // simulator expresses that (an unsegmented half would head-of-line
  // block its receiver's still-draining pipeline tail).
  std::vector<OpId> Exit(P, InvalidOpId);
  const int XTag = Config.Tag + 2;

  // Emits the segmented one-way transfer Src -> Dst of half H as
  // (send, recv) pairs and returns the first op: its sends are then
  // Base, Base + 2, ... and its receives Base + 1, Base + 3, ...
  auto transfer = [&](unsigned Src, unsigned Dst, int H) {
    const OpId Base = B.numOps();
    for (std::uint64_t Seg = 0; Seg != Half[H].Count; ++Seg) {
      const std::uint64_t Bytes = Half[H].segment(Seg);
      B.addSend(Src, Dst, Bytes, XTag, depOn(PhaseOneExit[Src]));
      B.addRecv(Dst, Src, Bytes, XTag, depOn(PhaseOneExit[Dst]));
    }
    return Base;
  };
  // Appends the sends (Offset 0) or the receives (Offset 1) of the
  // transfer of half H that starts at Base to \p Ops.
  auto collect = [&](std::vector<OpId> &Ops, OpId Base, int H,
                     unsigned Offset) {
    for (std::uint64_t Seg = 0; Seg != Half[H].Count; ++Seg)
      Ops.push_back(static_cast<OpId>(Base + 2 * Seg + Offset));
  };

  const std::size_t Pairs = std::min(LeftRanks.size(), RightRanks.size());
  for (std::size_t I = 0; I != Pairs; ++I) {
    const unsigned L = LeftRanks[I], R = RightRanks[I];
    const OpId LeftToRight = transfer(L, R, /*H=*/0);
    const OpId RightToLeft = transfer(R, L, /*H=*/1);
    // Each rank waits for its sends, then its receives.
    Scratch.clear();
    collect(Scratch, LeftToRight, 0, 0);
    collect(Scratch, RightToLeft, 1, 1);
    Exit[L] = B.addJoin(L, Scratch);
    Scratch.clear();
    collect(Scratch, RightToLeft, 1, 0);
    collect(Scratch, LeftToRight, 0, 1);
    Exit[R] = B.addJoin(R, Scratch);
  }

  assert(LeftRanks.size() >= RightRanks.size() &&
         "in-order tree puts the larger block on the left");
  std::vector<OpId> RootSends;
  for (std::size_t I = Pairs; I < LeftRanks.size(); ++I) {
    const unsigned L = LeftRanks[I];
    const OpId RootToLeft = transfer(Root, L, /*H=*/1);
    collect(RootSends, RootToLeft, 1, 0);
    Scratch.clear();
    collect(Scratch, RootToLeft, 1, 1);
    Exit[L] = B.addJoin(L, Scratch);
  }
  Exit[Root] =
      RootSends.empty() ? PhaseOneExit[Root] : B.addJoin(Root, RootSends);
  return Exit;
}

/// The tree a tree algorithm (chain, K-chain, binary, binomial)
/// broadcasts down.
TreeShape bcastTreeShape(const BcastConfig &Config) {
  switch (Config.Algorithm) {
  case BcastAlgorithm::Chain:
    return {TreeKind::Chain, 1};
  case BcastAlgorithm::KChain:
    assert(Config.KChainFanout >= 1 && "K-chain needs a positive fanout");
    return {TreeKind::Chain, Config.KChainFanout};
  case BcastAlgorithm::Binary:
    return {TreeKind::Binary, 1};
  case BcastAlgorithm::Binomial:
    return {TreeKind::Binomial, 1};
  case BcastAlgorithm::Linear:
  case BcastAlgorithm::SplitBinary:
    break;
  }
  MPICSEL_UNREACHABLE("not a tree broadcast");
}

} // namespace

std::uint64_t mpicsel::bcastOpCount(const BcastConfig &Config,
                                    unsigned NumProcs) {
  if (NumProcs == 1)
    return 1;
  const Segmented Msg(Config.MessageBytes, Config.SegmentBytes);
  switch (Config.Algorithm) {
  case BcastAlgorithm::Linear:
    return 2 * std::uint64_t{NumProcs} - 1; // P-1 sends, join, P-1 recvs.
  case BcastAlgorithm::SplitBinary:
    if (splitBinaryFallsBack(NumProcs, Config.MessageBytes))
      return treeBcastOpCount(SplitBinaryFallback, NumProcs, Config.Root, Msg);
    return SplitBinaryPlan(NumProcs, Config).opCount();
  default:
    return treeBcastOpCount(bcastTreeShape(Config), NumProcs, Config.Root,
                            Msg);
  }
}

std::vector<OpId> mpicsel::appendBcast(ScheduleBuilder &B,
                                       const BcastConfig &Config,
                                       std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(Config.Root < P && "broadcast root outside the communicator");
  assert(Config.MessageBytes >= 1 && "empty broadcast");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  // A single-rank broadcast is a no-op; its lone join is the exit
  // marker that keeps composition uniform.
  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};

  switch (Config.Algorithm) {
  case BcastAlgorithm::Linear:
    return appendLinearBcast(B, Config, Entry);
  case BcastAlgorithm::SplitBinary:
    return appendSplitBinaryBcast(B, Config, Entry);
  default:
    return appendTreeBcast(B, bcastTreeShape(Config), Config.Root,
                           Segmented(Config.MessageBytes, Config.SegmentBytes),
                           Config.Tag, Entry);
  }
}

ScheduleContract mpicsel::bcastContract(const BcastConfig &Config,
                                        unsigned RankCount) {
  assert(Config.Root < RankCount && "broadcast root outside the communicator");
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("bcast(%s, m=%s, seg=%s)",
                bcastAlgorithmName(Config.Algorithm),
                formatBytes(Config.MessageBytes).c_str(),
                formatBytes(Config.SegmentBytes).c_str()),
      RankCount);
  C.Root = Config.Root;
  C.Flow = FlowRequirement::RootToAll;
  for (unsigned Rank = 0; Rank != RankCount; ++Rank)
    C.RecvBytes[Rank] = Rank == Config.Root ? 0 : Config.MessageBytes;
  C.RecvMsgs[Config.Root] = 0;
  return C;
}
