//===- coll/BcastStream.cpp - Closed-form broadcast schedules --------------===//

#include "coll/BcastStream.h"

#include <cassert>

using namespace mpicsel;

namespace {

bool isLinear(const BcastStreamPlan &Plan) {
  return Plan.Config.Algorithm == BcastAlgorithm::Linear;
}

} // namespace

bool mpicsel::bcastSupportsStreaming(const BcastConfig &Config,
                                     unsigned RankCount) {
  (void)RankCount;
  // Split-binary's phase-2 pairwise exchange emits ops of different
  // ranks interleaved, so its op-id blocks are not rank-contiguous.
  return Config.Algorithm != BcastAlgorithm::SplitBinary;
}

BcastStreamPlan mpicsel::makeBcastStreamPlan(const BcastConfig &Config,
                                             unsigned RankCount) {
  assert(RankCount >= 1 && "empty communicator");
  assert(Config.Root < RankCount && "broadcast root outside the communicator");
  assert(Config.MessageBytes >= 1 && "empty broadcast");
  assert(bcastSupportsStreaming(Config, RankCount) &&
         "split-binary has no streaming form");

  BcastStreamPlan Plan;
  Plan.Config = Config;
  Plan.RankCount = RankCount;
  switch (Config.Algorithm) {
  case BcastAlgorithm::Linear:
    Plan.Kind = TreeKind::Linear;
    break;
  case BcastAlgorithm::Chain:
    Plan.Kind = TreeKind::Chain;
    Plan.Fanout = 1;
    break;
  case BcastAlgorithm::KChain:
    assert(Config.KChainFanout >= 1 && "K-chain needs a positive fanout");
    Plan.Kind = TreeKind::Chain;
    Plan.Fanout = Config.KChainFanout;
    break;
  case BcastAlgorithm::Binary:
    Plan.Kind = TreeKind::Binary;
    break;
  case BcastAlgorithm::Binomial:
    Plan.Kind = TreeKind::Binomial;
    break;
  case BcastAlgorithm::SplitBinary:
    assert(false && "unreachable: checked above");
    break;
  }
  // The linear algorithm is never segmented (Open MPI basic_linear).
  Plan.NumSegments =
      isLinear(Plan) ? 1
                     : bcastSegmentCount(Config.MessageBytes,
                                         Config.SegmentBytes);
  return Plan;
}

BcastRankPlan BcastStreamPlan::rankPlan(unsigned Rank) const {
  assert(Rank < RankCount && "rank out of range");
  BcastRankPlan RP;
  if (RankCount == 1) {
    RP.Role = StreamRole::Trivial;
    RP.NumOps = 1;
    return RP;
  }
  if (isLinear(*this)) {
    if (Rank == Config.Root) {
      RP.Role = StreamRole::LinearRoot;
      RP.NumChildren = RankCount - 1;
      RP.NumOps = RankCount; // P-1 sends + join
    } else {
      RP.Role = StreamRole::LinearLeaf;
      RP.Parent = Config.Root;
      RP.NumOps = 1;
    }
    return RP;
  }
  TreeNodeInfo Info =
      treeNodeInfo(Kind, RankCount, Config.Root, Fanout, Rank);
  RP.NumChildren = Info.NumChildren;
  const std::uint64_t S = NumSegments;
  const std::uint64_t C = Info.NumChildren;
  if (Rank == Config.Root) {
    // A tree over P >= 2 ranks always gives the root a child.
    assert(C >= 1 && "tree root childless on a non-trivial communicator");
    RP.Role = StreamRole::Root;
    RP.NumOps = S * (C + 1);
  } else if (C == 0) {
    RP.Role = StreamRole::Leaf;
    RP.Parent = static_cast<unsigned>(Info.Parent);
    RP.NumOps = S + 1;
  } else {
    RP.Role = StreamRole::Interior;
    RP.Parent = static_cast<unsigned>(Info.Parent);
    RP.NumOps = S * (C + 2);
  }
  return RP;
}

unsigned BcastStreamPlan::childOf(unsigned Rank, unsigned Child) const {
  if (isLinear(*this)) {
    assert(Rank == Config.Root);
    // Linear children in increasing shifted-rank order.
    return (Config.Root + 1 + Child) % RankCount;
  }
  return treeChild(Kind, RankCount, Config.Root, Fanout, Rank, Child);
}

std::uint64_t BcastStreamPlan::segmentBytes(std::uint64_t Seg) const {
  return bcastSegmentBytes(Config.MessageBytes, Config.SegmentBytes,
                           NumSegments, Seg);
}

std::uint64_t BcastStreamPlan::totalOps() const {
  std::uint64_t Total = 0;
  for (unsigned Rank = 0; Rank != RankCount; ++Rank)
    Total += rankPlan(Rank).NumOps;
  return Total;
}

unsigned BcastStreamPlan::blockRank(unsigned Block) const {
  assert(Block < RankCount && "block index out of range");
  if (!isLinear(*this) || RankCount == 1)
    return Block;
  // Linear emission order: root block first, then non-root ranks
  // ascending.
  if (Block == 0)
    return Config.Root;
  unsigned Rank = Block - 1;
  return Rank < Config.Root ? Rank : Rank + 1;
}

void BcastStreamPlan::rankOpBases(std::vector<std::uint64_t> &Bases) const {
  Bases.assign(RankCount, 0);
  std::uint64_t Next = 0;
  for (unsigned Block = 0; Block != RankCount; ++Block) {
    unsigned Rank = blockRank(Block);
    Bases[Rank] = Next;
    Next += rankPlan(Rank).NumOps;
  }
}

void mpicsel::forEachStreamedOp(
    const BcastStreamPlan &Plan, unsigned Rank,
    const std::function<void(const StreamedOp &)> &Fn) {
  const BcastRankPlan RP = Plan.rankPlan(Rank);
  const std::uint64_t S = Plan.NumSegments;
  const std::uint64_t C = RP.NumChildren;
  const int Tag = Plan.Config.Tag;
  StreamedOp Op;

  auto emitJoin = [&](std::vector<std::uint64_t> Deps) {
    Op.Kind = OpKind::Compute;
    Op.Peer = 0;
    Op.Bytes = 0;
    Op.Tag = 0;
    Op.Deps = std::move(Deps);
    Fn(Op);
  };

  switch (RP.Role) {
  case StreamRole::Trivial:
    emitJoin({});
    return;

  case StreamRole::Root: {
    // Per segment: C sends (all depending on the previous segment's
    // join), then the join of those sends. Stride C+1.
    for (std::uint64_t Seg = 0; Seg != S; ++Seg) {
      const std::uint64_t Base = Seg * (C + 1);
      std::vector<std::uint64_t> JoinDeps;
      for (std::uint64_t K = 0; K != C; ++K) {
        Op.Kind = OpKind::Send;
        Op.Peer = Plan.childOf(Rank, static_cast<unsigned>(K));
        Op.Bytes = Plan.segmentBytes(Seg);
        Op.Tag = Tag;
        Op.Deps = Seg == 0 ? std::vector<std::uint64_t>{}
                           : std::vector<std::uint64_t>{Base - 1};
        Fn(Op);
        JoinDeps.push_back(Base + K);
      }
      emitJoin(std::move(JoinDeps));
    }
    return;
  }

  case StreamRole::Leaf: {
    // Double-buffered recvs (recv s depends on recv s-2), then one
    // final join over all S recvs.
    std::vector<std::uint64_t> JoinDeps;
    for (std::uint64_t Seg = 0; Seg != S; ++Seg) {
      Op.Kind = OpKind::Recv;
      Op.Peer = RP.Parent;
      Op.Bytes = Plan.segmentBytes(Seg);
      Op.Tag = Tag;
      Op.Deps = Seg < 2 ? std::vector<std::uint64_t>{}
                        : std::vector<std::uint64_t>{Seg - 2};
      Fn(Op);
      JoinDeps.push_back(Seg);
    }
    emitJoin(std::move(JoinDeps));
    return;
  }

  case StreamRole::Interior: {
    // Per segment, stride C+2: recv (depends on the send-join of
    // segment s-2), C forwarding sends (recv s + join s-1), join.
    for (std::uint64_t Seg = 0; Seg != S; ++Seg) {
      const std::uint64_t Base = Seg * (C + 2);
      Op.Kind = OpKind::Recv;
      Op.Peer = RP.Parent;
      Op.Bytes = Plan.segmentBytes(Seg);
      Op.Tag = Tag;
      if (Seg < 2)
        Op.Deps = {};
      else
        Op.Deps = {(Seg - 2) * (C + 2) + C + 1};
      Fn(Op);
      std::vector<std::uint64_t> JoinDeps;
      for (std::uint64_t K = 0; K != C; ++K) {
        Op.Kind = OpKind::Send;
        Op.Peer = Plan.childOf(Rank, static_cast<unsigned>(K));
        Op.Bytes = Plan.segmentBytes(Seg);
        Op.Tag = Tag;
        Op.Deps = {Base};
        if (Seg > 0)
          Op.Deps.push_back(Base - 1);
        Fn(Op);
        JoinDeps.push_back(Base + 1 + K);
      }
      emitJoin(std::move(JoinDeps));
    }
    return;
  }

  case StreamRole::LinearRoot: {
    std::vector<std::uint64_t> JoinDeps;
    for (std::uint64_t K = 0; K + 1 != Plan.RankCount; ++K) {
      Op.Kind = OpKind::Send;
      Op.Peer = Plan.childOf(Rank, static_cast<unsigned>(K));
      Op.Bytes = Plan.Config.MessageBytes;
      Op.Tag = Tag;
      Op.Deps = {};
      Fn(Op);
      JoinDeps.push_back(K);
    }
    emitJoin(std::move(JoinDeps));
    return;
  }

  case StreamRole::LinearLeaf:
    Op.Kind = OpKind::Recv;
    Op.Peer = RP.Parent;
    Op.Bytes = Plan.Config.MessageBytes;
    Op.Tag = Tag;
    Op.Deps = {};
    Fn(Op);
    return;
  }
}
