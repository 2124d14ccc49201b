//===- coll/Scatter.cpp - Scatter algorithm schedules ----------------------===//

#include "coll/Scatter.h"

#include "coll/Primitives.h"
#include "support/Error.h"
#include "support/Format.h"
#include "topo/Tree.h"

#include <cassert>

using namespace mpicsel;

const char *mpicsel::scatterAlgorithmName(ScatterAlgorithm Alg) {
  switch (Alg) {
  case ScatterAlgorithm::Linear:
    return "linear";
  case ScatterAlgorithm::Binomial:
    return "binomial";
  }
  MPICSEL_UNREACHABLE("unknown scatter algorithm");
}

std::optional<ScatterAlgorithm>
mpicsel::parseScatterAlgorithm(const std::string &Name) {
  for (ScatterAlgorithm Alg : AllScatterAlgorithms)
    if (Name == scatterAlgorithmName(Alg))
      return Alg;
  return std::nullopt;
}

namespace {

/// Linear scatter: P-1 non-blocking sends from the root, one block
/// each; waitall; receivers post one receive.
std::vector<OpId> appendLinearScatter(ScheduleBuilder &B,
                                      const ScatterConfig &Config,
                                      std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  B.reserveOps(2 * static_cast<std::size_t>(P) - 1); // P-1 sends, P-1 recvs, join.
  std::vector<OpId> Exit(P, InvalidOpId);
  std::vector<OpId> Sends;
  Sends.reserve(P - 1);
  const std::span<const OpId> RootFirst = entryDep(Entry, Config.Root);
  for (unsigned Offset = 1; Offset != P; ++Offset) {
    unsigned Rank = (Config.Root + Offset) % P;
    Sends.push_back(B.addSend(Config.Root, Rank, Config.BlockBytes,
                              Config.Tag, RootFirst));
    Exit[Rank] = B.addRecv(Rank, Config.Root, Config.BlockBytes, Config.Tag,
                           entryDep(Entry, Rank));
  }
  Exit[Config.Root] = B.addJoin(Config.Root, Sends);
  return Exit;
}

/// Binomial scatter: parents forward each child the concatenation of
/// the child's subtree blocks, deepest (largest-subtree) child first
/// as in Open MPI. A non-root interior rank must fully receive its
/// own bundle before forwarding slices of it.
std::vector<OpId> appendBinomialScatter(ScheduleBuilder &B,
                                        const ScatterConfig &Config,
                                        std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  Tree T = buildBinomialTree(P, Config.Root);
  std::vector<OpId> Exit(P, InvalidOpId);

  // Precompute subtree sizes once (they define the transfer sizes).
  std::vector<unsigned> SubtreeSize(P);
  for (unsigned Rank = 0; Rank != P; ++Rank)
    SubtreeSize[Rank] = T.subtreeSize(Rank);

  // Closed-form op count: every non-root receives its bundle; every
  // rank with children emits |children| sends + 1 join.
  std::size_t OpCount = P - 1;
  for (unsigned Rank = 0; Rank != P; ++Rank)
    if (!T.Children[Rank].empty())
      OpCount += T.Children[Rank].size() + 1;
  B.reserveOps(OpCount);

  // Emit per rank: one receive of its bundle (except the root, which
  // owns the data), then sends to children in decreasing-subtree
  // order (Open MPI walks the mask downward, i.e. biggest child
  // first).
  std::vector<OpId> Sends;
  for (unsigned Rank = 0; Rank != P; ++Rank) {
    const bool IsRoot = Rank == Config.Root;
    OpId Bundle = InvalidOpId;
    if (!IsRoot)
      Bundle = B.addRecv(Rank, static_cast<unsigned>(T.Parent[Rank]),
                         static_cast<std::uint64_t>(SubtreeSize[Rank]) *
                             Config.BlockBytes,
                         Config.Tag, entryDep(Entry, Rank));
    if (T.Children[Rank].empty()) {
      Exit[Rank] = Bundle;
      continue;
    }
    const std::span<const OpId> After =
        IsRoot ? entryDep(Entry, Rank) : depOn(Bundle);
    Sends.clear();
    // Children in decreasing subtree size = reverse of the builder's
    // increasing-mask order.
    for (auto It = T.Children[Rank].rbegin(), E = T.Children[Rank].rend();
         It != E; ++It) {
      std::uint64_t Bytes =
          static_cast<std::uint64_t>(SubtreeSize[*It]) * Config.BlockBytes;
      Sends.push_back(B.addSend(Rank, *It, Bytes, Config.Tag, After));
    }
    if (!IsRoot)
      Sends.push_back(Bundle); // The rank's exit also covers its recv.
    Exit[Rank] = B.addJoin(Rank, Sends);
  }
  return Exit;
}

} // namespace

std::vector<OpId> mpicsel::appendScatter(ScheduleBuilder &B,
                                         const ScatterConfig &Config,
                                         std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(Config.Root < P && "scatter root outside the communicator");
  assert(Config.BlockBytes >= 1 && "empty scatter block");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};
  switch (Config.Algorithm) {
  case ScatterAlgorithm::Linear:
    return appendLinearScatter(B, Config, Entry);
  case ScatterAlgorithm::Binomial:
    return appendBinomialScatter(B, Config, Entry);
  }
  MPICSEL_UNREACHABLE("unknown scatter algorithm");
}

ScheduleContract mpicsel::scatterContract(const ScatterConfig &Config,
                                          unsigned RankCount) {
  assert(Config.Root < RankCount && "scatter root outside the communicator");
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("scatter(%s, b=%s)", scatterAlgorithmName(Config.Algorithm),
                formatBytes(Config.BlockBytes).c_str()),
      RankCount);
  C.Root = Config.Root;
  C.Flow = FlowRequirement::RootToAll;
  const std::int64_t Block = static_cast<std::int64_t>(Config.BlockBytes);
  for (unsigned Rank = 0; Rank != RankCount; ++Rank) {
    bool IsRoot = Rank == Config.Root;
    // Relaying is allowed (binomial interior ranks forward subtree
    // bundles); what each rank *keeps* is pinned instead of the raw
    // received total.
    C.NetBytes[Rank] =
        IsRoot ? -static_cast<std::int64_t>(RankCount - 1) * Block : Block;
    C.RecvMsgs[Rank] = IsRoot ? 0 : 1; // Exactly one bundle each.
  }
  C.RecvBytes[Config.Root] = 0;
  C.SentBytes[Config.Root] =
      static_cast<std::uint64_t>(RankCount - 1) * Config.BlockBytes;
  return C;
}
