//===- coll/Reduce.cpp - Reduction algorithm schedules ---------------------===//

#include "coll/Reduce.h"

#include "coll/Bcast.h"
#include "coll/Primitives.h"
#include "support/Error.h"
#include "support/Format.h"
#include "topo/Tree.h"

#include <cassert>

using namespace mpicsel;

const char *mpicsel::reduceAlgorithmName(ReduceAlgorithm Alg) {
  switch (Alg) {
  case ReduceAlgorithm::Linear:
    return "linear";
  case ReduceAlgorithm::Chain:
    return "chain";
  case ReduceAlgorithm::Binomial:
    return "binomial";
  }
  MPICSEL_UNREACHABLE("unknown reduce algorithm");
}

std::optional<ReduceAlgorithm>
mpicsel::parseReduceAlgorithm(const std::string &Name) {
  for (ReduceAlgorithm Alg : AllReduceAlgorithms)
    if (Name == reduceAlgorithmName(Alg))
      return Alg;
  return std::nullopt;
}

namespace {

/// The generic segmented tree reduction engine (broadcast reversed).
/// Per rank and segment s:
///   leaf:     send its own segment s to the parent (sends issue in
///             segment order);
///   interior: receive segment s from every child, combine the c+1
///             operands (a Compute of c * bytes * rho), then forward
///             the partial result (root keeps it). Receives from a
///             child are posted in segment order; the combine of
///             segment s is also program-ordered after the combine of
///             segment s-1.
std::vector<OpId> appendTreeReduce(ScheduleBuilder &B, const Tree &T,
                                   const ReduceConfig &Config,
                                   std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(P >= 2 && "a one-rank reduction is a lone join");
  const std::uint64_t NumSegments =
      bcastSegmentCount(Config.MessageBytes, Config.SegmentBytes);

  // Closed-form op count: a leaf streams NumSegments sends + 1 join; an
  // interior rank emits |children| recvs + 1 combine (+ 1 forward when
  // not root) per segment, plus a final join when not root.
  std::uint64_t OpCount = 0;
  for (unsigned Rank = 0; Rank != P; ++Rank) {
    const std::uint64_t NumChildren = T.Children[Rank].size();
    const bool IsRoot = Rank == T.Root;
    if (NumChildren == 0)
      OpCount += NumSegments + 1;
    else
      OpCount += NumSegments * (NumChildren + (IsRoot ? 1 : 2)) +
                 (IsRoot ? 0 : 1);
  }
  B.reserveOps(OpCount);

  std::vector<OpId> Exit(P, InvalidOpId);
  // What the combine of a segment waits on: Operands[i] is child i's
  // receive of the segment, Operands.back() the previous combine.
  std::vector<OpId> Operands;
  for (unsigned Rank = 0; Rank != P; ++Rank) {
    const std::vector<unsigned> &Children = T.Children[Rank];
    const bool IsRoot = Rank == T.Root;
    const unsigned Parent = static_cast<unsigned>(T.Parent[Rank]);
    const std::span<const OpId> First = entryDep(Entry, Rank);

    if (Children.empty()) {
      // Leaf: stream the segments to the parent in order.
      OpId Prev = InvalidOpId;
      for (std::uint64_t Seg = 0; Seg != NumSegments; ++Seg)
        Prev = B.addSend(Rank, Parent,
                         bcastSegmentBytes(Config.MessageBytes,
                                           Config.SegmentBytes, NumSegments,
                                           Seg),
                         Config.Tag, Seg == 0 ? First : depOn(Prev));
      Exit[Rank] = B.addJoin(Rank, depOn(Prev));
      continue;
    }

    // Interior (or root): receive, combine, forward.
    const std::size_t NumChildren = Children.size();
    Operands.assign(NumChildren + 1, InvalidOpId);
    OpId PrevSend = InvalidOpId;
    for (std::uint64_t Seg = 0; Seg != NumSegments; ++Seg) {
      const std::uint64_t Bytes = bcastSegmentBytes(
          Config.MessageBytes, Config.SegmentBytes, NumSegments, Seg);
      for (std::size_t I = 0; I != NumChildren; ++I)
        Operands[I] = B.addRecv(Rank, Children[I], Bytes, Config.Tag,
                                Seg == 0 ? First : depOn(Operands[I]));
      const double CombineSeconds = Config.ComputeSecondsPerByte *
                                    static_cast<double>(Bytes) *
                                    static_cast<double>(NumChildren);
      Operands.back() = B.addCompute(
          Rank, CombineSeconds,
          std::span(Operands).first(Seg == 0 ? NumChildren : NumChildren + 1));
      if (!IsRoot) {
        const OpId SendDeps[] = {Operands.back(), PrevSend};
        PrevSend = B.addSend(Rank, Parent, Bytes, Config.Tag,
                             std::span(SendDeps, Seg == 0 ? 1 : 2));
      }
    }
    Exit[Rank] = IsRoot ? Operands.back() : B.addJoin(Rank, depOn(PrevSend));
  }
  return Exit;
}

} // namespace

std::vector<OpId> mpicsel::appendReduce(ScheduleBuilder &B,
                                        const ReduceConfig &Config,
                                        std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(Config.Root < P && "reduce root outside the communicator");
  assert(Config.MessageBytes >= 1 && "empty reduction");
  assert(Config.ComputeSecondsPerByte >= 0 && "negative compute cost");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};

  switch (Config.Algorithm) {
  case ReduceAlgorithm::Linear: {
    // Non-segmented flat tree: the root drains every rank's whole
    // vector and combines in rank order (basic_linear).
    ReduceConfig Unsegmented = Config;
    Unsegmented.SegmentBytes = 0;
    return appendTreeReduce(B, buildLinearTree(P, Config.Root), Unsegmented,
                            Entry);
  }
  case ReduceAlgorithm::Chain:
    return appendTreeReduce(B, buildChainTree(P, Config.Root, 1), Config,
                            Entry);
  case ReduceAlgorithm::Binomial:
    return appendTreeReduce(B, buildBinomialTree(P, Config.Root), Config,
                            Entry);
  }
  MPICSEL_UNREACHABLE("unknown reduce algorithm");
}

ScheduleContract mpicsel::reduceContract(const ReduceConfig &Config,
                                         unsigned RankCount) {
  assert(Config.Root < RankCount && "reduce root outside the communicator");
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("reduce(%s, m=%s, seg=%s)",
                reduceAlgorithmName(Config.Algorithm),
                formatBytes(Config.MessageBytes).c_str(),
                formatBytes(Config.SegmentBytes).c_str()),
      RankCount);
  C.Root = Config.Root;
  C.Flow = FlowRequirement::AllToRoot;
  // Every non-root rank streams its (partial) result to its parent —
  // one message per segment, with the linear algorithm unsegmented.
  const std::uint64_t Segments =
      Config.Algorithm == ReduceAlgorithm::Linear
          ? 1
          : bcastSegmentCount(Config.MessageBytes, Config.SegmentBytes);
  for (unsigned Rank = 0; Rank != RankCount; ++Rank) {
    bool IsRoot = Rank == Config.Root;
    C.SentBytes[Rank] = IsRoot || RankCount == 1 ? 0 : Config.MessageBytes;
    C.SentMsgs[Rank] = IsRoot || RankCount == 1
                           ? 0
                           : static_cast<std::uint32_t>(Segments);
  }
  C.RecvBytes[Config.Root] =
      RankCount == 1 ? 0 : ScheduleContract::UncheckedBytes;
  return C;
}
