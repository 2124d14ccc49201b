//===- coll/Allreduce.cpp - Allreduce algorithm schedules ------------------===//

#include "coll/Allreduce.h"

#include "coll/Bcast.h"
#include "coll/Primitives.h"
#include "coll/Reduce.h"
#include "support/Error.h"
#include "support/Format.h"
#include "topo/Tree.h"

#include <cassert>

using namespace mpicsel;

const char *mpicsel::allreduceAlgorithmName(AllreduceAlgorithm Alg) {
  switch (Alg) {
  case AllreduceAlgorithm::RecursiveDoubling:
    return "recursive_doubling";
  case AllreduceAlgorithm::Ring:
    return "ring";
  case AllreduceAlgorithm::ReduceBcast:
    return "reduce_bcast";
  }
  MPICSEL_UNREACHABLE("unknown allreduce algorithm");
}

std::optional<AllreduceAlgorithm>
mpicsel::parseAllreduceAlgorithm(const std::string &Name) {
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
    if (Name == allreduceAlgorithmName(Alg))
      return Alg;
  return std::nullopt;
}

std::uint64_t mpicsel::allreduceRingBlockBytes(std::uint64_t MessageBytes,
                                               unsigned RankCount,
                                               unsigned Index) {
  assert(Index < RankCount && "ring block index out of range");
  return MessageBytes / RankCount +
         (Index < MessageBytes % RankCount ? 1 : 0);
}

namespace {

/// Recursive-doubling allreduce with Open MPI's non-power-of-two
/// pre/post phase: with r = P - 2^H extra ranks, even ranks < 2r fold
/// their vector into rank+1 before the rounds and receive the final
/// result after; the remaining 2^H ranks run log2 rounds of
/// exchange+combine at XOR distances 1, 2, ..., 2^(H-1).
void appendRdAllreduce(ScheduleBuilder &B, const AllreduceConfig &Config,
                       std::span<OpId> Frontier) {
  const unsigned P = B.rankCount();
  unsigned H = 0;
  while ((2u << H) <= P)
    ++H;
  const unsigned PowP = 1u << H;
  const unsigned R = P - PowP; // Extra ranks folded in pre/post.
  const std::uint64_t M = Config.MessageBytes;
  const double CombineSeconds =
      Config.ComputeSecondsPerByte * static_cast<double>(M);

  B.reserveOps(static_cast<std::size_t>(R) * 6 +
               static_cast<std::size_t>(PowP) * H * 4);

  // Pre-phase: even ranks < 2R send their vector to rank+1, which
  // combines it with its own.
  for (unsigned Rank = 0; Rank + 1 < 2 * R; Rank += 2) {
    Frontier[Rank] =
        B.addSend(Rank, Rank + 1, M, Config.Tag, depOn(Frontier[Rank]));
    const OpId Recv =
        B.addRecv(Rank + 1, Rank, M, Config.Tag, depOn(Frontier[Rank + 1]));
    Frontier[Rank + 1] = B.addCompute(Rank + 1, CombineSeconds, depOn(Recv));
  }

  // newrank -> real rank: the 2^H round participants are the odd
  // ranks below 2R (newrank = rank/2) and every rank >= 2R
  // (newrank = rank - R).
  auto RealRank = [R](unsigned NewRank) {
    return NewRank < R ? 2 * NewRank + 1 : NewRank + R;
  };
  for (unsigned Distance = 1; Distance < PowP; Distance <<= 1) {
    for (unsigned NewRank = 0; NewRank != PowP; ++NewRank) {
      const unsigned Rank = RealRank(NewRank);
      const unsigned Peer = RealRank(NewRank ^ Distance);
      Frontier[Rank] = appendExchange(B, Rank, Frontier[Rank],
                                      {.SendPeer = Peer,
                                       .RecvPeer = Peer,
                                       .SendBytes = M,
                                       .RecvBytes = M,
                                       .Tag = Config.Tag,
                                       .CombineSeconds = CombineSeconds});
    }
  }

  // Post-phase: odd ranks < 2R return the result to their even
  // neighbour.
  for (unsigned Rank = 0; Rank + 1 < 2 * R; Rank += 2) {
    const OpId Send =
        B.addSend(Rank + 1, Rank, M, Config.Tag, depOn(Frontier[Rank + 1]));
    Frontier[Rank + 1] = B.addJoin(Rank + 1, depOn(Send));
    Frontier[Rank] =
        B.addRecv(Rank, Rank + 1, M, Config.Tag, depOn(Frontier[Rank]));
  }
}

/// Ring allreduce: P-1 reduce-scatter rounds (send block R-k, receive
/// and combine block R-k-1) followed by P-1 allgather rounds of the
/// reduced blocks. Block b lives at index (b mod P) and may be empty
/// when the vector is shorter than the communicator.
void appendRingAllreduce(ScheduleBuilder &B, const AllreduceConfig &Config,
                         std::span<OpId> Frontier) {
  const unsigned P = B.rankCount();
  auto Block = [&](unsigned Index) {
    return allreduceRingBlockBytes(Config.MessageBytes, P, Index % P);
  };
  B.reserveOps(static_cast<std::size_t>(P - 1) * P * 7);

  // Reduce-scatter: round k sends block (R - k), receives block
  // (R - k - 1) and combines into it.
  for (unsigned Round = 0; Round + 1 != P; ++Round) {
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      const std::uint64_t RecvBytes = Block(Rank + 2 * P - Round - 1);
      Frontier[Rank] = appendExchange(
          B, Rank, Frontier[Rank],
          {.SendPeer = (Rank + 1) % P,
           .RecvPeer = (Rank + P - 1) % P,
           .SendBytes = Block(Rank + P - Round),
           .RecvBytes = RecvBytes,
           .Tag = Config.Tag,
           .CombineSeconds = Config.ComputeSecondsPerByte *
                             static_cast<double>(RecvBytes)});
    }
  }

  // Allgather: rank R starts owning final block (R + 1); round k
  // sends block (R + 1 - k), receives block (R - k).
  for (unsigned Round = 0; Round + 1 != P; ++Round)
    for (unsigned Rank = 0; Rank != P; ++Rank)
      Frontier[Rank] =
          appendExchange(B, Rank, Frontier[Rank],
                         {.SendPeer = (Rank + 1) % P,
                          .RecvPeer = (Rank + P - 1) % P,
                          .SendBytes = Block(Rank + 1 + 2 * P - Round),
                          .RecvBytes = Block(Rank + 2 * P - Round),
                          .Tag = Config.Tag});
}

/// Reduce + bcast composition: a binomial segmented reduction to rank
/// 0 chained into a binomial segmented broadcast from rank 0 on a
/// separate tag.
std::vector<OpId> appendReduceBcast(ScheduleBuilder &B,
                                    const AllreduceConfig &Config,
                                    std::span<const OpId> Entry) {
  ReduceConfig Reduce;
  Reduce.Algorithm = ReduceAlgorithm::Binomial;
  Reduce.MessageBytes = Config.MessageBytes;
  Reduce.SegmentBytes = Config.SegmentBytes;
  Reduce.Root = 0;
  Reduce.ComputeSecondsPerByte = Config.ComputeSecondsPerByte;
  Reduce.Tag = Config.Tag;
  std::vector<OpId> ReduceExit = appendReduce(B, Reduce, Entry);

  BcastConfig Bcast;
  Bcast.Algorithm = BcastAlgorithm::Binomial;
  Bcast.MessageBytes = Config.MessageBytes;
  Bcast.SegmentBytes = Config.SegmentBytes;
  Bcast.Root = 0;
  Bcast.Tag = Config.Tag + 4;
  return appendBcast(B, Bcast, ReduceExit);
}

} // namespace

std::vector<OpId> mpicsel::appendAllreduce(ScheduleBuilder &B,
                                           const AllreduceConfig &Config,
                                           std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(Config.MessageBytes >= 1 && "empty allreduce");
  assert(Config.ComputeSecondsPerByte >= 0 && "negative compute cost");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};
  std::vector<OpId> Frontier = entryFrontier(Entry, P);
  switch (Config.Algorithm) {
  case AllreduceAlgorithm::RecursiveDoubling:
    appendRdAllreduce(B, Config, Frontier);
    return Frontier;
  case AllreduceAlgorithm::Ring:
    appendRingAllreduce(B, Config, Frontier);
    return Frontier;
  case AllreduceAlgorithm::ReduceBcast:
    return appendReduceBcast(B, Config, Entry);
  }
  MPICSEL_UNREACHABLE("unknown allreduce algorithm");
}

ScheduleContract mpicsel::allreduceContract(const AllreduceConfig &Config,
                                            unsigned RankCount) {
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("allreduce(%s, m=%s, seg=%s)",
                allreduceAlgorithmName(Config.Algorithm),
                formatBytes(Config.MessageBytes).c_str(),
                formatBytes(Config.SegmentBytes).c_str()),
      RankCount);
  const unsigned P = RankCount;
  if (P == 1) {
    C.RecvBytes[0] = C.SentBytes[0] = 0;
    C.NetBytes[0] = 0;
    C.RecvMsgs[0] = C.SentMsgs[0] = 0;
    return C;
  }
  const std::uint64_t M = Config.MessageBytes;

  switch (Config.Algorithm) {
  case AllreduceAlgorithm::RecursiveDoubling: {
    unsigned H = 0;
    while ((2u << H) <= P)
      ++H;
    const unsigned R = P - (1u << H);
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      unsigned Msgs = H;
      if (Rank < 2 * R)
        Msgs = Rank % 2 == 0 ? 1 : H + 1;
      C.RecvBytes[Rank] = static_cast<std::uint64_t>(Msgs) * M;
      C.SentBytes[Rank] = C.RecvBytes[Rank];
      C.NetBytes[Rank] = 0;
      C.RecvMsgs[Rank] = Msgs;
      C.SentMsgs[Rank] = Msgs;
    }
    break;
  }
  case AllreduceAlgorithm::Ring: {
    // Replicate the round-by-round block walk: exact totals even for
    // uneven blocks.
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      std::uint64_t Sent = 0, Recv = 0;
      for (unsigned Round = 0; Round + 1 != P; ++Round) {
        Sent += allreduceRingBlockBytes(M, P, (Rank + P - Round) % P);
        Recv +=
            allreduceRingBlockBytes(M, P, (Rank + 2 * P - Round - 1) % P);
        Sent +=
            allreduceRingBlockBytes(M, P, (Rank + 1 + 2 * P - Round) % P);
        Recv += allreduceRingBlockBytes(M, P, (Rank + 2 * P - Round) % P);
      }
      C.RecvBytes[Rank] = Recv;
      C.SentBytes[Rank] = Sent;
      C.NetBytes[Rank] = static_cast<std::int64_t>(Recv) -
                         static_cast<std::int64_t>(Sent);
      C.RecvMsgs[Rank] = 2 * (P - 1);
      C.SentMsgs[Rank] = 2 * (P - 1);
    }
    break;
  }
  case AllreduceAlgorithm::ReduceBcast: {
    // Both phases walk the same binomial tree rooted at 0, so the
    // per-rank totals compose exactly: a rank with c children
    // receives c vectors going up and sends c going down, plus its
    // own up-send / down-receive when not the root.
    Tree T = buildBinomialTree(P, 0);
    const std::uint64_t Segments =
        bcastSegmentCount(M, Config.SegmentBytes);
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      const std::uint64_t Children = T.Children[Rank].size();
      const std::uint64_t Own = Rank == 0 ? 0 : 1;
      C.RecvBytes[Rank] = (Children + Own) * M;
      C.SentBytes[Rank] = (Children + Own) * M;
      C.NetBytes[Rank] = 0;
      C.RecvMsgs[Rank] =
          static_cast<std::uint32_t>((Children + Own) * Segments);
      C.SentMsgs[Rank] = C.RecvMsgs[Rank];
    }
    break;
  }
  }
  return C;
}
