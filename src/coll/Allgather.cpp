//===- coll/Allgather.cpp - Allgather algorithm schedules ------------------===//

#include "coll/Allgather.h"

#include "coll/Primitives.h"
#include "support/Error.h"
#include "support/Format.h"

#include <cassert>

using namespace mpicsel;

const char *mpicsel::allgatherAlgorithmName(AllgatherAlgorithm Alg) {
  switch (Alg) {
  case AllgatherAlgorithm::Ring:
    return "ring";
  case AllgatherAlgorithm::RecursiveDoubling:
    return "recursive_doubling";
  case AllgatherAlgorithm::NeighborExchange:
    return "neighbor_exchange";
  }
  MPICSEL_UNREACHABLE("unknown allgather algorithm");
}

std::optional<AllgatherAlgorithm>
mpicsel::parseAllgatherAlgorithm(const std::string &Name) {
  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms)
    if (Name == allgatherAlgorithmName(Alg))
      return Alg;
  return std::nullopt;
}

bool mpicsel::allgatherAlgorithmApplies(AllgatherAlgorithm Algorithm,
                                        unsigned RankCount) {
  switch (Algorithm) {
  case AllgatherAlgorithm::Ring:
    return true;
  case AllgatherAlgorithm::RecursiveDoubling:
    return (RankCount & (RankCount - 1)) == 0;
  case AllgatherAlgorithm::NeighborExchange:
    return RankCount % 2 == 0;
  }
  MPICSEL_UNREACHABLE("unknown allgather algorithm");
}

namespace {

/// Ring allgather: P-1 rounds; each rank forwards the block received
/// in the previous round to (rank+1) while receiving the next one
/// from (rank-1). Round k ops depend on the round k-1 join, which
/// enforces "forward only what has arrived".
void appendRingAllgather(ScheduleBuilder &B, const AllgatherConfig &Config,
                         std::span<OpId> Frontier) {
  const unsigned P = B.rankCount();
  B.reserveOps(static_cast<std::size_t>(P - 1) * P * 3);
  for (unsigned Round = 0; Round + 1 != P; ++Round)
    for (unsigned Rank = 0; Rank != P; ++Rank)
      Frontier[Rank] = appendExchange(B, Rank, Frontier[Rank],
                                      {.SendPeer = (Rank + 1) % P,
                                       .RecvPeer = (Rank + P - 1) % P,
                                       .SendBytes = Config.BlockBytes,
                                       .RecvBytes = Config.BlockBytes,
                                       .Tag = Config.Tag});
}

/// Recursive-doubling allgather (power-of-two P): round k exchanges
/// the 2^k blocks accumulated so far with the rank at XOR-distance
/// 2^k, doubling the held data each round.
void appendRdAllgather(ScheduleBuilder &B, const AllgatherConfig &Config,
                       std::span<OpId> Frontier) {
  const unsigned P = B.rankCount();
  assert((P & (P - 1)) == 0 && "recursive doubling needs a power of two");
  std::size_t Rounds = 0;
  for (unsigned Distance = 1; Distance < P; Distance <<= 1)
    ++Rounds;
  B.reserveOps(Rounds * P * 3);
  for (unsigned Distance = 1; Distance < P; Distance <<= 1) {
    const std::uint64_t Bytes =
        static_cast<std::uint64_t>(Distance) * Config.BlockBytes;
    for (unsigned Rank = 0; Rank != P; ++Rank)
      Frontier[Rank] = appendExchange(B, Rank, Frontier[Rank],
                                      {.SendPeer = Rank ^ Distance,
                                       .RecvPeer = Rank ^ Distance,
                                       .SendBytes = Bytes,
                                       .RecvBytes = Bytes,
                                       .Tag = Config.Tag});
  }
}

/// Neighbor-exchange allgather (even P): round 0 swaps one block with
/// neighbor[0], then P/2 - 1 rounds swap two blocks with alternating
/// neighbours. Even ranks pair right first, odd ranks left first, as
/// in Open MPI.
void appendNeighborAllgather(ScheduleBuilder &B, const AllgatherConfig &Config,
                             std::span<OpId> Frontier) {
  const unsigned P = B.rankCount();
  assert(P % 2 == 0 && "neighbor exchange needs an even communicator");
  const unsigned Rounds = P / 2;
  B.reserveOps(static_cast<std::size_t>(Rounds) * P * 3);
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    const std::uint64_t Bytes =
        (Round == 0 ? 1 : 2) * Config.BlockBytes;
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      // neighbor[0] is rank+1 for even ranks, rank-1 for odd ones;
      // neighbor[1] the other way round. Rounds alternate starting
      // with neighbor[0].
      bool First = Round % 2 == 0;
      bool Even = Rank % 2 == 0;
      unsigned Peer = (Even == First) ? (Rank + 1) % P
                                      : (Rank + P - 1) % P;
      Frontier[Rank] = appendExchange(B, Rank, Frontier[Rank],
                                      {.SendPeer = Peer,
                                       .RecvPeer = Peer,
                                       .SendBytes = Bytes,
                                       .RecvBytes = Bytes,
                                       .Tag = Config.Tag});
    }
  }
}

} // namespace

std::vector<OpId> mpicsel::appendAllgather(ScheduleBuilder &B,
                                           const AllgatherConfig &Config,
                                           std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(Config.BlockBytes >= 1 && "empty allgather block");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};
  AllgatherAlgorithm Alg = Config.Algorithm;
  if (!allgatherAlgorithmApplies(Alg, P))
    Alg = AllgatherAlgorithm::Ring;
  std::vector<OpId> Frontier = entryFrontier(Entry, P);
  switch (Alg) {
  case AllgatherAlgorithm::Ring:
    appendRingAllgather(B, Config, Frontier);
    return Frontier;
  case AllgatherAlgorithm::RecursiveDoubling:
    appendRdAllgather(B, Config, Frontier);
    return Frontier;
  case AllgatherAlgorithm::NeighborExchange:
    appendNeighborAllgather(B, Config, Frontier);
    return Frontier;
  }
  MPICSEL_UNREACHABLE("unknown allgather algorithm");
}

ScheduleContract mpicsel::allgatherContract(const AllgatherConfig &Config,
                                            unsigned RankCount) {
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("allgather(%s, b=%s)",
                allgatherAlgorithmName(Config.Algorithm),
                formatBytes(Config.BlockBytes).c_str()),
      RankCount);
  if (RankCount == 1) {
    C.RecvBytes[0] = C.SentBytes[0] = 0;
    C.NetBytes[0] = 0;
    C.RecvMsgs[0] = C.SentMsgs[0] = 0;
    return C;
  }
  AllgatherAlgorithm Alg = Config.Algorithm;
  if (!allgatherAlgorithmApplies(Alg, RankCount))
    Alg = AllgatherAlgorithm::Ring;
  std::uint32_t Msgs = 0;
  switch (Alg) {
  case AllgatherAlgorithm::Ring:
    Msgs = RankCount - 1;
    break;
  case AllgatherAlgorithm::RecursiveDoubling:
    for (unsigned Distance = 1; Distance < RankCount; Distance <<= 1)
      ++Msgs;
    break;
  case AllgatherAlgorithm::NeighborExchange:
    Msgs = RankCount / 2;
    break;
  }
  const std::uint64_t Total =
      static_cast<std::uint64_t>(RankCount - 1) * Config.BlockBytes;
  for (unsigned Rank = 0; Rank != RankCount; ++Rank) {
    C.RecvBytes[Rank] = Total;
    C.SentBytes[Rank] = Total;
    C.NetBytes[Rank] = 0;
    C.RecvMsgs[Rank] = Msgs;
    C.SentMsgs[Rank] = Msgs;
  }
  return C;
}
