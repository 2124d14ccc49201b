//===- coll/Barrier.cpp - Dissemination barrier ----------------------------===//

#include "coll/Barrier.h"

#include "coll/Primitives.h"
#include "support/Format.h"

#include <cassert>

using namespace mpicsel;

std::vector<OpId> mpicsel::appendBarrier(ScheduleBuilder &B, int Tag,
                                         std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");
  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};

  // Each round emits send + recv + join per rank.
  B.reserveOps(std::size_t{barrierNumRounds(P)} * P * 3);

  // Rounds: each rank's round-k ops depend on its round-(k-1) join.
  std::vector<OpId> Frontier = entryFrontier(Entry, P);
  for (unsigned Distance = 1; Distance < P; Distance <<= 1)
    for (unsigned Rank = 0; Rank != P; ++Rank)
      Frontier[Rank] = appendExchange(B, Rank, Frontier[Rank],
                                      {.SendPeer = (Rank + Distance) % P,
                                       .RecvPeer = (Rank + P - Distance) % P,
                                       .Tag = Tag});
  return Frontier;
}

unsigned mpicsel::barrierNumRounds(unsigned RankCount) {
  unsigned Rounds = 0;
  for (unsigned Distance = 1; Distance < RankCount; Distance <<= 1)
    ++Rounds;
  return Rounds;
}

ScheduleContract mpicsel::barrierContract(unsigned RankCount) {
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("barrier(dissemination, P=%u)", RankCount), RankCount);
  const std::uint32_t Rounds = barrierNumRounds(RankCount);
  for (unsigned Rank = 0; Rank != RankCount; ++Rank) {
    C.RecvBytes[Rank] = 0;
    C.SentBytes[Rank] = 0;
    C.NetBytes[Rank] = 0;
    C.RecvMsgs[Rank] = Rounds;
    C.SentMsgs[Rank] = Rounds;
  }
  return C;
}
