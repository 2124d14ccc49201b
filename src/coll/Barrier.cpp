//===- coll/Barrier.cpp - Dissemination barrier ----------------------------===//

#include "coll/Barrier.h"

#include "support/Format.h"

#include <cassert>

using namespace mpicsel;

std::vector<OpId> mpicsel::appendBarrier(ScheduleBuilder &B, int Tag,
                                         std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  std::vector<OpId> Current(P, InvalidOpId);
  if (!Entry.empty())
    Current.assign(Entry.begin(), Entry.end());

  if (P == 1) {
    std::vector<OpId> Exit(1);
    std::vector<OpId> Deps;
    if (Current[0] != InvalidOpId)
      Deps.push_back(Current[0]);
    Exit[0] = B.addJoin(0, Deps);
    return Exit;
  }

  // Each round emits send + recv + join per rank.
  B.reserveOps(std::size_t{barrierNumRounds(P)} * P * 3);

  // Rounds: each rank's round-k ops depend on its round-(k-1) join.
  for (unsigned Distance = 1; Distance < P; Distance <<= 1) {
    std::vector<OpId> Next(P, InvalidOpId);
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      unsigned SendPeer = (Rank + Distance) % P;
      unsigned RecvPeer = (Rank + P - Distance) % P;
      std::vector<OpId> Deps;
      if (Current[Rank] != InvalidOpId)
        Deps.push_back(Current[Rank]);
      OpId Send = B.addSend(Rank, SendPeer, 0, Tag, Deps);
      OpId Recv = B.addRecv(Rank, RecvPeer, 0, Tag, Deps);
      std::vector<OpId> RoundOps{Send, Recv};
      Next[Rank] = B.addJoin(Rank, RoundOps);
    }
    Current = std::move(Next);
  }
  return Current;
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
