//===- coll/Primitives.cpp - Shared schedule-building blocks ---------------===//

#include "coll/Primitives.h"

#include <cassert>

using namespace mpicsel;

std::vector<OpId> mpicsel::entryFrontier(std::span<const OpId> Entry,
                                         unsigned RankCount) {
  assert((Entry.empty() || Entry.size() == RankCount) &&
         "entry array must cover every rank");
  if (Entry.empty())
    return std::vector<OpId>(RankCount, InvalidOpId);
  return std::vector<OpId>(Entry.begin(), Entry.end());
}

OpId mpicsel::appendExchange(ScheduleBuilder &B, unsigned Rank, OpId After,
                             const ExchangeStep &Step) {
  const std::span<const OpId> Deps = depOn(After);
  const OpId Send =
      B.addSend(Rank, Step.SendPeer, Step.SendBytes, Step.Tag, Deps);
  OpId Received =
      B.addRecv(Rank, Step.RecvPeer, Step.RecvBytes, Step.Tag, Deps);
  if (Step.CombineSeconds)
    Received = B.addCompute(Rank, *Step.CombineSeconds, depOn(Received));
  const OpId Both[] = {Send, Received};
  return B.addJoin(Rank, Both);
}
