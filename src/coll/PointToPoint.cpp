//===- coll/PointToPoint.cpp - Point-to-point micro-schedules --------------===//

#include "coll/PointToPoint.h"

#include "coll/Primitives.h"

#include <cassert>

using namespace mpicsel;

/// Gives every rank without an exit yet (a bystander) a zero-cost join
/// after its entry op, so the exit array stays total.
static void appendBystanderJoins(ScheduleBuilder &B,
                                 std::span<const OpId> Entry,
                                 std::vector<OpId> &Exit) {
  for (unsigned Rank = 0; Rank != Exit.size(); ++Rank)
    if (Exit[Rank] == InvalidOpId)
      Exit[Rank] = B.addJoin(Rank, entryDep(Entry, Rank));
}

std::vector<OpId> mpicsel::appendPing(ScheduleBuilder &B, unsigned From,
                                      unsigned To, std::uint64_t Bytes,
                                      int Tag, std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(From < P && To < P && From != To && "invalid ping endpoints");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  B.reserveOps(P); // Send + recv + P-2 bystander joins.
  std::vector<OpId> Exit(P, InvalidOpId);
  Exit[From] = B.addSend(From, To, Bytes, Tag, entryDep(Entry, From));
  Exit[To] = B.addRecv(To, From, Bytes, Tag, entryDep(Entry, To));
  appendBystanderJoins(B, Entry, Exit);
  return Exit;
}

std::vector<OpId> mpicsel::appendPingPong(ScheduleBuilder &B, unsigned RankA,
                                          unsigned RankB, std::uint64_t Bytes,
                                          int Tag,
                                          std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(RankA < P && RankB < P && RankA != RankB &&
         "invalid ping-pong endpoints");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  // Four message ops + B's join + P-2 bystander joins.
  B.reserveOps(static_cast<std::size_t>(P) + 3);
  std::vector<OpId> Exit(P, InvalidOpId);
  const OpId ASend =
      B.addSend(RankA, RankB, Bytes, Tag, entryDep(Entry, RankA));
  const OpId BRecv =
      B.addRecv(RankB, RankA, Bytes, Tag, entryDep(Entry, RankB));
  const OpId BSend = B.addSend(RankB, RankA, Bytes, Tag + 1, depOn(BRecv));
  Exit[RankA] = B.addRecv(RankA, RankB, Bytes, Tag + 1, depOn(ASend));
  Exit[RankB] = B.addJoin(RankB, depOn(BSend));
  appendBystanderJoins(B, Entry, Exit);
  return Exit;
}
