//===- coll/Gather.cpp - Linear gather schedules ---------------------------===//

#include "coll/Gather.h"

#include "coll/Primitives.h"
#include "support/Format.h"

#include <cassert>

using namespace mpicsel;

std::uint64_t mpicsel::linearGatherOpCount(const GatherConfig &Config,
                                           unsigned NumProcs) {
  // Per contributor: send + root recv (+ ready send/recv when
  // synchronised), plus the root's final join.
  return std::uint64_t{NumProcs - 1} * (Config.Synchronised ? 4 : 2) + 1;
}

std::vector<OpId> mpicsel::appendLinearGather(ScheduleBuilder &B,
                                              const GatherConfig &Config,
                                              std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  const unsigned Root = Config.Root;
  assert(Root < P && "gather root outside the communicator");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  if (P == 1)
    return {B.addJoin(0, entryDep(Entry, 0))};

  B.reserveOps(linearGatherOpCount(Config, P));

  std::vector<OpId> Exit(P, InvalidOpId);
  std::vector<OpId> RootRecvs;
  RootRecvs.reserve(P - 1);
  // The synchronised root's ready round is serialised: each ready send
  // waits for the previous one.
  OpId LastReady = InvalidOpId;
  for (unsigned Rank = 0; Rank != P; ++Rank) {
    if (Rank == Root)
      continue;
    std::span<const OpId> RankAfter = entryDep(Entry, Rank);
    OpId GotReady = InvalidOpId;
    if (Config.Synchronised) {
      // Root announces readiness with a zero-byte message; the
      // contributor waits for it before sending its block.
      LastReady = B.addSend(Root, Rank, 0, Config.Tag + 1,
                            LastReady == InvalidOpId ? entryDep(Entry, Root)
                                                     : depOn(LastReady));
      GotReady = B.addRecv(Rank, Root, 0, Config.Tag + 1, RankAfter);
      RankAfter = depOn(GotReady);
    }
    Exit[Rank] =
        B.addSend(Rank, Root, Config.BlockBytes, Config.Tag, RankAfter);
    RootRecvs.push_back(B.addRecv(Root, Rank, Config.BlockBytes, Config.Tag,
                                  Config.Synchronised
                                      ? depOn(LastReady)
                                      : entryDep(Entry, Root)));
  }
  Exit[Root] = B.addJoin(Root, RootRecvs);
  return Exit;
}

ScheduleContract mpicsel::gatherContract(const GatherConfig &Config,
                                         unsigned RankCount) {
  assert(Config.Root < RankCount && "gather root outside the communicator");
  ScheduleContract C = ScheduleContract::unchecked(
      strFormat("gather(linear%s, m=%s)",
                Config.Synchronised ? ", sync" : "",
                formatBytes(Config.BlockBytes).c_str()),
      RankCount);
  C.Root = Config.Root;
  C.Flow = FlowRequirement::AllToRoot;
  const unsigned Contributors = RankCount - 1;
  for (unsigned Rank = 0; Rank != RankCount; ++Rank) {
    bool IsRoot = Rank == Config.Root;
    C.RecvBytes[Rank] = IsRoot ? Contributors * Config.BlockBytes : 0;
    C.SentBytes[Rank] = IsRoot ? 0 : Config.BlockBytes;
    C.RecvMsgs[Rank] =
        IsRoot ? Contributors : (Config.Synchronised ? 1u : 0u);
    C.SentMsgs[Rank] = IsRoot ? (Config.Synchronised ? Contributors : 0u)
                              : (RankCount == 1 ? 0u : 1u);
  }
  if (RankCount == 1) // Degenerate: no traffic at all.
    C.RecvMsgs[Config.Root] = C.SentMsgs[Config.Root] = 0;
  return C;
}
