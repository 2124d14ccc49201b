//===- coll/Gather.cpp - Linear gather schedules ---------------------------===//

#include "coll/Gather.h"

#include "support/Format.h"

#include <cassert>

using namespace mpicsel;

std::vector<OpId> mpicsel::appendLinearGather(ScheduleBuilder &B,
                                              const GatherConfig &Config,
                                              std::span<const OpId> Entry) {
  const unsigned P = B.rankCount();
  assert(Config.Root < P && "gather root outside the communicator");
  assert((Entry.empty() || Entry.size() == P) &&
         "entry array must cover every rank");

  auto firstDeps = [&](unsigned Rank) -> std::vector<OpId> {
    if (Entry.empty() || Entry[Rank] == InvalidOpId)
      return {};
    return {Entry[Rank]};
  };

  std::vector<OpId> Exit(P, InvalidOpId);
  if (P == 1) {
    Exit[0] = B.addJoin(0, firstDeps(0));
    return Exit;
  }

  // Per contributor: send + root recv (+ ready send/recv when
  // synchronised), plus the root's final join.
  B.reserveOps(static_cast<std::size_t>(P - 1) *
                   (Config.Synchronised ? 4 : 2) +
               1);

  std::vector<OpId> RootRecvs;
  RootRecvs.reserve(P - 1);
  std::vector<OpId> RootDeps = firstDeps(Config.Root);

  for (unsigned Rank = 0; Rank != P; ++Rank) {
    if (Rank == Config.Root)
      continue;
    std::vector<OpId> RankDeps = firstDeps(Rank);
    if (Config.Synchronised) {
      // Root announces readiness with a zero-byte message; the
      // contributor waits for it before sending its block.
      OpId Ready = B.addSend(Config.Root, Rank, 0, Config.Tag + 1, RootDeps);
      RootDeps = {Ready}; // Serialise the ready round on the root.
      OpId GotReady = B.addRecv(Rank, Config.Root, 0, Config.Tag + 1,
                                RankDeps);
      RankDeps = {GotReady};
    }
    OpId Send =
        B.addSend(Rank, Config.Root, Config.BlockBytes, Config.Tag, RankDeps);
    Exit[Rank] = Send;
    RootRecvs.push_back(B.addRecv(Config.Root, Rank, Config.BlockBytes,
                                  Config.Tag,
                                  Config.Synchronised ? RootDeps
                                                      : firstDeps(Config.Root)));
  }
  Exit[Config.Root] = B.addJoin(Config.Root, RootRecvs);
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
