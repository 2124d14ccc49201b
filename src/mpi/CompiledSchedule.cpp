//===- mpi/CompiledSchedule.cpp - Execution-ready schedules ---------------===//

#include "mpi/CompiledSchedule.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <unordered_map>

using namespace mpicsel;

namespace {

/// Packs a (source, destination, tag) triple into one map key; the
/// same packing the legacy engine used for its channel hash maps.
/// Ranks are < 2^20 in any realistic platform; tags fit in 24 bits.
std::uint64_t packChannelKey(unsigned Src, unsigned Dst, int Tag) {
  return (static_cast<std::uint64_t>(Src) << 44) |
         (static_cast<std::uint64_t>(Dst) << 24) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(Tag) &
                                    0xffffffu);
}

[[noreturn]] void rejectOp(OpId Id, const char *Why, unsigned Value) {
  fatalError(strFormat("compileSchedule: op %u: %s %u", Id, Why, Value));
}

} // namespace

CompiledSchedule mpicsel::compileSchedule(const Schedule &S) {
  return compileSchedule(Schedule(S));
}

CompiledSchedule mpicsel::compileSchedule(Schedule &&S) {
  CompiledSchedule CS;
  static_cast<Schedule &>(CS) = std::move(S);
  if (!CS.consistent())
    fatalError("compileSchedule: the schedule's op rows, tags and "
               "dependency offsets disagree");
  const std::uint32_t NumOps = CS.numOps();
  const std::uint32_t NumDeps = static_cast<std::uint32_t>(CS.DepList.size());

  // Structure the replay relies on, checked in every build type: ranks
  // and peers inside the communicator, dependencies on earlier ops of
  // the same rank. Alongside, the in-degrees, the roots by *static*
  // dependency count (the engine's activation gate) and the successor
  // counts.
  CS.InDegree.resize(NumOps);
  CS.SuccOffsets.assign(NumOps + 1, 0);
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpRow &Row = CS.Rows[Id];
    if (Row.Rank >= CS.RankCount)
      rejectOp(Id, "rank outside the communicator:", Row.Rank);
    if (Row.Kind != OpKind::Compute && Row.Peer >= CS.RankCount)
      rejectOp(Id, "peer outside the communicator:", Row.Peer);
    const std::span<const OpId> Deps = CS.depsOf(Id);
    CS.InDegree[Id] = static_cast<std::uint32_t>(Deps.size());
    if (Deps.empty())
      CS.Roots.push_back(Id);
    for (OpId Dep : Deps) {
      if (Dep >= Id)
        rejectOp(Id, "dependency on a later op or itself:", Dep);
      if (CS.Rows[Dep].Rank != Row.Rank)
        rejectOp(Id, "dependency on another rank's op:", Dep);
      ++CS.SuccOffsets[Dep + 1];
    }
  }

  // CSR successors. The fill order -- ascending dependent id, deps in
  // list order -- reproduces the legacy engine's Dependents build, so
  // finishing an op releases its dependents in the identical sequence.
  // The fill advances each op's offset to its successor row's end,
  // which is where the next op's row starts; one shift restores the
  // starts.
  for (OpId Id = 0; Id != NumOps; ++Id)
    CS.SuccOffsets[Id + 1] += CS.SuccOffsets[Id];
  CS.SuccList.resize(NumDeps);
  for (OpId Id = 0; Id != NumOps; ++Id)
    for (OpId Dep : CS.depsOf(Id))
      CS.SuccList[CS.SuccOffsets[Dep]++] = Id;
  if (NumOps != 0) {
    std::copy_backward(CS.SuccOffsets.begin(), CS.SuccOffsets.end() - 2,
                       CS.SuccOffsets.end() - 1);
    CS.SuccOffsets[0] = 0;
  }

  // Match channels: dense indices assigned by first appearance in op
  // order. A send uses its own (rank, peer, tag); a receive maps to the
  // matching send direction (peer, rank, tag).
  std::unordered_map<std::uint64_t, std::uint32_t> ChannelIndex;
  std::vector<std::uint32_t> SendCount, RecvCount;
  for (OpId Id = 0; Id != NumOps; ++Id) {
    OpRow &Row = CS.Rows[Id];
    Row.Channel = CompiledSchedule::NoChannel;
    if (Row.Kind == OpKind::Compute)
      continue;
    const bool IsSend = Row.Kind == OpKind::Send;
    const int Tag = CS.Tags[Id];
    const std::uint64_t Key = IsSend ? packChannelKey(Row.Rank, Row.Peer, Tag)
                                     : packChannelKey(Row.Peer, Row.Rank, Tag);
    auto [It, Inserted] = ChannelIndex.try_emplace(
        Key, static_cast<std::uint32_t>(ChannelIndex.size()));
    if (Inserted) {
      SendCount.push_back(0);
      RecvCount.push_back(0);
    }
    Row.Channel = It->second;
    if (IsSend) {
      ++SendCount[It->second];
      ++CS.NumSends;
    } else {
      ++RecvCount[It->second];
      ++CS.NumRecvs;
    }
  }
  CS.NumChannels = static_cast<std::uint32_t>(ChannelIndex.size());
  CS.ChannelSendOffsets.resize(CS.NumChannels + 1);
  CS.ChannelRecvOffsets.resize(CS.NumChannels + 1);
  CS.ChannelSendOffsets[0] = CS.ChannelRecvOffsets[0] = 0;
  for (std::uint32_t C = 0; C != CS.NumChannels; ++C) {
    CS.ChannelSendOffsets[C + 1] = CS.ChannelSendOffsets[C] + SendCount[C];
    CS.ChannelRecvOffsets[C + 1] = CS.ChannelRecvOffsets[C] + RecvCount[C];
  }
  return CS;
}
