//===- mpi/CompiledSchedule.cpp - Flat schedule IR ------------------------===//

#include "mpi/CompiledSchedule.h"

#include <cassert>
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

} // namespace

CompiledSchedule mpicsel::compileSchedule(const Schedule &S) {
  const std::uint32_t NumOps = static_cast<std::uint32_t>(S.Ops.size());

  CompiledSchedule CS;
  CS.RankCount = S.RankCount;

  // CSR dependencies (forward) and in-degrees; roots by *static*
  // dependency count -- the engine's activation gate.
  CS.DepOffsets.resize(NumOps + 1);
  CS.InDegree.resize(NumOps);
  std::uint32_t NumDeps = 0;
  for (OpId Id = 0; Id != NumOps; ++Id) {
    CS.DepOffsets[Id] = NumDeps;
    const std::vector<OpId> &Deps = S.Ops[Id].Deps;
    CS.InDegree[Id] = static_cast<std::uint32_t>(Deps.size());
    NumDeps += CS.InDegree[Id];
    if (Deps.empty())
      CS.Roots.push_back(Id);
  }
  CS.DepOffsets[NumOps] = NumDeps;
  CS.DepList.reserve(NumDeps);
  for (OpId Id = 0; Id != NumOps; ++Id)
    for (OpId Dep : S.Ops[Id].Deps) {
      assert(Dep < Id && "dependency on a not-yet-created op");
      assert(S.Ops[Dep].Rank == S.Ops[Id].Rank &&
             "dependencies must stay within one rank");
      CS.DepList.push_back(Dep);
    }

  // CSR successors. The fill order -- ascending dependent id, deps in
  // list order -- reproduces the legacy engine's Dependents build, so
  // finishing an op releases its dependents in the identical sequence.
  CS.SuccOffsets.assign(NumOps + 1, 0);
  for (OpId Dep : CS.DepList)
    ++CS.SuccOffsets[Dep + 1];
  for (OpId Id = 0; Id != NumOps; ++Id)
    CS.SuccOffsets[Id + 1] += CS.SuccOffsets[Id];
  CS.SuccList.resize(NumDeps);
  {
    std::vector<std::uint32_t> Cursor(CS.SuccOffsets.begin(),
                                      CS.SuccOffsets.end() - 1);
    for (OpId Id = 0; Id != NumOps; ++Id)
      for (OpId Dep : S.Ops[Id].Deps)
        CS.SuccList[Cursor[Dep]++] = Id;
  }

  // Op rows and match channels: dense indices assigned by first
  // appearance in op order. A send uses its own (rank, peer, tag); a
  // receive maps to the matching send direction (peer, rank, tag).
  CS.Hot.resize(NumOps);
  CS.OpTag.resize(NumOps);
  std::unordered_map<std::uint64_t, std::uint32_t> ChannelIndex;
  std::vector<std::uint32_t> SendCount, RecvCount;
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const Op &O = S.Ops[Id];
    assert(O.Rank < S.RankCount && "op rank out of range");
    CompiledOp &H = CS.Hot[Id];
    H.Bytes = O.Bytes;
    H.Duration = O.Duration;
    H.Rank = O.Rank;
    H.Peer = O.Peer;
    H.Channel = CompiledSchedule::NoChannel;
    H.Kind = O.Kind;
    CS.OpTag[Id] = O.Tag;
    if (O.Kind == OpKind::Compute)
      continue;
    const bool IsSend = O.Kind == OpKind::Send;
    const std::uint64_t Key = IsSend ? packChannelKey(O.Rank, O.Peer, O.Tag)
                                     : packChannelKey(O.Peer, O.Rank, O.Tag);
    auto [It, Inserted] = ChannelIndex.try_emplace(
        Key, static_cast<std::uint32_t>(ChannelIndex.size()));
    if (Inserted) {
      SendCount.push_back(0);
      RecvCount.push_back(0);
    }
    H.Channel = It->second;
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
