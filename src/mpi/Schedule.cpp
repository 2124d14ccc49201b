//===- mpi/Schedule.cpp - Communication schedules -------------------------===//

#include "mpi/Schedule.h"

#include "support/Format.h"

#include <deque>
#include <map>
#include <tuple>

using namespace mpicsel;

bool Schedule::consistent() const {
  const OpId NumOps = numOps();
  if (DepOffsets.empty()) // Default-constructed: no ops at all.
    return NumOps == 0 && Tags.empty() && DepList.empty();
  if (Tags.size() != NumOps || DepOffsets.size() != NumOps + std::size_t{1} ||
      DepOffsets.front() != 0 || DepOffsets.back() != DepList.size())
    return false;
  for (OpId Id = 0; Id != NumOps; ++Id)
    if (DepOffsets[Id + 1] < DepOffsets[Id])
      return false;
  return true;
}

ScheduleBuilder::ScheduleBuilder(unsigned NumRanks) {
  assert(NumRanks >= 1 && "a schedule needs at least one rank");
  S.RankCount = NumRanks;
  S.DepOffsets.push_back(0);
}

void ScheduleBuilder::reserveOps(std::size_t Count) {
  const std::size_t Total = S.Rows.size() + Count;
  S.Rows.reserve(Total);
  S.Tags.reserve(Total);
  S.DepOffsets.reserve(Total + 1);
}

OpId ScheduleBuilder::append(OpKind Kind, unsigned Rank, unsigned Peer,
                             std::uint64_t Bytes, int Tag, double Duration,
                             std::span<const OpId> Deps) {
  assert(Rank < S.RankCount && "op rank out of range");
  const OpId Id = S.numOps();
  for ([[maybe_unused]] OpId Dep : Deps) {
    assert(Dep < Id && "dependency on a not-yet-created op");
    assert(S.Rows[Dep].Rank == Rank &&
           "dependencies must stay within one rank (MPI processes wait "
           "only on their own requests)");
  }
  S.Rows.push_back({Bytes, Duration, Rank, Peer, Schedule::NoChannel, Kind});
  S.Tags.push_back(Tag);
  S.DepList.insert(S.DepList.end(), Deps.begin(), Deps.end());
  S.DepOffsets.push_back(static_cast<std::uint32_t>(S.DepList.size()));
  return Id;
}

OpId ScheduleBuilder::addSend(unsigned Rank, unsigned Peer,
                              std::uint64_t Bytes, int Tag,
                              std::span<const OpId> Deps) {
  assert(Peer < S.RankCount && "send peer out of range");
  assert(Peer != Rank && "self-sends are not modelled");
  return append(OpKind::Send, Rank, Peer, Bytes, Tag, 0.0, Deps);
}

OpId ScheduleBuilder::addRecv(unsigned Rank, unsigned Peer,
                              std::uint64_t Bytes, int Tag,
                              std::span<const OpId> Deps) {
  assert(Peer < S.RankCount && "recv peer out of range");
  assert(Peer != Rank && "self-receives are not modelled");
  return append(OpKind::Recv, Rank, Peer, Bytes, Tag, 0.0, Deps);
}

OpId ScheduleBuilder::addCompute(unsigned Rank, double Seconds,
                                 std::span<const OpId> Deps) {
  assert(Seconds >= 0 && "negative computation time");
  return append(OpKind::Compute, Rank, 0, 0, 0, Seconds, Deps);
}

OpId ScheduleBuilder::addJoin(unsigned Rank, std::span<const OpId> Deps) {
  return addCompute(Rank, 0.0, Deps);
}

Schedule ScheduleBuilder::take() {
  // Generators reserve their rows in closed form, but DepList grows by
  // doubling. A compiled schedule keeps this array for as long as its
  // measurement runs, so trim it to exactly its edges here.
  S.DepList.shrink_to_fit();
  Schedule Out = std::move(S);
  S = Schedule();
  S.RankCount = Out.RankCount;
  S.DepOffsets.push_back(0);
  return Out;
}

bool mpicsel::validateSchedule(const Schedule &S, std::string *WhyNot) {
  auto fail = [&](std::string Message) {
    if (WhyNot)
      *WhyNot = std::move(Message);
    return false;
  };

  if (S.RankCount == 0)
    return fail("schedule has zero ranks");
  if (!S.consistent())
    return fail("schedule arrays are inconsistent");
  const OpId NumOps = S.numOps();

  // Pair sends and receives per (src, dst, tag) channel in FIFO order.
  using ChannelKey = std::tuple<unsigned, unsigned, int>;
  std::map<ChannelKey, std::deque<OpId>> PendingSends;
  std::map<ChannelKey, std::deque<OpId>> PendingRecvs;

  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpView O = S.op(Id);
    if (O.Rank >= S.RankCount)
      return fail(strFormat("op %u: rank %u out of range", Id, O.Rank));
    for (OpId Dep : O.Deps) {
      if (Dep >= Id)
        return fail(strFormat("op %u: forward/self dependency on %u", Id, Dep));
      if (S.Rows[Dep].Rank != O.Rank)
        return fail(strFormat("op %u: cross-rank dependency on %u", Id, Dep));
    }
    if (O.Kind == OpKind::Compute)
      continue;
    if (O.Peer >= S.RankCount)
      return fail(strFormat("op %u: peer %u out of range", Id, O.Peer));
    if (O.Peer == O.Rank)
      return fail(strFormat("op %u: self-message", Id));

    if (O.Kind == OpKind::Send) {
      ChannelKey Key{O.Rank, O.Peer, O.Tag};
      auto &Recvs = PendingRecvs[Key];
      if (!Recvs.empty()) {
        OpId RecvId = Recvs.front();
        Recvs.pop_front();
        if (S.Rows[RecvId].Bytes != O.Bytes)
          return fail(strFormat("send op %u (%llu bytes) matches recv op %u "
                                "(%llu bytes): size mismatch",
                                Id, (unsigned long long)O.Bytes, RecvId,
                                (unsigned long long)S.Rows[RecvId].Bytes));
      } else {
        PendingSends[Key].push_back(Id);
      }
    } else { // Recv
      ChannelKey Key{O.Peer, O.Rank, O.Tag};
      auto &Sends = PendingSends[Key];
      if (!Sends.empty()) {
        OpId SendId = Sends.front();
        Sends.pop_front();
        if (S.Rows[SendId].Bytes != O.Bytes)
          return fail(strFormat("recv op %u (%llu bytes) matches send op %u "
                                "(%llu bytes): size mismatch",
                                Id, (unsigned long long)O.Bytes, SendId,
                                (unsigned long long)S.Rows[SendId].Bytes));
      } else {
        PendingRecvs[Key].push_back(Id);
      }
    }
  }

  for (const auto &[Key, Sends] : PendingSends)
    if (!Sends.empty())
      return fail(strFormat("unmatched send op %u (%u -> %u, tag %d)",
                            Sends.front(), std::get<0>(Key), std::get<1>(Key),
                            std::get<2>(Key)));
  for (const auto &[Key, Recvs] : PendingRecvs)
    if (!Recvs.empty())
      return fail(strFormat("unmatched recv op %u (%u <- %u, tag %d)",
                            Recvs.front(), std::get<1>(Key), std::get<0>(Key),
                            std::get<2>(Key)));
  return true;
}
