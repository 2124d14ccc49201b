//===- mpi/Schedule.cpp - Communication schedules -------------------------===//

#include "mpi/Schedule.h"

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
