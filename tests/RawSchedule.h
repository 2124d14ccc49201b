//===- tests/RawSchedule.h - Hand-laid schedules for defect tests -*- C++ -*-=//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// ScheduleBuilder refuses forward and cross-rank dependencies,
// self-messages and out-of-range ranks. The defect-injection tests need
// exactly those, so they lay a schedule's flat arrays out through this
// helper, which checks nothing.
//
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_TESTS_RAWSCHEDULE_H
#define MPICSEL_TESTS_RAWSCHEDULE_H

#include "mpi/Schedule.h"

#include <initializer_list>
#include <vector>

namespace mpicsel {

/// One op as a defect-injection test spells it.
struct RawOp {
  OpKind Kind = OpKind::Compute;
  unsigned Rank = 0;
  unsigned Peer = 0;
  std::uint64_t Bytes = 0;
  int Tag = 0;
  std::vector<OpId> Deps = {};
};

/// Lays \p Ops out, in order, as a schedule over \p RankCount ranks.
inline Schedule rawSchedule(unsigned RankCount,
                            std::initializer_list<RawOp> Ops) {
  Schedule S;
  S.RankCount = RankCount;
  S.DepOffsets.push_back(0);
  for (const RawOp &O : Ops) {
    OpRow &Row = S.Rows.emplace_back();
    Row.Kind = O.Kind;
    Row.Rank = O.Rank;
    Row.Peer = O.Peer;
    Row.Bytes = O.Bytes;
    S.Tags.push_back(O.Tag);
    S.DepList.insert(S.DepList.end(), O.Deps.begin(), O.Deps.end());
    S.DepOffsets.push_back(static_cast<std::uint32_t>(S.DepList.size()));
  }
  return S;
}

} // namespace mpicsel

#endif // MPICSEL_TESTS_RAWSCHEDULE_H
