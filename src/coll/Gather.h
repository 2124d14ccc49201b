//===- coll/Gather.h - Linear gather schedules ------------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear gather algorithms. The paper's parameter-estimation
/// experiments (Sect. 4.2) append a *linear gather without
/// synchronisation* to each modelled broadcast so the experiment both
/// starts and finishes on the root; its cost model is Eq. 8:
/// `T = (P-1) * (alpha + m_g * beta)`.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_GATHER_H
#define MPICSEL_COLL_GATHER_H

#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mpicsel {

/// Parameters of one gather invocation.
struct GatherConfig {
  /// Bytes contributed by each non-root rank.
  std::uint64_t BlockBytes = 1;
  unsigned Root = 0;
  int Tag = 0;
  /// With synchronisation: the root sends a zero-byte ready message
  /// to each rank before that rank contributes (the "synchronised"
  /// variant; the paper's experiments use the *without* variant).
  bool Synchronised = false;
};

/// The ops appendLinearGather emits for \p Config over \p NumProcs
/// ranks, in closed form.
std::uint64_t linearGatherOpCount(const GatherConfig &Config,
                                  unsigned NumProcs);

/// Appends a linear gather: every non-root rank sends BlockBytes to
/// the root; the root receives P-1 blocks. Returns per-rank exits
/// (the root's exit completes when all blocks have been received).
std::vector<OpId> appendLinearGather(ScheduleBuilder &B,
                                     const GatherConfig &Config,
                                     std::span<const OpId> Entry = {});

/// The gather's contract: the root receives exactly (P-1) * BlockBytes
/// in P-1 messages, every non-root rank contributes exactly
/// BlockBytes, and every rank's data reaches the root. The
/// synchronised variant additionally exchanges one zero-byte ready
/// message per contributor.
ScheduleContract gatherContract(const GatherConfig &Config,
                                unsigned RankCount);

} // namespace mpicsel

#endif // MPICSEL_COLL_GATHER_H
