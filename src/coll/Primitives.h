//===- coll/Primitives.h - Shared schedule-building blocks ------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The building blocks every schedule generator in coll/ is written
/// with. ScheduleBuilder takes each op's dependencies as a span and
/// copies them into its CSR arrays, so a generator hands it spans over
/// the entry array, over single ops held in locals, or over one scratch
/// vector reused for the whole call -- never a fresh vector per op.
///
/// A generator threads one "frontier" op per rank: the rank's latest
/// op, on which its next step waits (InvalidOpId before its first op
/// when it has no entry dependency). Pairwise-exchange collectives
/// advance the frontier one appendExchange per rank and round.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_PRIMITIVES_H
#define MPICSEL_COLL_PRIMITIVES_H

#include "mpi/Schedule.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mpicsel {

/// No dependency when \p Op is InvalidOpId, else \p Op alone. The span
/// views \p Op itself, which must outlive the builder call it is
/// passed to.
inline std::span<const OpId> depOn(const OpId &Op) {
  return {&Op, Op == InvalidOpId ? 0u : 1u};
}
std::span<const OpId> depOn(const OpId &&) = delete;

/// The entry dependency of \p Rank: empty, or the one-op subspan of
/// \p Entry that holds the rank's entry op.
inline std::span<const OpId> entryDep(std::span<const OpId> Entry,
                                      unsigned Rank) {
  return Entry.empty() ? Entry : depOn(Entry[Rank]);
}

/// Each rank's entry op (InvalidOpId where it has none): the initial
/// frontier of a generator over \p RankCount ranks.
std::vector<OpId> entryFrontier(std::span<const OpId> Entry,
                                unsigned RankCount);

/// One rank's step of a pairwise exchange round.
struct ExchangeStep {
  unsigned SendPeer = 0;
  unsigned RecvPeer = 0;
  std::uint64_t SendBytes = 0;
  std::uint64_t RecvBytes = 0;
  int Tag = 0;
  /// Duration of the combine that folds the received operand in; no
  /// combine when unset.
  std::optional<double> CombineSeconds = std::nullopt;
};

/// Appends \p Step on \p Rank after its frontier op \p After: a send
/// and a receive, both posted once \p After is done, the combine after
/// the receive when the step has one, and a join over the send and the
/// receive (or its combine). Returns the join, the rank's new frontier.
OpId appendExchange(ScheduleBuilder &B, unsigned Rank, OpId After,
                    const ExchangeStep &Step);

} // namespace mpicsel

#endif // MPICSEL_COLL_PRIMITIVES_H
