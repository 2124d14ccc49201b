//===- coll/Barrier.h - Dissemination barrier -------------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dissemination barrier (`ompi_coll_base_barrier_intra_bruck`): in
/// round k every rank sends to (rank + 2^k) mod P and receives from
/// (rank - 2^k) mod P, for ceil(log2 P) rounds. The paper's gamma(P)
/// estimation separates successive broadcast calls with barriers
/// (Sect. 4.1); this is that barrier.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_BARRIER_H
#define MPICSEL_COLL_BARRIER_H

#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <span>
#include <vector>

namespace mpicsel {

/// Appends a dissemination barrier over all ranks; messages are
/// zero-byte. Returns per-rank exits.
std::vector<OpId> appendBarrier(ScheduleBuilder &B, int Tag,
                                std::span<const OpId> Entry = {});

/// The barrier's contract: no payload moves at all, and every rank
/// sends and receives exactly ceil(log2 P) zero-byte messages.
ScheduleContract barrierContract(unsigned RankCount);

/// Number of dissemination rounds, ceil(log2 P).
unsigned barrierNumRounds(unsigned RankCount);

} // namespace mpicsel

#endif // MPICSEL_COLL_BARRIER_H
