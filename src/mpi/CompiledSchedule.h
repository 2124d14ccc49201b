//===- mpi/CompiledSchedule.h - Execution-ready schedules -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Schedule plus the tables replay derives from it. The builder
/// already lays a schedule out flat (mpi/Schedule.h: 32-byte op rows,
/// a tag column, CSR dependencies), so compilation moves those arrays
/// in and adds only what the engine's replay loop needs on top: CSR
/// successor edges, static in-degrees and roots, and the (source,
/// destination, tag) match channels resolved into dense indices with
/// exact per-channel queue capacities. The engine (sim/Engine.h) then
/// replays a compiled schedule without touching the heap at all, and
/// the static verifier reads the same rows and CSR arrays, so the
/// verified artifact is the executed artifact.
///
/// Compilation never reorders anything: op order and dependency order
/// are the builder's, and successor order follows from them, which is
/// what keeps compiled execution bit-identical to the legacy
/// interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MPI_COMPILEDSCHEDULE_H
#define MPICSEL_MPI_COMPILEDSCHEDULE_H

#include "mpi/Schedule.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mpicsel {

/// A Schedule in execution-ready form: the schedule's own arrays (with
/// each row's Channel filled in) plus the derived tables below.
/// Immutable after compilation; safe to share across threads (and
/// shared process-wide by the interning cache, see
/// mpi/ScheduleIntern.h).
struct CompiledSchedule : Schedule {
  /// \name CSR successor edges (op -> the ops waiting on it).
  /// Successor order equals the legacy engine's release order: for
  /// each op in ascending id, its deps in list order -- finishing an
  /// op must release its dependents in exactly this sequence for the
  /// event tiebreak (and hence every timestamp) to match.
  /// @{
  std::vector<std::uint32_t> SuccOffsets;
  std::vector<OpId> SuccList;
  /// @}

  /// Static dependency count per op (the initial value of the
  /// engine's decrement-indegree counters).
  std::vector<std::uint32_t> InDegree;

  /// Ops with no static dependencies, in ascending id order: the DAG
  /// roots the engine activates at t = 0.
  std::vector<OpId> Roots;

  /// \name Match channels.
  /// Every Send/Recv resolves to a dense channel index (Rows[Id].Channel)
  /// for its (source, destination, tag) FIFO -- the send direction, so
  /// a send and its matching receive share the index. Indices are
  /// assigned by first appearance in ascending op id order
  /// (deterministic). ChannelSendOffsets/ChannelRecvOffsets are prefix
  /// sums of the per-channel send/recv counts: the engine's per-send
  /// last-byte slots and its bump-pointer posted-receive queues.
  /// @{
  std::uint32_t NumChannels = 0;
  std::vector<std::uint32_t> ChannelSendOffsets;
  std::vector<std::uint32_t> ChannelRecvOffsets;
  /// @}

  /// Total number of Send / Recv ops.
  std::uint32_t NumSends = 0;
  std::uint32_t NumRecvs = 0;

  /// Ops depending on \p Id, in release order.
  std::span<const OpId> succsOf(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    return {SuccList.data() + SuccOffsets[Id],
            SuccOffsets[Id + 1] - SuccOffsets[Id]};
  }
};

/// Moves \p S's arrays into a compiled schedule and derives the replay
/// tables. Rejects what the engine cannot replay with a fatal error
/// naming the op, in every build type: inconsistent arrays, ranks or
/// peers outside the communicator, and dependencies that are not
/// same-rank back-references. Run the verifier (verify/Verifier.h)
/// first to get a report instead.
CompiledSchedule compileSchedule(Schedule &&S);

/// Compiles a copy of \p S, which stays as it is.
CompiledSchedule compileSchedule(const Schedule &S);

} // namespace mpicsel

#endif // MPICSEL_MPI_COMPILEDSCHEDULE_H
