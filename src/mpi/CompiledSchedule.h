//===- mpi/CompiledSchedule.h - Flat schedule IR ----------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Schedule lowered into flat, cache-friendly arrays for execution.
/// The builder-facing IR (mpi/Schedule.h) optimises for readability --
/// one Op struct per operation, each with its own Deps vector -- which
/// scatters the engine's hot loop across the heap. Compilation packs
/// each op into one 32-byte row plus its tag, the DAG into CSR
/// (compressed-sparse-row) dependency and successor arrays, and
/// pre-resolves the (source, destination, tag) match channels into
/// dense indices with exact per-channel queue capacities. The engine
/// (sim/Engine.h) then replays a compiled schedule without touching the
/// heap at all, and the static verifier reads the same rows and CSR
/// arrays, so the verified artifact is the executed artifact. The
/// source Schedule is not retained.
///
/// Compilation only *re-lays-out* the schedule: op order, dependency
/// order and successor order are preserved exactly, which is what keeps
/// compiled execution bit-identical to the legacy interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MPI_COMPILEDSCHEDULE_H
#define MPICSEL_MPI_COMPILEDSCHEDULE_H

#include "mpi/Schedule.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mpicsel {

/// The per-op fields the replay loop needs to activate one op, packed
/// into a single 32-byte row: processing an op costs one cache fetch
/// instead of one read per field.
struct CompiledOp {
  std::uint64_t Bytes = 0;
  double Duration = 0.0;
  std::uint32_t Rank = 0;
  std::uint32_t Peer = 0;
  /// Dense match-channel index; CompiledSchedule::NoChannel for
  /// Compute ops.
  std::uint32_t Channel = 0;
  OpKind Kind = OpKind::Compute;
  std::uint8_t Pad[3] = {0, 0, 0};
};
static_assert(sizeof(CompiledOp) == 32, "hot row must stay one half-line");

/// One op with the fields of mpi/Schedule.h's Op, its dependencies
/// viewed in place rather than copied.
struct OpView {
  OpKind Kind;
  unsigned Rank;
  unsigned Peer;
  std::uint64_t Bytes;
  int Tag;
  double Duration;
  std::span<const OpId> Deps;
};

/// A Schedule in execution-ready form. Immutable after compilation;
/// safe to share across threads (and shared process-wide by the
/// interning cache, see mpi/ScheduleIntern.h).
struct CompiledSchedule {
  /// Channel index of a Compute op (no message channel).
  static constexpr std::uint32_t NoChannel = ~0u;

  unsigned RankCount = 0;

  /// Per-op rows, indexed by OpId -- what the engine's replay loop
  /// reads.
  std::vector<CompiledOp> Hot;

  /// Per-op MPI tags, indexed by OpId: the one cold column. The match
  /// channels already encode the tag, so replay never reads it; the
  /// verifier and deadlock diagnostics do.
  std::vector<std::int32_t> OpTag;

  /// \name CSR dependency edges (op -> the same-rank ops it waits on).
  /// DepList[DepOffsets[Id] .. DepOffsets[Id+1]) preserves the order of
  /// Op::Deps exactly.
  /// @{
  std::vector<std::uint32_t> DepOffsets;
  std::vector<OpId> DepList;
  /// @}

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
  /// Every Send/Recv resolves to a dense channel index (Hot[Id].Channel)
  /// for its (source, destination, tag) FIFO -- the send direction, so
  /// a send and its matching receive share the index. Indices are
  /// assigned by first appearance in ascending op id order
  /// (deterministic). ChannelSendOffsets/ChannelRecvOffsets are prefix
  /// sums of the per-channel send/recv counts: exact capacities for the
  /// engine's bump-pointer message and posted-receive queues.
  /// @{
  std::uint32_t NumChannels = 0;
  std::vector<std::uint32_t> ChannelSendOffsets;
  std::vector<std::uint32_t> ChannelRecvOffsets;
  /// @}

  /// Total number of Send / Recv ops.
  std::uint32_t NumSends = 0;
  std::uint32_t NumRecvs = 0;

  std::uint32_t numOps() const {
    return static_cast<std::uint32_t>(Hot.size());
  }

  /// Dependencies of \p Id, in Op::Deps order.
  std::span<const OpId> depsOf(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    return {DepList.data() + DepOffsets[Id],
            DepOffsets[Id + 1] - DepOffsets[Id]};
  }

  /// Ops depending on \p Id, in release order.
  std::span<const OpId> succsOf(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    return {SuccList.data() + SuccOffsets[Id],
            SuccOffsets[Id + 1] - SuccOffsets[Id]};
  }

  /// Op \p Id as the builder IR spells it, read from its row, its tag
  /// and its dependency row.
  OpView op(OpId Id) const {
    const CompiledOp &H = Hot[Id];
    return {H.Kind, H.Rank, H.Peer, H.Bytes, OpTag[Id], H.Duration,
            depsOf(Id)};
  }
};

/// Lowers \p S into flat arrays. Asserts the same structural
/// invariants ScheduleBuilder establishes (deps are same-rank
/// back-references); run validateSchedule first for untrusted input.
CompiledSchedule compileSchedule(const Schedule &S);

} // namespace mpicsel

#endif // MPICSEL_MPI_COMPILEDSCHEDULE_H
