//===- mpi/Schedule.h - Communication schedules ------------------*- C++ -*-=//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate representation between collective algorithms and
/// the discrete-event simulator. A collective algorithm (coll/) is a
/// *schedule generator*: it emits, per rank, the exact sequence of
/// non-blocking sends, receives and waits that the corresponding Open
/// MPI routine would execute, with explicit intra-rank dependencies.
/// Inter-rank ordering arises from message matching inside the engine.
///
/// This mirrors the paper's core methodological move: models are
/// derived "from the code implementing the algorithms", so the
/// implementation must be an explicit artifact one can read the
/// send/recv structure off of. The schedule IS that artifact.
///
/// A schedule is stored flat, in the layout the engine replays: one
/// packed 32-byte row per op, a tag column, and the dependencies in
/// CSR (compressed-sparse-row) form. The builder appends to these
/// arrays, and compilation (mpi/CompiledSchedule.h) moves them into the
/// compiled schedule and adds only the tables replay derives from
/// them, so no op is ever held twice.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MPI_SCHEDULE_H
#define MPICSEL_MPI_SCHEDULE_H

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mpicsel {

/// Index of an operation inside a Schedule.
using OpId = std::uint32_t;

/// Sentinel for "no operation" (e.g. "no dependency").
inline constexpr OpId InvalidOpId = std::numeric_limits<OpId>::max();

/// The kind of a scheduled operation.
enum class OpKind : std::uint8_t {
  /// Buffered (eager) send: completes locally once the message has
  /// been handed to the network, like MPI_Isend of a moderate message
  /// under a buffered/eager protocol.
  Send,
  /// Receive: completes when a matching message has fully arrived and
  /// all dependencies are done.
  Recv,
  /// Local computation (or a zero-length join used to represent
  /// MPI_Waitall: a Compute of duration 0 depending on all pending
  /// requests).
  Compute,
};

/// The per-op fields the replay loop needs to activate one op, packed
/// into a single 32-byte row: processing an op costs one cache fetch
/// instead of one read per field.
struct OpRow {
  /// Message payload in bytes (Send/Recv).
  std::uint64_t Bytes = 0;
  /// Duration in seconds (Compute only).
  double Duration = 0.0;
  /// Owning rank.
  std::uint32_t Rank = 0;
  /// Peer rank: destination for Send, source for Recv. Unused for
  /// Compute.
  std::uint32_t Peer = 0;
  /// Dense match-channel index, assigned by compileSchedule;
  /// Schedule::NoChannel before compilation and for Compute ops.
  std::uint32_t Channel = ~0u;
  OpKind Kind = OpKind::Compute;
  std::uint8_t Pad[3] = {0, 0, 0};
};
static_assert(sizeof(OpRow) == 32, "op row must stay one half-line");

/// One op with all its fields, its dependencies viewed in place rather
/// than copied.
struct OpView {
  OpKind Kind;
  unsigned Rank;
  unsigned Peer;
  std::uint64_t Bytes;
  /// MPI-style tag; matching is FIFO per (source, destination, tag).
  int Tag;
  double Duration;
  /// Same-rank operations that must complete before this one may
  /// start. (MPI processes can only wait on their own requests, so
  /// cross-rank dependencies are expressed through messages.)
  std::span<const OpId> Deps;
};

/// A complete communication schedule over RankCount ranks, as parallel
/// per-op arrays indexed by OpId. ScheduleBuilder keeps the arrays in
/// step (see consistent()); code that writes them directly, such as a
/// defect-injection test, must too.
struct Schedule {
  /// OpRow::Channel of an op without a match channel.
  static constexpr std::uint32_t NoChannel = ~0u;

  unsigned RankCount = 0;

  /// Per-op rows: what the engine's replay loop reads.
  std::vector<OpRow> Rows;

  /// Per-op MPI tags: the one cold column. The match channels encode
  /// the tag, so replay never reads it; the verifier, traces and
  /// deadlock diagnostics do.
  std::vector<std::int32_t> Tags;

  /// \name CSR dependency edges (op -> the same-rank ops it waits on).
  /// The dependencies of op Id are DepList[DepOffsets[Id] ..
  /// DepOffsets[Id + 1]), in the order they were added.
  /// @{
  std::vector<std::uint32_t> DepOffsets;
  std::vector<OpId> DepList;
  /// @}

  std::uint32_t numOps() const {
    return static_cast<std::uint32_t>(Rows.size());
  }

  /// True if the arrays agree on the op count and DepOffsets is a CSR
  /// offset column over DepList: it starts at 0, never decreases and
  /// ends at DepList.size(). A default-constructed schedule (no ops,
  /// no offsets) is consistent too. Says nothing about the ops
  /// themselves.
  bool consistent() const;

  /// Dependencies of \p Id, in the order they were added.
  std::span<const OpId> depsOf(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    return {DepList.data() + DepOffsets[Id],
            DepOffsets[Id + 1] - DepOffsets[Id]};
  }

  /// Op \p Id, read from its row, its tag and its dependency row.
  OpView op(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    const OpRow &R = Rows[Id];
    return {R.Kind, R.Rank, R.Peer, R.Bytes, Tags[Id], R.Duration,
            depsOf(Id)};
  }
};

/// Incrementally builds a Schedule. Collective generators append their
/// operations here; experiments compose several collectives back to
/// back by threading each rank's "exit" op into the next collective's
/// entry dependencies, which reproduces MPI's per-rank program order
/// across calls.
class ScheduleBuilder {
public:
  explicit ScheduleBuilder(unsigned NumRanks);

  unsigned rankCount() const { return S.RankCount; }

  /// Number of operations appended so far.
  std::uint32_t numOps() const { return S.numOps(); }

  /// Reserves room for \p Count additional operations. Generators in
  /// coll/ call this with closed-form op counts (tree fan-out, segment
  /// count) so appending never reallocates mid-build.
  void reserveOps(std::size_t Count);

  /// Appends a non-blocking send from \p Rank to \p Peer.
  OpId addSend(unsigned Rank, unsigned Peer, std::uint64_t Bytes, int Tag,
               std::span<const OpId> Deps = {});

  /// Appends a receive on \p Rank from \p Peer.
  OpId addRecv(unsigned Rank, unsigned Peer, std::uint64_t Bytes, int Tag,
               std::span<const OpId> Deps = {});

  /// Appends a local computation of \p Seconds on \p Rank.
  OpId addCompute(unsigned Rank, double Seconds,
                  std::span<const OpId> Deps = {});

  /// Appends a zero-duration join on \p Rank depending on \p Deps --
  /// the schedule-level rendering of MPI_Waitall. Returns the join op,
  /// which completes exactly when the last dependency does (plus CPU
  /// availability).
  OpId addJoin(unsigned Rank, std::span<const OpId> Deps);

  /// Finalises and returns the schedule, moving the arrays out with
  /// DepList trimmed to its size. The builder is left empty.
  Schedule take();

private:
  OpId append(OpKind Kind, unsigned Rank, unsigned Peer, std::uint64_t Bytes,
              int Tag, double Duration, std::span<const OpId> Deps);

  Schedule S;
};

} // namespace mpicsel

#endif // MPICSEL_MPI_SCHEDULE_H
