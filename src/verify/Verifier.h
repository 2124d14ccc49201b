//===- verify/Verifier.h - Static schedule analysis -------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static analysis of communication schedules. Every number this
/// reproduction publishes is computed by executing hand-built Schedules
/// in the discrete-event engine; the analyses here prove -- without
/// executing anything -- that a schedule cannot deadlock and moves the
/// bytes its collective promises to move. The checks mirror what MPI
/// correctness tools (MUST-style graph analysis, SMPI schedule
/// validation) do for real MPI programs, specialised to this IR:
///
///  1. *Structure*: consistent arrays, ranks and peers inside the
///     communicator, dependencies in range, on earlier ops of the same
///     rank, and acyclic.
///  2. *Matching*: sends and receives pair up 1:1 per (src, dst, tag)
///     channel in posting order with equal byte counts; concurrent
///     same-channel operations whose sizes differ and whose posting
///     order cannot be proven are flagged as ambiguous.
///  3. *Deadlock*: a wait-for fixpoint over program order (dependency
///     edges) and message matching (send -> recv edges) computes the
///     exact set of operations that can never complete. Sends are
///     buffered in this IR, so the analysis is sound *and* complete:
///     a schedule deadlocks in the engine iff this check fires.
///  4. *Contracts*: optional per-collective data-movement obligations
///     (see verify/Contract.h) produced by the coll/ builders.
///  5. *Lints*: self-messages, zero-cost no-op computes, dead joins.
///
/// Entry point: verifySchedule(). The executor facade (sim/Engine.h)
/// can run it as a pre-flight on every schedule -- see
/// setPreflightVerification() -- and tools/schedlint sweeps every
/// registered collective across a (P, m, segment) grid.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_VERIFY_VERIFIER_H
#define MPICSEL_VERIFY_VERIFIER_H

#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <string>
#include <vector>

namespace mpicsel {

/// How bad a finding is.
enum class Severity : std::uint8_t {
  /// Definitely wrong: the schedule cannot execute as intended
  /// (deadlock, unmatched message, broken structure, broken contract).
  Error,
  /// Very likely wrong or non-deterministic (ambiguous matching).
  Warning,
  /// Style/lint: suspicious but harmless (dead op, zero-cost compute).
  Lint,
};

/// Which analysis produced a finding.
enum class CheckKind : std::uint8_t {
  /// Ranks/peers/dependencies out of range, cross-rank or cyclic deps.
  Structure,
  /// Unmatched or size-mismatched send/recv pairs.
  Matching,
  /// Concurrent same-channel ops with unprovable posting order.
  AmbiguousMatch,
  /// Operations that can never complete.
  Deadlock,
  /// A collective data-movement contract violation.
  Contract,
  /// Lint-grade observations.
  Lint,
};

/// Stable short name of a check ("structure", "matching", ...).
const char *checkKindName(CheckKind Check);

/// Stable short name of a severity ("error", "warning", "lint").
const char *severityName(Severity Sev);

/// One diagnostic produced by the verifier.
struct VerifyFinding {
  Severity Sev = Severity::Error;
  CheckKind Check = CheckKind::Structure;
  /// The offending operation; InvalidOpId for schedule-level findings
  /// (e.g. a rank-level contract violation).
  OpId Id = InvalidOpId;
  /// The rank the finding concerns; InvalidRank if not rank-specific.
  unsigned Rank = InvalidRank;
  /// Human-readable one-line message.
  std::string Message;

  static constexpr unsigned InvalidRank = ~0u;

  /// Renders "error [deadlock] op 12 rank 3: ...".
  std::string str() const;
};

/// The result of verifying one schedule.
struct VerifyReport {
  std::vector<VerifyFinding> Findings;
  /// Operations the deadlock analysis proved can never complete
  /// (empty iff the schedule is deadlock-free). Sorted by OpId.
  std::vector<OpId> NeverCompleting;

  /// True if no finding of severity \p AtLeast or worse exists.
  bool clean(Severity AtLeast = Severity::Lint) const;
  /// Number of findings with exactly severity \p Sev.
  unsigned count(Severity Sev) const;
  /// True if the schedule is guaranteed to deadlock when executed.
  bool deadlocks() const { return !NeverCompleting.empty(); }
  /// All findings rendered one per line ("" if none).
  std::string str() const;
};

/// Tunables for verifySchedule.
struct VerifyOptions {
  /// Run the lint-grade checks (self-messages, dead ops, ...).
  bool Lints = true;
  /// Cap on findings per check kind so a badly broken schedule does
  /// not produce megabytes of diagnostics.
  unsigned MaxFindingsPerCheck = 32;
  /// Node budget of each posting-order reachability query in the
  /// ambiguous-matching analysis; on exhaustion the pair is
  /// conservatively reported as ambiguous.
  unsigned ReachabilityBudget = 4096;
};

/// Statically analyses \p S; if \p Contract is non-null additionally
/// checks the collective's data-movement obligations. Never executes
/// the schedule. A compiled schedule (mpi/CompiledSchedule.h) is a
/// Schedule plus derived tables, so the engine's pre-flight and
/// tools/schedlint pass it here and the verifier reads the very rows
/// and CSR arrays the engine executes.
VerifyReport verifySchedule(const Schedule &S,
                            const ScheduleContract *Contract = nullptr,
                            const VerifyOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_VERIFY_VERIFIER_H
