//===- tests/TestSchedule.cpp - mpi/ schedule IR tests ----------------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//

#include "mpi/Schedule.h"
#include "verify/Verifier.h"

#include "RawSchedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace mpicsel;

TEST(ScheduleBuilder, AppendsOpsWithSequentialIds) {
  ScheduleBuilder B(2);
  OpId S = B.addSend(0, 1, 100, 7);
  OpId R = B.addRecv(1, 0, 100, 7);
  std::vector<OpId> Deps{S};
  OpId C = B.addCompute(0, 1e-6, Deps);
  EXPECT_EQ(S, 0u);
  EXPECT_EQ(R, 1u);
  EXPECT_EQ(C, 2u);
  Schedule Sched = B.take();
  EXPECT_EQ(Sched.RankCount, 2u);
  ASSERT_EQ(Sched.numOps(), 3u);
  EXPECT_EQ(Sched.op(0).Kind, OpKind::Send);
  EXPECT_EQ(Sched.op(0).Peer, 1u);
  EXPECT_EQ(Sched.op(0).Bytes, 100u);
  EXPECT_EQ(Sched.op(0).Tag, 7);
  EXPECT_EQ(Sched.op(1).Kind, OpKind::Recv);
  EXPECT_EQ(Sched.op(2).Kind, OpKind::Compute);
  ASSERT_EQ(Sched.op(2).Deps.size(), 1u);
  EXPECT_EQ(Sched.op(2).Deps[0], S);
  // The flat arrays stay in step: one tag per row, a CSR offset per op
  // plus the leading zero, the edges in the order they were added.
  EXPECT_TRUE(Sched.consistent());
  EXPECT_EQ(Sched.DepOffsets, (std::vector<std::uint32_t>{0, 0, 0, 1}));
  EXPECT_EQ(Sched.DepList, std::vector<OpId>{S});
  for (const OpRow &Row : Sched.Rows)
    EXPECT_EQ(Row.Channel, Schedule::NoChannel);
}

TEST(ScheduleBuilder, TakeResetsTheBuilder) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 1, 0);
  Schedule First = B.take();
  EXPECT_EQ(First.numOps(), 1u);
  EXPECT_EQ(B.numOps(), 0u);
  B.addRecv(1, 0, 1, 0);
  Schedule Second = B.take();
  EXPECT_EQ(Second.numOps(), 1u);
  EXPECT_EQ(Second.op(0).Kind, OpKind::Recv);
  EXPECT_TRUE(Second.consistent());
}

TEST(ScheduleBuilder, JoinIsZeroDurationCompute) {
  ScheduleBuilder B(1);
  OpId A = B.addCompute(0, 1e-3);
  std::vector<OpId> Deps{A};
  OpId J = B.addJoin(0, Deps);
  Schedule S = B.take();
  EXPECT_EQ(S.op(J).Kind, OpKind::Compute);
  EXPECT_DOUBLE_EQ(S.op(J).Duration, 0.0);
}

// The ValidateSchedule cases check what the static verifier
// (verify/Verifier.h) reports for minimal valid and broken schedules.

namespace {

/// True if \p R holds an error of \p Check naming op \p Id whose
/// message contains \p Text.
bool hasError(const VerifyReport &R, CheckKind Check, OpId Id,
              const std::string &Text = "") {
  return std::any_of(R.Findings.begin(), R.Findings.end(),
                     [&](const VerifyFinding &F) {
                       return F.Sev == Severity::Error && F.Check == Check &&
                              F.Id == Id &&
                              F.Message.find(Text) != std::string::npos;
                     });
}

} // namespace

TEST(ValidateSchedule, AcceptsMatchedPair) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 0);
  B.addRecv(1, 0, 64, 0);
  const VerifyReport R = verifySchedule(B.take());
  EXPECT_TRUE(R.clean()) << R.str();
}

TEST(ValidateSchedule, DetectsUnmatchedSend) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 0);
  const VerifyReport R = verifySchedule(B.take());
  EXPECT_TRUE(hasError(R, CheckKind::Matching, 0, "unmatched send")) << R.str();
}

TEST(ValidateSchedule, DetectsUnmatchedRecv) {
  ScheduleBuilder B(2);
  B.addRecv(1, 0, 64, 0);
  const VerifyReport R = verifySchedule(B.take());
  EXPECT_TRUE(hasError(R, CheckKind::Matching, 0, "unmatched recv")) << R.str();
}

TEST(ValidateSchedule, TagsSeparateChannels) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 1);
  B.addRecv(1, 0, 64, 2);
  const VerifyReport R = verifySchedule(B.take());
  EXPECT_TRUE(hasError(R, CheckKind::Matching, 0, "unmatched send")) << R.str();
  EXPECT_TRUE(hasError(R, CheckKind::Matching, 1, "unmatched recv")) << R.str();
}

TEST(ValidateSchedule, FifoPairsInOrderWithEqualSizes) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 10, 0);
  B.addSend(0, 1, 20, 0);
  B.addRecv(1, 0, 10, 0);
  B.addRecv(1, 0, 20, 0);
  const VerifyReport InOrder = verifySchedule(B.take());
  EXPECT_TRUE(InOrder.clean()) << InOrder.str();

  ScheduleBuilder B2(2);
  B2.addSend(0, 1, 10, 0);
  B2.addSend(0, 1, 20, 0);
  B2.addRecv(1, 0, 20, 0); // Out of FIFO order: sizes mismatch.
  B2.addRecv(1, 0, 10, 0);
  const VerifyReport Swapped = verifySchedule(B2.take());
  EXPECT_TRUE(hasError(Swapped, CheckKind::Matching, 2)) << Swapped.str();
  EXPECT_TRUE(hasError(Swapped, CheckKind::Matching, 3)) << Swapped.str();
}

TEST(ValidateSchedule, DetectsCrossRankDependency) {
  // Construct an invalid schedule by hand (the builder asserts, so it
  // cannot produce one).
  const VerifyReport R =
      verifySchedule(rawSchedule(2, {{.Rank = 0}, {.Rank = 1, .Deps = {0}}}));
  EXPECT_TRUE(hasError(R, CheckKind::Structure, 1, "cross-rank")) << R.str();
}

TEST(ValidateSchedule, DetectsForwardDependency) {
  const VerifyReport R = verifySchedule(rawSchedule(1, {{.Deps = {1}}, {}}));
  EXPECT_TRUE(hasError(R, CheckKind::Structure, 0, "later op")) << R.str();
}

TEST(ValidateSchedule, DetectsOutOfRangeRankAndPeer) {
  Schedule S = rawSchedule(2, {{.Kind = OpKind::Send, .Rank = 5, .Peer = 1}});
  EXPECT_TRUE(hasError(verifySchedule(S), CheckKind::Structure, 0, "rank 5"));

  S.Rows[0].Rank = 0;
  S.Rows[0].Peer = 9;
  EXPECT_TRUE(hasError(verifySchedule(S), CheckKind::Structure, 0, "peer 9"));

  // A self-message is a lint, not a structural error.
  S.Rows[0].Peer = 0;
  const VerifyReport R = verifySchedule(S);
  EXPECT_FALSE(hasError(R, CheckKind::Structure, 0)) << R.str();
  EXPECT_TRUE(std::any_of(R.Findings.begin(), R.Findings.end(),
                          [](const VerifyFinding &F) {
                            return F.Check == CheckKind::Lint && F.Id == 0;
                          }))
      << R.str();
}

TEST(ValidateSchedule, EmptyScheduleIsInvalidZeroRanks) {
  Schedule S;
  EXPECT_TRUE(hasError(verifySchedule(S), CheckKind::Structure, InvalidOpId,
                       "zero ranks"));
  S.RankCount = 1;
  EXPECT_TRUE(verifySchedule(S).clean()); // No ops is fine.
}

TEST(ValidateSchedule, DetectsArraysOutOfStep) {
  Schedule S = rawSchedule(2, {{}, {.Rank = 1}});
  ASSERT_TRUE(S.consistent());
  S.Tags.pop_back();
  EXPECT_FALSE(S.consistent());
  const VerifyReport R = verifySchedule(S);
  EXPECT_TRUE(hasError(R, CheckKind::Structure, InvalidOpId, "disagree"))
      << R.str();

  // Offsets that step backwards give op 0 one edge and op 1 minus one.
  S = rawSchedule(2, {{}, {.Rank = 1}});
  S.DepOffsets[1] = 1;
  EXPECT_FALSE(S.consistent());
}
