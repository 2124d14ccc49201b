//===- tests/TestSchedule.cpp - mpi/ schedule IR tests ----------------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//

#include "mpi/Schedule.h"

#include "RawSchedule.h"

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(ValidateSchedule, AcceptsMatchedPair) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 0);
  B.addRecv(1, 0, 64, 0);
  Schedule S = B.take();
  std::string Why;
  EXPECT_TRUE(validateSchedule(S, &Why)) << Why;
}

TEST(ValidateSchedule, DetectsUnmatchedSend) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 0);
  Schedule S = B.take();
  std::string Why;
  EXPECT_FALSE(validateSchedule(S, &Why));
  EXPECT_NE(Why.find("unmatched send"), std::string::npos);
}

TEST(ValidateSchedule, DetectsUnmatchedRecv) {
  ScheduleBuilder B(2);
  B.addRecv(1, 0, 64, 0);
  Schedule S = B.take();
  std::string Why;
  EXPECT_FALSE(validateSchedule(S, &Why));
  EXPECT_NE(Why.find("unmatched recv"), std::string::npos);
}

TEST(ValidateSchedule, DetectsSizeMismatch) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 0);
  B.addRecv(1, 0, 65, 0);
  Schedule S = B.take();
  std::string Why;
  EXPECT_FALSE(validateSchedule(S, &Why));
  EXPECT_NE(Why.find("size mismatch"), std::string::npos);
}

TEST(ValidateSchedule, TagsSeparateChannels) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 64, 1);
  B.addRecv(1, 0, 64, 2);
  Schedule S = B.take();
  EXPECT_FALSE(validateSchedule(S));
}

TEST(ValidateSchedule, FifoPairsInOrderWithEqualSizes) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 10, 0);
  B.addSend(0, 1, 20, 0);
  B.addRecv(1, 0, 10, 0);
  B.addRecv(1, 0, 20, 0);
  EXPECT_TRUE(validateSchedule(B.take()));

  ScheduleBuilder B2(2);
  B2.addSend(0, 1, 10, 0);
  B2.addSend(0, 1, 20, 0);
  B2.addRecv(1, 0, 20, 0); // Out of FIFO order: sizes mismatch.
  B2.addRecv(1, 0, 10, 0);
  EXPECT_FALSE(validateSchedule(B2.take()));
}

TEST(ValidateSchedule, DetectsCrossRankDependency) {
  // Construct an invalid schedule by hand (the builder asserts, so it
  // cannot produce one).
  Schedule S = rawSchedule(2, {{.Rank = 0}, {.Rank = 1, .Deps = {0}}});
  std::string Why;
  EXPECT_FALSE(validateSchedule(S, &Why));
  EXPECT_NE(Why.find("cross-rank"), std::string::npos);
}

TEST(ValidateSchedule, DetectsForwardDependency) {
  Schedule S = rawSchedule(1, {{.Deps = {1}}, {}});
  std::string Why;
  EXPECT_FALSE(validateSchedule(S, &Why));
  EXPECT_NE(Why.find("forward"), std::string::npos);
}

TEST(ValidateSchedule, DetectsOutOfRangeRankAndPeer) {
  Schedule S = rawSchedule(2, {{.Kind = OpKind::Send, .Rank = 5, .Peer = 1}});
  EXPECT_FALSE(validateSchedule(S));

  S.Rows[0].Rank = 0;
  S.Rows[0].Peer = 9;
  EXPECT_FALSE(validateSchedule(S));

  S.Rows[0].Peer = 0; // Self-message.
  EXPECT_FALSE(validateSchedule(S));
}

TEST(ValidateSchedule, EmptyScheduleIsInvalidZeroRanks) {
  Schedule S;
  EXPECT_FALSE(validateSchedule(S));
  S.RankCount = 1;
  EXPECT_TRUE(validateSchedule(S)); // No ops is fine.
}

TEST(ValidateSchedule, DetectsArraysOutOfStep) {
  Schedule S = rawSchedule(2, {{}, {.Rank = 1}});
  ASSERT_TRUE(S.consistent());
  S.Tags.pop_back();
  EXPECT_FALSE(S.consistent());
  std::string Why;
  EXPECT_FALSE(validateSchedule(S, &Why));
  EXPECT_NE(Why.find("inconsistent"), std::string::npos) << Why;

  // Offsets that step backwards give op 0 one edge and op 1 minus one.
  S = rawSchedule(2, {{}, {.Rank = 1}});
  S.DepOffsets[1] = 1;
  EXPECT_FALSE(S.consistent());
}
