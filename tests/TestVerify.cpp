//===- tests/TestVerify.cpp - Static schedule verifier tests --------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Two halves:
//
//  1. Soundness on healthy schedules: every registered collective
//     algorithm, verified with its own contract over a (P, m, seg)
//     grid, must produce zero findings -- not even lints.
//
//  2. Sensitivity on broken schedules: deliberately injected defects
//     (dropped receive, swapped tag, size mismatch, dependency cycle,
//     cross-rank wait cycle, ambiguous matching, contract violations,
//     self-messages, dead ops) must each be caught with a diagnostic
//     naming the offending operation. Where the defective schedule is
//     executable, the engine's outcome is cross-checked against the
//     static verdict: the verifier claims to be exact, so the two
//     must agree on whether the schedule deadlocks and on which ops
//     never complete.
//
// A compiled schedule is the builder's schedule plus derived tables,
// so the one verifySchedule overload reads what the engine's
// pre-flight and schedlint read.
//
//===----------------------------------------------------------------------===//

#include "cluster/Platform.h"
#include "coll/Allreduce.h"
#include "coll/Barrier.h"
#include "coll/Bcast.h"
#include "coll/Gather.h"
#include "coll/Reduce.h"
#include "coll/Scatter.h"
#include "sim/Engine.h"
#include "verify/Verifier.h"

#include "RawSchedule.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mpicsel;

namespace {

/// True if some finding of \p Check names op \p Id.
bool findsOp(const VerifyReport &R, CheckKind Check, OpId Id) {
  return std::any_of(R.Findings.begin(), R.Findings.end(),
                     [&](const VerifyFinding &F) {
                       return F.Check == Check && F.Id == Id;
                     });
}

/// Runs \p S in the engine and checks the static verdict matches the
/// dynamic outcome exactly: same deadlock answer, same set of
/// never-completing operations.
void expectEngineAgrees(const Schedule &S, const VerifyReport &Report) {
  Platform P = makeTestPlatform(S.RankCount);
  ExecutionResult R = runSchedule(S, P);
  EXPECT_EQ(R.Completed, !Report.deadlocks());
  std::vector<OpId> Stuck;
  for (OpId Id = 0; Id != S.numOps(); ++Id)
    if (!R.Timings[Id].Done)
      Stuck.push_back(Id);
  EXPECT_EQ(Stuck, Report.NeverCompleting);
}

} // namespace

//===----------------------------------------------------------------------===//
// Healthy schedules: zero findings, contracts hold.
//===----------------------------------------------------------------------===//

TEST(VerifyClean, AllBcastAlgorithms) {
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    for (unsigned P : {2u, 3u, 5u, 8u, 13u})
      for (std::uint64_t Seg : {std::uint64_t(0), std::uint64_t(8192)}) {
        BcastConfig Config;
        Config.Algorithm = Alg;
        Config.MessageBytes = 20000; // Not a segment multiple.
        Config.SegmentBytes = Seg;
        ScheduleBuilder B(P);
        appendBcast(B, Config);
        Schedule S = B.take();
        ScheduleContract C = bcastContract(Config, P);
        VerifyReport Report = verifySchedule(S, &C);
        EXPECT_TRUE(Report.Findings.empty())
            << bcastAlgorithmName(Alg) << " P=" << P << " seg=" << Seg
            << ":\n"
            << Report.str();
      }
}

TEST(VerifyClean, GatherScatterReduceBarrier) {
  for (unsigned P : {2u, 5u, 8u}) {
    for (bool Sync : {false, true}) {
      GatherConfig Config;
      Config.BlockBytes = 4096;
      Config.Synchronised = Sync;
      ScheduleBuilder B(P);
      appendLinearGather(B, Config);
      Schedule S = B.take();
      ScheduleContract C = gatherContract(Config, P);
      VerifyReport Report = verifySchedule(S, &C);
      EXPECT_TRUE(Report.Findings.empty()) << "gather:\n" << Report.str();
    }
    for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
      ScatterConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = 4096;
      ScheduleBuilder B(P);
      appendScatter(B, Config);
      Schedule S = B.take();
      ScheduleContract C = scatterContract(Config, P);
      VerifyReport Report = verifySchedule(S, &C);
      EXPECT_TRUE(Report.Findings.empty()) << "scatter:\n" << Report.str();
    }
    for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
      ReduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = 20000;
      ScheduleBuilder B(P);
      appendReduce(B, Config);
      Schedule S = B.take();
      ScheduleContract C = reduceContract(Config, P);
      VerifyReport Report = verifySchedule(S, &C);
      EXPECT_TRUE(Report.Findings.empty()) << "reduce:\n" << Report.str();
    }
    ScheduleBuilder B(P);
    appendBarrier(B, /*Tag=*/0);
    Schedule S = B.take();
    ScheduleContract C = barrierContract(P);
    VerifyReport Report = verifySchedule(S, &C);
    EXPECT_TRUE(Report.Findings.empty()) << "barrier:\n" << Report.str();
  }
}

TEST(VerifyClean, LastSegmentSmallerNeedsNoAmbiguityWarning) {
  // The 370728 B message over 8 KB segments ends in a short segment;
  // the double-buffered leaf receives then hold two differently-sized
  // receives concurrently and the verifier must *prove* their posting
  // order through the FIFO induction instead of warning.
  for (BcastAlgorithm Alg :
       {BcastAlgorithm::Chain, BcastAlgorithm::Binary,
        BcastAlgorithm::Binomial, BcastAlgorithm::KChain}) {
    BcastConfig Config;
    Config.Algorithm = Alg;
    Config.MessageBytes = 370728;
    Config.SegmentBytes = 8192;
    ScheduleBuilder B(8);
    appendBcast(B, Config);
    Schedule S = B.take();
    VerifyReport Report = verifySchedule(S);
    EXPECT_TRUE(Report.Findings.empty())
        << bcastAlgorithmName(Alg) << ":\n"
        << Report.str();
  }
}

//===----------------------------------------------------------------------===//
// Injected defects.
//===----------------------------------------------------------------------===//

TEST(VerifyDefect, DroppedRecvLeavesSendUnmatched) {
  // Neutralise one leaf receive of a binomial bcast by turning it
  // into a no-op compute: the parent's send is left unmatched. The
  // schedule still completes (sends are buffered), so this class of
  // bug is invisible to execution -- only the verifier sees it.
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 1000;
  Config.SegmentBytes = 0;
  ScheduleBuilder B(4);
  appendBcast(B, Config);
  Schedule S = B.take();

  OpId Dropped = InvalidOpId, Sender = InvalidOpId;
  for (OpId Id = 0; Id != S.numOps(); ++Id)
    if (S.Rows[Id].Kind == OpKind::Recv && S.Rows[Id].Rank == 3) {
      Dropped = Id;
      break;
    }
  ASSERT_NE(Dropped, InvalidOpId);
  for (OpId Id = 0; Id != S.numOps(); ++Id)
    if (S.Rows[Id].Kind == OpKind::Send && S.Rows[Id].Peer == 3)
      Sender = Id;
  ASSERT_NE(Sender, InvalidOpId);
  S.Rows[Dropped].Kind = OpKind::Compute;
  S.Rows[Dropped].Bytes = 0;

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::Matching, Sender)) << Report.str();
  EXPECT_FALSE(Report.deadlocks());
  expectEngineAgrees(S, Report);
}

TEST(VerifyDefect, SwappedTagDeadlocks) {
  // Retag one interior receive of a chain bcast: its channel loses a
  // receive (unmatched send) and a ghost channel gains one (unmatched
  // recv), and everything downstream of the receive deadlocks.
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Chain;
  Config.MessageBytes = 4096;
  Config.SegmentBytes = 0;
  ScheduleBuilder B(4);
  appendBcast(B, Config);
  Schedule S = B.take();

  OpId Retagged = InvalidOpId;
  for (OpId Id = 0; Id != S.numOps(); ++Id)
    if (S.Rows[Id].Kind == OpKind::Recv && S.Rows[Id].Rank == 1) {
      Retagged = Id;
      break;
    }
  ASSERT_NE(Retagged, InvalidOpId);
  S.Tags[Retagged] += 99;

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::Matching, Retagged))
      << Report.str();
  EXPECT_TRUE(Report.deadlocks());
  EXPECT_TRUE(std::find(Report.NeverCompleting.begin(),
                        Report.NeverCompleting.end(),
                        Retagged) != Report.NeverCompleting.end());
  expectEngineAgrees(S, Report);
}

TEST(VerifyDefect, DoubleRecvSingleSendDeadlocks) {
  ScheduleBuilder B(2);
  B.addSend(0, 1, 100, 0);
  B.addRecv(1, 0, 100, 0);
  OpId Extra = B.addRecv(1, 0, 100, 0);
  Schedule S = B.take();

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::Matching, Extra)) << Report.str();
  EXPECT_TRUE(Report.deadlocks());
  EXPECT_EQ(Report.NeverCompleting, std::vector<OpId>{Extra});
  expectEngineAgrees(S, Report);
}

TEST(VerifyDefect, SizeMismatchIsAMatchingError) {
  // The engine asserts on size-mismatched matches, so this defect
  // class is checked statically only.
  ScheduleBuilder B(2);
  B.addSend(0, 1, 100, 0);
  OpId R = B.addRecv(1, 0, 200, 0);
  Schedule S = B.take();

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::Matching, R)) << Report.str();
}

TEST(VerifyDefect, InjectedDependencyCycle) {
  // The builder cannot produce forward dependencies, so lay the raw
  // schedule out directly: two computes on rank 0 depending on each
  // other. compileSchedule rejects the forward edge, so this schedule
  // is verified but never compiled; the pre-flight death test below
  // runs it.
  const Schedule S = rawSchedule(1, {{.Deps = {1}}, {.Deps = {0}}});

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::Structure, 0)) << Report.str();
  EXPECT_TRUE(findsOp(Report, CheckKind::Structure, 1)) << Report.str();
  EXPECT_TRUE(Report.deadlocks());
  EXPECT_EQ(Report.NeverCompleting, (std::vector<OpId>{0, 1}));
}

TEST(VerifyDefect, CrossRankWaitCycle) {
  // Rank 0 receives before sending; rank 1 does the same: a classic
  // head-to-head deadlock threaded through message matching rather
  // than dependencies. The wait-for walk must name the cycle.
  ScheduleBuilder B(2);
  OpId R0 = B.addRecv(0, 1, 64, 0);
  std::vector<OpId> D0{R0};
  B.addSend(0, 1, 64, 0, D0);
  OpId R1 = B.addRecv(1, 0, 64, 0);
  std::vector<OpId> D1{R1};
  B.addSend(1, 0, 64, 0, D1);
  Schedule S = B.take();

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(Report.deadlocks());
  EXPECT_EQ(Report.NeverCompleting.size(), 4u);
  bool CycleNamed = std::any_of(
      Report.Findings.begin(), Report.Findings.end(),
      [](const VerifyFinding &F) {
        return F.Check == CheckKind::Deadlock &&
               F.Message.find("wait-for cycle") != std::string::npos;
      });
  EXPECT_TRUE(CycleNamed) << Report.str();
  expectEngineAgrees(S, Report);
}

TEST(VerifyDefect, AmbiguousMatchWarnsOnUnprovableOrder) {
  // Two differently-sized receives on the same channel whose posting
  // order depends on a message from a third rank: not provably
  // ordered, so matching could pair either with either.
  ScheduleBuilder B(3);
  B.addSend(0, 2, 100, 0);
  B.addSend(0, 2, 200, 0);
  B.addSend(1, 2, 50, 1);
  OpId Gate = B.addRecv(2, 1, 50, 1);
  std::vector<OpId> D{Gate};
  B.addRecv(2, 0, 100, 0, D);
  OpId Free = B.addRecv(2, 0, 200, 0);
  Schedule S = B.take();

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::AmbiguousMatch, Free))
      << Report.str();
  EXPECT_FALSE(Report.deadlocks());
}

TEST(VerifyDefect, ContractViolationWrongBytes) {
  // Verify a 1000-byte broadcast against the 2000-byte contract:
  // every non-root rank is flagged for receiving the wrong total.
  BcastConfig Built;
  Built.Algorithm = BcastAlgorithm::Binomial;
  Built.MessageBytes = 1000;
  Built.SegmentBytes = 0;
  ScheduleBuilder B(4);
  appendBcast(B, Built);
  Schedule S = B.take();

  BcastConfig Claimed = Built;
  Claimed.MessageBytes = 2000;
  ScheduleContract C = bcastContract(Claimed, 4);
  VerifyReport Report = verifySchedule(S, &C);
  unsigned Flagged = 0;
  for (const VerifyFinding &F : Report.Findings)
    if (F.Check == CheckKind::Contract && F.Rank != VerifyFinding::InvalidRank)
      ++Flagged;
  EXPECT_EQ(Flagged, 3u) << Report.str(); // Every non-root rank.
}

TEST(VerifyDefect, ContractViolationFlow) {
  // Ranks 1 and 2 trade payload between themselves; nothing
  // originates at root 0. Byte counts can be made to look right, but
  // the root-to-all flow obligation cannot.
  ScheduleBuilder B(3);
  B.addSend(1, 2, 500, 0);
  B.addRecv(2, 1, 500, 0);
  B.addSend(2, 1, 500, 1);
  B.addRecv(1, 2, 500, 1);
  Schedule S = B.take();

  ScheduleContract C = ScheduleContract::unchecked("flow-test", 3);
  C.Root = 0;
  C.Flow = FlowRequirement::RootToAll;
  VerifyReport Report = verifySchedule(S, &C);
  unsigned Flagged = 0;
  for (const VerifyFinding &F : Report.Findings)
    if (F.Check == CheckKind::Contract)
      ++Flagged;
  EXPECT_EQ(Flagged, 2u) << Report.str(); // Ranks 1 and 2 unreached.
}

TEST(VerifyDefect, SelfMessageAndDeadOpLints) {
  // The builder rejects self-sends, so lay the raw schedule out: a
  // rank-0 self-ping plus an orphaned zero-duration compute.
  const Schedule S =
      rawSchedule(2, {{.Kind = OpKind::Send, .Rank = 0, .Peer = 0, .Bytes = 8},
                      {.Kind = OpKind::Recv, .Rank = 0, .Peer = 0, .Bytes = 8},
                      {.Kind = OpKind::Compute, .Rank = 1}});

  VerifyReport Report = verifySchedule(S);
  EXPECT_TRUE(findsOp(Report, CheckKind::Lint, 0)) << Report.str();
  EXPECT_TRUE(findsOp(Report, CheckKind::Lint, 1)) << Report.str();
  EXPECT_TRUE(findsOp(Report, CheckKind::Lint, 2)) << Report.str();
  EXPECT_FALSE(Report.deadlocks());
  // With lints off the same schedule is clean.
  VerifyOptions Opts;
  Opts.Lints = false;
  EXPECT_TRUE(verifySchedule(S, nullptr, Opts).Findings.empty());
}

//===----------------------------------------------------------------------===//
// Engine pre-flight integration.
//===----------------------------------------------------------------------===//

TEST(VerifyPreflight, DeadlockDiagnosticCarriesStaticVerdict) {
  bool Saved = preflightVerificationEnabled();
  setPreflightVerification(true);
  ScheduleBuilder B(2);
  B.addRecv(1, 0, 100, 0); // No matching send.
  ExecutionResult R = runSchedule(B.take(), makeTestPlatform(2));
  setPreflightVerification(Saved);

  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Diagnostic.find("static verifier agrees"), std::string::npos)
      << R.Diagnostic;
  EXPECT_NE(R.Diagnostic.find("no send matches it"), std::string::npos)
      << R.Diagnostic;
}

TEST(VerifyPreflight, DeadlockDiagnosticListsAllStuckOps) {
  bool Saved = preflightVerificationEnabled();
  setPreflightVerification(false); // Plain engine diagnostic.
  ScheduleBuilder B(3);
  B.addRecv(1, 0, 100, 0); // No matching send.
  B.addRecv(2, 0, 100, 0); // No matching send.
  ExecutionResult R = runSchedule(B.take(), makeTestPlatform(3));
  setPreflightVerification(Saved);

  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Diagnostic.find("2 of 2 ops never completed"),
            std::string::npos)
      << R.Diagnostic;
  EXPECT_NE(R.Diagnostic.find("op 0"), std::string::npos) << R.Diagnostic;
  EXPECT_NE(R.Diagnostic.find("op 1"), std::string::npos) << R.Diagnostic;
}

TEST(VerifyPreflight, CompletingSchedulesPassPreflight) {
  bool Saved = preflightVerificationEnabled();
  setPreflightVerification(true);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::SplitBinary;
  Config.MessageBytes = 20000;
  Config.SegmentBytes = 1024;
  ScheduleBuilder B(5);
  appendBcast(B, Config);
  ExecutionResult R = runSchedule(B.take(), makeTestPlatform(5));
  setPreflightVerification(Saved);
  EXPECT_TRUE(R.Completed) << R.Diagnostic;
}

// The pre-flight reads a schedule before compileSchedule does, so a
// broken structure ends the run with the verifier's finding, not with
// the compiler's rejection or an assertion.
TEST(VerifyPreflightDeathTest, BrokenStructureEndsTheRunWithTheReport) {
  bool Saved = preflightVerificationEnabled();
  setPreflightVerification(true);
  const Schedule Cycle = rawSchedule(1, {{.Deps = {1}}, {.Deps = {0}}});
  EXPECT_DEATH(runSchedule(Cycle, makeTestPlatform(1)),
               "op 1 rank 0: op is part of a dependency cycle");
  const Schedule Forward = rawSchedule(1, {{.Deps = {1}}, {}});
  EXPECT_DEATH(runSchedule(Forward, makeTestPlatform(1)),
               "op 0 rank 0: dependency on later op 1");
  const Schedule CrossRank = rawSchedule(2, {{}, {.Rank = 1, .Deps = {0}}});
  EXPECT_DEATH(runSchedule(CrossRank, makeTestPlatform(2)),
               "op 1 rank 1: cross-rank dependency on op 0 of rank 0");
  setPreflightVerification(Saved);
}

//===----------------------------------------------------------------------===//
// Regressions: shapes that once broke the analyzer itself.
//===----------------------------------------------------------------------===//

// P = 33 ring allreduce with m % P != 0 puts differing-size messages
// on every neighbour channel, driving the ambiguity check through
// warmChannel's bottom-up FIFO induction and long reachability
// proofs. This shape previously (a) indexed one past the end of a
// channel's message lists while warming its FIFO edges and (b)
// exhausted the depth-first reachability budget chasing the pipeline
// to its far end, reporting spurious AmbiguousMatch warnings on a
// provably ordered schedule. Both stay fixed iff this is clean.
TEST(VerifyRegression, RingAllreduceUnevenBlocksIsCleanAtScale) {
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::Ring;
  Config.MessageBytes = 33 * 120 + 7;
  Config.ComputeSecondsPerByte = 1e-10;
  ScheduleBuilder B(33);
  appendAllreduce(B, Config);
  Schedule S = B.take();
  const ScheduleContract C = allreduceContract(Config, 33);
  VerifyReport Report = verifySchedule(S, &C);
  EXPECT_TRUE(Report.Findings.empty()) << Report.str();
}

// A long segmented chain whose remainder segment differs in size from
// the rest: the ordering proof for that final pair must walk the
// whole pipeline's FIFO chain. Breadth-first reachability proves it
// within budget; the old depth-first walk did not.
TEST(VerifyRegression, DeepSegmentedPipelineOrderingProvesWithinBudget) {
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Chain;
  Config.MessageBytes = 1024 * 1024 + 13; // 129 segments, one short.
  Config.SegmentBytes = 8 * 1024;
  ScheduleBuilder B(8);
  appendBcast(B, Config);
  Schedule S = B.take();
  const ScheduleContract C = bcastContract(Config, 8);
  VerifyReport Report = verifySchedule(S, &C);
  EXPECT_TRUE(Report.Findings.empty()) << Report.str();
}
