//===- tests/TestFault.cpp - Fault-injection subsystem tests ---------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Covers fault/Fault.h and the engine hooks: determinism of injected
// timelines, the zero-cost (bit-identical) fault-free default, the
// direction of each fault's effect, window clipping, trace tagging and
// the scenario registry.
//
//===----------------------------------------------------------------------===//

#include "cluster/Platform.h"
#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Bcast.h"
#include "fault/Fault.h"
#include "model/Runner.h"
#include "sim/Engine.h"
#include "sim/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mpicsel;

namespace {

Schedule binomialBcast(unsigned P, std::uint64_t MessageBytes,
                       std::uint64_t SegmentBytes) {
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = SegmentBytes;
  ScheduleBuilder B(P);
  appendBcast(B, Config);
  return B.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden-timing regression: faults disabled => bit-identical timings.
//===----------------------------------------------------------------------===//

// These four constants were captured from the pre-fault-subsystem
// build. Any change to the fault-free code path that alters even the
// last bit of an execution shows up here. (The gros split-binary
// value was recaptured once: enforcing the per-channel non-overtaking
// clamp on the fault-free path -- noise had let one 8 KiB segment
// overtake another on the same channel in this run -- legitimately
// moved its makespan.)
TEST(FaultGolden, TestPlatformBinomialBitIdentical) {
  Platform P = makeTestPlatform(4, 2);
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binomial;
  C.MessageBytes = 64 * 1024;
  C.SegmentBytes = 8 * 1024;
  EXPECT_EQ(prepareBcast(P, 8, C).run(1), 0.00022136000000000001);
}

TEST(FaultGolden, GrisouChainBitIdentical) {
  Platform P = makeGrisou();
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Chain;
  C.MessageBytes = 1024 * 1024;
  C.SegmentBytes = 8 * 1024;
  EXPECT_EQ(prepareBcast(P, 40, C).run(0xDEADBEEFull), 0.0028136758411903945);
}

TEST(FaultGolden, GrosSplitBinaryBitIdentical) {
  Platform P = makeGros();
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::SplitBinary;
  C.MessageBytes = 256 * 1024;
  C.SegmentBytes = 8 * 1024;
  EXPECT_EQ(prepareBcast(P, 32, C).run(42), 0.00033429367027044157);
}

TEST(FaultGolden, GrisouBcastGatherBitIdentical) {
  Platform P = makeGrisou();
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binary;
  C.MessageBytes = 128 * 1024;
  C.SegmentBytes = 8 * 1024;
  EXPECT_EQ(prepareBcast(P, 16, C, 4096).run(7), 0.00080420776489600844);
}

TEST(FaultGolden, EmptyScheduleTakesFaultFreePath) {
  // An empty fault schedule must degenerate to the null (unperturbed)
  // path, not a "multiply everything by 1.0" path.
  Platform P = makeGrisou();
  Schedule S = binomialBcast(16, 64 * 1024, 8 * 1024);
  FaultSchedule Empty;
  ExecutionResult Plain = runSchedule(S, P, 99);
  ExecutionResult WithEmpty = runSchedule(S, P, 99, &Empty);
  ASSERT_EQ(Plain.Timings.size(), WithEmpty.Timings.size());
  for (std::size_t I = 0; I != Plain.Timings.size(); ++I)
    EXPECT_EQ(Plain.Timings[I].DoneTime, WithEmpty.Timings[I].DoneTime);
  EXPECT_EQ(Plain.Makespan, WithEmpty.Makespan);
  EXPECT_TRUE(WithEmpty.FaultWindows.empty());
  EXPECT_EQ(WithEmpty.FaultScenario, "");
}

//===----------------------------------------------------------------------===//
// Determinism of injected timelines.
//===----------------------------------------------------------------------===//

TEST(FaultDeterminism, SameSeedSameTimeline) {
  Platform P = makeGrisou();
  Schedule S = binomialBcast(24, 512 * 1024, 8 * 1024);
  FaultSchedule F = makeFaultScenario("contaminated-calibration", 5);
  ExecutionResult A = runSchedule(S, P, 1234, &F);
  ExecutionResult B = runSchedule(S, P, 1234, &F);
  ASSERT_TRUE(A.Completed);
  ASSERT_EQ(A.Timings.size(), B.Timings.size());
  for (std::size_t I = 0; I != A.Timings.size(); ++I) {
    EXPECT_EQ(A.Timings[I].StartTime, B.Timings[I].StartTime);
    EXPECT_EQ(A.Timings[I].DoneTime, B.Timings[I].DoneTime);
  }
  EXPECT_EQ(A.Makespan, B.Makespan);
}

TEST(FaultDeterminism, DifferentRunSeedDifferentStrikes) {
  // Per-message stall decisions mix in the run seed: two runs with
  // different seeds under a stall-heavy scenario should not produce
  // the same makespan (probability of collision is negligible).
  Platform P = makeGrisou();
  Schedule S = binomialBcast(24, 512 * 1024, 8 * 1024);
  FaultSchedule F = makeFaultScenario("stall-storm");
  ExecutionResult A = runSchedule(S, P, 1, &F);
  ExecutionResult B = runSchedule(S, P, 2, &F);
  EXPECT_NE(A.Makespan, B.Makespan);
}

TEST(FaultDeterminism, ScenarioSeedChangesStrikes) {
  Platform P = makeGrisou();
  Schedule S = binomialBcast(24, 512 * 1024, 8 * 1024);
  FaultSchedule F1 = makeFaultScenario("stall-storm", 1);
  FaultSchedule F2 = makeFaultScenario("stall-storm", 2);
  ExecutionResult A = runSchedule(S, P, 7, &F1);
  ExecutionResult B = runSchedule(S, P, 7, &F2);
  EXPECT_NE(A.Makespan, B.Makespan);
}

//===----------------------------------------------------------------------===//
// Direction of each fault's effect.
//===----------------------------------------------------------------------===//

TEST(FaultEffects, StragglerRankSlowsTheRun) {
  Platform P = makeTestPlatform(4, 2); // Noiseless: clean comparison.
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  ExecutionResult Clean = runSchedule(S, P, 0);
  FaultSchedule F("straggler", 0);
  FaultEvent E;
  E.Kind = FaultKind::StragglerRank;
  E.Rank = 0;
  E.CpuMultiplier = 10.0;
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 0, &F);
  ASSERT_TRUE(Faulted.Completed);
  EXPECT_GT(Faulted.Makespan, Clean.Makespan);
}

TEST(FaultEffects, DegradedLinkSlowsTheRun) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  ExecutionResult Clean = runSchedule(S, P, 0);
  FaultSchedule F("degraded", 0);
  FaultEvent E;
  E.Kind = FaultKind::DegradedLink;
  E.Node = 0;
  E.GapMultiplier = 5.0;
  E.LatencyMultiplier = 5.0;
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 0, &F);
  ASSERT_TRUE(Faulted.Completed);
  EXPECT_GT(Faulted.Makespan, Clean.Makespan);
}

TEST(FaultEffects, MessageStallDelaysButCompletes) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  ExecutionResult Clean = runSchedule(S, P, 0);
  FaultSchedule F("stalls", 0);
  FaultEvent E;
  E.Kind = FaultKind::MessageStall;
  E.SpikeProbability = 0.5;
  E.StallSeconds = 1e-3;
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 0, &F);
  ASSERT_TRUE(Faulted.Completed); // Stalled, never dropped.
  EXPECT_GT(Faulted.Makespan, Clean.Makespan + 1e-3);
  // Payloads are not affected by timing faults.
  EXPECT_EQ(Faulted.BytesReceived, Clean.BytesReceived);
}

TEST(FaultEffects, NoiseShiftWidensScatter) {
  Platform P = makeGrisou();
  Schedule S = binomialBcast(16, 128 * 1024, 8 * 1024);
  FaultSchedule F("noise", 0);
  FaultEvent E;
  E.Kind = FaultKind::NoiseRegimeShift;
  E.SigmaMultiplier = 8.0;
  F.add(E);
  // Scatter over seeds must be wider under the shifted regime.
  double CleanMin = 1e9, CleanMax = 0, FaultMin = 1e9, FaultMax = 0;
  for (std::uint64_t Seed = 1; Seed <= 12; ++Seed) {
    double C = runSchedule(S, P, Seed).Makespan;
    double X = runSchedule(S, P, Seed, &F).Makespan;
    CleanMin = std::min(CleanMin, C);
    CleanMax = std::max(CleanMax, C);
    FaultMin = std::min(FaultMin, X);
    FaultMax = std::max(FaultMax, X);
  }
  EXPECT_GT(FaultMax - FaultMin, CleanMax - CleanMin);
}

TEST(FaultEffects, OutOfWindowEventIsANoOp) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 64 * 1024, 8 * 1024);
  ExecutionResult Clean = runSchedule(S, P, 3);
  FaultSchedule F("late", 0);
  FaultEvent E;
  E.Kind = FaultKind::StragglerRank;
  E.Rank = 0;
  E.CpuMultiplier = 100.0;
  E.Start = Clean.Makespan * 10; // Long after the run finishes.
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 3, &F);
  EXPECT_EQ(Faulted.Makespan, Clean.Makespan);
}

TEST(FaultEffects, TargetedRankIsUnaffectedElsewhere) {
  // A straggler on a rank outside the communicator changes nothing.
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(4, 64 * 1024, 8 * 1024);
  ExecutionResult Clean = runSchedule(S, P, 3);
  FaultSchedule F("elsewhere", 0);
  FaultEvent E;
  E.Kind = FaultKind::StragglerRank;
  E.Rank = 7; // Not a participant (ranks 0..3).
  E.CpuMultiplier = 100.0;
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 3, &F);
  EXPECT_EQ(Faulted.Makespan, Clean.Makespan);
}

//===----------------------------------------------------------------------===//
// Global schedule and RAII scope.
//===----------------------------------------------------------------------===//

TEST(FaultScope, ScopedInjectionGovernsImplicitRuns) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  double CleanMakespan = runSchedule(S, P, 0).Makespan;
  FaultSchedule F = makeFaultScenario("degraded-link");
  {
    ScopedFaultInjection Injection(F);
    ExecutionResult R = runSchedule(S, P, 0); // No explicit schedule.
    EXPECT_GT(R.Makespan, CleanMakespan);
    EXPECT_EQ(R.FaultScenario, "degraded-link");
    EXPECT_FALSE(R.FaultWindows.empty());
  }
  // Restored on scope exit.
  EXPECT_EQ(runSchedule(S, P, 0).Makespan, CleanMakespan);
  EXPECT_EQ(globalFaultSchedule(), nullptr);
}

TEST(FaultScope, ExplicitArgumentBeatsGlobal) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  FaultSchedule Stormy = makeFaultScenario("stall-storm");
  FaultSchedule Mild("mild", 0); // Empty: behaves fault-free.
  ScopedFaultInjection Injection(Stormy);
  ExecutionResult R = runSchedule(S, P, 0, &Mild);
  EXPECT_EQ(R.FaultScenario, "");
  EXPECT_TRUE(R.FaultWindows.empty());
}

//===----------------------------------------------------------------------===//
// Trace tagging.
//===----------------------------------------------------------------------===//

TEST(FaultTrace, FaultWindowsAppearInChromeTrace) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  FaultSchedule F = makeFaultScenario("degraded-link");
  ExecutionResult R = runSchedule(S, P, 0, &F);
  ASSERT_FALSE(R.FaultWindows.empty());
  std::string Json = renderChromeTrace(S, R);
  EXPECT_NE(Json.find("faults (degraded-link)"), std::string::npos);
  EXPECT_NE(Json.find("degraded-link"), std::string::npos);
}

TEST(FaultTrace, FaultFreeTraceHasNoFaultTrack) {
  Platform P = makeTestPlatform(4, 2);
  Schedule S = binomialBcast(8, 256 * 1024, 8 * 1024);
  ExecutionResult R = runSchedule(S, P, 0);
  std::string Json = renderChromeTrace(S, R);
  EXPECT_EQ(Json.find("faults ("), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Scenario registry.
//===----------------------------------------------------------------------===//

TEST(FaultScenarios, RegistryIsConsistent) {
  std::vector<std::string> Names = faultScenarioNames();
  EXPECT_GE(Names.size(), 6u);
  for (const std::string &Name : Names) {
    EXPECT_TRUE(isFaultScenarioName(Name)) << Name;
    FaultSchedule F = makeFaultScenario(Name);
    EXPECT_EQ(F.name(), Name);
    if (Name == "clean")
      EXPECT_TRUE(F.empty());
    else
      EXPECT_FALSE(F.empty());
  }
  EXPECT_FALSE(isFaultScenarioName("no-such-scenario"));
}

TEST(FaultScenarios, WindowsClampToMakespan) {
  FaultSchedule F = makeFaultScenario("straggler-root");
  // straggler-root opens at 100us and never closes; windows() must
  // clamp the open end to the makespan.
  std::vector<FaultWindow> W = F.windows(/*Makespan=*/1e-3);
  ASSERT_EQ(W.size(), 1u);
  EXPECT_EQ(W[0].Kind, FaultKind::StragglerRank);
  EXPECT_DOUBLE_EQ(W[0].Start, 100e-6);
  EXPECT_DOUBLE_EQ(W[0].End, 1e-3);
  // A makespan before the window opens produces no window at all.
  EXPECT_TRUE(F.windows(/*Makespan=*/50e-6).empty());
}

TEST(FaultScenarios, KindNamesAreStable) {
  EXPECT_STREQ(faultKindName(FaultKind::StragglerRank), "straggler");
  EXPECT_STREQ(faultKindName(FaultKind::DegradedLink), "degraded-link");
  EXPECT_STREQ(faultKindName(FaultKind::LatencySpike), "latency-spike");
  EXPECT_STREQ(faultKindName(FaultKind::NoiseRegimeShift), "noise-shift");
  EXPECT_STREQ(faultKindName(FaultKind::MessageStall), "message-stall");
}

//===----------------------------------------------------------------------===//
// New collectives under faults: allgather and allreduce behave like
// the rest of the zoo -- injected timing faults slow them, never wedge
// them, and never change a payload byte.
//===----------------------------------------------------------------------===//

TEST(FaultEffects, AllgatherRingStragglerSlowsButCompletes) {
  Platform P = makeTestPlatform(4, 2);
  ScheduleBuilder B(8);
  AllgatherConfig Config;
  Config.Algorithm = AllgatherAlgorithm::Ring;
  Config.BlockBytes = 64 * 1024;
  appendAllgather(B, Config);
  Schedule S = B.take();
  ExecutionResult Clean = runSchedule(S, P, 0);
  ASSERT_TRUE(Clean.Completed);

  FaultSchedule F("straggler", 0);
  FaultEvent E;
  E.Kind = FaultKind::StragglerRank;
  E.Rank = 3;
  E.CpuMultiplier = 10.0;
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 0, &F);
  ASSERT_TRUE(Faulted.Completed);
  EXPECT_GT(Faulted.Makespan, Clean.Makespan);
  EXPECT_EQ(Faulted.BytesReceived, Clean.BytesReceived);
  EXPECT_EQ(Faulted.BytesSent, Clean.BytesSent);
}

TEST(FaultEffects, AllreduceRecursiveDoublingStallsDelayButComplete) {
  Platform P = makeTestPlatform(4, 2);
  // Odd size: the pre/post fold phase is in the faulted path too.
  ScheduleBuilder B(7);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::RecursiveDoubling;
  Config.MessageBytes = 128 * 1024;
  Config.ComputeSecondsPerByte = 4e-10;
  appendAllreduce(B, Config);
  Schedule S = B.take();
  ExecutionResult Clean = runSchedule(S, P, 0);
  ASSERT_TRUE(Clean.Completed);

  FaultSchedule F("stalls", 0);
  FaultEvent E;
  E.Kind = FaultKind::MessageStall;
  E.SpikeProbability = 0.5;
  E.StallSeconds = 1e-3;
  F.add(E);
  ExecutionResult Faulted = runSchedule(S, P, 0, &F);
  ASSERT_TRUE(Faulted.Completed);
  // At least one full stall lands on the critical path; 0.9x slack
  // because a single strike delays the makespan by exactly
  // StallSeconds and the sums differ in the last ulp.
  EXPECT_GT(Faulted.Makespan, Clean.Makespan + 0.9e-3);
  EXPECT_EQ(Faulted.BytesReceived, Clean.BytesReceived);
}
