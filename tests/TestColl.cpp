//===- tests/TestColl.cpp - coll/ schedule generator tests -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Every broadcast algorithm is swept over communicator sizes and
// segmentations; each schedule must validate structurally, execute
// without deadlock, and deliver exactly the message bytes to every
// non-root rank.
//
//===----------------------------------------------------------------------===//

#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Barrier.h"
#include "coll/Bcast.h"
#include "coll/Collective.h"
#include "coll/Gather.h"
#include "coll/OmpiDecision.h"
#include "coll/PointToPoint.h"
#include "coll/Reduce.h"
#include "coll/Scatter.h"
#include "sim/Engine.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>

using namespace mpicsel;

namespace {

Platform testPlatform(unsigned NumProcs) {
  // One rank per node, noiseless, big enough for every sweep.
  return makeTestPlatform(NumProcs);
}

/// (algorithm, communicator size, segment bytes).
using BcastCase = std::tuple<BcastAlgorithm, unsigned, std::uint64_t>;

std::vector<BcastCase> bcastCases() {
  std::vector<BcastCase> Cases;
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    for (unsigned Size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 24u, 33u})
      for (std::uint64_t Segment : {std::uint64_t(0), std::uint64_t(1024),
                                    std::uint64_t(8192)})
        Cases.emplace_back(Alg, Size, Segment);
  return Cases;
}

} // namespace

class BcastSweep : public ::testing::TestWithParam<BcastCase> {};

TEST_P(BcastSweep, ValidatesExecutesAndDeliversEverywhere) {
  auto [Alg, Size, Segment] = GetParam();
  const std::uint64_t MessageBytes = 20000; // Not a segment multiple.
  Platform P = testPlatform(Size);

  ScheduleBuilder B(Size);
  BcastConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = Segment;
  Config.Root = 0;
  std::vector<OpId> Exit = appendBcast(B, Config);
  ASSERT_EQ(Exit.size(), Size);
  Schedule S = B.take();

  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();

  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;

  for (unsigned Rank = 0; Rank != Size; ++Rank) {
    ASSERT_NE(Exit[Rank], InvalidOpId);
    EXPECT_TRUE(R.Timings[Exit[Rank]].Done);
    if (Rank == Config.Root)
      continue;
    // Every non-root rank receives the full message exactly once.
    EXPECT_EQ(R.BytesReceived[Rank], MessageBytes)
        << "rank " << Rank << " of " << Size;
  }
  // The root never receives payload in a broadcast.
  EXPECT_EQ(R.BytesReceived[Config.Root], 0u);
  // Conservation: total sent == total received.
  std::uint64_t Sent = 0, Received = 0;
  for (unsigned Rank = 0; Rank != Size; ++Rank) {
    Sent += R.BytesSent[Rank];
    Received += R.BytesReceived[Rank];
  }
  EXPECT_EQ(Sent, Received);
}

TEST_P(BcastSweep, NonZeroRootWorks) {
  auto [Alg, Size, Segment] = GetParam();
  if (Size < 2)
    return;
  const std::uint64_t MessageBytes = 9000;
  unsigned Root = Size / 2;
  Platform P = testPlatform(Size);

  ScheduleBuilder B(Size);
  BcastConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = Segment;
  Config.Root = Root;
  std::vector<OpId> Exit = appendBcast(B, Config);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_EQ(R.BytesReceived[Rank], Rank == Root ? 0u : MessageBytes);
  (void)Exit;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BcastSweep, ::testing::ValuesIn(bcastCases()));

TEST(Bcast, SegmentCountArithmetic) {
  EXPECT_EQ(bcastSegmentCount(100, 0), 1u);
  EXPECT_EQ(bcastSegmentCount(100, 1000), 1u);
  EXPECT_EQ(bcastSegmentCount(100, 100), 1u);
  EXPECT_EQ(bcastSegmentCount(101, 100), 2u);
  EXPECT_EQ(bcastSegmentCount(8192 * 4, 8192), 4u);
  EXPECT_EQ(bcastSegmentCount(8192 * 4 + 1, 8192), 5u);
}

TEST(Bcast, SegmentedPipelineBeatsUnsegmentedChainOnLargeMessages) {
  // The whole point of segmentation: a pipelined chain overlaps
  // transfers. Sanity-check the simulator exhibits it.
  Platform P = testPlatform(16);
  auto timeOf = [&](std::uint64_t Segment) {
    ScheduleBuilder B(16);
    BcastConfig Config;
    Config.Algorithm = BcastAlgorithm::Chain;
    Config.MessageBytes = 1 << 20;
    Config.SegmentBytes = Segment;
    appendBcast(B, Config);
    ExecutionResult R = runSchedule(B.take(), P);
    EXPECT_TRUE(R.Completed);
    return R.Makespan;
  };
  EXPECT_LT(timeOf(8192), 0.5 * timeOf(0));
}

TEST(Bcast, LinearAlgorithmIgnoresSegmentation) {
  Platform P = testPlatform(8);
  auto opsOf = [&](std::uint64_t Segment) {
    ScheduleBuilder B(8);
    BcastConfig Config;
    Config.Algorithm = BcastAlgorithm::Linear;
    Config.MessageBytes = 1 << 20;
    Config.SegmentBytes = Segment;
    appendBcast(B, Config);
    return B.numOps();
  };
  // Open MPI's basic_linear is never segmented.
  EXPECT_EQ(opsOf(0), opsOf(1024));
}

TEST(Bcast, RootExitAfterLocalCompletionOnly) {
  // The root of a linear broadcast returns once its sends complete
  // locally -- well before the last receiver finishes.
  Platform P = testPlatform(8);
  ScheduleBuilder B(8);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Linear;
  Config.MessageBytes = 1 << 16;
  std::vector<OpId> Exit = appendBcast(B, Config);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_LT(R.doneTime(Exit[0]), R.Makespan);
}

TEST(Bcast, DeeperTreesFinishEarlierThanFlatOnManyRanks) {
  // Binomial beats linear for one-segment broadcasts on many ranks.
  Platform P = testPlatform(64);
  auto timeOf = [&](BcastAlgorithm Alg) {
    ScheduleBuilder B(64);
    BcastConfig Config;
    Config.Algorithm = Alg;
    Config.MessageBytes = 8192;
    Config.SegmentBytes = 8192;
    appendBcast(B, Config);
    ExecutionResult R = runSchedule(B.take(), P);
    EXPECT_TRUE(R.Completed);
    return R.Makespan;
  };
  EXPECT_LT(timeOf(BcastAlgorithm::Binomial),
            0.5 * timeOf(BcastAlgorithm::Linear));
}

//===----------------------------------------------------------------------===//
// Gather
//===----------------------------------------------------------------------===//

class GatherSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(GatherSweep, RootCollectsEveryBlock) {
  unsigned Size = GetParam();
  Platform P = testPlatform(Size);
  for (bool Synchronised : {false, true}) {
    ScheduleBuilder B(Size);
    GatherConfig Config;
    Config.BlockBytes = 4096;
    Config.Root = 0;
    Config.Synchronised = Synchronised;
    std::vector<OpId> Exit = appendLinearGather(B, Config);
    Schedule S = B.take();
    ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
        << verifySchedule(S).str();
    ExecutionResult R = runSchedule(S, P);
    ASSERT_TRUE(R.Completed) << R.Diagnostic;
    EXPECT_EQ(R.BytesReceived[0], 4096u * (Size - 1));
    // The root's exit is the last completion of the whole gather.
    EXPECT_DOUBLE_EQ(R.doneTime(Exit[0]), R.Makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GatherSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

TEST(Gather, SynchronisedIsSlower) {
  Platform P = testPlatform(16);
  auto timeOf = [&](bool Synchronised) {
    ScheduleBuilder B(16);
    GatherConfig Config;
    Config.BlockBytes = 1024;
    Config.Synchronised = Synchronised;
    appendLinearGather(B, Config);
    ExecutionResult R = runSchedule(B.take(), P);
    EXPECT_TRUE(R.Completed);
    return R.Makespan;
  };
  EXPECT_GT(timeOf(true), timeOf(false));
}

TEST(Gather, NonZeroRoot) {
  Platform P = testPlatform(8);
  ScheduleBuilder B(8);
  GatherConfig Config;
  Config.BlockBytes = 100;
  Config.Root = 3;
  appendLinearGather(B, Config);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.BytesReceived[3], 700u);
}

//===----------------------------------------------------------------------===//
// Barrier
//===----------------------------------------------------------------------===//

class BarrierSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BarrierSweep, NoRankExitsBeforeEveryRankEntered) {
  unsigned Size = GetParam();
  Platform P = testPlatform(Size);
  ScheduleBuilder B(Size);
  // Stagger the entries: rank r enters at r * 5us.
  std::vector<OpId> Entry(Size);
  double LatestEntry = 0;
  for (unsigned Rank = 0; Rank != Size; ++Rank) {
    Entry[Rank] = B.addCompute(Rank, Rank * 5e-6);
    LatestEntry = std::max(LatestEntry, Rank * 5e-6);
  }
  std::vector<OpId> Exit = appendBarrier(B, /*Tag=*/0, Entry);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_GE(R.doneTime(Exit[Rank]), LatestEntry)
        << "rank " << Rank << " escaped the barrier early";
}

INSTANTIATE_TEST_SUITE_P(Sweep, BarrierSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16, 33));

TEST(Barrier, RepeatedBarriersCompose) {
  Platform P = testPlatform(8);
  ScheduleBuilder B(8);
  std::vector<OpId> Exit;
  for (int I = 0; I < 4; ++I)
    Exit = appendBarrier(B, I * 8, Exit);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
}

//===----------------------------------------------------------------------===//
// Point-to-point
//===----------------------------------------------------------------------===//

TEST(PointToPoint, PingDeliversOnce) {
  Platform P = testPlatform(4);
  ScheduleBuilder B(4);
  std::vector<OpId> Exit = appendPing(B, 1, 3, 777, 0);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.BytesReceived[3], 777u);
  EXPECT_EQ(R.BytesSent[1], 777u);
  EXPECT_TRUE(R.Timings[Exit[0]].Done); // Bystander joined.
}

TEST(PointToPoint, PingPongRoundTripIsTwoOneWayTimes) {
  Platform P = testPlatform(2);
  ScheduleBuilder B(2);
  std::vector<OpId> Exit = appendPingPong(B, 0, 1, 1000, 0);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed);
  // One-way delivery on the test platform: 14us + 1us payload + 1us
  // o_r = 15us (completion at the receiver); the reply retraces it.
  double RoundTrip = R.doneTime(Exit[0]);
  EXPECT_NEAR(RoundTrip, 30e-6, 1e-6);
}

//===----------------------------------------------------------------------===//
// Composition (program order across collectives)
//===----------------------------------------------------------------------===//

TEST(Composition, GatherStartsAfterBcastPerRank) {
  Platform P = testPlatform(8);
  ScheduleBuilder B(8);
  BcastConfig Bcast;
  Bcast.Algorithm = BcastAlgorithm::Binomial;
  Bcast.MessageBytes = 32768;
  Bcast.SegmentBytes = 8192;
  std::vector<OpId> BcastExit = appendBcast(B, Bcast);
  GatherConfig Gather;
  Gather.BlockBytes = 2048;
  Gather.Tag = 50;
  std::vector<OpId> GatherExit = appendLinearGather(B, Gather, BcastExit);
  Schedule S = B.take();
  ASSERT_TRUE(verifySchedule(S).clean(Severity::Error))
      << verifySchedule(S).str();
  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  // The gather cannot finish before the broadcast finished anywhere.
  for (unsigned Rank = 0; Rank != 8; ++Rank)
    EXPECT_GE(R.doneTime(GatherExit[0]), R.doneTime(BcastExit[Rank]));
  // Payload accounting: everyone got the bcast, root got the blocks.
  EXPECT_EQ(R.BytesReceived[0], 7u * 2048u);
  for (unsigned Rank = 1; Rank != 8; ++Rank)
    EXPECT_EQ(R.BytesReceived[Rank], 32768u);
}

//===----------------------------------------------------------------------===//
// Open MPI fixed decision function
//===----------------------------------------------------------------------===//

TEST(OmpiDecision, SmallMessagesAreBinomialUnsegmented) {
  for (unsigned P : {4u, 16u, 90u, 124u}) {
    BcastDecision D = ompiBcastDecisionFixed(P, 1);
    EXPECT_EQ(D.Algorithm, BcastAlgorithm::Binomial);
    EXPECT_EQ(D.SegmentBytes, 0u);
    D = ompiBcastDecisionFixed(P, 2047);
    EXPECT_EQ(D.Algorithm, BcastAlgorithm::Binomial);
  }
}

TEST(OmpiDecision, IntermediateMessagesAreSplitBinary1K) {
  for (unsigned P : {4u, 90u, 124u}) {
    BcastDecision D = ompiBcastDecisionFixed(P, 2048);
    EXPECT_EQ(D.Algorithm, BcastAlgorithm::SplitBinary);
    EXPECT_EQ(D.SegmentBytes, 1024u);
    D = ompiBcastDecisionFixed(P, 370727);
    EXPECT_EQ(D.Algorithm, BcastAlgorithm::SplitBinary);
    EXPECT_EQ(D.SegmentBytes, 1024u);
  }
}

TEST(OmpiDecision, TinyCommunicatorLargeMessageIsPipeline128K) {
  // P = 3 < a_p128 * m + b_p128 already at m = 370728 (value ~2.7).
  BcastDecision D = ompiBcastDecisionFixed(2, 370728);
  EXPECT_EQ(D.Algorithm, BcastAlgorithm::Chain);
  EXPECT_EQ(D.SegmentBytes, 128u * 1024u);
}

TEST(OmpiDecision, MidCommunicatorLargeMessageIsSplitBinary8K) {
  // P = 12 < 13 but above the 128K pipeline separator at 500 KB.
  BcastDecision D = ompiBcastDecisionFixed(12, 500 * 1024);
  EXPECT_EQ(D.Algorithm, BcastAlgorithm::SplitBinary);
  EXPECT_EQ(D.SegmentBytes, 8192u);
}

TEST(OmpiDecision, LargeClusterLargeMessageIsPipeline8K) {
  // The paper's regime (Table 3): P = 90/100, m >= 512 KB -> chain
  // with 8 KB segments.
  for (unsigned P : {90u, 100u, 124u}) {
    for (std::uint64_t M :
         {512ull * 1024, 1024ull * 1024, 4096ull * 1024}) {
      BcastDecision D = ompiBcastDecisionFixed(P, M);
      EXPECT_EQ(D.Algorithm, BcastAlgorithm::Chain);
      EXPECT_EQ(D.SegmentBytes, 8192u);
    }
  }
}

TEST(OmpiDecision, PipelineSegmentSizeLaddersWithSeparators) {
  // Very large messages on moderate communicators walk the 128K /
  // 64K / 16K ladder.
  std::uint64_t M = 64ull * 1024 * 1024; // a_p128*M ~ 108.
  EXPECT_EQ(ompiBcastDecisionFixed(50, M).SegmentBytes, 128u * 1024u);
  EXPECT_EQ(ompiBcastDecisionFixed(130, M).SegmentBytes, 64u * 1024u);
  EXPECT_EQ(ompiBcastDecisionFixed(200, M).SegmentBytes, 16u * 1024u);
  EXPECT_EQ(ompiBcastDecisionFixed(500, M).SegmentBytes, 8u * 1024u);
}

//===----------------------------------------------------------------------===//
// Algorithm registry
//===----------------------------------------------------------------------===//

TEST(Algorithms, NamesRoundTrip) {
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    auto Parsed = parseBcastAlgorithm(bcastAlgorithmName(Alg));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Alg);
  }
  EXPECT_FALSE(parseBcastAlgorithm("nonsense").has_value());
  EXPECT_FALSE(parseBcastAlgorithm("").has_value());
}

TEST(Algorithms, PaperNamesAreUsed) {
  EXPECT_STREQ(bcastAlgorithmName(BcastAlgorithm::SplitBinary),
               "split_binary");
  EXPECT_STREQ(bcastAlgorithmName(BcastAlgorithm::KChain), "k_chain");
  EXPECT_STREQ(bcastAlgorithmName(BcastAlgorithm::Binomial), "binomial");
}

//===----------------------------------------------------------------------===//
// Collective-operation registry (coll/Collective.h)
//===----------------------------------------------------------------------===//

TEST(CollectiveRegistry, OpNamesRoundTrip) {
  for (CollectiveOp Op : AllCollectiveOps) {
    auto Parsed = parseCollectiveOp(collectiveOpName(Op));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Op);
  }
  EXPECT_FALSE(parseCollectiveOp("").has_value());
  EXPECT_FALSE(parseCollectiveOp("nonsense").has_value());
  // Exact match only: prefixes with trailing garbage are rejected.
  EXPECT_FALSE(parseCollectiveOp("bcastx").has_value());
  EXPECT_FALSE(parseCollectiveOp("bcast ").has_value());
  EXPECT_FALSE(parseCollectiveOp("allgather\n").has_value());
}

TEST(CollectiveRegistry, AlgorithmNamesRoundTripPerOp) {
  for (CollectiveOp Op : AllCollectiveOps) {
    const unsigned Count = collectiveAlgorithmCount(Op);
    ASSERT_GT(Count, 0u);
    for (unsigned I = 0; I != Count; ++I) {
      auto Parsed =
          parseCollectiveAlgorithm(Op, collectiveAlgorithmName(Op, I));
      ASSERT_TRUE(Parsed.has_value());
      EXPECT_EQ(*Parsed, I);
    }
    EXPECT_FALSE(parseCollectiveAlgorithm(Op, "").has_value());
    EXPECT_FALSE(parseCollectiveAlgorithm(Op, "nonsense").has_value());
    const std::string First = collectiveAlgorithmName(Op, 0);
    EXPECT_FALSE(parseCollectiveAlgorithm(Op, First + "x").has_value());
    EXPECT_FALSE(parseCollectiveAlgorithm(Op, First + " ").has_value());
  }
}

// Decision tables and TableImages store per-op enum ordinals, so the
// registry's numbering and spellings must agree with the per-op enums.
TEST(CollectiveRegistry, RegistryAgreesWithPerOpEnums) {
  EXPECT_EQ(collectiveAlgorithmCount(CollectiveOp::Bcast),
            NumBcastAlgorithms);
  EXPECT_EQ(collectiveAlgorithmCount(CollectiveOp::Scatter),
            NumScatterAlgorithms);
  EXPECT_EQ(collectiveAlgorithmCount(CollectiveOp::Reduce),
            NumReduceAlgorithms);
  EXPECT_EQ(collectiveAlgorithmCount(CollectiveOp::Allgather),
            NumAllgatherAlgorithms);
  EXPECT_EQ(collectiveAlgorithmCount(CollectiveOp::Allreduce),
            NumAllreduceAlgorithms);
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    EXPECT_STREQ(collectiveAlgorithmName(CollectiveOp::Bcast,
                                         static_cast<unsigned>(Alg)),
                 bcastAlgorithmName(Alg));
  for (ScatterAlgorithm Alg : AllScatterAlgorithms)
    EXPECT_STREQ(collectiveAlgorithmName(CollectiveOp::Scatter,
                                         static_cast<unsigned>(Alg)),
                 scatterAlgorithmName(Alg));
  for (ReduceAlgorithm Alg : AllReduceAlgorithms)
    EXPECT_STREQ(collectiveAlgorithmName(CollectiveOp::Reduce,
                                         static_cast<unsigned>(Alg)),
                 reduceAlgorithmName(Alg));
  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms)
    EXPECT_STREQ(collectiveAlgorithmName(CollectiveOp::Allgather,
                                         static_cast<unsigned>(Alg)),
                 allgatherAlgorithmName(Alg));
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
    EXPECT_STREQ(collectiveAlgorithmName(CollectiveOp::Allreduce,
                                         static_cast<unsigned>(Alg)),
                 allreduceAlgorithmName(Alg));
}

//===----------------------------------------------------------------------===//
// Golden layouts: every generator emits exactly the schedule it always did
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over the fields that define a schedule's layout.
class LayoutDigest {
public:
  template <typename T> void add(const T &Value) {
    unsigned char Bytes[sizeof(T)];
    std::memcpy(Bytes, &Value, sizeof(T));
    for (unsigned char Byte : Bytes)
      Hash = (Hash ^ Byte) * 0x100000001b3ull;
  }

  /// Every row field but the padding and the (compile-time) channel,
  /// then the tags, the CSR dependencies and the returned exits.
  void addSchedule(const Schedule &S, const std::vector<OpId> &Exit) {
    for (const OpRow &R : S.Rows) {
      add(R.Bytes);
      add(R.Duration);
      add(R.Rank);
      add(R.Peer);
      add(R.Kind);
    }
    for (std::int32_t Tag : S.Tags)
      add(Tag);
    for (std::uint32_t Offset : S.DepOffsets)
      add(Offset);
    for (OpId Dep : S.DepList)
      add(Dep);
    for (OpId Op : Exit)
      add(Op);
    ++Schedules;
  }

  std::uint64_t Hash = 0xcbf29ce484222325ull;
  unsigned Schedules = 0;
};

/// The shapes every generator is built on: each communicator size of
/// at least \p MinRanks ranks, roots 0 and P/2 when \p Rooted, and each
/// once standalone and once after an entry op on every even rank (odd
/// ranks enter with none).
template <typename BuildFn>
void forEachGoldenShape(bool Rooted, unsigned MinRanks, LayoutDigest &Digest,
                        BuildFn Build) {
  for (unsigned P : {1u, 2u, 3u, 5u, 8u, 13u, 16u, 40u}) {
    if (P < MinRanks)
      continue;
    std::vector<unsigned> Roots{0};
    if (Rooted && P / 2 != 0)
      Roots.push_back(P / 2);
    for (unsigned Root : Roots) {
      for (bool WithEntry : {false, true}) {
        ScheduleBuilder B(P);
        std::vector<OpId> Entry;
        if (WithEntry) {
          Entry.assign(P, InvalidOpId);
          for (unsigned Rank = 0; Rank < P; Rank += 2)
            Entry[Rank] = B.addCompute(Rank, 1e-6);
        }
        std::vector<OpId> Exit = Build(B, P, Root, std::span(Entry));
        Schedule S = B.take();
        Digest.addSchedule(S, Exit);
      }
    }
  }
}

} // namespace

// One digest per (generator, algorithm) over the whole catalogue. The
// constants were captured from the generators before they shared their
// building blocks; a refactor of coll/ must leave every one unchanged.
// A deliberate layout change recaptures them (the failure message
// prints the new value) and says why.
TEST(ScheduleGolden, EveryGeneratorKeepsItsLayout) {
  std::map<std::string, LayoutDigest> Digests;
  const int Tag = 3;

  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    for (std::uint64_t Bytes : {1u, 3000u, 8192u, 100000u})
      for (std::uint64_t Segment : {0u, 1024u, 8192u})
        forEachGoldenShape(
            true, 1, Digests[std::string("bcast/") + bcastAlgorithmName(Alg)],
            [&](ScheduleBuilder &B, unsigned, unsigned Root,
                std::span<const OpId> Entry) {
              BcastConfig C;
              C.Algorithm = Alg;
              C.MessageBytes = Bytes;
              C.SegmentBytes = Segment;
              C.Root = Root;
              C.Tag = Tag;
              return appendBcast(B, C, Entry);
            });

  for (ReduceAlgorithm Alg : AllReduceAlgorithms)
    for (std::uint64_t Bytes : {1u, 100000u})
      forEachGoldenShape(
          true, 1, Digests[std::string("reduce/") + reduceAlgorithmName(Alg)],
          [&](ScheduleBuilder &B, unsigned, unsigned Root,
              std::span<const OpId> Entry) {
            ReduceConfig C;
            C.Algorithm = Alg;
            C.MessageBytes = Bytes;
            C.Root = Root;
            C.ComputeSecondsPerByte = 3e-10;
            C.Tag = Tag;
            return appendReduce(B, C, Entry);
          });

  for (ScatterAlgorithm Alg : AllScatterAlgorithms)
    for (std::uint64_t Block : {1u, 3000u})
      forEachGoldenShape(
          true, 1, Digests[std::string("scatter/") + scatterAlgorithmName(Alg)],
          [&](ScheduleBuilder &B, unsigned, unsigned Root,
              std::span<const OpId> Entry) {
            ScatterConfig C;
            C.Algorithm = Alg;
            C.BlockBytes = Block;
            C.Root = Root;
            C.Tag = Tag;
            return appendScatter(B, C, Entry);
          });

  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms)
    for (std::uint64_t Block : {1u, 3000u})
      forEachGoldenShape(
          false, 1,
          Digests[std::string("allgather/") + allgatherAlgorithmName(Alg)],
          [&](ScheduleBuilder &B, unsigned, unsigned,
              std::span<const OpId> Entry) {
            AllgatherConfig C;
            C.Algorithm = Alg;
            C.BlockBytes = Block;
            C.Tag = Tag;
            return appendAllgather(B, C, Entry);
          });

  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
    for (std::uint64_t Bytes : {1u, 7u, 100000u})
      forEachGoldenShape(
          false, 1,
          Digests[std::string("allreduce/") + allreduceAlgorithmName(Alg)],
          [&](ScheduleBuilder &B, unsigned, unsigned,
              std::span<const OpId> Entry) {
            AllreduceConfig C;
            C.Algorithm = Alg;
            C.MessageBytes = Bytes;
            C.ComputeSecondsPerByte = 3e-10;
            C.Tag = Tag;
            return appendAllreduce(B, C, Entry);
          });

  for (bool Synchronised : {false, true})
    for (std::uint64_t Block : {1u, 3000u})
      forEachGoldenShape(
          true, 1,
          Digests[Synchronised ? "gather/linear_sync" : "gather/linear"],
          [&](ScheduleBuilder &B, unsigned, unsigned Root,
              std::span<const OpId> Entry) {
            GatherConfig C;
            C.BlockBytes = Block;
            C.Root = Root;
            C.Tag = Tag;
            C.Synchronised = Synchronised;
            return appendLinearGather(B, C, Entry);
          });

  forEachGoldenShape(false, 1, Digests["barrier/dissemination"],
                     [&](ScheduleBuilder &B, unsigned, unsigned,
                         std::span<const OpId> Entry) {
                       return appendBarrier(B, Tag, Entry);
                     });

  // Point-to-point needs two distinct endpoints: the root and its
  // successor.
  for (bool PingPong : {false, true})
    for (std::uint64_t Bytes : {1u, 3000u})
      forEachGoldenShape(
          true, 2, Digests[PingPong ? "p2p/ping_pong" : "p2p/ping"],
          [&](ScheduleBuilder &B, unsigned P, unsigned Root,
              std::span<const OpId> Entry) {
            const unsigned Peer = (Root + 1) % P;
            return PingPong ? appendPingPong(B, Root, Peer, Bytes, Tag, Entry)
                            : appendPing(B, Root, Peer, Bytes, Tag, Entry);
          });

  const std::pair<const char *, std::uint64_t> Expected[] = {
      {"bcast/linear", 0x38adf51e3010c731ull},
      {"bcast/chain", 0x8d7daae17109a24dull},
      {"bcast/k_chain", 0x4d2c11581d25a552ull},
      {"bcast/binary", 0x223b77a315d9cdc0ull},
      {"bcast/split_binary", 0x2305fdbeb2a55bfeull},
      {"bcast/binomial", 0x760f124da11b9ffbull},
      {"reduce/linear", 0x24edeabfcb860ff1ull},
      {"reduce/chain", 0x1fd13ff4158887bcull},
      {"reduce/binomial", 0xc16794a7f0e681d0ull},
      {"scatter/linear", 0x4a51956b61f68e4full},
      {"scatter/binomial", 0xa6b5e50897113057ull},
      {"allgather/ring", 0x51a205415dd24cf9ull},
      {"allgather/recursive_doubling", 0x7bc50ebf60a6b0c1ull},
      {"allgather/neighbor_exchange", 0xd8f417520e4d014dull},
      {"allreduce/recursive_doubling", 0x5728ae6bca386ec0ull},
      {"allreduce/ring", 0xe223a464fccf58daull},
      {"allreduce/reduce_bcast", 0x4d919e853737ed21ull},
      {"gather/linear", 0x5bb7e03dcd770c85ull},
      {"gather/linear_sync", 0xc16b4db1c18c7cb1ull},
      {"barrier/dissemination", 0x13ba7f16f1fce1b1ull},
      {"p2p/ping", 0x50cd193fcc1575fdull},
      {"p2p/ping_pong", 0x93f2d34bac4f7dull},
  };
  ASSERT_EQ(Digests.size(), std::size(Expected));
  unsigned Schedules = 0;
  for (const auto &[Name, Want] : Expected) {
    ASSERT_TRUE(Digests.count(Name)) << Name;
    const LayoutDigest &Got = Digests[Name];
    Schedules += Got.Schedules;
    EXPECT_EQ(Got.Hash, Want) << Name << ": 0x" << std::hex << Got.Hash;
  }
  EXPECT_EQ(Schedules, 2948u);
}
