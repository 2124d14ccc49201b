//===- tests/TestStreamingSchedule.cpp - Streaming vs materialized --------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The streaming path (topo/Tree closed forms, coll/BcastStream,
// sim/StreamEngine, sim/EventQueue) claims bit-identity with the
// materialized path at every layer:
//
//  * treeNodeInfo/treeChild answer exactly what the built trees hold,
//    child order included;
//  * forEachStreamedOp re-derives appendBcast's schedules op for op --
//    kinds, peers, byte counts, tags and dependency lists;
//  * StreamEngine's replay reproduces the compiled engine's timeline
//    bit for bit -- per-op timings, makespan, byte counters, fault
//    windows -- across seeds, platforms and fault scenarios;
//  * the event heap pops in exactly the order a binary heap would,
//    reserved to its bound as the compiled engine runs it and growing
//    from empty as the streaming engine runs it;
//  * and the whole point of the exercise: the streaming engine's
//    memory footprint at P = 100k stays far below what materializing
//    the schedule would cost.
//
//===----------------------------------------------------------------------===//

#include "coll/Bcast.h"
#include "coll/BcastStream.h"
#include "fault/Fault.h"
#include "mpi/CompiledSchedule.h"
#include "sim/Engine.h"
#include "sim/EventQueue.h"
#include "sim/StreamEngine.h"
#include "topo/Tree.h"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace mpicsel;

namespace {

constexpr std::uint64_t Seeds[] = {1, 42, 9001};

/// 16 ranks over 8 dual-process nodes with mild noise: both link
/// models and the shared RNG stream participate (sigma 0 would bypass
/// every draw and hide draw-order bugs).
Platform noisyTestPlatform() {
  Platform P = makeTestPlatform(8, 2);
  P.NoiseSigma = 0.02;
  return P;
}

/// The same fault scenarios TestCompiledSchedule pins the compiled
/// engine with: a slow rank, a congested node with a noise-regime
/// shift, and seeded per-message stalls (where both engines must
/// agree on every per-message hash decision, i.e. on global op ids).
std::vector<FaultSchedule> faultScenarios() {
  std::vector<FaultSchedule> Scenarios;
  {
    FaultSchedule F("straggler-rank1", 77);
    FaultEvent E;
    E.Kind = FaultKind::StragglerRank;
    E.Rank = 1;
    E.CpuMultiplier = 3.0;
    F.add(E);
    Scenarios.push_back(std::move(F));
  }
  {
    FaultSchedule F("congested-node0", 78);
    FaultEvent Link;
    Link.Kind = FaultKind::DegradedLink;
    Link.Node = 0;
    Link.GapMultiplier = 2.0;
    Link.LatencyMultiplier = 4.0;
    F.add(Link);
    FaultEvent Regime;
    Regime.Kind = FaultKind::NoiseRegimeShift;
    Regime.Start = 0.0;
    Regime.End = 1e-3;
    Regime.SigmaMultiplier = 3.0;
    F.add(Regime);
    Scenarios.push_back(std::move(F));
  }
  {
    FaultSchedule F("message-stalls", 79);
    FaultEvent E;
    E.Kind = FaultKind::MessageStall;
    E.SpikeProbability = 0.5;
    E.StallSeconds = 1e-4;
    F.add(E);
    Scenarios.push_back(std::move(F));
  }
  return Scenarios;
}

const BcastAlgorithm StreamingAlgorithms[] = {
    BcastAlgorithm::Linear, BcastAlgorithm::Chain, BcastAlgorithm::KChain,
    BcastAlgorithm::Binary, BcastAlgorithm::Binomial};

std::string caseName(const BcastConfig &C, unsigned P, std::uint64_t Seed) {
  return std::string(bcastAlgorithmName(C.Algorithm)) + " P=" +
         std::to_string(P) + " root=" + std::to_string(C.Root) + " m=" +
         std::to_string(C.MessageBytes) + " seed=" + std::to_string(Seed);
}

Schedule materialize(const BcastConfig &C, unsigned P) {
  ScheduleBuilder B(P);
  appendBcast(B, C);
  return B.take();
}

void expectBitIdentical(const ExecutionResult &Oracle,
                        const ExecutionResult &Streamed,
                        const std::string &Context) {
  EXPECT_EQ(Oracle.Completed, Streamed.Completed) << Context;
  EXPECT_EQ(Oracle.Makespan, Streamed.Makespan) << Context;
  ASSERT_EQ(Oracle.Timings.size(), Streamed.Timings.size()) << Context;
  for (std::size_t Id = 0; Id != Oracle.Timings.size(); ++Id) {
    const OpTiming &O = Oracle.Timings[Id], &S = Streamed.Timings[Id];
    ASSERT_TRUE(O.Done == S.Done && O.ReadyTime == S.ReadyTime &&
                O.StartTime == S.StartTime && O.DoneTime == S.DoneTime)
        << Context << " diverges at op " << Id << ": compiled ("
        << O.ReadyTime << ", " << O.StartTime << ", " << O.DoneTime << ", "
        << O.Done << ") vs streamed (" << S.ReadyTime << ", " << S.StartTime
        << ", " << S.DoneTime << ", " << S.Done << ")";
  }
  EXPECT_EQ(Oracle.BytesReceived, Streamed.BytesReceived) << Context;
  EXPECT_EQ(Oracle.BytesSent, Streamed.BytesSent) << Context;
  ASSERT_EQ(Oracle.FaultWindows.size(), Streamed.FaultWindows.size())
      << Context;
  for (std::size_t I = 0; I != Oracle.FaultWindows.size(); ++I) {
    EXPECT_EQ(Oracle.FaultWindows[I].Kind, Streamed.FaultWindows[I].Kind);
    EXPECT_EQ(Oracle.FaultWindows[I].Start, Streamed.FaultWindows[I].Start);
    EXPECT_EQ(Oracle.FaultWindows[I].End, Streamed.FaultWindows[I].End);
    EXPECT_EQ(Oracle.FaultWindows[I].Target,
              Streamed.FaultWindows[I].Target);
  }
  EXPECT_EQ(Oracle.FaultScenario, Streamed.FaultScenario) << Context;
}

} // namespace

//===----------------------------------------------------------------------===//
// Closed-form tree structure vs built trees.
//===----------------------------------------------------------------------===//

TEST(StreamingTree, NodeInfoMatchesBuiltTrees) {
  const TreeKind Kinds[] = {TreeKind::Linear, TreeKind::Chain,
                            TreeKind::Binary, TreeKind::InOrderBinary,
                            TreeKind::Binomial};
  std::vector<unsigned> Sizes;
  for (unsigned P = 1; P <= 33; ++P)
    Sizes.push_back(P);
  for (unsigned P : {40u, 64u, 65u, 100u, 127u, 128u, 257u})
    Sizes.push_back(P);

  for (TreeKind Kind : Kinds) {
    for (unsigned Size : Sizes) {
      for (unsigned Root : {0u, 1u, Size / 2, Size - 1}) {
        if (Root >= Size)
          continue;
        for (unsigned Fanout : {1u, 2u, 3u, 4u, 7u}) {
          Tree T = buildTreeOfKind(Kind, Size, Root, Fanout);
          std::string Why;
          ASSERT_TRUE(validateTree(T, &Why)) << Why;
          for (unsigned Rank = 0; Rank != Size; ++Rank) {
            TreeNodeInfo Info = treeNodeInfo(Kind, Size, Root, Fanout, Rank);
            ASSERT_EQ(Info.Parent, T.Parent[Rank])
                << "kind " << static_cast<int>(Kind) << " P=" << Size
                << " root=" << Root << " fanout=" << Fanout << " rank "
                << Rank;
            ASSERT_EQ(Info.NumChildren, T.Children[Rank].size());
            for (unsigned K = 0; K != Info.NumChildren; ++K)
              ASSERT_EQ(treeChild(Kind, Size, Root, Fanout, Rank, K),
                        T.Children[Rank][K])
                  << "kind " << static_cast<int>(Kind) << " P=" << Size
                  << " root=" << Root << " fanout=" << Fanout << " rank "
                  << Rank << " child " << K;
          }
          if (Kind != TreeKind::Chain)
            break; // Fanout only matters for chains.
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Streamed op enumeration vs appendBcast.
//===----------------------------------------------------------------------===//

namespace {

/// Checks that forEachStreamedOp over all ranks re-derives \p S
/// exactly: same ops at the same global ids, same dependency lists.
void expectEnumerationMatches(const BcastStreamPlan &Plan,
                              const Schedule &S, const std::string &Name) {
  std::vector<std::uint64_t> Bases;
  Plan.rankOpBases(Bases);
  std::uint64_t Total = 0;
  for (unsigned Rank = 0; Rank != Plan.RankCount; ++Rank) {
    const std::uint64_t Base = Bases[Rank];
    std::uint64_t Local = 0;
    forEachStreamedOp(Plan, Rank, [&](const StreamedOp &SO) {
      const std::uint64_t Gid = Base + Local;
      ASSERT_LT(Gid, S.numOps()) << Name;
      const OpView M = S.op(Gid);
      ASSERT_EQ(M.Kind, SO.Kind) << Name << " op " << Gid;
      ASSERT_EQ(M.Rank, Rank) << Name << " op " << Gid;
      if (SO.Kind != OpKind::Compute) {
        ASSERT_EQ(M.Peer, SO.Peer) << Name << " op " << Gid;
        ASSERT_EQ(M.Bytes, SO.Bytes) << Name << " op " << Gid;
        ASSERT_EQ(M.Tag, SO.Tag) << Name << " op " << Gid;
      }
      ASSERT_EQ(M.Duration, 0.0) << Name << " op " << Gid;
      std::vector<OpId> Deps;
      Deps.reserve(SO.Deps.size());
      for (std::uint64_t D : SO.Deps)
        Deps.push_back(static_cast<OpId>(Base + D));
      ASSERT_TRUE(std::ranges::equal(M.Deps, Deps)) << Name << " op " << Gid;
      ++Local;
    });
    ASSERT_EQ(Local, Plan.rankPlan(Rank).NumOps) << Name << " rank " << Rank;
    Total += Local;
  }
  ASSERT_EQ(Total, S.numOps()) << Name;
  ASSERT_EQ(Total, Plan.totalOps()) << Name;
}

} // namespace

TEST(StreamingSchedule, EnumerationBitIdenticalToAppendBcast) {
  struct MsgShape {
    std::uint64_t MessageBytes;
    std::uint64_t SegmentBytes;
  };
  // Unsegmented, two even segments, and a ragged remainder tail.
  const MsgShape Shapes[] = {
      {4096, 8192}, {16384, 8192}, {96 * 1024 + 13, 8 * 1024}};

  for (BcastAlgorithm Alg : StreamingAlgorithms) {
    for (unsigned P : {2u, 3u, 5u, 8u, 16u, 17u, 31u, 64u}) {
      for (unsigned Root : {0u, 3u}) {
        if (Root >= P)
          continue;
        for (const MsgShape &Shape : Shapes) {
          BcastConfig C;
          C.Algorithm = Alg;
          C.MessageBytes = Shape.MessageBytes;
          C.SegmentBytes = Shape.SegmentBytes;
          C.Root = Root;
          ASSERT_TRUE(bcastSupportsStreaming(C, P));
          BcastStreamPlan Plan = makeBcastStreamPlan(C, P);
          expectEnumerationMatches(Plan, materialize(C, P),
                                   caseName(C, P, 0));
        }
      }
    }
  }
  // The trivial single-rank collective.
  BcastConfig C;
  C.MessageBytes = 4096;
  BcastStreamPlan Plan = makeBcastStreamPlan(C, 1);
  expectEnumerationMatches(Plan, materialize(C, 1), "trivial P=1");
}

TEST(StreamingSchedule, SplitBinaryHasNoStreamingForm) {
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::SplitBinary;
  C.MessageBytes = 4096;
  EXPECT_FALSE(bcastSupportsStreaming(C, 16));
}

//===----------------------------------------------------------------------===//
// Streaming replay vs compiled engine.
//===----------------------------------------------------------------------===//

TEST(StreamEngineTest, BitIdenticalToCompiledEngine) {
  // Grisou's 1 KiB segments are short enough next to its latency noise
  // that a segment can draw a smaller latency than the one injected
  // before it on the same edge: only the non-overtaking clamp keeps
  // the two engines together there.
  struct Input {
    Platform P;
    std::uint64_t SegmentBytes;
  };
  const Input Inputs[] = {{noisyTestPlatform(), 8 * 1024},
                          {makeGrisou(), 1024}};
  Engine Oracle;
  StreamEngine Streamed;
  StreamOptions Opts;
  Opts.RecordTimings = true;

  for (const auto &[P, SegmentBytes] : Inputs) {
    for (BcastAlgorithm Alg : StreamingAlgorithms) {
      for (unsigned RankCount : {1u, 2u, 3u, 5u, 8u, 16u}) {
        for (unsigned Root : {0u, 3u}) {
          if (Root >= RankCount)
            continue;
          BcastConfig C;
          C.Algorithm = Alg;
          C.MessageBytes = 24 * 1024 + 13; // Ragged tail.
          C.SegmentBytes = SegmentBytes;
          C.Root = Root;
          CompiledSchedule CS = compileSchedule(materialize(C, RankCount));
          BcastStreamPlan Plan = makeBcastStreamPlan(C, RankCount);
          for (std::uint64_t Seed : Seeds) {
            const std::string Name =
                P.Name + " " + caseName(C, RankCount, Seed);
            ExecutionResult FromCompiled = Oracle.run(CS, P, Seed);
            const ExecutionResult &FromStream =
                Streamed.run(Plan, P, Seed, nullptr, Opts);
            ASSERT_TRUE(FromCompiled.Completed) << Name;
            expectBitIdentical(FromCompiled, FromStream, Name);
          }
        }
      }
    }
  }
}

TEST(StreamEngineTest, BitIdenticalOnGrisouUnsegmented) {
  Platform P = makeGrisou();
  Engine Oracle;
  StreamEngine Streamed;
  StreamOptions Opts;
  Opts.RecordTimings = true;
  for (BcastAlgorithm Alg : StreamingAlgorithms) {
    BcastConfig C;
    C.Algorithm = Alg;
    C.MessageBytes = 2048; // Below the segment size: S = 1.
    CompiledSchedule CS = compileSchedule(materialize(C, 90));
    BcastStreamPlan Plan = makeBcastStreamPlan(C, 90);
    ExecutionResult FromCompiled = Oracle.run(CS, P, 7);
    const ExecutionResult &FromStream = Streamed.run(Plan, P, 7, nullptr, Opts);
    expectBitIdentical(FromCompiled, FromStream, caseName(C, 90, 7));
  }
}

TEST(StreamEngineTest, FaultScenariosBitIdenticalToCompiledEngine) {
  Platform P = noisyTestPlatform();
  Engine Oracle;
  StreamEngine Streamed;
  StreamOptions Opts;
  Opts.RecordTimings = true;

  for (const FaultSchedule &Faults : faultScenarios()) {
    for (BcastAlgorithm Alg :
         {BcastAlgorithm::Linear, BcastAlgorithm::Chain,
          BcastAlgorithm::Binomial}) {
      BcastConfig C;
      C.Algorithm = Alg;
      C.MessageBytes = 64 * 1024;
      C.SegmentBytes = 8 * 1024;
      CompiledSchedule CS = compileSchedule(materialize(C, 16));
      BcastStreamPlan Plan = makeBcastStreamPlan(C, 16);
      for (std::uint64_t Seed : Seeds) {
        ExecutionResult FromCompiled = Oracle.run(CS, P, Seed, &Faults);
        const ExecutionResult &FromStream =
            Streamed.run(Plan, P, Seed, &Faults, Opts);
        expectBitIdentical(FromCompiled, FromStream,
                           Faults.name() + " " + caseName(C, 16, Seed));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The event heap vs a reference heap.
//===----------------------------------------------------------------------===//

namespace {

/// A popped (Time, Key) pair; the reference orders pairs the same way
/// the event heap must.
using TimedKey = std::pair<double, std::uint64_t>;

using ReferenceHeap =
    std::priority_queue<TimedKey, std::vector<TimedKey>, std::greater<>>;

/// The streaming engine's heap, reset without a bound: every case
/// grows it from empty.
class GrowingHeapUnderTest {
public:
  explicit GrowingHeapUnderTest(std::size_t /*MaxLive*/) { H.reset(); }
  void push(double Time, std::uint64_t Seq) {
    H.push(StreamEvent{Time, Seq << 2, static_cast<std::uint32_t>(Seq), 0,
                       0.0});
  }
  TimedKey pop() {
    const StreamEvent E = H.pop();
    EXPECT_EQ(E.Rank, static_cast<std::uint32_t>(E.Key >> 2));
    return {E.Time, E.Key};
  }
  std::size_t size() const { return H.size(); }
  bool empty() const { return H.empty(); }

private:
  EventHeap<StreamEvent> H;
};

/// The compiled engine's replay heap, reserved to the case's bound.
class ReplayHeapUnderTest {
public:
  explicit ReplayHeapUnderTest(std::size_t MaxLive) { H.reset(MaxLive); }
  void push(double Time, std::uint64_t Seq) {
    H.push(ReplayEvent{Time, Seq << 2});
  }
  TimedKey pop() {
    const ReplayEvent E = H.pop();
    return {E.Time, E.Key};
  }
  std::size_t size() const { return H.size(); }
  bool empty() const { return H.empty(); }

private:
  ReplayHeap H;
};

template <typename Queue>
void pushBoth(Queue &Q, ReferenceHeap &Ref, double Time, std::uint64_t Seq) {
  Q.push(Time, Seq);
  Ref.push({Time, Seq << 2});
}

template <typename Queue>
void expectSamePops(Queue &Q, ReferenceHeap &Ref, const std::string &Context) {
  ASSERT_EQ(Q.size(), Ref.size()) << Context;
  while (!Ref.empty()) {
    const TimedKey Expected = Ref.top();
    Ref.pop();
    const TimedKey Got = Q.pop();
    ASSERT_EQ(Expected.first, Got.first) << Context;
    ASSERT_EQ(Expected.second, Got.second) << Context;
  }
  EXPECT_TRUE(Q.empty()) << Context;
}

// The cases below run against both ways the engines hold the heap: a
// TEST per (adapter, case) instantiates the shared body.

template <typename Queue> void randomTimesMatchReferenceHeap() {
  std::mt19937_64 Rng(12345);
  std::uniform_real_distribution<double> Times(0.0, 1e-2);
  Queue Q(5000);
  ReferenceHeap Ref;
  for (std::uint64_t Seq = 0; Seq != 5000; ++Seq)
    pushBoth(Q, Ref, Times(Rng), Seq);
  expectSamePops(Q, Ref, "random");
}

template <typename Queue> void equalTimesPopInSequenceOrder() {
  Queue Q(1000);
  ReferenceHeap Ref;
  // Three bands of identical timestamps: ties resolve on Key.
  for (std::uint64_t Seq = 0; Seq != 1000; ++Seq)
    pushBoth(Q, Ref, 1e-6 * static_cast<double>(Seq % 3), Seq);
  expectSamePops(Q, Ref, "equal-times");
}

template <typename Queue> void simulationPatternMatchesReferenceHeap() {
  // Event-sim-shaped load: pop the minimum, push a few events a short
  // (noisy) horizon past it, drain at the end.
  constexpr int Steps = 20000;
  std::mt19937_64 Rng(999);
  std::uniform_real_distribution<double> Delta(1e-7, 9e-6);
  std::uniform_int_distribution<int> Births(0, 2);
  Queue Q(64 + 2 * Steps);
  ReferenceHeap Ref;
  std::uint64_t Seq = 0;
  for (; Seq != 64; ++Seq)
    pushBoth(Q, Ref, Delta(Rng), Seq);
  for (int Step = 0; Step != Steps && !Ref.empty(); ++Step) {
    const TimedKey Expected = Ref.top();
    Ref.pop();
    const TimedKey Got = Q.pop();
    ASSERT_EQ(Expected.first, Got.first) << "step " << Step;
    ASSERT_EQ(Expected.second, Got.second) << "step " << Step;
    const int N = Births(Rng);
    for (int I = 0; I != N; ++I, ++Seq)
      pushBoth(Q, Ref, Got.first + Delta(Rng), Seq);
  }
  expectSamePops(Q, Ref, "drain");
}

template <typename Queue> void sparseFarFutureEventsFound() {
  // Times spread over nine orders of magnitude.
  Queue Q(64);
  ReferenceHeap Ref;
  for (std::uint64_t Seq = 0; Seq != 64; ++Seq)
    pushBoth(Q, Ref, static_cast<double>(Seq * Seq) * 1e3 + 0.5, Seq);
  expectSamePops(Q, Ref, "sparse");
}

template <typename Queue> void deepHeapWithPartialChildGroups() {
  // ~40K live events, the depth a P=90 4 MiB split-binary replay
  // reaches. Each fill ends on a different residue mod 4, so the last
  // group of children is partial in every possible way; most events
  // share their time with another, so ties decide most pops.
  for (std::uint64_t Residue = 0; Residue != 4; ++Residue) {
    const std::uint64_t Live = 40960 + Residue;
    std::mt19937_64 Rng(77 + Residue);
    std::uniform_int_distribution<int> Tick(0, 30000);
    Queue Q(Live);
    ReferenceHeap Ref;
    for (std::uint64_t Seq = 0; Seq != Live; ++Seq)
      pushBoth(Q, Ref, 1e-9 * Tick(Rng), Seq);
    // Interleave pops and pushes at full depth before draining.
    for (std::uint64_t Seq = Live; Seq != Live + 4096; ++Seq) {
      const TimedKey Expected = Ref.top();
      Ref.pop();
      const TimedKey Got = Q.pop();
      ASSERT_EQ(Expected.first, Got.first) << "residue " << Residue;
      ASSERT_EQ(Expected.second, Got.second) << "residue " << Residue;
      pushBoth(Q, Ref, Got.first + 1e-9 * Tick(Rng), Seq);
    }
    expectSamePops(Q, Ref, "deep, residue " + std::to_string(Residue));
  }
}

} // namespace

TEST(GrowingEventHeapTest, RandomTimesMatchReferenceHeap) {
  randomTimesMatchReferenceHeap<GrowingHeapUnderTest>();
}
TEST(GrowingEventHeapTest, EqualTimesPopInSequenceOrder) {
  equalTimesPopInSequenceOrder<GrowingHeapUnderTest>();
}
TEST(GrowingEventHeapTest, SimulationPatternMatchesReferenceHeap) {
  simulationPatternMatchesReferenceHeap<GrowingHeapUnderTest>();
}
TEST(GrowingEventHeapTest, SparseFarFutureEventsFound) {
  sparseFarFutureEventsFound<GrowingHeapUnderTest>();
}
TEST(GrowingEventHeapTest, DeepQueueWithPartialChildGroups) {
  deepHeapWithPartialChildGroups<GrowingHeapUnderTest>();
}

TEST(GrowingEventHeapTest, OrderHoldsAcrossGrowthAndResetReusesTheGrownStorage) {
  // A bound of 5 puts the first growth in the middle of a group of
  // children, so the pops after it read the moved sentinel tail.
  EventHeap<StreamEvent> H;
  EXPECT_FALSE(H.reset(5));
  ReferenceHeap Ref;
  std::mt19937_64 Rng(2024);
  std::uniform_int_distribution<int> Tick(0, 500);
  // Push two, pop one, until the heap has grown six times: every pop is
  // checked, including those right across each growth copy.
  std::size_t Growths = 0, Peak = 0;
  std::uint64_t Seq = 0;
  while (Growths != 6) {
    for (int Push = 0; Push != 2; ++Push, ++Seq) {
      const std::size_t Before = H.capacity();
      const double Time = 1e-9 * Tick(Rng);
      H.push(StreamEvent{Time, Seq << 2, 0, 0, 0.0});
      Ref.push({Time, Seq << 2});
      Peak = std::max(Peak, H.size());
      if (H.capacity() == Before)
        continue;
      ++Growths;
      // Doubling the room for live events on a full heap keeps the
      // room under twice the peak once the first growth is filled.
      EXPECT_EQ(H.capacity() - 4,
                std::max<std::size_t>(2 * (Before - 4), 60));
      if (Growths > 1) {
        EXPECT_LT(H.capacity() - 4, 2 * Peak);
      }
    }
    const StreamEvent Got = H.pop();
    ASSERT_EQ(Ref.top(), (TimedKey{Got.Time, Got.Key})) << "pop " << Seq / 2;
    Ref.pop();
  }
  ASSERT_EQ(H.size(), Ref.size());
  while (!Ref.empty()) {
    const StreamEvent Got = H.pop();
    ASSERT_EQ(Ref.top(), (TimedKey{Got.Time, Got.Key}));
    Ref.pop();
  }
  EXPECT_TRUE(H.empty());

  // The grown storage survives reset: a run of the same size fits.
  const std::size_t Grown = H.capacity();
  EXPECT_TRUE(H.reset());
  EXPECT_TRUE(H.empty());
  for (std::uint64_t I = 0; I != Grown - 4; ++I)
    H.push(StreamEvent{static_cast<double>(Grown - I), I << 2, 0, 0, 0.0});
  EXPECT_EQ(H.capacity(), Grown);
  EXPECT_TRUE(H.reset(Grown - 4));
  EXPECT_FALSE(H.reset(Grown - 3));
}

TEST(ReplayHeapTest, RandomTimesMatchReferenceHeap) {
  randomTimesMatchReferenceHeap<ReplayHeapUnderTest>();
}
TEST(ReplayHeapTest, EqualTimesPopInSequenceOrder) {
  equalTimesPopInSequenceOrder<ReplayHeapUnderTest>();
}
TEST(ReplayHeapTest, SimulationPatternMatchesReferenceHeap) {
  simulationPatternMatchesReferenceHeap<ReplayHeapUnderTest>();
}
TEST(ReplayHeapTest, SparseFarFutureEventsFound) {
  sparseFarFutureEventsFound<ReplayHeapUnderTest>();
}
TEST(ReplayHeapTest, DeepHeapWithPartialChildGroups) {
  deepHeapWithPartialChildGroups<ReplayHeapUnderTest>();
}

TEST(ReplayHeapTest, ResetReusesStorageUpToItsLargestBound) {
  ReplayHeap H;
  EXPECT_FALSE(H.reset(100));
  EXPECT_TRUE(H.reset(100));
  EXPECT_TRUE(H.reset(10));
  EXPECT_FALSE(H.reset(101));
  // A reset after a partial drain leaves no stale event behind.
  for (std::uint64_t Seq = 0; Seq != 50; ++Seq)
    H.push(ReplayEvent{1.0 + static_cast<double>(Seq), Seq << 2});
  H.pop();
  EXPECT_TRUE(H.reset(101));
  EXPECT_TRUE(H.empty());
  H.push(ReplayEvent{5.0, 7});
  H.push(ReplayEvent{3.0, 9});
  EXPECT_EQ(H.pop().Time, 3.0);
  EXPECT_EQ(H.pop().Key, 7u);
  EXPECT_TRUE(H.empty());
}

//===----------------------------------------------------------------------===//
// O(active) memory at scale.
//===----------------------------------------------------------------------===//

TEST(StreamEngineTest, FootprintStaysSmallAtScale) {
  constexpr unsigned RankCount = 100000;
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binomial;
  C.MessageBytes = 16 * 1024; // S = 2.
  C.SegmentBytes = 8 * 1024;
  BcastStreamPlan Plan = makeBcastStreamPlan(C, RankCount);
  Platform P = makeScalePlatform(RankCount);

  StreamEngine E;
  const ExecutionResult &R = E.run(Plan, P, 3);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  EXPECT_EQ(R.BytesReceived[1], C.MessageBytes);
  EXPECT_GT(R.Makespan, 0.0);

  // What the materialized path would pin per op just to exist: the
  // op row, its tag and dependency offset, a timing row, a heap slot
  // and the last-byte clock (the CSR edges and derived tables come on
  // top). The streaming engine must stay far under it (and under an
  // absolute cap that a million-rank run can extrapolate from).
  const std::uint64_t TotalOps = Plan.totalOps();
  const std::size_t MaterializedFloor =
      TotalOps * (sizeof(OpRow) + sizeof(std::int32_t) +
                  sizeof(std::uint32_t) + sizeof(OpTiming) + 16 + 8);
  EXPECT_LT(E.footprintBytes(), MaterializedFloor / 4);
  EXPECT_LT(E.footprintBytes(), std::size_t{48} * 1024 * 1024);
  EXPECT_GT(E.eventsProcessed(), TotalOps);
}
