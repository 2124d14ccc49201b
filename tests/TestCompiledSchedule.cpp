//===- tests/TestCompiledSchedule.cpp - Compiled engine vs legacy oracle --===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The compiled-schedule engine (mpi/CompiledSchedule.h + sim/Engine.h)
// claims bit-identity with the legacy interpreter: compilation only
// adds tables derived from the schedule, so every OpTiming, byte counter and
// deadlock verdict must match the legacy run exactly -- across every
// collective generator, under fault injection, for any seed, and from
// any number of sweep threads. These tests pin that contract with the
// legacy interpreter as the oracle; they run with MPICSEL_VERIFY=1,
// so the static verifier also cross-checks every executed schedule.
//
//===----------------------------------------------------------------------===//

#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Barrier.h"
#include "coll/Bcast.h"
#include "coll/Gather.h"
#include "coll/PointToPoint.h"
#include "coll/Reduce.h"
#include "coll/Scatter.h"
#include "fault/Fault.h"
#include "mpi/CompiledSchedule.h"
#include "mpi/ScheduleIntern.h"
#include "sim/Engine.h"
#include "stat/ParallelSweep.h"

#include "RawSchedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace mpicsel;

namespace {

/// 16 ranks over 8 dual-process nodes: both the intra- and inter-node
/// link models participate. Mild noise so the shared RNG stream is
/// exercised (sigma 0 would bypass every draw).
Platform testPlatform() {
  Platform P = makeTestPlatform(8, 2);
  P.NoiseSigma = 0.02;
  return P;
}

/// One named schedule shape of the differential catalogue.
struct CatalogEntry {
  std::string Name;
  unsigned NumProcs = 0;
  Schedule S;
};

/// Every collective generator in coll/, including odd rank counts
/// (unpaired split-binary ranks), non-zero roots, segment remainders
/// (message size not a segment multiple) and the unsegmented paths.
std::vector<CatalogEntry> buildCatalogue() {
  std::vector<CatalogEntry> Catalogue;
  auto Add = [&](std::string Name, unsigned NumProcs, auto &&Append) {
    ScheduleBuilder B(NumProcs);
    Append(B);
    Catalogue.push_back({std::move(Name), NumProcs, B.take()});
  };

  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    Add(std::string("bcast_") + bcastAlgorithmName(Alg), 16,
        [&](ScheduleBuilder &B) {
          BcastConfig C;
          C.Algorithm = Alg;
          C.MessageBytes = 96 * 1024 + 13; // Remainder segment.
          C.SegmentBytes = 8 * 1024;
          appendBcast(B, C);
        });
  Add("bcast_binomial_oddP_root2", 13, [](ScheduleBuilder &B) {
    BcastConfig C;
    C.Algorithm = BcastAlgorithm::Binomial;
    C.MessageBytes = 32 * 1024;
    C.SegmentBytes = 4 * 1024;
    C.Root = 2;
    appendBcast(B, C);
  });
  Add("bcast_split_binary_oddP", 13, [](ScheduleBuilder &B) {
    BcastConfig C;
    C.Algorithm = BcastAlgorithm::SplitBinary;
    C.MessageBytes = 64 * 1024;
    C.SegmentBytes = 8 * 1024;
    appendBcast(B, C);
  });

  for (ReduceAlgorithm Alg : AllReduceAlgorithms)
    Add(std::string("reduce_") + reduceAlgorithmName(Alg), 16,
        [&](ScheduleBuilder &B) {
          ReduceConfig C;
          C.Algorithm = Alg;
          C.MessageBytes = 48 * 1024;
          C.SegmentBytes = 8 * 1024;
          C.ComputeSecondsPerByte = 4e-10;
          C.Root = 1;
          appendReduce(B, C);
        });

  for (ScatterAlgorithm Alg : AllScatterAlgorithms)
    Add(std::string("scatter_") + scatterAlgorithmName(Alg), 16,
        [&](ScheduleBuilder &B) {
          ScatterConfig C;
          C.Algorithm = Alg;
          C.BlockBytes = 4096;
          appendScatter(B, C);
        });

  Add("gather_linear", 16, [](ScheduleBuilder &B) {
    GatherConfig C;
    C.BlockBytes = 4096;
    appendLinearGather(B, C);
  });
  Add("gather_synchronised", 16, [](ScheduleBuilder &B) {
    GatherConfig C;
    C.BlockBytes = 4096;
    C.Synchronised = true;
    appendLinearGather(B, C);
  });

  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms)
    Add(std::string("allgather_") + allgatherAlgorithmName(Alg), 16,
        [&](ScheduleBuilder &B) {
          AllgatherConfig C;
          C.Algorithm = Alg;
          C.BlockBytes = 4096 + 3;
          appendAllgather(B, C);
        });
  // Odd rank count: recursive doubling and neighbor exchange take
  // their ring-fallback paths.
  Add("allgather_recursive_doubling_oddP", 13, [](ScheduleBuilder &B) {
    AllgatherConfig C;
    C.Algorithm = AllgatherAlgorithm::RecursiveDoubling;
    C.BlockBytes = 8 * 1024;
    appendAllgather(B, C);
  });
  // Even non-power-of-two: neighbor exchange runs natively.
  Add("allgather_neighbor_exchange_P10", 10, [](ScheduleBuilder &B) {
    AllgatherConfig C;
    C.Algorithm = AllgatherAlgorithm::NeighborExchange;
    C.BlockBytes = 8 * 1024;
    appendAllgather(B, C);
  });

  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
    Add(std::string("allreduce_") + allreduceAlgorithmName(Alg), 16,
        [&](ScheduleBuilder &B) {
          AllreduceConfig C;
          C.Algorithm = Alg;
          C.MessageBytes = 48 * 1024 + 5; // Uneven ring blocks.
          C.SegmentBytes = 8 * 1024;
          C.ComputeSecondsPerByte = 4e-10;
          appendAllreduce(B, C);
        });
  // Non-power-of-two: recursive doubling runs its pre/post fold phase.
  Add("allreduce_recursive_doubling_oddP", 13, [](ScheduleBuilder &B) {
    AllreduceConfig C;
    C.Algorithm = AllreduceAlgorithm::RecursiveDoubling;
    C.MessageBytes = 32 * 1024;
    C.ComputeSecondsPerByte = 4e-10;
    appendAllreduce(B, C);
  });

  Add("barrier", 16, [](ScheduleBuilder &B) { appendBarrier(B, 0); });
  Add("pingpong", 16,
      [](ScheduleBuilder &B) { appendPingPong(B, 0, 15, 64 * 1024, 0); });

  return Catalogue;
}

/// Asserts exact (bitwise ==) equality of two execution results:
/// every OpTiming field, makespan, per-rank byte counters, completion
/// and scenario metadata.
void expectBitIdentical(const ExecutionResult &Legacy,
                        const ExecutionResult &Compiled,
                        const std::string &Context) {
  EXPECT_EQ(Legacy.Completed, Compiled.Completed) << Context;
  EXPECT_EQ(Legacy.Makespan, Compiled.Makespan) << Context;
  ASSERT_EQ(Legacy.Timings.size(), Compiled.Timings.size()) << Context;
  for (std::size_t Id = 0; Id != Legacy.Timings.size(); ++Id) {
    const OpTiming &L = Legacy.Timings[Id], &C = Compiled.Timings[Id];
    ASSERT_TRUE(L.Done == C.Done && L.ReadyTime == C.ReadyTime &&
                L.StartTime == C.StartTime && L.DoneTime == C.DoneTime)
        << Context << " diverges at op " << Id << ": legacy ("
        << L.ReadyTime << ", " << L.StartTime << ", " << L.DoneTime
        << ", " << L.Done << ") vs compiled (" << C.ReadyTime << ", "
        << C.StartTime << ", " << C.DoneTime << ", " << C.Done << ")";
  }
  EXPECT_EQ(Legacy.BytesReceived, Compiled.BytesReceived) << Context;
  EXPECT_EQ(Legacy.BytesSent, Compiled.BytesSent) << Context;
  ASSERT_EQ(Legacy.FaultWindows.size(), Compiled.FaultWindows.size())
      << Context;
  for (std::size_t I = 0; I != Legacy.FaultWindows.size(); ++I) {
    EXPECT_EQ(Legacy.FaultWindows[I].Kind, Compiled.FaultWindows[I].Kind);
    EXPECT_EQ(Legacy.FaultWindows[I].Start, Compiled.FaultWindows[I].Start);
    EXPECT_EQ(Legacy.FaultWindows[I].End, Compiled.FaultWindows[I].End);
    EXPECT_EQ(Legacy.FaultWindows[I].Target, Compiled.FaultWindows[I].Target);
  }
  EXPECT_EQ(Legacy.FaultScenario, Compiled.FaultScenario) << Context;
}

/// Fault scenarios for the perturbed differential runs: a slow rank, a
/// congested node with a temporary noise-regime shift, and seeded
/// per-message stalls (the path where the engines must agree on every
/// per-message hash decision).
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

constexpr std::uint64_t Seeds[] = {1, 42, 9001};

} // namespace

//===----------------------------------------------------------------------===//
// Differential: every collective, every seed.
//===----------------------------------------------------------------------===//

// Grisou's latency noise inverts same-channel arrivals in the
// catalogue, which the test platform's does not: without it, a
// non-overtaking clamp missing from the shared transport law would go
// unnoticed here.
TEST(CompiledSchedule, AllCollectivesBitIdenticalToLegacy) {
  Engine E;
  for (const Platform &P : {testPlatform(), makeGrisou()}) {
    for (const CatalogEntry &Entry : buildCatalogue()) {
      CompiledSchedule CS = compileSchedule(Entry.S);
      for (std::uint64_t Seed : Seeds) {
        const std::string Name =
            P.Name + " " + Entry.Name + " seed " + std::to_string(Seed);
        ExecutionResult Legacy = runScheduleLegacy(Entry.S, P, Seed);
        const ExecutionResult &Compiled = E.run(CS, P, Seed);
        ASSERT_TRUE(Legacy.Completed) << Name;
        expectBitIdentical(Legacy, Compiled, Name);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: a deep event heap where ties are common.
//===----------------------------------------------------------------------===//

// The catalogue keeps live heaps small (P=16, ~13 segments), and its
// sigma = 0.02 platform rarely produces equal timestamps. A P=90 4 MiB
// split-binary broadcast in 8 KiB segments reaches ~40K live events on
// Grisou; at sigma = 0 equal-time events are common, so the key
// tiebreak decides every tied pop.
TEST(CompiledSchedule, DeepHeapWithTiesBitIdenticalToLegacy) {
  ScheduleBuilder B(90);
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::SplitBinary;
  C.MessageBytes = 4 << 20;
  C.SegmentBytes = 8 << 10;
  appendBcast(B, C);
  const Schedule S = B.take();
  const CompiledSchedule CS = compileSchedule(S);

  Engine E;
  for (double Sigma : {0.02, 0.0}) {
    Platform P = makeGrisou();
    P.NoiseSigma = Sigma;
    const std::string Context = "sigma " + std::to_string(Sigma);
    ExecutionResult Legacy = runScheduleLegacy(S, P, 7);
    const ExecutionResult &Compiled = E.run(CS, P, 7);
    ASSERT_TRUE(Legacy.Completed) << Context;
    expectBitIdentical(Legacy, Compiled, Context);
    if (Sigma == 0.0) {
      // The premise: the noiseless replay really is full of ties --
      // over a quarter of the ops finish at an already-seen time.
      std::vector<double> Done;
      for (const OpTiming &T : Compiled.Timings)
        Done.push_back(T.DoneTime);
      std::sort(Done.begin(), Done.end());
      const auto Distinct = static_cast<std::size_t>(
          std::unique(Done.begin(), Done.end()) - Done.begin());
      EXPECT_GT(CS.numOps() - Distinct, CS.numOps() / 4) << Context;
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: fault scenarios.
//===----------------------------------------------------------------------===//

TEST(CompiledSchedule, FaultScenariosBitIdenticalToLegacy) {
  Platform P = testPlatform();
  // Representative shapes: segmented tree, split halves with pairwise
  // exchange, and a chain reduction (computes under CPU faults).
  ScheduleBuilder BcastB(16);
  BcastConfig BC;
  BC.Algorithm = BcastAlgorithm::Binomial;
  BC.MessageBytes = 64 * 1024;
  BC.SegmentBytes = 8 * 1024;
  appendBcast(BcastB, BC);
  ScheduleBuilder SplitB(13);
  BC.Algorithm = BcastAlgorithm::SplitBinary;
  appendBcast(SplitB, BC);
  ScheduleBuilder ReduceB(16);
  ReduceConfig RC;
  RC.Algorithm = ReduceAlgorithm::Chain;
  RC.MessageBytes = 32 * 1024;
  RC.SegmentBytes = 8 * 1024;
  RC.ComputeSecondsPerByte = 4e-10;
  appendReduce(ReduceB, RC);

  ScheduleBuilder AllgatherB(16);
  AllgatherConfig AGC;
  AGC.Algorithm = AllgatherAlgorithm::Ring;
  AGC.BlockBytes = 8 * 1024;
  appendAllgather(AllgatherB, AGC);
  ScheduleBuilder AllreduceB(13);
  AllreduceConfig ARC;
  ARC.Algorithm = AllreduceAlgorithm::RecursiveDoubling;
  ARC.MessageBytes = 32 * 1024;
  ARC.ComputeSecondsPerByte = 4e-10;
  appendAllreduce(AllreduceB, ARC);

  std::vector<Schedule> Shapes;
  Shapes.push_back(BcastB.take());
  Shapes.push_back(SplitB.take());
  Shapes.push_back(ReduceB.take());
  Shapes.push_back(AllgatherB.take());
  Shapes.push_back(AllreduceB.take());

  Engine E;
  for (const Schedule &S : Shapes) {
    const CompiledSchedule CS = compileSchedule(S);
    for (const FaultSchedule &Faults : faultScenarios())
      for (std::uint64_t Seed : Seeds) {
        ExecutionResult Legacy = runScheduleLegacy(S, P, Seed, &Faults);
        const ExecutionResult &Compiled = E.run(CS, P, Seed, &Faults);
        ASSERT_TRUE(Legacy.Completed) << Faults.name();
        expectBitIdentical(Legacy, Compiled,
                           Faults.name() + " seed " + std::to_string(Seed));
      }
  }
}

//===----------------------------------------------------------------------===//
// Differential: serial vs MPICSEL_THREADS=8.
//===----------------------------------------------------------------------===//

TEST(CompiledSchedule, EightThreadSweepMatchesSerial) {
  Platform P = testPlatform();
  ScheduleBuilder B(16);
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binomial;
  C.MessageBytes = 64 * 1024;
  C.SegmentBytes = 8 * 1024;
  appendBcast(B, C);
  const Schedule S = B.take();
  const CompiledSchedule CS = compileSchedule(S);

  constexpr std::size_t NumSeeds = 32;

  // Serial oracle: the legacy interpreter, one run per seed.
  std::vector<ExecutionResult> Serial(NumSeeds);
  for (std::size_t I = 0; I != NumSeeds; ++I)
    Serial[I] = runScheduleLegacy(S, P, I + 1);

  // MPICSEL_THREADS=8 is how the sweeps request their worker count;
  // resolve it exactly as model/ does, then replay the same seeds over
  // that many workers sharing one immutable CompiledSchedule, each
  // worker with its own arena engine (the Runner arrangement).
  ASSERT_EQ(setenv("MPICSEL_THREADS", "8", 1), 0);
  const unsigned Threads = resolveSweepThreads(0);
  ASSERT_EQ(unsetenv("MPICSEL_THREADS"), 0);
  ASSERT_EQ(Threads, 8u);

  std::vector<ExecutionResult> Threaded(NumSeeds);
  sweepIndexed(Threads, NumSeeds, [&](std::size_t I) {
    thread_local Engine E;
    Threaded[I] = E.run(CS, P, I + 1); // Copy out of the arena.
  });

  for (std::size_t I = 0; I != NumSeeds; ++I)
    expectBitIdentical(Serial[I], Threaded[I],
                       "threaded seed " + std::to_string(I + 1));
}

//===----------------------------------------------------------------------===//
// Deadlock parity, arena reuse, structure.
//===----------------------------------------------------------------------===//

TEST(CompiledSchedule, DeadlockParityWithLegacy) {
  Platform P = testPlatform();
  // Rank 1 waits for a message nobody sends; rank 0 proceeds. Both
  // engines must report the identical partial timeline, not hang.
  ScheduleBuilder B(2);
  B.addRecv(1, 0, 100, 0);
  B.addCompute(0, 1e-6);
  const Schedule S = B.take();
  const CompiledSchedule CS = compileSchedule(S);

  ExecutionResult Legacy = runScheduleLegacy(S, P, 3);
  Engine E;
  const ExecutionResult &Compiled = E.run(CS, P, 3);

  EXPECT_FALSE(Legacy.Completed);
  EXPECT_FALSE(Compiled.Completed);
  EXPECT_NE(Compiled.Diagnostic.find("deadlock"), std::string::npos);
  expectBitIdentical(Legacy, Compiled, "deadlock");

  // The engine must stay usable after a deadlocked run.
  ScheduleBuilder Clean(2);
  appendPingPong(Clean, 0, 1, 4096, 0);
  CompiledSchedule CleanCS = compileSchedule(Clean.take());
  EXPECT_TRUE(E.run(CleanCS, P, 3).Completed);
}

TEST(CompiledSchedule, ArenaReuseIsDeterministic) {
  Platform P = testPlatform();
  ScheduleBuilder B1(16);
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binary;
  C.MessageBytes = 32 * 1024;
  C.SegmentBytes = 4 * 1024;
  appendBcast(B1, C);
  CompiledSchedule Big = compileSchedule(B1.take());
  ScheduleBuilder B2(4);
  appendBarrier(B2, 0);
  CompiledSchedule Small = compileSchedule(B2.take());

  // Replaying a shape through a warm arena -- including after the
  // arena served a schedule of a different size -- must reproduce the
  // cold run bit for bit.
  Engine E;
  ExecutionResult Cold = E.run(Big, P, 11);
  ExecutionResult Warm = E.run(Big, P, 11);
  expectBitIdentical(Cold, Warm, "warm replay");
  E.run(Small, P, 1);
  expectBitIdentical(Cold, E.run(Big, P, 11), "replay after resize");
}

TEST(CompiledSchedule, FlatIrMirrorsSourceSchedule) {
  // Compilation keeps the source arrays and derives the replay tables.
  // Derive those tables once more here, the plain way, over the whole
  // catalogue: successors in release order (ascending dependent id,
  // deps in list order), roots and in-degrees, channels numbered by
  // first appearance in op order with a send and its receive sharing
  // the send direction, and exact per-channel send/recv offsets.
  for (const CatalogEntry &Entry : buildCatalogue()) {
    SCOPED_TRACE(Entry.Name);
    const Schedule &S = Entry.S;
    const CompiledSchedule CS = compileSchedule(S);
    const OpId NumOps = S.numOps();
    ASSERT_EQ(CS.numOps(), NumOps);

    std::vector<std::vector<OpId>> Succs(NumOps);
    std::vector<OpId> Roots;
    std::map<std::tuple<unsigned, unsigned, int>, std::uint32_t> ChannelIds;
    std::vector<std::uint32_t> ChannelSends, ChannelRecvs;
    std::uint32_t Sends = 0, Recvs = 0;
    for (OpId Id = 0; Id != NumOps; ++Id) {
      const OpView O = S.op(Id);
      const OpView C = CS.op(Id);
      EXPECT_TRUE(C.Kind == O.Kind && C.Rank == O.Rank && C.Peer == O.Peer &&
                  C.Bytes == O.Bytes && C.Tag == O.Tag &&
                  C.Duration == O.Duration &&
                  std::ranges::equal(C.Deps, O.Deps))
          << "op " << Id;
      for (OpId Dep : O.Deps)
        Succs[Dep].push_back(Id);
      if (O.Deps.empty())
        Roots.push_back(Id);
      EXPECT_EQ(CS.InDegree[Id], O.Deps.size()) << "op " << Id;

      std::uint32_t Channel = CompiledSchedule::NoChannel;
      if (O.Kind != OpKind::Compute) {
        const bool IsSend = O.Kind == OpKind::Send;
        const auto Key = IsSend ? std::make_tuple(O.Rank, O.Peer, O.Tag)
                                : std::make_tuple(O.Peer, O.Rank, O.Tag);
        const auto [It, Inserted] = ChannelIds.try_emplace(
            Key, static_cast<std::uint32_t>(ChannelIds.size()));
        if (Inserted) {
          ChannelSends.push_back(0);
          ChannelRecvs.push_back(0);
        }
        Channel = It->second;
        ++(IsSend ? ChannelSends : ChannelRecvs)[Channel];
        ++(IsSend ? Sends : Recvs);
      }
      EXPECT_EQ(CS.Rows[Id].Channel, Channel) << "op " << Id;
    }

    EXPECT_EQ(CS.Roots, Roots);
    for (OpId Id = 0; Id != NumOps; ++Id)
      EXPECT_TRUE(std::ranges::equal(CS.succsOf(Id), Succs[Id]))
          << "op " << Id;
    EXPECT_EQ(CS.NumSends, Sends);
    EXPECT_EQ(CS.NumRecvs, Recvs);
    ASSERT_EQ(CS.NumChannels, ChannelIds.size());
    std::vector<std::uint32_t> SendOffsets{0}, RecvOffsets{0};
    for (std::uint32_t Chan = 0; Chan != CS.NumChannels; ++Chan) {
      SendOffsets.push_back(SendOffsets.back() + ChannelSends[Chan]);
      RecvOffsets.push_back(RecvOffsets.back() + ChannelRecvs[Chan]);
    }
    EXPECT_EQ(CS.ChannelSendOffsets, SendOffsets);
    EXPECT_EQ(CS.ChannelRecvOffsets, RecvOffsets);
  }
}

TEST(CompiledSchedule, CompilingByMoveKeepsTheBuilderStorage) {
  // The builder's arrays become the compiled schedule's: no op is
  // copied, and nothing is held twice while the replay tables are
  // derived.
  ScheduleBuilder B(16);
  BcastConfig C;
  C.Algorithm = BcastAlgorithm::Binomial;
  C.MessageBytes = 64 * 1024;
  C.SegmentBytes = 8 * 1024;
  appendBcast(B, C);
  Schedule S = B.take();
  // take() leaves no slack in the dependency edges, which grow by
  // doubling while the generator runs.
  EXPECT_EQ(S.DepList.capacity(), S.DepList.size());
  const OpRow *Rows = S.Rows.data();
  const std::int32_t *Tags = S.Tags.data();
  const std::uint32_t *DepOffsets = S.DepOffsets.data();
  const OpId *DepList = S.DepList.data();

  const CompiledSchedule CS = compileSchedule(std::move(S));
  EXPECT_EQ(CS.Rows.data(), Rows);
  EXPECT_EQ(CS.Tags.data(), Tags);
  EXPECT_EQ(CS.DepOffsets.data(), DepOffsets);
  EXPECT_EQ(CS.DepList.data(), DepList);
}

// compileSchedule rejects what the engine cannot replay in every build
// type, naming the op, rather than asserting (a build with NDEBUG would
// read out of bounds instead).
TEST(CompiledScheduleDeathTest, RejectsBrokenStructureNamingTheOp) {
  EXPECT_DEATH(compileSchedule(rawSchedule(1, {{.Deps = {1}}, {}})),
               "op 0: dependency on a later op or itself: 1");
  EXPECT_DEATH(compileSchedule(rawSchedule(1, {{.Deps = {0}}})),
               "op 0: dependency on a later op or itself: 0");
  EXPECT_DEATH(
      compileSchedule(rawSchedule(2, {{}, {.Rank = 1, .Deps = {0}}})),
      "op 1: dependency on another rank's op: 0");
  EXPECT_DEATH(compileSchedule(rawSchedule(2, {{.Rank = 2}})),
               "op 0: rank outside the communicator: 2");
  EXPECT_DEATH(
      compileSchedule(rawSchedule(2, {{.Kind = OpKind::Send, .Peer = 5}})),
      "op 0: peer outside the communicator: 5");
  Schedule Torn = rawSchedule(2, {{}, {.Rank = 1}});
  Torn.Tags.pop_back();
  EXPECT_DEATH(compileSchedule(std::move(Torn)),
               "op rows, tags and dependency offsets disagree");

  // Without the pre-flight, runSchedule stops in the compiler.
  const bool Saved = preflightVerificationEnabled();
  setPreflightVerification(false);
  EXPECT_DEATH(runSchedule(rawSchedule(2, {{}, {.Rank = 1, .Deps = {0}}}),
                           testPlatform()),
               "op 1: dependency on another rank's op: 0");
  setPreflightVerification(Saved);
}
