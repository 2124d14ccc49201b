//===- bench/micro_engine.cpp - Compiled-engine replay throughput ---------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Measures the replay throughput of the compiled schedule engine
// (sim/Engine.h) against the legacy interpreter on the
// schedules the calibration sweeps replay thousands of times, and
// proves three properties the compiled path claims:
//
//  * bit-identity: every OpTiming of a compiled run equals the legacy
//    run's at the same (schedule, platform, seed);
//  * the measurement replay -- no per-op timeline, only the exit ops'
//    completion times -- observes the same latest exit completion as
//    the full replay, over several seeds;
//  * allocation-free replay: after the first run of a schedule shape,
//    Engine::run performs zero heap allocations, with and without the
//    timeline. The global operator new/delete of this binary are
//    replaced below to count through bench::countAllocation(), so the
//    claim is enforced, not assumed.
//
// It also measures the layer before replay: building each schedule and
// compiling it by move, with the heap allocations that takes, their
// peak of live bytes and the heap bytes the compiled schedule keeps.
// Four build-only cases (a segmented reduce, a ring allgather, a ring
// allreduce and the Sect. 4.2 calibration experiment's broadcast plus
// gather) gate that layer for shapes the broadcast cases do not cover.
// For each replayed case it records the heap bytes a fresh Engine
// allocates for its first lean replay, the run state one measurement
// helper holds.
//
// The deterministic facts (op and event counts, identity flags,
// allocation counts, schedule bytes) land in the gated `metrics`
// section of the --json record; host-dependent throughput (ns/op,
// ns/event, speedup) goes to `timings`. One exception: the deep-heap
// case also reports its compiled ns/event as a metric, max-bounded by
// the `budgets` of the committed baseline, so an O(n) event queue or a
// per-event allocation fails CI instead of passing as a slower timing.
//
// With --scale the binary instead runs the large-P streaming suite
// (bench name micro_engine_scale): a P=100k streamed broadcast replay
// whose retained footprint and peak RSS are pinned by committed
// budgets, a P=4096 differential replay against the materialized
// oracle, and (full mode only) a P=1M replay reported for trend.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Bcast.h"
#include "coll/BcastStream.h"
#include "coll/Reduce.h"
#include "model/Runner.h"
#include "mpi/CompiledSchedule.h"
#include "obs/Rss.h"
#include "sim/Engine.h"
#include "sim/StreamEngine.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

using namespace mpicsel;
using namespace mpicsel::bench;

//===----------------------------------------------------------------------===//
// Counting allocation functions (this binary only). The ordinary
// forms route through malloc so the count covers every container the
// engine could touch; the nothrow library defaults forward here. Each
// block carries its requested size in a header, so the bytes
// allocated, the bytes live and their high-water mark are exact. They
// stay out of line: inlined into a caller, the std::free of a delete
// would sit beside the operator new that made the pointer, which GCC
// reports as a mismatched deallocation.
//===----------------------------------------------------------------------===//

namespace {

/// Room before each block for its size; keeps malloc's alignment.
constexpr std::size_t SizeHeader = alignof(std::max_align_t);

std::atomic<std::uint64_t> AllocatedBytes{0};
std::atomic<std::uint64_t> LiveBytes{0};
std::atomic<std::uint64_t> PeakLiveBytes{0};

/// Bytes requested through operator new so far.
std::uint64_t allocatedBytes() {
  return AllocatedBytes.load(std::memory_order_relaxed);
}

/// Restarts the high-water mark of live bytes at the current level and
/// returns that level.
std::uint64_t resetPeakLiveBytes() {
  const std::uint64_t Live = LiveBytes.load(std::memory_order_relaxed);
  PeakLiveBytes.store(Live, std::memory_order_relaxed);
  return Live;
}

std::uint64_t peakLiveBytes() {
  return PeakLiveBytes.load(std::memory_order_relaxed);
}

} // namespace

[[gnu::noinline]] void *operator new(std::size_t Size) {
  countAllocation();
  auto *Block = static_cast<char *>(std::malloc(SizeHeader + Size));
  if (!Block)
    throw std::bad_alloc();
  *reinterpret_cast<std::size_t *>(Block) = Size;
  AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  const std::uint64_t Live =
      LiveBytes.fetch_add(Size, std::memory_order_relaxed) + Size;
  std::uint64_t Peak = PeakLiveBytes.load(std::memory_order_relaxed);
  while (Live > Peak && !PeakLiveBytes.compare_exchange_weak(
                            Peak, Live, std::memory_order_relaxed))
    ;
  return Block + SizeHeader;
}

[[gnu::noinline]] void *operator new[](std::size_t Size) {
  return ::operator new(Size);
}

[[gnu::noinline]] void operator delete(void *P) noexcept {
  if (!P)
    return;
  char *Block = static_cast<char *>(P) - SizeHeader;
  LiveBytes.fetch_sub(*reinterpret_cast<std::size_t *>(Block),
                      std::memory_order_relaxed);
  std::free(Block);
}
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  ::operator delete(P);
}
[[gnu::noinline]] void operator delete[](void *P) noexcept {
  ::operator delete(P);
}
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  ::operator delete(P);
}

namespace {

/// One schedule shape: built and compiled by the build layer and,
/// unless it is build-only, replayed by both engines.
struct BenchCase {
  std::string Name;
  unsigned NumProcs = 0;
  /// Appends the case's collective to a builder and returns its exits.
  std::function<std::vector<OpId>(ScheduleBuilder &)> Append;
  /// Build-only cases measure the build layer and skip the replays.
  bool Replay = true;
  /// Also report compiled ns/event as a (budgeted) metric.
  bool BudgetThroughput = false;
};

BenchCase bcastCase(std::string Name, unsigned NumProcs,
                    BcastAlgorithm Algorithm, std::uint64_t MessageBytes,
                    std::uint64_t SegmentBytes) {
  BcastConfig Config;
  Config.Algorithm = Algorithm;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = SegmentBytes;
  BenchCase C;
  C.Name = std::move(Name);
  C.NumProcs = NumProcs;
  C.Append = [Config](ScheduleBuilder &B) { return appendBcast(B, Config); };
  return C;
}

/// The shapes the calibration stage replays most: the paper-sized
/// segmented binomial broadcast dominates sweeps; the small case
/// stresses per-run overhead; split-binary has the most channels. The
/// P=90 4 MiB split-binary broadcast is the selection-point shape with
/// the deepest event heap (~40K live events on Grisou). The build-only
/// cases cover the other generators' building blocks: the segmented
/// tree reduction and the exchange rounds of the ring allgather and
/// the ring allreduce; and a composed schedule: the largest Sect. 4.2
/// calibration experiment of Gros, a 4 MiB chain broadcast at P=124
/// followed by the 64 KiB gather timer, built as prepareBcast builds
/// it.
std::vector<BenchCase> benchCases() {
  std::vector<BenchCase> Cases;
  Cases.push_back(bcastCase("binomial_P64_1M_seg8K", 64,
                            BcastAlgorithm::Binomial, 1 << 20, 8 << 10));
  Cases.push_back(
      bcastCase("binomial_P16_8K", 16, BcastAlgorithm::Binomial, 8 << 10, 0));
  Cases.push_back(bcastCase("split_binary_P64_1M_seg8K", 64,
                            BcastAlgorithm::SplitBinary, 1 << 20, 8 << 10));
  Cases.push_back(bcastCase("split_binary_P90_4M_seg8K", 90,
                            BcastAlgorithm::SplitBinary, 4 << 20, 8 << 10));
  Cases.back().BudgetThroughput = true;
  {
    ReduceConfig Config;
    Config.Algorithm = ReduceAlgorithm::Binomial;
    Config.MessageBytes = 1 << 20;
    Config.SegmentBytes = 8 << 10;
    Config.ComputeSecondsPerByte = 1e-10;
    BenchCase C;
    C.Name = "reduce_binomial_P64_1M_seg8K";
    C.NumProcs = 64;
    C.Append = [Config](ScheduleBuilder &B) { return appendReduce(B, Config); };
    C.Replay = false;
    Cases.push_back(C);
  }
  {
    AllgatherConfig Config;
    Config.Algorithm = AllgatherAlgorithm::Ring;
    Config.BlockBytes = 64 << 10;
    BenchCase C;
    C.Name = "allgather_ring_P100_64K";
    C.NumProcs = 100;
    C.Append = [Config](ScheduleBuilder &B) {
      return appendAllgather(B, Config);
    };
    C.Replay = false;
    Cases.push_back(C);
  }
  {
    AllreduceConfig Config;
    Config.Algorithm = AllreduceAlgorithm::Ring;
    Config.MessageBytes = 1 << 20;
    Config.ComputeSecondsPerByte = 1e-10;
    BenchCase C;
    C.Name = "allreduce_ring_P100_1M";
    C.NumProcs = 100;
    C.Append = [Config](ScheduleBuilder &B) {
      return appendAllreduce(B, Config);
    };
    C.Replay = false;
    Cases.push_back(C);
  }
  {
    BcastConfig Config;
    Config.Algorithm = BcastAlgorithm::Chain;
    Config.MessageBytes = 4 << 20;
    Config.SegmentBytes = 8 << 10;
    BenchCase C;
    C.Name = "bcast_gather_chain_P124_4M_seg8K";
    C.NumProcs = 124;
    C.Append = [Config](ScheduleBuilder &B) {
      return appendBcastGatherTimer(B, Config, 64 << 10);
    };
    C.Replay = false;
    Cases.push_back(C);
  }
  return Cases;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Heap bytes \p CS keeps, summed over its containers' capacities.
std::size_t scheduleBytes(const CompiledSchedule &CS) {
  auto bytes = [](const auto &V) {
    return V.capacity() * sizeof(*V.data());
  };
  return bytes(CS.Rows) + bytes(CS.Tags) + bytes(CS.DepOffsets) +
         bytes(CS.DepList) + bytes(CS.SuccOffsets) + bytes(CS.SuccList) +
         bytes(CS.InDegree) + bytes(CS.Roots) + bytes(CS.ChannelSendOffsets) +
         bytes(CS.ChannelRecvOffsets);
}

/// Builds per case; the build layer reports the fastest.
constexpr unsigned BuildReps = 7;

/// One case's schedule as the build layer produced it.
struct BuiltCase {
  CompiledSchedule CS;
  std::vector<OpId> Exit;
  /// Heap allocations from the builder's construction to the compiled
  /// schedule, and the high-water mark of the heap bytes live then
  /// beyond those live before (the same for every build).
  std::uint64_t Allocs = 0;
  std::uint64_t PeakBytes = 0;
  /// Fastest build (generate + take) and compile (by move) of BuildReps.
  double BuildNsPerOp = 0.0;
  double CompileNsPerOp = 0.0;
};

/// Builds \p Case's schedule and compiles it by move, BuildReps times.
BuiltCase buildCase(const BenchCase &Case) {
  BuiltCase Out;
  double BuildSeconds = 0.0, CompileSeconds = 0.0;
  for (unsigned Rep = 0; Rep != BuildReps; ++Rep) {
    // Free the previous build outside the measured window.
    Out.CS = {};
    Out.Exit = {};
    const std::uint64_t LiveBefore = resetPeakLiveBytes();
    const std::uint64_t AllocsBefore = allocationCount();
    const auto Start = std::chrono::steady_clock::now();
    ScheduleBuilder B(Case.NumProcs);
    Out.Exit = Case.Append(B);
    Schedule S = B.take();
    const auto Built = std::chrono::steady_clock::now();
    Out.CS = compileSchedule(std::move(S));
    const double Compile = secondsSince(Built);
    Out.Allocs = allocationCount() - AllocsBefore;
    Out.PeakBytes = peakLiveBytes() - LiveBefore;
    const double Build = std::chrono::duration<double>(Built - Start).count();
    BuildSeconds = Rep == 0 ? Build : std::min(BuildSeconds, Build);
    CompileSeconds = Rep == 0 ? Compile : std::min(CompileSeconds, Compile);
  }
  const double Ops = Out.CS.numOps();
  Out.BuildNsPerOp = BuildSeconds * 1e9 / Ops;
  Out.CompileNsPerOp = CompileSeconds * 1e9 / Ops;
  return Out;
}

/// Exact (bitwise ==) comparison of two runs' timelines.
bool identicalTimings(const ExecutionResult &A, const ExecutionResult &B) {
  if (A.Completed != B.Completed || A.Makespan != B.Makespan ||
      A.Timings.size() != B.Timings.size())
    return false;
  for (std::size_t I = 0; I != A.Timings.size(); ++I) {
    const OpTiming &TA = A.Timings[I], &TB = B.Timings[I];
    if (TA.Done != TB.Done || TA.ReadyTime != TB.ReadyTime ||
        TA.StartTime != TB.StartTime || TA.DoneTime != TB.DoneTime)
      return false;
  }
  return A.BytesReceived == B.BytesReceived && A.BytesSent == B.BytesSent;
}

//===----------------------------------------------------------------------===//
// --scale: streamed replay at large P.
//===----------------------------------------------------------------------===//

/// Large-P streaming suite. Order matters: VmHWM is process-monotone
/// (the kernel never lowers it), so the streamed P=100k case runs
/// FIRST -- materializing any schedule beforehand would charge the
/// materialized footprint to the streaming budget.
///
/// Gated metrics: op/event counts, completion, determinism, the
/// warm-replay allocation count, and the differential identity flag.
/// The retained footprint and the post-stream peak RSS are max-bounded
/// by the `budgets` object of the committed baseline
/// (scripts/bench_compare.py) rather than tolerance-matched: they must
/// only never grow past the cap. The P=1M case contributes timings
/// only, so quick (CI) records carry the same metric set as full runs.
int runScaleSuite(bool Quick, std::int64_t Reps, const std::string &JsonPath) {
  const unsigned WarmReps =
      Reps > 0 ? static_cast<unsigned>(Reps) : (Quick ? 1u : 3u);

  banner("Streaming engine at scale");
  std::printf("streamed broadcast replay, %u timed warm replay(s) per case\n\n",
              WarmReps);

  BenchReporter Report("micro_engine_scale");
  Report.info("mode", Quick ? "quick" : "full");

  Table Results({"case", "ranks", "ops", "events", "peak events", "foot MiB",
                 "Mev/s", "ok"});
  Results.setTitle("streamed replay at scale");

  bool AllOk = true;
  double Sink = 0.0;
  StreamEngine SE;

  // stream_P100k: the budgeted case. One cold run sizes every arena
  // to its high-water mark; the peak-RSS budget sample is taken
  // before anything else touches the heap; the warm replays are timed
  // and must not allocate.
  {
    const unsigned P = 100000;
    BcastConfig C;
    C.Algorithm = BcastAlgorithm::Binomial;
    C.MessageBytes = 32 << 10;
    C.SegmentBytes = 8 << 10;
    const Platform Plat = makeScalePlatform(P);
    const BcastStreamPlan Plan = makeBcastStreamPlan(C, P);
    const std::uint64_t TotalOps = Plan.totalOps();

    const ExecutionResult &Cold = SE.run(Plan, Plat, 1);
    const bool Completed = Cold.Completed;
    const double ColdMakespan = Cold.Makespan;
    const std::uint64_t NumEvents = SE.eventsProcessed();
    const std::size_t PeakEvents = SE.peakEvents();
    const std::size_t Footprint = SE.footprintBytes();

    // The budget sample: the process high-water mark with only the
    // streamed path behind it.
    const std::uint64_t PeakRssKiB = obs::peakRssKiB();
    obs::samplePeakRss();

    double Seconds = 0.0;
    std::uint64_t Allocs = 0;
    bool Deterministic = true;
    {
      obs::PhaseSpan ReplaySpan(obs::Phase::Replay, "stream_P100k");
      const std::uint64_t Before = allocationCount();
      const auto Start = std::chrono::steady_clock::now();
      for (unsigned Rep = 0; Rep != WarmReps; ++Rep) {
        const ExecutionResult &Warm = SE.run(Plan, Plat, 1);
        Deterministic = Deterministic && Warm.Makespan == ColdMakespan;
        Sink += Warm.Makespan;
      }
      Seconds = secondsSince(Start);
      Allocs = allocationCount() - Before;
    }
    const double EventsPerSec =
        Seconds > 0.0
            ? static_cast<double>(NumEvents) * WarmReps / Seconds
            : 0.0;
    const bool Ok = Completed && Deterministic && Allocs == 0;
    AllOk = AllOk && Ok;

    Results.addRow({"stream_P100k", strFormat("%u", P),
                    strFormat("%llu", static_cast<unsigned long long>(TotalOps)),
                    strFormat("%llu",
                              static_cast<unsigned long long>(NumEvents)),
                    strFormat("%zu", PeakEvents),
                    strFormat("%.2f", static_cast<double>(Footprint) /
                                          (1024.0 * 1024.0)),
                    strFormat("%.2f", EventsPerSec / 1e6), Ok ? "yes" : "NO"});

    Report.metric("stream_P100k_total_ops", static_cast<double>(TotalOps));
    Report.metric("stream_P100k_events", static_cast<double>(NumEvents));
    Report.metric("stream_P100k_peak_events",
                  static_cast<double>(PeakEvents));
    Report.metric("stream_P100k_completed", Completed ? 1.0 : 0.0);
    Report.metric("stream_P100k_deterministic", Deterministic ? 1.0 : 0.0);
    Report.metric("stream_P100k_replay_allocs", static_cast<double>(Allocs));
    // Max-bounded by the baseline's budgets, not tolerance-matched.
    Report.metric("stream_P100k_footprint_bytes",
                  static_cast<double>(Footprint));
    Report.metric("stream_P100k_peak_rss_kib",
                  static_cast<double>(PeakRssKiB));
    Report.timing("stream_P100k_events_per_sec", EventsPerSec);
    Report.timing("stream_P100k_cold_rss_kib",
                  static_cast<double>(obs::currentRssKiB()));

    std::printf("stream_P100k: %llu ops, %llu events, footprint %.2f MiB, "
                "peak RSS %llu KiB\n",
                static_cast<unsigned long long>(TotalOps),
                static_cast<unsigned long long>(NumEvents),
                static_cast<double>(Footprint) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(PeakRssKiB));
  }

  // differential_P4096: the streamed replay against the materialized
  // oracle -- appendBcast, compiled, replayed by sim/Engine -- at a P
  // the oracle can still hold. Every OpTiming and byte counter must
  // match bitwise.
  {
    const unsigned P = 4096;
    BcastConfig C;
    C.Algorithm = BcastAlgorithm::Binomial;
    C.MessageBytes = 64 << 10;
    C.SegmentBytes = 8 << 10;
    const Platform Plat = makeScalePlatform(P);
    const BcastStreamPlan Plan = makeBcastStreamPlan(C, P);

    StreamOptions Opts;
    Opts.RecordTimings = true;
    const ExecutionResult Streamed = SE.run(Plan, Plat, 42, nullptr, Opts);
    const std::uint64_t NumEvents = SE.eventsProcessed();

    ScheduleBuilder B(P);
    appendBcast(B, C);
    CompiledSchedule CS = compileSchedule(B.take());
    Engine E;
    const ExecutionResult &Oracle = E.run(CS, Plat, 42);
    const bool Identical = identicalTimings(Oracle, Streamed);
    AllOk = AllOk && Identical;

    Results.addRow({"differential_P4096", strFormat("%u", P),
                    strFormat("%zu", static_cast<std::size_t>(CS.numOps())),
                    strFormat("%llu",
                              static_cast<unsigned long long>(NumEvents)),
                    strFormat("%zu", SE.peakEvents()), "-", "-",
                    Identical ? "yes" : "NO"});

    Report.metric("differential_P4096_ops",
                  static_cast<double>(CS.numOps()));
    Report.metric("differential_P4096_identical", Identical ? 1.0 : 0.0);
  }

  // stream_P1M: full mode only; trend numbers, nothing gated (quick CI
  // records must carry the same gated metric set as the baseline).
  if (!Quick) {
    const unsigned P = 1000000;
    BcastConfig C;
    C.Algorithm = BcastAlgorithm::Binomial;
    C.MessageBytes = 8 << 10;
    C.SegmentBytes = 0;
    const Platform Plat = makeScalePlatform(P);
    const BcastStreamPlan Plan = makeBcastStreamPlan(C, P);

    const auto Start = std::chrono::steady_clock::now();
    const ExecutionResult &R = SE.run(Plan, Plat, 1);
    const double Seconds = secondsSince(Start);
    const bool Completed = R.Completed;
    Sink += R.Makespan;
    AllOk = AllOk && Completed;

    const std::uint64_t NumEvents = SE.eventsProcessed();
    const double EventsPerSec =
        Seconds > 0.0 ? static_cast<double>(NumEvents) / Seconds : 0.0;
    Results.addRow({"stream_P1M", strFormat("%u", P),
                    strFormat("%llu",
                              static_cast<unsigned long long>(Plan.totalOps())),
                    strFormat("%llu",
                              static_cast<unsigned long long>(NumEvents)),
                    strFormat("%zu", SE.peakEvents()),
                    strFormat("%.2f", static_cast<double>(SE.footprintBytes()) /
                                          (1024.0 * 1024.0)),
                    strFormat("%.2f", EventsPerSec / 1e6),
                    Completed ? "yes" : "NO"});
    Report.timing("stream_P1M_events_per_sec", EventsPerSec);
    Report.timing("stream_P1M_peak_events",
                  static_cast<double>(SE.peakEvents()));
    Report.timing("stream_P1M_footprint_bytes",
                  static_cast<double>(SE.footprintBytes()));
  }

  Results.print();
  std::printf("\nThe streamed case must complete deterministically and "
              "allocation-free after its\ncold run; footprint and peak RSS "
              "are capped by the committed budgets\n(bench/baselines/"
              "BENCH_micro_engine_scale.json), throughput is not gated.\n");

  if (Sink < 0.0)
    std::printf("unreachable %f\n", Sink);
  if (!AllOk) {
    std::fprintf(stderr, "error: scale suite failed (incomplete, "
                         "non-deterministic, allocating, or divergent "
                         "replay)\n");
    return 1;
  }
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Scale = false;
  std::int64_t Reps = 0;
  std::string JsonPath;

  CommandLine Cli("Replay throughput of the compiled schedule engine vs the "
                  "legacy interpreter, with bit-identity and allocation-free "
                  "replay checked on every case.");
  Cli.addFlag("quick", "fewer repetitions per case", Quick);
  Cli.addFlag("scale", "run the large-P streaming suite instead "
                       "(bench micro_engine_scale)", Scale);
  Cli.addFlag("reps", "repetitions per engine and case (0: default)", Reps);
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);

  // Measure the engines, not the static verifier.
  setPreflightVerification(false);

  if (Scale)
    return runScaleSuite(Quick, Reps, JsonPath);

  const unsigned NumReps =
      Reps > 0 ? static_cast<unsigned>(Reps) : (Quick ? 30u : 200u);
  Platform Plat = makeGrisou();

  banner("Compiled engine replay throughput");
  std::printf("platform %s, %u replays per engine and case\n\n",
              Plat.Name.c_str(), NumReps);

  BenchReporter Report("micro_engine");
  Report.info("mode", Quick ? "quick" : "full");
  Report.info("platform", Plat.Name);

  Table Results({"case", "ops", "events", "legacy ns/op", "compiled ns/op",
                 "compiled ns/event", "lean ns/event", "speedup", "identical",
                 "lean identical", "replay allocs", "lean allocs",
                 "lean engine bytes"});
  Results.setTitle("legacy interpreter vs compiled replay");

  Table BuildLayer({"case", "ops", "build ns/op", "compile ns/op",
                    "build allocs", "schedule bytes", "B/op", "peak B/op"});
  BuildLayer.setTitle(
      strFormat("schedule build and compile (best of %u)", BuildReps));

  bool AllIdentical = true;
  bool AllLeanIdentical = true;
  bool AllAllocFree = true;

  for (const BenchCase &Case : benchCases()) {
    const BuiltCase Built = buildCase(Case);
    const CompiledSchedule &CS = Built.CS;
    // The interpreter reads the same rows and derives its own tables.
    const Schedule &S = CS;
    const std::vector<OpId> &Exit = Built.Exit;
    const std::size_t NumOps = CS.numOps();
    const std::size_t Bytes = scheduleBytes(CS);
    BuildLayer.addRow(
        {Case.Name, strFormat("%zu", NumOps),
         strFormat("%.1f", Built.BuildNsPerOp),
         strFormat("%.1f", Built.CompileNsPerOp),
         strFormat("%llu", static_cast<unsigned long long>(Built.Allocs)),
         strFormat("%zu", Bytes),
         strFormat("%.1f", static_cast<double>(Bytes) / NumOps),
         strFormat("%.1f", static_cast<double>(Built.PeakBytes) / NumOps)});
    Report.metric(Case.Name + "_build_allocs",
                  static_cast<double>(Built.Allocs));
    Report.metric(Case.Name + "_schedule_bytes", static_cast<double>(Bytes));
    Report.metric(Case.Name + "_build_peak_bytes",
                  static_cast<double>(Built.PeakBytes));
    Report.timing(Case.Name + "_build_ns_per_op", Built.BuildNsPerOp);
    Report.timing(Case.Name + "_compile_ns_per_op", Built.CompileNsPerOp);
    if (!Case.Replay) {
      Report.metric(Case.Name + "_ops", static_cast<double>(NumOps));
      continue;
    }

    // Bit-identity probe at a seed outside the timing loops.
    ExecutionResult LegacyProbe = runScheduleLegacy(S, Plat, 9001);
    Engine E;
    ExecutionResult CompiledProbe = E.run(CS, Plat, 9001);
    const std::uint64_t ProbeEvents = E.eventsProcessed();
    const bool Identical = identicalTimings(LegacyProbe, CompiledProbe);
    AllIdentical = AllIdentical && Identical;

    // Legacy loop: exactly what one pre-interning sweep repetition
    // did (a pre-interning broadcast runner): rebuild the schedule,
    // then interpret it, reallocating all working state.
    double Sink = 0.0;
    auto LegacyStart = std::chrono::steady_clock::now();
    for (unsigned Rep = 0; Rep != NumReps; ++Rep) {
      ScheduleBuilder RepB(Case.NumProcs);
      Case.Append(RepB);
      Schedule RepS = RepB.take();
      Sink += runScheduleLegacy(RepS, Plat, Rep + 1).Makespan;
    }
    const double LegacySeconds = secondsSince(LegacyStart);

    // Compiled loop: the probe above warmed the arena (and, with
    // metrics on, this thread's counter shard), so this loop must not
    // allocate at all. The replay span is scoped so its own string
    // construction and journal emission land outside the counted
    // window -- the gate holds with --metrics enabled.
    double CompiledSeconds = 0.0;
    std::uint64_t ReplayAllocs = 0;
    std::uint64_t ReplayEvents = 0;
    {
      obs::PhaseSpan ReplaySpan(obs::Phase::Replay, Case.Name);
      const std::uint64_t AllocsBefore = allocationCount();
      auto CompiledStart = std::chrono::steady_clock::now();
      for (unsigned Rep = 0; Rep != NumReps; ++Rep) {
        Sink += E.run(CS, Plat, Rep + 1).Makespan;
        ReplayEvents += E.eventsProcessed();
      }
      CompiledSeconds = secondsSince(CompiledStart);
      ReplayAllocs = allocationCount() - AllocsBefore;
    }
    AllAllocFree = AllAllocFree && ReplayAllocs == 0;

    // The measurement replay (model/Runner's Experiment): no timeline,
    // only the exit ops' completion times. Its latest exit completion
    // must be the full replay's, over several seeds.
    ReplayOptions Lean;
    Lean.RecordTimings = false;
    Lean.ExitOps = Exit;
    // The run state of one measurement helper: the heap bytes a fresh
    // engine allocates for its first lean replay.
    const std::uint64_t BytesBefore = allocatedBytes();
    Engine LeanEngine;
    LeanEngine.run(CS, Plat, 9001, nullptr, Lean);
    const std::uint64_t LeanEngineBytes = allocatedBytes() - BytesBefore;
    bool LeanIdentical = true;
    for (std::uint64_t Seed = 9001; Seed != 9006; ++Seed) {
      double Full = 0.0;
      const ExecutionResult &R = E.run(CS, Plat, Seed);
      for (OpId Id : Exit)
        Full = std::max(Full, R.doneTime(Id));
      double Latest = 0.0;
      const ExecutionResult &L =
          LeanEngine.run(CS, Plat, Seed, nullptr, Lean);
      for (double Done : L.ExitTimes)
        Latest = std::max(Latest, Done);
      LeanIdentical = LeanIdentical && L.Completed && L.Timings.empty() &&
                      Latest == Full;
    }
    AllLeanIdentical = AllLeanIdentical && LeanIdentical;

    // Lean loop: warmed by the probes above, so it must not allocate.
    double LeanSeconds = 0.0;
    std::uint64_t LeanAllocs = 0;
    std::uint64_t LeanEvents = 0;
    {
      obs::PhaseSpan ReplaySpan(obs::Phase::Replay, Case.Name + "_lean");
      const std::uint64_t AllocsBefore = allocationCount();
      auto LeanStart = std::chrono::steady_clock::now();
      for (unsigned Rep = 0; Rep != NumReps; ++Rep) {
        Sink += LeanEngine.run(CS, Plat, Rep + 1, nullptr, Lean).Makespan;
        LeanEvents += LeanEngine.eventsProcessed();
      }
      LeanSeconds = secondsSince(LeanStart);
      LeanAllocs = allocationCount() - AllocsBefore;
    }
    AllAllocFree = AllAllocFree && LeanAllocs == 0;

    const double TotalOps = static_cast<double>(NumOps) * NumReps;
    const double LegacyNsPerOp = LegacySeconds * 1e9 / TotalOps;
    const double CompiledNsPerOp = CompiledSeconds * 1e9 / TotalOps;
    const double CompiledNsPerEvent =
        CompiledSeconds * 1e9 / static_cast<double>(ReplayEvents);
    const double LeanNsPerEvent =
        LeanSeconds * 1e9 / static_cast<double>(LeanEvents);
    const double Speedup =
        CompiledSeconds > 0.0 ? LegacySeconds / CompiledSeconds : 0.0;

    Results.addRow({Case.Name, strFormat("%zu", NumOps),
                    strFormat("%llu",
                              static_cast<unsigned long long>(ProbeEvents)),
                    strFormat("%.1f", LegacyNsPerOp),
                    strFormat("%.1f", CompiledNsPerOp),
                    strFormat("%.1f", CompiledNsPerEvent),
                    strFormat("%.1f", LeanNsPerEvent),
                    strFormat("%.2fx", Speedup), Identical ? "yes" : "NO",
                    LeanIdentical ? "yes" : "NO",
                    strFormat("%llu",
                              static_cast<unsigned long long>(ReplayAllocs)),
                    strFormat("%llu",
                              static_cast<unsigned long long>(LeanAllocs)),
                    strFormat("%llu", static_cast<unsigned long long>(
                                          LeanEngineBytes))});

    Report.metric(Case.Name + "_ops", static_cast<double>(NumOps));
    Report.metric(Case.Name + "_events", static_cast<double>(ProbeEvents));
    Report.metric(Case.Name + "_identical", Identical ? 1.0 : 0.0);
    Report.metric(Case.Name + "_replay_allocs",
                  static_cast<double>(ReplayAllocs));
    Report.metric(Case.Name + "_lean_identical", LeanIdentical ? 1.0 : 0.0);
    Report.metric(Case.Name + "_lean_replay_allocs",
                  static_cast<double>(LeanAllocs));
    Report.metric(Case.Name + "_lean_engine_bytes",
                  static_cast<double>(LeanEngineBytes));
    if (Case.BudgetThroughput)
      Report.metric(Case.Name + "_compiled_ns_per_event", CompiledNsPerEvent);
    Report.timing(Case.Name + "_legacy_ns_per_op", LegacyNsPerOp);
    Report.timing(Case.Name + "_compiled_ns_per_op", CompiledNsPerOp);
    Report.timing(Case.Name + "_compiled_ns_per_event", CompiledNsPerEvent);
    Report.timing(Case.Name + "_lean_ns_per_event", LeanNsPerEvent);
    Report.timing(Case.Name + "_speedup", Speedup);

    // Keep the loops observable.
    if (Sink < 0.0)
      std::printf("unreachable %f\n", Sink);
  }

  Results.print();
  std::printf("\n");
  BuildLayer.print();
  std::printf("\nEvery case must replay bit-identically to the legacy "
              "interpreter, observe the same\nlatest exit completion "
              "without the timeline, and replay allocation-free\nafter "
              "warm-up either way; throughput "
              "columns are host-dependent, and only the deep-heap\ncase's "
              "compiled ns/event is capped, by the committed budget "
              "(bench/baselines/\nBENCH_micro_engine.json).\n");

  if (!AllIdentical) {
    std::fprintf(stderr, "error: compiled replay diverged from the legacy "
                         "interpreter\n");
    return 1;
  }
  if (!AllLeanIdentical) {
    std::fprintf(stderr, "error: the replay without the timeline observed a "
                         "different exit completion\n");
    return 1;
  }
  if (!AllAllocFree) {
    std::fprintf(stderr,
                 "error: compiled replay allocated after warm-up\n");
    return 1;
  }
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
