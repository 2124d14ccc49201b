//===- perfbench/perfbench.cpp - The repository benchmark -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the method end to end at one seed and prints
/// its metrics as the last line of standard output:
///
///   perfbench --workload paper-bcast|op-zoo --seed N --seconds S
///             --trace 0|1 [--work-dir DIR] [--short]
///
/// A run sets up (platforms, a fresh cache directory, the seeded
/// lookup stream), then runs iterations until --seconds is used up. An
/// iteration is a *pass* -- the offline half of the paper's method for
/// every (platform, collective) panel of the workload: calibrate, build
/// the decision table, audit, compile the binary image and publish it
/// to a DecisionService, followed by the exhaustive oracle at every
/// selection point -- and a *serve slice*, the runtime half: two
/// closed-loop readers look up a seeded (P, m) stream while the main
/// thread publishes the run's tables on an open-loop schedule. Every
/// layer is timed from outside, around calls to the library's public
/// API (Spans.h). METRICS.md documents the workloads and every metric.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "audit/Audit.h"
#include "cluster/Platform.h"
#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Bcast.h"
#include "coll/OmpiDecision.h"
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "model/Selection.h"
#include "mpi/CompiledSchedule.h"
#include "mpi/Schedule.h"
#include "mpi/ScheduleIntern.h"
#include "obs/Metrics.h"
#include "obs/Rss.h"
#include "serve/DecisionService.h"
#include "serve/TableImage.h"
#include "sim/Engine.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char **environ;

using namespace mpicsel;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Run configuration
//===----------------------------------------------------------------------===//

/// The library's default measurement seed (AdaptiveOptions::BaseSeed):
/// --seed 0 keeps it, so the default seed reproduces the paper benches.
constexpr std::uint64_t DefaultBaseSeed = 0x9E3779B97F4A7C15ull;
/// Calibration sweep threads of paper-bcast (op-zoo's runners are
/// serial); with two lookup readers plus the publisher the run never
/// needs more than the container's four cores.
constexpr unsigned BcastSweepThreads = 2;
constexpr unsigned ReaderThreads = 2;
/// Length of the serve slice after every pass (at most 20% of
/// --seconds).
constexpr double MaxSliceSeconds = 2.0;
/// Publisher rate of a serve slice's churn window (publishes/s).
constexpr double PublishRate = 250.0;
/// Lookup stream length (a power of two; readers wrap around).
constexpr std::size_t QueryCount = std::size_t{1} << 18;
/// In-process set-ups timed at the start of a run and after every
/// iteration; setup_s is the median of them all.
constexpr unsigned SetupRepeats = 5;
constexpr unsigned SetupRepeatsBetween = 3;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  std::string WorkDir = ".bench_build/perfbench-work";
  bool Short = false; ///< 3 selection points per panel
};

std::uint64_t baseSeedFor(std::uint64_t Seed) {
  return Seed == 0 ? DefaultBaseSeed
                   : SplitMix64(DefaultBaseSeed ^ Seed).next();
}

/// The environment variables the library reads. Any of them would
/// change what is measured (preflight verification, fault injection,
/// a warm cache, ...), so the benchmark refuses to run while one is
/// set; run.py clears them.
bool environmentIsPinned() {
  bool Clean = true;
  for (char **Var = environ; *Var; ++Var)
    if (std::strncmp(*Var, "MPICSEL_", 8) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *Var);
      Clean = false;
    }
  return Clean;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (Arg == "--short") {
      O.Short = true;
      continue;
    }
    if (!value(V)) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", Arg.c_str());
      return false;
    }
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = V;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
    } else if (Arg == "--trace") {
      O.Trace = V == "1";
      if (V != "0" && V != "1")
        return false;
    } else if (Arg == "--work-dir") {
      O.WorkDir = V;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", Arg.c_str());
      return false;
    }
    if (End && *End) {
      std::fprintf(stderr, "perfbench: bad value '%s' for %s\n", V.c_str(),
                   Arg.c_str());
      return false;
    }
  }
  if (O.Workload != "paper-bcast" && O.Workload != "op-zoo") {
    std::fprintf(stderr, "perfbench: --workload must be paper-bcast or "
                         "op-zoo\n");
    return false;
  }
  if (!(O.Seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Panels: one (platform, collective) pair each
//===----------------------------------------------------------------------===//

std::vector<std::uint64_t> doublingSizes(std::uint64_t From,
                                         std::uint64_t To) {
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t Bytes = From; Bytes <= To; Bytes *= 2)
    Sizes.push_back(Bytes);
  return Sizes;
}

struct Panel {
  const Platform *Plat = nullptr;
  CollectiveOp Op = CollectiveOp::Bcast;
  unsigned CalibProcs = 0;
  unsigned SelectProcs = 0;
  /// Selection sizes: the oracle's points and the table's columns.
  std::vector<std::uint64_t> Sizes;

  std::string name() const {
    return std::string(collectiveOpName(Op)) + "_" + Plat->Name + "_p" +
           std::to_string(SelectProcs);
  }
  /// The production grid: powers of two plus the selection P.
  std::vector<unsigned> gridProcs() const {
    std::vector<unsigned> Procs;
    for (unsigned P = 2; P <= Plat->maxProcs(); P *= 2)
      Procs.push_back(P);
    if (std::find(Procs.begin(), Procs.end(), SelectProcs) == Procs.end())
      Procs.push_back(SelectProcs);
    std::sort(Procs.begin(), Procs.end());
    return Procs;
  }
};

/// Calibrated models of one panel (only the member of Panel::Op is
/// meaningful).
struct PanelModels {
  CollectiveOp Op = CollectiveOp::Bcast;
  CalibratedModels Bcast;
  AllreduceModels Allreduce;
  AllgatherModels Allgather;

  double predict(unsigned Choice, unsigned P, std::uint64_t Bytes) const {
    switch (Op) {
    case CollectiveOp::Allreduce:
      return Allreduce.predict(static_cast<AllreduceAlgorithm>(Choice), P,
                               Bytes);
    case CollectiveOp::Allgather:
      return Allgather.predict(static_cast<AllgatherAlgorithm>(Choice), P,
                               Bytes);
    default:
      return Bcast.predict(static_cast<BcastAlgorithm>(Choice), P, Bytes);
    }
  }
  unsigned selectBest(unsigned P, std::uint64_t Bytes) const {
    switch (Op) {
    case CollectiveOp::Allreduce:
      return static_cast<unsigned>(Allreduce.selectBest(P, Bytes));
    case CollectiveOp::Allgather:
      return static_cast<unsigned>(Allgather.selectBest(P, Bytes));
    default:
      return static_cast<unsigned>(Bcast.selectBest(P, Bytes));
    }
  }
  DecisionTable buildTable(std::vector<unsigned> Procs,
                           std::vector<std::uint64_t> Sizes) const {
    switch (Op) {
    case CollectiveOp::Allreduce:
      return buildAllreduceDecisionTable(Allreduce, std::move(Procs),
                                         std::move(Sizes));
    case CollectiveOp::Allgather:
      return buildAllgatherDecisionTable(Allgather, std::move(Procs),
                                         std::move(Sizes));
    default:
      return buildDecisionTable(Bcast, std::move(Procs), std::move(Sizes));
    }
  }
};

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

struct Query {
  unsigned NumProcs = 0;
  std::uint64_t MessageBytes = 0;
};

/// Everything a run needs before its first timed call.
struct Setup {
  std::vector<std::unique_ptr<Platform>> Platforms;
  std::vector<Panel> Panels;
  std::string CacheRoot;
  std::vector<Query> Queries;
};

/// The seeded lookup stream: ~70% on the production grids, ~20%
/// between rows (any P, any m in range), ~10% past the end of every
/// grid.
std::vector<Query> makeQueries(std::uint64_t Seed) {
  SplitMix64 Rng(Seed ^ 0x5EEDCAFEF00Dull);
  const unsigned GridProcs[] = {2, 4, 8, 16, 32, 64, 90, 100};
  std::vector<Query> Queries(QueryCount);
  for (Query &Q : Queries) {
    const std::uint64_t R = Rng.next();
    const unsigned Kind = static_cast<unsigned>(R % 10);
    if (Kind < 7) {
      Q.NumProcs = GridProcs[(R >> 8) % 8];
      Q.MessageBytes = std::uint64_t{1024} << ((R >> 16) % 13);
    } else if (Kind < 9) {
      Q.NumProcs = 2 + static_cast<unsigned>((R >> 8) % 123);
      Q.MessageBytes = 1024 + (R >> 24) % (std::uint64_t{4} << 20);
    } else {
      Q.NumProcs = 125 + static_cast<unsigned>((R >> 8) % 132);
      Q.MessageBytes =
          (std::uint64_t{4} << 20) + (R >> 24) % (std::uint64_t{60} << 20);
    }
  }
  return Queries;
}

std::unique_ptr<Setup> makeSetup(const Options &O) {
  auto S = std::make_unique<Setup>();
  S->Platforms.push_back(std::make_unique<Platform>(makeGrisou()));
  S->Platforms.push_back(std::make_unique<Platform>(makeGros()));
  const std::vector<std::uint64_t> Paper = doublingSizes(8 * 1024, 4 << 20);
  const std::vector<std::uint64_t> Blocks = doublingSizes(1024, 64 * 1024);
  for (const auto &Plat : S->Platforms) {
    const bool Gros = Plat->Name == "gros";
    const unsigned Calib = Gros ? 124 : 40;
    const unsigned Select = Gros ? 100 : 90;
    if (O.Workload == "paper-bcast") {
      S->Panels.push_back({Plat.get(), CollectiveOp::Bcast, Calib, Select,
                           Paper});
    } else {
      S->Panels.push_back({Plat.get(), CollectiveOp::Allreduce, Calib,
                           Select, Paper});
      S->Panels.push_back({Plat.get(), CollectiveOp::Allgather, Calib,
                           Select, Blocks});
    }
  }
  if (O.Short)
    for (Panel &P : S->Panels)
      P.Sizes = {P.Sizes.front(), P.Sizes[P.Sizes.size() / 2],
                 P.Sizes.back()};
  S->CacheRoot =
      O.WorkDir + "/cache-" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(S->CacheRoot);
  std::filesystem::create_directories(S->CacheRoot);
  S->Queries = makeQueries(O.Seed);
  return S;
}

//===----------------------------------------------------------------------===//
// One pass: pipeline + oracle
//===----------------------------------------------------------------------===//

struct PanelResult {
  std::string Name;
  unsigned Points = 0;
  unsigned NearOptimal = 0;
  double WorstDeg = 0.0;
  double SumPredErr = 0.0;
  std::uint64_t TableHash = 0;
};

/// Work and quality records a traced pass reports.
struct PassLayerStats {
  std::uint64_t OracleMeasures = 0;
  std::uint64_t OracleReplays = 0;
  std::uint64_t ConvergedMeasures = 0;
  std::uint64_t ConvergenceSamples = 0;
  double RssAfterCalibrateKiB = 0.0;
  double RssAfterOracleKiB = 0.0;
};

struct PassResult {
  double PipelineSeconds = 0.0;
  double OracleSeconds = 0.0;
  double WallSeconds = 0.0;
  std::vector<PanelResult> Panels;
  std::vector<PanelModels> Models;
  /// The production-grid image bytes of each panel.
  std::vector<std::vector<unsigned char>> Images;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  PassLayerStats Layers;

  /// The deterministic outcome two passes at one seed must share.
  bool sameOutcome(const PassResult &O) const {
    if (Panels.size() != O.Panels.size())
      return false;
    for (std::size_t I = 0; I != Panels.size(); ++I)
      if (Panels[I].NearOptimal != O.Panels[I].NearOptimal ||
          Panels[I].WorstDeg != O.Panels[I].WorstDeg ||
          Panels[I].SumPredErr != O.Panels[I].SumPredErr ||
          Panels[I].TableHash != O.Panels[I].TableHash)
        return false;
    return true;
  }
};

std::uint64_t counter(obs::Counter C) {
  return obs::snapshotMetrics().counter(C);
}

PanelModels calibratePanel(const Panel &P, std::uint64_t BaseSeed,
                           DecisionCache &Cache, PassLayerStats &Layers) {
  PanelModels M;
  M.Op = P.Op;
  auto quick = [&](AdaptiveOptions &A, GammaEstimationOptions &G) {
    A.MinReps = 3;
    A.MaxReps = 8;
    A.BaseSeed = BaseSeed;
    G.Adaptive.MinReps = 3;
    G.Adaptive.MaxReps = 8;
    G.Adaptive.BaseSeed = BaseSeed;
  };
  switch (P.Op) {
  case CollectiveOp::Allreduce: {
    AllreduceCalibrationOptions Options;
    Options.NumProcs = P.CalibProcs;
    quick(Options.Adaptive, Options.GammaOptions);
    M.Allreduce = calibrateAllreduce(*P.Plat, Options);
    break;
  }
  case CollectiveOp::Allgather: {
    AllgatherCalibrationOptions Options;
    Options.NumProcs = P.CalibProcs;
    quick(Options.Adaptive, Options.GammaOptions);
    M.Allgather = calibrateAllgather(*P.Plat, Options);
    break;
  }
  default: {
    CalibrationOptions Options;
    Options.NumProcs = P.CalibProcs;
    Options.Threads = BcastSweepThreads;
    quick(Options.Adaptive, Options.GammaOptions);
    CalibrationReport Report;
    M.Bcast = calibrateCached(*P.Plat, Options, Cache, &Report);
    for (const AlgorithmCalibrationReport &A : Report.Algorithms)
      for (const ExperimentRecord &E : A.Experiments) {
        ++Layers.ConvergenceSamples;
        Layers.ConvergedMeasures += E.Converged ? 1 : 0;
      }
    break;
  }
  }
  return M;
}

/// Calibrate -> table -> audit -> image -> publish for one panel.
/// Returns the image bytes; counts a failure when the image does not
/// decode back to the table's content hash.
std::vector<unsigned char> runPipeline(const Panel &P, const PanelModels &M,
                                       SpanRecorder &Rec,
                                       serve::DecisionService &Service,
                                       PanelResult &Out, PassResult &Pass) {
  DecisionTable Table;
  {
    SpanRecorder::Scope S(Rec, "model.table_build");
    Table = M.buildTable(P.gridProcs(), P.Sizes);
  }
  {
    SpanRecorder::Scope S(Rec, "audit");
    AuditOptions AO;
    AO.Procs = Table.Procs;
    AO.MessageSizes = Table.MessageSizes;
    AO.Threads = P.Op == CollectiveOp::Bcast ? BcastSweepThreads : 1;
    if (P.Op == CollectiveOp::Bcast) {
      AuditReport Report = auditModels(M.Bcast, AO);
      Report.merge(auditDecisionTable(Table, M.Bcast, AO));
    } else {
      auditDecisionTable(
          Table,
          [&M](unsigned Choice, unsigned Procs, std::uint64_t Bytes) {
            return M.predict(Choice, Procs, Bytes);
          },
          AO);
    }
  }
  std::vector<unsigned char> Bytes;
  {
    SpanRecorder::Scope S(Rec, "serve.image_compile");
    Bytes = serve::compileDecisionTableImage(Table);
  }
  serve::DecisionTableImage Image;
  bool Ok;
  {
    SpanRecorder::Scope S(Rec, "serve.image_validate");
    Ok = Image.loadFromBytes(Bytes.data(), Bytes.size());
  }
  Out.TableHash = serve::decisionTableContentHash(Table);
  DecisionTable Decoded;
  Ok = Ok && Image.decode(Decoded) &&
       serve::decisionTableContentHash(Decoded) == Out.TableHash &&
       Image.contentHash() == Out.TableHash;
  {
    SpanRecorder::Scope S(Rec, "serve.publish");
    Ok = Ok && Service.publishImage(std::move(Image), "perfbench");
  }
  ++Pass.Attempted;
  Pass.Failed += Ok ? 0 : 1;
  return Bytes;
}

/// The a-posteriori oracle at every selection point of one panel, with
/// the served answer checked against the models' choice.
void runOracle(const Panel &P, const PanelModels &M, std::uint64_t BaseSeed,
               SpanRecorder &Rec, const serve::DecisionService &Service,
               PanelResult &Out, PassResult &Pass) {
  for (std::uint64_t Bytes : P.Sizes) {
    double Deg = 0.0, PredErr = 0.0;
    const unsigned Choice = M.selectBest(P.SelectProcs, Bytes);
    {
      SpanRecorder::Scope S(Rec, "model.oracle_point");
      if (P.Op == CollectiveOp::Bcast) {
        AdaptiveOptions AO;
        AO.BaseSeed = BaseSeed;
        const SelectionPoint Pt =
            evaluateSelectionPoint(*P.Plat, P.SelectProcs, Bytes, M.Bcast, AO);
        Deg = Pt.modelDegradation();
        PredErr = std::fabs(Pt.ModelPredictedTime - Pt.ModelChoiceTime) /
                  Pt.ModelChoiceTime;
        // evaluateSelectionPoint measures all six algorithms, plus the
        // Open MPI choice again when its segment size differs.
        const BcastDecision Ompi =
            ompiBcastDecisionFixed(P.SelectProcs, Bytes);
        Pass.Layers.OracleMeasures +=
            NumBcastAlgorithms +
            (Ompi.SegmentBytes == M.Bcast.SegmentBytes ||
                     Ompi.Algorithm == BcastAlgorithm::Linear
                 ? 0
                 : 1);
      } else {
        // extension_allreduce --quick's measurement: the same options
        // for every algorithm and size.
        AdaptiveOptions AO;
        AO.MinReps = 3;
        AO.MaxReps = 8;
        AO.BaseSeed = BaseSeed;
        double Best = 0.0, Model = 0.0;
        const unsigned Count = collectiveAlgorithmCount(P.Op);
        for (unsigned Alg = 0; Alg != Count; ++Alg) {
          AdaptiveResult R;
          if (P.Op == CollectiveOp::Allreduce) {
            AllreduceConfig Config;
            Config.Algorithm = static_cast<AllreduceAlgorithm>(Alg);
            Config.MessageBytes = Bytes;
            Config.SegmentBytes = M.Allreduce.SegmentBytes;
            R = measureAllreduce(*P.Plat, P.SelectProcs, Config, AO);
          } else {
            AllgatherConfig Config;
            Config.Algorithm = static_cast<AllgatherAlgorithm>(Alg);
            Config.BlockBytes = Bytes;
            R = measureAllgather(*P.Plat, P.SelectProcs, Config, AO);
          }
          const double Time = R.Stats.Mean;
          if (Best == 0.0 || Time < Best)
            Best = Time;
          if (Alg == Choice)
            Model = Time;
          ++Pass.Layers.OracleMeasures;
          ++Pass.Layers.ConvergenceSamples;
          Pass.Layers.ConvergedMeasures += R.Converged ? 1 : 0;
        }
        Deg = Model / Best - 1.0;
        PredErr =
            std::fabs(M.predict(Choice, P.SelectProcs, Bytes) - Model) /
            Model;
      }
    }
    ++Out.Points;
    Out.NearOptimal += Deg <= 0.10 ? 1 : 0;
    Out.WorstDeg = std::max(Out.WorstDeg, Deg);
    Out.SumPredErr += PredErr;
    const serve::TableLookup L = Service.lookup(P.SelectProcs, Bytes);
    ++Pass.Attempted;
    Pass.Failed +=
        L.Served && L.Collective == P.Op && L.Choice == Choice ? 0 : 1;
  }
}

/// Returns freed heap to the kernel so that RSS samples of the next
/// pass reflect that pass.
void trimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

PassResult runPass(const Setup &S, std::uint64_t BaseSeed,
                   const std::string &CacheDir, SpanRecorder &Rec) {
  // Every pass starts as cold as a fresh process: interned schedules
  // of an earlier pass would turn its builds into lookups.
  ScheduleInternCache::global().clear();
  trimHeap();
  PassResult Pass;
  std::vector<std::unique_ptr<serve::DecisionService>> Services;
  const Clock::time_point Start = Clock::now();
  {
    SpanRecorder::Scope PipelineSpan(Rec, "pipeline");
    DecisionCache Cache(CacheDir);
    for (const Panel &P : S.Panels) {
      Services.push_back(std::make_unique<serve::DecisionService>());
      Pass.Panels.push_back({});
      Pass.Panels.back().Name = P.name();
      {
        SpanRecorder::Scope Span(Rec, "model.calibrate");
        Pass.Models.push_back(calibratePanel(P, BaseSeed, Cache, Pass.Layers));
      }
      Pass.Images.push_back(runPipeline(P, Pass.Models.back(), Rec,
                                        *Services.back(), Pass.Panels.back(),
                                        Pass));
    }
    Pass.PipelineSeconds = PipelineSpan.close();
  }
  Pass.Layers.RssAfterCalibrateKiB =
      static_cast<double>(obs::currentRssKiB());
  const std::uint64_t ReplaysBefore = counter(obs::Counter::EngineReplays);
  {
    SpanRecorder::Scope OracleSpan(Rec, "oracle");
    for (std::size_t I = 0; I != S.Panels.size(); ++I)
      runOracle(S.Panels[I], Pass.Models[I], BaseSeed, Rec, *Services[I],
                Pass.Panels[I], Pass);
    Pass.OracleSeconds = OracleSpan.close();
  }
  Pass.Layers.OracleReplays =
      counter(obs::Counter::EngineReplays) - ReplaysBefore;
  Pass.Layers.RssAfterOracleKiB = static_cast<double>(obs::currentRssKiB());
  Pass.WallSeconds = secondsBetween(Start, Clock::now());
  return Pass;
}

//===----------------------------------------------------------------------===//
// Serve slices: lookups under publication churn
//===----------------------------------------------------------------------===//

/// Latency histogram with 1 ns buckets below 64 us and one overflow
/// bucket per power of two above; percentiles interpolate inside the
/// bucket.
class LatencyHistogram {
public:
  static constexpr std::size_t Fine = 65536;

  void add(std::uint64_t Ns) {
    ++Samples;
    if (Ns < Fine) {
      ++Buckets[Ns];
      return;
    }
    unsigned Log = 0;
    while ((Fine << (Log + 1)) <= Ns && Log + 1 < Coarse.size())
      ++Log;
    ++Coarse[Log];
  }
  void merge(const LatencyHistogram &O) {
    Samples += O.Samples;
    for (std::size_t I = 0; I != Fine; ++I)
      Buckets[I] += O.Buckets[I];
    for (std::size_t I = 0; I != Coarse.size(); ++I)
      Coarse[I] += O.Coarse[I];
  }
  std::uint64_t samples() const { return Samples; }

  /// The \p Q quantile in ns, linearly interpolated inside its bucket.
  double quantile(double Q) const {
    if (Samples == 0)
      return 0.0;
    const double Target = Q * static_cast<double>(Samples);
    double Seen = 0.0;
    for (std::size_t I = 0; I != Fine; ++I) {
      if (Buckets[I] && Seen + Buckets[I] >= Target)
        return static_cast<double>(I) + (Target - Seen) / Buckets[I];
      Seen += Buckets[I];
    }
    for (std::size_t I = 0; I != Coarse.size(); ++I) {
      const double Lo = static_cast<double>(Fine << I);
      if (Coarse[I] && Seen + Coarse[I] >= Target)
        return Lo + Lo * (Target - Seen) / Coarse[I];
      Seen += Coarse[I];
    }
    return static_cast<double>(Fine << (Coarse.size() - 1));
  }

private:
  std::vector<std::uint64_t> Buckets = std::vector<std::uint64_t>(Fine);
  std::array<std::uint64_t, 24> Coarse{};
  std::uint64_t Samples = 0;
};

/// One image of the publisher's rotation.
struct RotationImage {
  std::vector<unsigned char> Bytes;
  std::uint64_t Hash = 0;
};

/// The publisher's rotation and, per query, the answers some image of
/// it gives (bits collective * 8 + choice).
struct ServeRotation {
  std::vector<RotationImage> Images;
  std::vector<std::uint64_t> Accepted;
  double MeanImageBytes = 0.0;
};

/// One serve slice: a solo window, then a churn window.
struct SliceResult {
  double SoloP50Ns = 0.0;
  double ChurnP50Ns = 0.0;
  double ChurnP99Ns = 0.0;
  double LookupsPerSecond = 0.0;
  double PublishP99Us = 0.0;
  double PublishLateP99Us = 0.0;
  std::uint64_t Publishes = 0;
  std::uint64_t Lookups = 0;
  std::uint64_t RetiredMax = 0;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(Pos);
  const std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - Lo);
}

double median(std::vector<double> Values) { return percentile(Values, 0.5); }

/// Dense message-size grid of the serve slices' large tables: 48 sizes
/// per octave from 1 KiB to 8 MiB.
std::vector<std::uint64_t> denseSizes() {
  std::vector<std::uint64_t> Sizes;
  for (unsigned K = 0; K != 13 * 48; ++K)
    Sizes.push_back(static_cast<std::uint64_t>(
        std::llround(1024.0 * std::exp2(K / 48.0))));
  return Sizes;
}

/// Builds the rotation: each panel's production image plus a dense
/// every-P table of the same models (larger than a 48 KiB L1d).
std::vector<RotationImage> buildRotation(const Setup &S,
                                         const PassResult &Pass) {
  std::vector<RotationImage> Rotation;
  const std::vector<std::uint64_t> Dense = denseSizes();
  for (std::size_t I = 0; I != S.Panels.size(); ++I) {
    RotationImage Production;
    Production.Bytes = Pass.Images[I];
    Production.Hash = Pass.Panels[I].TableHash;
    Rotation.push_back(std::move(Production));
    std::vector<unsigned> Every;
    for (unsigned P = 2; P <= S.Panels[I].Plat->maxProcs(); ++P)
      Every.push_back(P);
    const DecisionTable Table =
        Pass.Models[I].buildTable(std::move(Every), Dense);
    RotationImage Large;
    Large.Bytes = serve::compileDecisionTableImage(Table);
    Large.Hash = serve::decisionTableContentHash(Table);
    Rotation.push_back(std::move(Large));
  }
  return Rotation;
}

/// Per query, the set of (collective, choice) answers some image of
/// the rotation gives, as bits collective * 8 + choice.
std::vector<std::uint64_t>
acceptedAnswers(const std::vector<Query> &Queries,
                const std::vector<RotationImage> &Rotation) {
  std::vector<std::uint64_t> Masks(Queries.size(), 0);
  for (const RotationImage &R : Rotation) {
    serve::DecisionTableImage Image;
    if (!Image.loadFromBytes(R.Bytes.data(), R.Bytes.size()))
      continue; // never accepted: every lookup it serves would fail
    for (std::size_t I = 0; I != Queries.size(); ++I) {
      const serve::TableLookup L =
          Image.lookup(Queries[I].NumProcs, Queries[I].MessageBytes);
      Masks[I] |= std::uint64_t{1}
                  << (static_cast<unsigned>(L.Collective) * 8 + L.Choice);
    }
  }
  return Masks;
}

ServeRotation prepareServe(const Setup &S, const PassResult &Pass) {
  ServeRotation R;
  R.Images = buildRotation(S, Pass);
  R.Accepted = acceptedAnswers(S.Queries, R.Images);
  for (const RotationImage &Image : R.Images)
    R.MeanImageBytes += static_cast<double>(Image.Bytes.size());
  R.MeanImageBytes /= static_cast<double>(R.Images.size());
  return R;
}

enum class ServePhase : unsigned { Warmup, Solo, Churn, Stop };

/// One reader's results, on cache lines of its own so the two readers
/// never share a line the harness writes.
struct alignas(64) ReaderState {
  LatencyHistogram Solo;
  LatencyHistogram Churn;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

void readerLoop(const serve::DecisionService &Service,
                const std::vector<Query> &Queries,
                const std::vector<std::uint64_t> &Masks, unsigned Reader,
                const std::atomic<ServePhase> &Phase, ReaderState &Out) {
  std::size_t Index = Reader * (QueryCount / ReaderThreads);
  std::uint64_t Attempted = 0, Failed = 0;
  for (;;) {
    const ServePhase Now = Phase.load(std::memory_order_acquire);
    if (Now == ServePhase::Stop)
      break;
    LatencyHistogram *Hist = Now == ServePhase::Solo    ? &Out.Solo
                             : Now == ServePhase::Churn ? &Out.Churn
                                                        : nullptr;
    for (unsigned Batch = 0; Batch != 256; ++Batch) {
      const Query &Q = Queries[Index];
      const Clock::time_point T0 = Clock::now();
      const serve::TableLookup L =
          Service.lookup(Q.NumProcs, Q.MessageBytes);
      const Clock::time_point T1 = Clock::now();
      if (Hist) {
        Hist->add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
                .count()));
        ++Attempted;
        const unsigned Bit =
            static_cast<unsigned>(L.Collective) * 8 + L.Choice;
        Failed += L.Served && Bit < 64 && ((Masks[Index] >> Bit) & 1) ? 0 : 1;
      }
      Index = (Index + 1) & (QueryCount - 1);
    }
  }
  Out.Attempted = Attempted;
  Out.Failed = Failed;
}

SliceResult runServeSlice(const Setup &S, const ServeRotation &Rotation,
                          double Seconds, SpanRecorder &Rec) {
  SliceResult Out;
  serve::DecisionService Service;
  // A publish validates the image bytes, then swaps them in.
  auto publish = [&](const RotationImage &R) {
    serve::DecisionTableImage Image;
    bool Ok;
    {
      SpanRecorder::Scope Span(Rec, "serve.image_validate");
      Ok = Image.loadFromBytes(R.Bytes.data(), R.Bytes.size());
    }
    {
      SpanRecorder::Scope Span(Rec, "serve.publish");
      Ok = Ok && Service.publishImage(std::move(Image), "perfbench");
    }
    // Visible: a reader starting now is served this image.
    Ok = Ok && Service.servedContentHash() == R.Hash;
    ++Out.Attempted;
    Out.Failed += Ok ? 0 : 1;
  };
  const std::size_t Count = Rotation.Images.size();
  publish(Rotation.Images.front());

  std::atomic<ServePhase> Phase{ServePhase::Warmup};
  std::vector<ReaderState> Readers(ReaderThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != ReaderThreads; ++I)
    Threads.emplace_back(readerLoop, std::cref(Service), std::cref(S.Queries),
                         std::cref(Rotation.Accepted), I, std::cref(Phase),
                         std::ref(Readers[I]));

  std::vector<double> LatencyUs, LateUs;
  double ChurnSeconds = 0.0;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Phase.store(ServePhase::Solo, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(0.25 * Seconds));
  {
    SpanRecorder::Scope ChurnSpan(Rec, "serve.churn");
    const Clock::time_point Begin = Clock::now();
    Phase.store(ServePhase::Churn, std::memory_order_release);
    const auto Period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / PublishRate));
    const Clock::time_point End =
        Begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(0.75 * Seconds));
    for (std::size_t I = 1;; ++I) {
      const Clock::time_point Due = Begin + Period * static_cast<long>(I);
      if (Due >= End)
        break;
      // Spin rather than sleep: a publisher woken from a sleep on a
      // shared host starts late and runs slower.
      Clock::time_point Started = Clock::now();
      while (Started < Due)
        Started = Clock::now();
      publish(Rotation.Images[I % Count]);
      const Clock::time_point Visible = Clock::now();
      // The open-loop lateness is kept apart from the publish latency:
      // on a shared host, busy threads are descheduled for 5-20 ms
      // several times a second. Each stall would make the next few
      // publishes late, and timed from the due time, p99 would measure
      // the hypervisor.
      LateUs.push_back(1e6 * secondsBetween(Due, Started));
      LatencyUs.push_back(1e6 * secondsBetween(Started, Visible));
      Out.RetiredMax = std::max<std::uint64_t>(Out.RetiredMax,
                                               Service.retiredCount());
    }
    std::this_thread::sleep_until(End);
    Phase.store(ServePhase::Stop, std::memory_order_release);
    ChurnSeconds = secondsBetween(Begin, Clock::now());
  }
  for (std::thread &T : Threads)
    T.join();
  LatencyHistogram Solo, Churn;
  for (const ReaderState &R : Readers) {
    Solo.merge(R.Solo);
    Churn.merge(R.Churn);
    Out.Attempted += R.Attempted;
    Out.Failed += R.Failed;
  }
  Out.SoloP50Ns = Solo.quantile(0.50);
  Out.ChurnP50Ns = Churn.quantile(0.50);
  Out.ChurnP99Ns = Churn.quantile(0.99);
  Out.Lookups = Churn.samples();
  Out.LookupsPerSecond = static_cast<double>(Out.Lookups) / ChurnSeconds;
  Out.Publishes = LatencyUs.size();
  Out.PublishP99Us = percentile(LatencyUs, 0.99);
  Out.PublishLateP99Us = percentile(LateUs, 0.99);
  return Out;
}

//===----------------------------------------------------------------------===//
// Layer probe (traced runs): build, compile and replay each
// selection-point schedule once, each step timed.
//===----------------------------------------------------------------------===//

struct ProbeResult {
  double BuildNsPerOp = 0.0;
  double CompileNsPerOp = 0.0;
  double ReplayNsPerEvent = 0.0;
  std::uint64_t RetainedOps = 0;
};

ProbeResult runProbe(const Setup &S, const PassResult &Pass,
                     SpanRecorder &Rec) {
  SpanRecorder::Scope ProbeSpan(Rec, "probe");
  double BuildNs = 0.0, CompileNs = 0.0, ReplayNs = 0.0;
  std::uint64_t Ops = 0, Events = 0;
  ProbeResult Out;
  Engine E;
  for (std::size_t I = 0; I != S.Panels.size(); ++I) {
    const Panel &P = S.Panels[I];
    for (std::uint64_t Bytes : P.Sizes)
      for (unsigned Alg = 0; Alg != collectiveAlgorithmCount(P.Op); ++Alg) {
        Clock::time_point T0 = Clock::now();
        Schedule Sched;
        {
          SpanRecorder::Scope Span(Rec, "coll.build");
          ScheduleBuilder B(P.SelectProcs);
          if (P.Op == CollectiveOp::Bcast) {
            BcastConfig Config;
            Config.Algorithm = static_cast<BcastAlgorithm>(Alg);
            Config.MessageBytes = Bytes;
            Config.SegmentBytes = Config.Algorithm == BcastAlgorithm::Linear
                                      ? 0
                                      : Pass.Models[I].Bcast.SegmentBytes;
            appendBcast(B, Config);
          } else if (P.Op == CollectiveOp::Allreduce) {
            AllreduceConfig Config;
            Config.Algorithm = static_cast<AllreduceAlgorithm>(Alg);
            Config.MessageBytes = Bytes;
            Config.SegmentBytes = Pass.Models[I].Allreduce.SegmentBytes;
            Config.ComputeSecondsPerByte = P.Plat->ReduceComputePerByte;
            appendAllreduce(B, Config);
          } else {
            AllgatherConfig Config;
            Config.Algorithm = static_cast<AllgatherAlgorithm>(Alg);
            Config.BlockBytes = Bytes;
            appendAllgather(B, Config);
          }
          Sched = B.take();
        }
        Clock::time_point T1 = Clock::now();
        BuildNs += 1e9 * secondsBetween(T0, T1);
        CompiledSchedule CS;
        {
          SpanRecorder::Scope Span(Rec, "mpi.compile");
          CS = compileSchedule(std::move(Sched));
        }
        Clock::time_point T2 = Clock::now();
        CompileNs += 1e9 * secondsBetween(T1, T2);
        Ops += CS.numOps();
        if (P.Op == CollectiveOp::Bcast)
          Out.RetainedOps += CS.numOps(); // interned by the bcast runner
        E.run(CS, *P.Plat, 1); // warm the engine's arena for this shape
        const std::uint64_t EventsBefore = counter(obs::Counter::EngineEvents);
        Clock::time_point T3 = Clock::now();
        {
          SpanRecorder::Scope Span(Rec, "sim.replay");
          E.run(CS, *P.Plat, 2);
        }
        ReplayNs += 1e9 * secondsBetween(T3, Clock::now());
        Events += counter(obs::Counter::EngineEvents) - EventsBefore;
      }
  }
  Out.BuildNsPerOp = Ops ? BuildNs / static_cast<double>(Ops) : 0.0;
  Out.CompileNsPerOp = Ops ? CompileNs / static_cast<double>(Ops) : 0.0;
  Out.ReplayNsPerEvent = Events ? ReplayNs / static_cast<double>(Events) : 0.0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct MetricLine {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, std::uint64_t Attempted, std::uint64_t Failed,
                 const std::vector<MetricLine> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (std::size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

/// The deterministic record of a pass, printed as one `detail` line
/// for the benchmark's own tests (paper anchor, determinism).
void printDetail(const PassResult &Pass,
                 const std::map<std::string, std::uint64_t> &Counts) {
  std::printf("detail {\"panels\": [");
  for (std::size_t I = 0; I != Pass.Panels.size(); ++I) {
    const PanelResult &P = Pass.Panels[I];
    std::printf("%s{\"name\": \"%s\", \"points\": %u, \"near_optimal\": %u, "
                "\"worst_model_deg\": %.17g, \"sum_pred_err\": %.17g, "
                "\"table_hash\": \"%016llx\"}",
                I ? ", " : "", P.Name.c_str(), P.Points, P.NearOptimal,
                P.WorstDeg, P.SumPredErr,
                static_cast<unsigned long long>(P.TableHash));
  }
  std::printf("], \"counts\": {");
  bool First = true;
  for (const auto &[Name, Value] : Counts) {
    std::printf("%s\"%s\": %llu", First ? "" : ", ", Name.c_str(),
                static_cast<unsigned long long>(Value));
    First = false;
  }
  std::printf("}}\n");
}

void qualityMetrics(const PassResult &Pass, std::vector<MetricLine> &Out) {
  unsigned Points = 0, Near = 0;
  double Worst = 0.0, SumErr = 0.0;
  for (const PanelResult &P : Pass.Panels) {
    Points += P.Points;
    Near += P.NearOptimal;
    Worst = std::max(Worst, P.WorstDeg);
    SumErr += P.SumPredErr;
  }
  Out.push_back({"near_optimal_frac", static_cast<double>(Near) / Points,
                 "fraction"});
  Out.push_back({"worst_model_deg", Worst, "fraction"});
  Out.push_back({"mean_pred_err", SumErr / Points, "fraction"});
}

double mib(double KiB) { return KiB / 1024.0; }

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O) || !environmentIsPinned())
    return 2;
  const std::uint64_t BaseSeed = baseSeedFor(O.Seed);

  // Set-up is timed several times at the start and again after every
  // iteration, so its median samples the host across the whole run.
  std::vector<double> SetupSeconds;
  auto timedSetup = [&] {
    const Clock::time_point T0 = Clock::now();
    std::unique_ptr<Setup> Fresh = makeSetup(O);
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    return Fresh;
  };
  std::unique_ptr<Setup> S;
  for (unsigned I = 0; I != SetupRepeats; ++I)
    S = timedSetup();
  std::printf("perfbench: workload=%s seed=%llu base_seed=0x%016llx "
              "trace=%d sweep_threads=%u readers=%u publishers=1 "
              "build=%s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(BaseSeed), O.Trace ? 1 : 0,
              O.Workload == "paper-bcast" ? BcastSweepThreads : 1,
              ReaderThreads, PERFBENCH_BUILD_TYPE);

  // Iterations of (pass, serve slice) fill --seconds. Interleaving the
  // slices with the passes samples the host over the whole run; every
  // timing metric is a median over iterations.
  SpanRecorder Rec;
  const double SliceSeconds = std::min(MaxSliceSeconds, 0.2 * O.Seconds);
  // A traced run makes a warm-up pass, an untraced pass and a traced
  // pass; the last two give trace_overhead_frac under equal warmth.
  const unsigned TracedPass = 2;
  std::vector<PassResult> Results;
  std::vector<SliceResult> Slices;
  std::unique_ptr<ServeRotation> Rotation;
  ProbeResult Probe;
  std::uint64_t Attempted = 0, Failed = 0;
  obs::MetricsSnapshot Before, After;
  const Clock::time_point RunStart = Clock::now();
  double LongestIteration = 0.0;
  for (unsigned I = 0;; ++I) {
    const Clock::time_point IterationStart = Clock::now();
    if (O.Trace && I == TracedPass) {
      obs::setMetricsEnabled(true);
      Rec.setEnabled(true);
      Before = obs::snapshotMetrics();
    }
    Results.push_back(runPass(*S, BaseSeed,
                              S->CacheRoot + "/pass" + std::to_string(I),
                              Rec));
    const PassResult &Pass = Results.back();
    if (O.Trace && I == TracedPass) {
      After = obs::snapshotMetrics();
      Probe = runProbe(*S, Pass, Rec);
    }
    double PrepSeconds = 0.0; // one-off, not part of an iteration
    if (!Rotation) {
      const Clock::time_point PrepStart = Clock::now();
      Rotation = std::make_unique<ServeRotation>(prepareServe(*S, Pass));
      PrepSeconds = secondsBetween(PrepStart, Clock::now());
    }
    Slices.push_back(runServeSlice(*S, *Rotation, SliceSeconds, Rec));
    const SliceResult &Slice = Slices.back();
    Attempted += Pass.Attempted + Slice.Attempted;
    Failed += Pass.Failed + Slice.Failed;
    std::printf("perfbench: iteration %u pipeline_s=%.3f oracle_s=%.3f "
                "lookups=%llu solo_p50_ns=%.1f churn_p50_ns=%.1f "
                "publishes=%llu publish_p99_us=%.1f "
                "publish_late_p99_us=%.3f\n",
                I, Pass.PipelineSeconds, Pass.OracleSeconds,
                static_cast<unsigned long long>(Slice.Lookups),
                Slice.SoloP50Ns, Slice.ChurnP50Ns,
                static_cast<unsigned long long>(Slice.Publishes),
                Slice.PublishP99Us,
                Slice.PublishLateP99Us);
    std::fflush(stdout);
    for (unsigned K = 0; K != SetupRepeatsBetween; ++K)
      timedSetup();
    LongestIteration =
        std::max(LongestIteration,
                 secondsBetween(IterationStart, Clock::now()) - PrepSeconds);
    if (O.Trace ? I == TracedPass
                : secondsBetween(RunStart, Clock::now()) + LongestIteration >
                      O.Seconds)
      break;
  }
  bool Agree = true;
  for (const PassResult &R : Results)
    Agree = Agree && R.sameOutcome(Results.front());
  if (!Agree)
    std::fprintf(stderr, "perfbench: passes at one seed disagree\n");
  std::error_code Ignored;
  std::filesystem::remove_all(S->CacheRoot, Ignored);

  auto sliceMedian = [&](double SliceResult::*Field) {
    std::vector<double> Values;
    for (const SliceResult &Slice : Slices)
      Values.push_back(Slice.*Field);
    return median(std::move(Values));
  };
  std::vector<MetricLine> Metrics;
  std::map<std::string, std::uint64_t> Counts;
  const PassResult &Last = Results.back();
  if (!O.Trace) {
    std::vector<double> Pipeline, Oracle;
    for (const PassResult &R : Results) {
      Pipeline.push_back(R.PipelineSeconds);
      Oracle.push_back(R.OracleSeconds);
    }
    Metrics.push_back({"setup_s", median(SetupSeconds), "s"});
    Metrics.push_back({"pipeline_s", median(Pipeline), "s"});
    Metrics.push_back({"oracle_s", median(Oracle), "s"});
    Metrics.push_back(
        {"peak_rss_mib", mib(static_cast<double>(obs::peakRssKiB())), "MiB"});
    qualityMetrics(Results.front(), Metrics);
    Metrics.push_back(
        {"lookup_p50_ns", sliceMedian(&SliceResult::ChurnP50Ns), "ns"});
    Metrics.push_back(
        {"lookup_p99_ns", sliceMedian(&SliceResult::ChurnP99Ns), "ns"});
    Metrics.push_back(
        {"lookups_per_s", sliceMedian(&SliceResult::LookupsPerSecond), "1/s"});
    Metrics.push_back(
        {"publish_p99_us", sliceMedian(&SliceResult::PublishP99Us), "us"});
  } else {
    auto delta = [&](obs::Counter C) {
      return static_cast<double>(After.counter(C) - Before.counter(C));
    };
    auto ratio = [](double Num, double Den) { return Den ? Num / Den : 0.0; };
    const std::map<std::string, SpanTotals> Spans = Rec.totals();
    auto total = [&](const char *Name) {
      auto It = Spans.find(Name);
      return It == Spans.end() ? 0.0 : It->second.TotalSeconds;
    };
    auto meanSpan = [&](const char *Name) {
      auto It = Spans.find(Name);
      return It == Spans.end() || !It->second.Count
                 ? 0.0
                 : It->second.TotalSeconds / It->second.Count;
    };
    std::vector<double> PointMs;
    if (auto It = Spans.find("model.oracle_point"); It != Spans.end())
      for (double D : It->second.Durations)
        PointMs.push_back(1e3 * D);
    const double Replays = delta(obs::Counter::EngineReplays);
    const double InternBuilds = delta(obs::Counter::InternBuilds);
    const double InternHits = delta(obs::Counter::InternHits);
    Metrics = {
        {"model.calibrate_s", total("model.calibrate"), "s"},
        {"model.table_build_ms", 1e3 * total("model.table_build"), "ms"},
        {"model.oracle_point_ms_p50", median(PointMs), "ms"},
        {"model.oracle_point_ms_max", percentile(PointMs, 1.0), "ms"},
        {"audit.audit_ms", 1e3 * total("audit"), "ms"},
        {"audit.checks", delta(obs::Counter::AuditChecks), "count"},
        {"audit.violations", delta(obs::Counter::AuditViolations), "count"},
        {"serve.image_compile_us", 1e6 * meanSpan("serve.image_compile"),
         "us"},
        {"serve.image_validate_us", 1e6 * meanSpan("serve.image_validate"),
         "us"},
        {"serve.image_bytes", Rotation->MeanImageBytes, "bytes"},
        {"serve.publish_us", 1e6 * meanSpan("serve.publish"), "us"},
        {"serve.publish_late_p99_us", Slices.back().PublishLateP99Us, "us"},
        {"serve.retired_max", static_cast<double>(Slices.back().RetiredMax),
         "count"},
        {"serve.lookup_solo_ns", Slices.back().SoloP50Ns, "ns"},
        {"serve.hit_frac",
         ratio(static_cast<double>(obs::snapshotMetrics().counter(
                   obs::Counter::ServeHits)),
               static_cast<double>(obs::snapshotMetrics().counter(
                   obs::Counter::ServeLookups))),
         "fraction"},
        {"stat.reps_per_measure",
         ratio(static_cast<double>(Last.Layers.OracleReplays),
               static_cast<double>(Last.Layers.OracleMeasures)),
         "count"},
        {"stat.converged_frac",
         ratio(static_cast<double>(Last.Layers.ConvergedMeasures),
               static_cast<double>(Last.Layers.ConvergenceSamples)),
         "fraction"},
        {"support.pool_tasks", delta(obs::Counter::PoolTasks), "count"},
        {"support.pool_steals", delta(obs::Counter::PoolSteals), "count"},
        {"sim.replays", Replays, "count"},
        {"sim.events", delta(obs::Counter::EngineEvents), "count"},
        {"sim.arena_reuse_frac",
         ratio(delta(obs::Counter::EngineArenaReuses), Replays), "fraction"},
        {"coll.build_ns_per_op", Probe.BuildNsPerOp, "ns"},
        {"mpi.compile_ns_per_op", Probe.CompileNsPerOp, "ns"},
        {"sim.replay_ns_per_event", Probe.ReplayNsPerEvent, "ns"},
        {"mpi.intern_builds", InternBuilds, "count"},
        {"mpi.intern_hit_frac", ratio(InternHits, InternHits + InternBuilds),
         "fraction"},
        {"mpi.retained_ops", static_cast<double>(Probe.RetainedOps), "count"},
        {"obs.rss_after_calibrate_mib", mib(Last.Layers.RssAfterCalibrateKiB),
         "MiB"},
        {"obs.rss_after_oracle_mib", mib(Last.Layers.RssAfterOracleKiB),
         "MiB"},
        {"trace_overhead_frac",
         Last.WallSeconds / Results[TracedPass - 1].WallSeconds - 1.0,
         "fraction"},
    };
    for (const char *Name : {"sim.replays", "sim.events", "mpi.intern_builds",
                             "audit.checks", "audit.violations",
                             "mpi.retained_ops"})
      for (const MetricLine &M : Metrics)
        if (M.Name == Name)
          Counts[Name] = static_cast<std::uint64_t>(M.Value);
    for (const auto &[Name, T] : Spans)
      std::printf("span %-22s count=%-6u total_ms=%-12.3f self_ms=%.3f\n",
                  Name.c_str(), T.Count, 1e3 * T.TotalSeconds,
                  1e3 * T.SelfSeconds);
    const std::string TracePath = O.WorkDir + "/trace-" + O.Workload +
                                  "-seed" + std::to_string(O.Seed) + ".json";
    if (Rec.write(TracePath))
      std::printf("perfbench: spans written to %s\n", TracePath.c_str());
  }
  printDetail(Results.front(), Counts);
  printResult(Failed == 0 && Agree, Attempted, Failed, Metrics);
  return 0;
}
