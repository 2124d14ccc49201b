//===- tools/schedlint.cpp - Static lint of all collective schedules ------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
//
// Sweeps every registered collective algorithm across a grid of
// communicator sizes, message sizes and segment sizes, runs the static
// verifier (verify/Verifier.h) on each generated schedule together
// with the collective's contract, and prints a findings table. A clean
// tree prints one summary line per collective and exits 0; any finding
// (error, warning or lint) is listed with its operation id and makes
// the exit status 1, so the tool can gate CI.
//
// The grid intentionally includes the paper's decision-function
// boundary sizes (2 KB, 370728 B) and a non-power-of-two, prime
// communicator size (51) to exercise the tree builders' remainder
// handling.
//
// --jobs N fans the grid cells over the helper thread pool
// (stat/ParallelSweep.h): each cell accumulates into its own Sweep
// and the results are merged in grid order, so the findings table
// and the exit status are identical for any job count.
//
// Every grid point is compiled exactly once and that one
// CompiledSchedule serves every analysis pass: the static verifier
// reads its op rows and CSR dependency arrays directly (a compiled
// schedule is a Schedule plus derived tables) and the fault pass
// replays it in a per-worker Engine -- what gets verified is
// byte-for-byte what gets executed.
//
//===----------------------------------------------------------------------===//

#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Barrier.h"
#include "coll/Bcast.h"
#include "coll/Collective.h"
#include "coll/Gather.h"
#include "coll/Reduce.h"
#include "coll/Scatter.h"
#include "fault/Fault.h"
#include "mpi/CompiledSchedule.h"
#include "obs/Journal.h"
#include "sim/Engine.h"
#include "stat/ParallelSweep.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"
#include "verify/Verifier.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

using namespace mpicsel;

namespace {

/// Accumulated sweep state: finding rows plus counters. One instance
/// per grid cell under --jobs; mergeable in grid order.
struct Sweep {
  Sweep() = default;
  explicit Sweep(bool ListCleanRows) : ListClean(ListCleanRows) {}

  /// Verifies the compiled form of one grid point against \p C (via
  /// its op rows and CSR dependency arrays) and records the outcome.
  void check(const CompiledSchedule &CS, const ScheduleContract &C,
             unsigned P) {
    ++Schedules;
    VerifyReport Report = verifySchedule(CS, &C);
    TotalFindings += static_cast<unsigned>(Report.Findings.size());
    if (!Report.Findings.empty())
      for (const VerifyFinding &F : Report.Findings)
        Rows.push_back({C.Name, strFormat("%u", P),
                        strFormat("%zu", Report.Findings.size()),
                        severityName(F.Sev), F.str()});
    else if (ListClean)
      Rows.push_back({C.Name, strFormat("%u", P), "0", "", "clean"});
    checkUnderFaults(CS, C, P, Report);
  }

  /// Fault mode: replays the same compiled schedule under the
  /// injected fault scenario and cross-checks completion against the
  /// static deadlock verdict -- stalls and stragglers may slow a
  /// schedule arbitrarily but must never wedge one the verifier
  /// proved deadlock-free.
  void checkUnderFaults(const CompiledSchedule &CS, const ScheduleContract &C,
                        unsigned P, const VerifyReport &Report) {
    if (!Faults)
      return;
    ++FaultRuns;
    Platform Plat = makeTestPlatform((P + 1) / 2, 2);
    thread_local Engine WorkerEngine;
    const ExecutionResult &R = WorkerEngine.run(CS, Plat, /*Seed=*/1, Faults);
    bool ExpectComplete = !Report.deadlocks();
    if (R.Completed == ExpectComplete)
      return;
    ++TotalFindings;
    Rows.push_back(
        {C.Name, strFormat("%u", P), "1", "error",
         strFormat("under faults '%s': engine %s but verifier says %s (%s)",
                   Faults->name().c_str(),
                   R.Completed ? "completed" : "wedged",
                   ExpectComplete ? "deadlock-free" : "deadlocked",
                   R.Diagnostic.empty() ? "no diagnostic"
                                        : R.Diagnostic.c_str())});
  }

  /// Appends \p Other's rows and counters (serial, in grid order).
  void merge(const Sweep &Other) {
    Rows.insert(Rows.end(), Other.Rows.begin(), Other.Rows.end());
    Schedules += Other.Schedules;
    FaultRuns += Other.FaultRuns;
    TotalFindings += Other.TotalFindings;
  }

  std::vector<std::vector<std::string>> Rows;
  bool ListClean = false;
  const FaultSchedule *Faults = nullptr;
  unsigned Schedules = 0;
  unsigned FaultRuns = 0;
  unsigned TotalFindings = 0;
};

/// Checks one standalone collective schedule; every analysis pass
/// reads the same CompiledSchedule.
template <typename AppendFn>
void checkOne(Sweep &SW, unsigned P, const ScheduleContract &C,
              AppendFn Append) {
  ScheduleBuilder B(P);
  Append(B);
  SW.check(compileSchedule(B.take()), C, P);
}

} // namespace

int main(int Argc, char **Argv) {
  bool ListClean = false;
  bool Csv = false;
  std::uint64_t MaxBytes = 16ull * 1024 * 1024;
  std::string ProcsFlag = "2,4,8,16,51";
  std::string AlgsFlag;
  std::string FaultsFlag;
  std::int64_t Jobs = 1;

  CommandLine Cli("Statically verify every registered collective algorithm "
                  "across a (P, message, segment) grid; exit 1 on findings.");
  Cli.addFlag("list-clean", "also list schedules with zero findings",
              ListClean);
  Cli.addFlag("csv", "emit the table as CSV", Csv);
  Cli.addByteSizeFlag("max-bytes", "largest message size swept", MaxBytes);
  Cli.addFlag("procs", "comma-separated communicator sizes", ProcsFlag);
  Cli.addFlag("algs",
              "restrict the sweep to these collectives: comma-separated "
              "'op' or 'op:algorithm' tokens spelled exactly as documented "
              "in coll/Collective.h (unknown names are a usage error); "
              "barrier and gather sweep only when no filter is given",
              AlgsFlag);
  Cli.addFlag("faults",
              "also execute each schedule under this fault scenario "
              "(name[:seed]) and require deadlock-freedom",
              FaultsFlag);
  Cli.addFlag("jobs",
              "worker threads sweeping the grid (0 = MPICSEL_THREADS); "
              "output is identical for any job count",
              Jobs);
  std::string MetricsPath;
  Cli.addFlag("metrics",
              "write a JSONL run journal to this path ('stderr' for the "
              "terminal; overrides MPICSEL_METRICS)",
              MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 2;
  obs::initObservability(MetricsPath);

  FaultSchedule FaultScenario;
  if (!FaultsFlag.empty()) {
    std::string Name = FaultsFlag;
    std::uint64_t FaultSeed = 0;
    if (size_t Colon = FaultsFlag.find(':'); Colon != std::string::npos) {
      Name = FaultsFlag.substr(0, Colon);
      char *End = nullptr;
      std::string SeedText = FaultsFlag.substr(Colon + 1);
      // Reject signs before strtoull: "-1" would wrap to ULLONG_MAX
      // without setting errno. ERANGE catches values past 2^64-1.
      if (!SeedText.empty() && (SeedText[0] == '-' || SeedText[0] == '+')) {
        std::fprintf(stderr,
                     "error: fault seed must be a non-negative integer "
                     "in '%s'\n",
                     FaultsFlag.c_str());
        return 2;
      }
      errno = 0;
      FaultSeed = std::strtoull(SeedText.c_str(), &End, 0);
      if (End == SeedText.c_str() || *End != '\0') {
        std::fprintf(stderr, "error: malformed fault seed in '%s'\n",
                     FaultsFlag.c_str());
        return 2;
      }
      if (errno == ERANGE) {
        std::fprintf(stderr,
                     "error: fault seed out of range (must fit in 64 "
                     "bits) in '%s'\n",
                     FaultsFlag.c_str());
        return 2;
      }
    }
    if (!isFaultScenarioName(Name)) {
      std::string Known;
      for (const std::string &S : faultScenarioNames())
        Known += (Known.empty() ? "" : ", ") + S;
      std::fprintf(stderr,
                   "error: unknown fault scenario '%s' (known: %s)\n",
                   Name.c_str(), Known.c_str());
      return 2;
    }
    FaultScenario = makeFaultScenario(Name, FaultSeed);
  }

  // --algs filter: bit I of AlgsAllowed[op] says whether algorithm
  // ordinal I of that registry collective is swept. Spellings resolve
  // through coll/Collective.h -- the one place they are documented --
  // and anything the registry parsers reject is a usage error.
  std::array<std::uint32_t, NumCollectiveOps> AlgsAllowed;
  AlgsAllowed.fill(AlgsFlag.empty() ? ~0u : 0u);
  for (std::size_t Pos = 0; !AlgsFlag.empty() && Pos <= AlgsFlag.size();) {
    std::size_t Comma = AlgsFlag.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = AlgsFlag.size();
    const std::string Token = AlgsFlag.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    const std::size_t Colon = Token.find(':');
    const std::optional<CollectiveOp> Op =
        parseCollectiveOp(Token.substr(0, Colon));
    std::optional<unsigned> Alg;
    if (Op && Colon != std::string::npos)
      Alg = parseCollectiveAlgorithm(*Op, Token.substr(Colon + 1));
    if (!Op || (Colon != std::string::npos && !Alg)) {
      std::fprintf(stderr,
                   "error: --algs: unknown %s '%s'; accepted spellings "
                   "(coll/Collective.h):\n",
                   Op ? "algorithm" : "collective", Token.c_str());
      for (CollectiveOp O : AllCollectiveOps) {
        std::string Names;
        for (unsigned I = 0; I != collectiveAlgorithmCount(O); ++I)
          Names += std::string(I ? ", " : "") + collectiveAlgorithmName(O, I);
        std::fprintf(stderr, "  %-10s %s\n", collectiveOpName(O),
                     Names.c_str());
      }
      return 2;
    }
    if (Alg)
      AlgsAllowed[static_cast<unsigned>(*Op)] |= 1u << *Alg;
    else
      AlgsAllowed[static_cast<unsigned>(*Op)] =
          (1u << collectiveAlgorithmCount(*Op)) - 1;
  }
  const bool SweepAllOps = AlgsFlag.empty();
  const auto Sweeps = [&AlgsAllowed](CollectiveOp Op, unsigned Ordinal) {
    return ((AlgsAllowed[static_cast<unsigned>(Op)] >> Ordinal) & 1u) != 0;
  };

  std::vector<unsigned> Procs;
  for (std::size_t Pos = 0; Pos <= ProcsFlag.size();) {
    std::size_t Comma = ProcsFlag.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ProcsFlag.size();
    std::string Token = ProcsFlag.substr(Pos, Comma - Pos);
    unsigned P = 0;
    for (char C : Token) {
      if (C < '0' || C > '9') {
        P = 0;
        break;
      }
      P = P * 10 + static_cast<unsigned>(C - '0');
    }
    if (Token.empty() || P == 0) {
      std::fprintf(stderr,
                   "error: --procs expects comma-separated counts >= 1, "
                   "got '%s'\n",
                   ProcsFlag.c_str());
      return 2;
    }
    Procs.push_back(P);
    Pos = Comma + 1;
  }

  // Message grid: powers spanning eager to bulk, plus the Open MPI
  // decision-function thresholds. Segment grid: unsegmented plus the
  // segment sizes the decision function can select.
  std::vector<std::uint64_t> Messages;
  for (std::uint64_t M : {8ull, 2047ull, 2048ull, 65536ull, 370728ull,
                          1048576ull, 16ull * 1024 * 1024})
    if (M <= MaxBytes)
      Messages.push_back(M);
  const std::uint64_t Segments[] = {0, 8 * 1024, 64 * 1024, 128 * 1024};

  // One grid cell per (P, message) -- every segment and collective of
  // that cell runs inside it -- plus one barrier cell per P, in the
  // same order as the historical serial nest. Each cell fills its own
  // Sweep and the results merge in index order, so any job count
  // produces the same table and exit status.
  struct Cell {
    unsigned P = 0;
    std::uint64_t M = 0;
    bool Barrier = false;
  };
  std::vector<Cell> Cells;
  for (unsigned P : Procs) {
    for (std::uint64_t M : Messages)
      Cells.push_back({P, M, false});
    Cells.push_back({P, 0, true});
  }

  const auto Start = std::chrono::steady_clock::now();
  const unsigned Threads = resolveSweepThreads(
      Jobs < 0 ? 1u : static_cast<unsigned>(Jobs));
  std::vector<Sweep> CellSweeps = sweepIndexed<Sweep>(
      Threads, Cells.size(), [&](std::size_t Index) {
        const Cell &C = Cells[Index];
        Sweep SW(ListClean);
        if (!FaultScenario.empty())
          SW.Faults = &FaultScenario;
        if (C.Barrier) {
          if (SweepAllOps)
            checkOne(SW, C.P, barrierContract(C.P),
                     [&](ScheduleBuilder &B) { appendBarrier(B, /*Tag=*/0); });
          return SW;
        }
        const unsigned P = C.P;
        const std::uint64_t M = C.M;
        for (std::uint64_t Seg : Segments) {
          for (BcastAlgorithm Alg : AllBcastAlgorithms) {
            if (!Sweeps(CollectiveOp::Bcast, static_cast<unsigned>(Alg)))
              continue;
            BcastConfig Config;
            Config.Algorithm = Alg;
            Config.MessageBytes = M;
            Config.SegmentBytes = Seg;
            checkOne(SW, P, bcastContract(Config, P),
                     [&](ScheduleBuilder &B) { appendBcast(B, Config); });
          }
          for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
            if (!Sweeps(CollectiveOp::Reduce, static_cast<unsigned>(Alg)))
              continue;
            ReduceConfig Config;
            Config.Algorithm = Alg;
            Config.MessageBytes = M;
            Config.SegmentBytes = Seg;
            checkOne(SW, P, reduceContract(Config, P),
                     [&](ScheduleBuilder &B) { appendReduce(B, Config); });
          }
        }
        // Unsegmented collectives: sweep message sizes only.
        for (bool Sync : {false, true}) {
          if (!SweepAllOps)
            break;
          GatherConfig Config;
          Config.BlockBytes = M;
          Config.Synchronised = Sync;
          checkOne(SW, P, gatherContract(Config, P),
                   [&](ScheduleBuilder &B) { appendLinearGather(B, Config); });
        }
        for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
          if (!Sweeps(CollectiveOp::Scatter, static_cast<unsigned>(Alg)))
            continue;
          ScatterConfig Config;
          Config.Algorithm = Alg;
          Config.BlockBytes = M;
          checkOne(SW, P, scatterContract(Config, P),
                   [&](ScheduleBuilder &B) { appendScatter(B, Config); });
        }
        for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
          if (!Sweeps(CollectiveOp::Allgather, static_cast<unsigned>(Alg)))
            continue;
          AllgatherConfig Config;
          Config.Algorithm = Alg;
          Config.BlockBytes = M;
          checkOne(SW, P, allgatherContract(Config, P),
                   [&](ScheduleBuilder &B) { appendAllgather(B, Config); });
        }
        for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
          if (!Sweeps(CollectiveOp::Allreduce, static_cast<unsigned>(Alg)))
            continue;
          AllreduceConfig Config;
          Config.Algorithm = Alg;
          Config.MessageBytes = M;
          checkOne(SW, P, allreduceContract(Config, P),
                   [&](ScheduleBuilder &B) { appendAllreduce(B, Config); });
        }
        return SW;
      });

  Sweep SW(ListClean);
  for (const Sweep &CellSweep : CellSweeps)
    SW.merge(CellSweep);
  const double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  {
    obs::Journal &J = obs::Journal::global();
    if (J.enabled()) {
      JsonObject Event = J.line("schedlint");
      Event.set("schedules", SW.Schedules);
      Event.set("fault_runs", SW.FaultRuns);
      Event.set("findings", SW.TotalFindings);
      Event.set("jobs", Threads);
      Event.set("seconds", Elapsed);
      J.write(Event);
    }
  }

  if (!SW.Rows.empty()) {
    Table Findings({"collective", "P", "findings", "worst", "diagnostic"});
    for (const std::vector<std::string> &Row : SW.Rows)
      Findings.addRow(Row);
    if (Csv)
      std::fputs(Findings.renderCsv().c_str(), stdout);
    else
      Findings.print();
  }
  if (SW.FaultRuns != 0)
    std::printf("schedlint: %u schedules verified, %u executed under "
                "faults '%s', %u findings, %.2fs with %u job(s)\n",
                SW.Schedules, SW.FaultRuns, FaultScenario.name().c_str(),
                SW.TotalFindings, Elapsed, Threads);
  else
    std::printf("schedlint: %u schedules verified, %u findings, "
                "%.2fs with %u job(s)\n",
                SW.Schedules, SW.TotalFindings, Elapsed, Threads);
  return SW.TotalFindings == 0 ? 0 : 1;
}
