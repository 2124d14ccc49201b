//===- bench/drift_recovery.cpp - Drift sentinel end-to-end recovery ------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The self-healing story behind drift/Drift.h, end to end: a
// `degraded-link` fault window strikes the calibration of exactly one
// algorithm (the one the clean decision table relies on most), so the
// deployed table misroutes the cells that algorithm should win. A
// canary replay sweep on the healthy cluster feeds the sentinel,
// which must (1) trip only the corrupted algorithm's cells, (2)
// quarantine them so the robust selector degrades to the OMPI
// fallback rather than trust a lying model, and (3) repair by
// recalibrating *only* the violated algorithm -- same grid, same
// seeds as the clean pass, so recovery is bit-identical: the patched
// table must equal the clean-run table cell for cell.
//
// Every stage is deterministic (simulated cluster, fixed seeds), so
// the trip/repair/recovery counts are pinned by a committed baseline.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "audit/Audit.h"
#include "drift/Drift.h"
#include "fault/Fault.h"
#include "model/DecisionCache.h"
#include "model/RobustSelector.h"
#include "model/Runner.h"
#include "serve/DecisionService.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace mpicsel;
using namespace mpicsel::bench;

namespace {

CalibrationOptions makeOptions(const Platform &Plat, bool Quick,
                               unsigned Threads) {
  CalibrationOptions Options;
  Options.NumProcs = paperCalibrationProcs(Plat);
  Options.Threads = Threads;
  if (Quick) {
    Options.Adaptive.MinReps = 3;
    Options.Adaptive.MaxReps = 8;
    Options.GammaOptions.Adaptive.MinReps = 3;
    Options.GammaOptions.Adaptive.MaxReps = 8;
  }
  return Options;
}

/// The algorithm the clean table relies on most: the drift victim.
BcastAlgorithm mostWinningAlgorithm(const DecisionTable &T) {
  std::array<unsigned, NumBcastAlgorithms> Wins{};
  for (unsigned Choice : T.Choice)
    ++Wins[Choice];
  unsigned Best = 0;
  for (unsigned I = 1; I != NumBcastAlgorithms; ++I)
    if (Wins[I] > Wins[Best])
      Best = I;
  return static_cast<BcastAlgorithm>(Best);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string PlatformName = "grisou";
  std::string DriftFlag;
  std::int64_t NumProcsFlag = 0;
  std::int64_t Reps = 6;
  std::string TableFile;
  std::string ModelsFile;
  std::string CacheDir;
  std::string JsonPath;
  std::int64_t Threads = 0;

  CommandLine Cli("Drift recovery: corrupt one algorithm's calibration with "
                  "a degraded-link fault window, then let the drift sentinel "
                  "detect, quarantine and repair it back to the clean table.");
  Cli.addFlag("quick", "fewer repetitions per measurement", Quick);
  Cli.addFlag("platform", "cluster to simulate (grisou|gros)", PlatformName);
  Cli.addFlag("drift", "sentinel mode for the sweep (warn|repair; default: "
              "MPICSEL_DRIFT, or repair when that is off/unset)", DriftFlag);
  Cli.addFlag("procs", "replay communicator size (0: paper default)",
              NumProcsFlag);
  Cli.addFlag("reps", "canary replays per (algorithm, size) cell", Reps);
  Cli.addFlag("table-file", "write the deployed table here; the repair "
              "rewrites it atomically", TableFile);
  Cli.addFlag("models-file", "write the patched models here (for modellint)",
              ModelsFile);
  Cli.addFlag("cache-dir", "store the repaired models through a "
              "DecisionCache rooted here (cache churn shows up in the "
              "journal counters)", CacheDir);
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  Cli.addFlag("threads", "calibration sweep threads (0 = MPICSEL_THREADS)",
              Threads);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);
  BenchReporter::countWork();
  // MPICSEL_SERVE=<path>: serve any image already at <path>, then
  // republish (and rewrite the image) on every repair below.
  serve::installServeFromEnv();

  // The flag wins; otherwise MPICSEL_DRIFT picks the mode, except
  // that off/unset falls back to repair -- this bench exists to
  // demonstrate the loop, so "no sentinel" is not a useful mode.
  if (DriftFlag.empty()) {
    const DriftMode Env = driftModeFromEnv();
    DriftFlag = Env == DriftMode::Off ? "repair" : driftModeName(Env);
  }
  const DriftMode Mode = DriftFlag == "warn"     ? DriftMode::Warn
                         : DriftFlag == "repair" ? DriftMode::Repair
                                                 : DriftMode::Off;
  if (Mode == DriftMode::Off) {
    std::fprintf(stderr, "error: --drift must be 'warn' or 'repair'\n");
    return 1;
  }

  Platform Plat = PlatformName == "gros" ? makeGros() : makeGrisou();
  const unsigned NumProcs = NumProcsFlag > 0
                                ? static_cast<unsigned>(NumProcsFlag)
                                : paperSelectionProcs(Plat).back();
  const CalibrationOptions Options =
      makeOptions(Plat, Quick, static_cast<unsigned>(Threads));
  const std::vector<unsigned> TableProcs = paperSelectionProcs(Plat);
  const std::vector<std::uint64_t> Messages = paperMessageSizes();

  banner("Drift recovery: detect, quarantine, repair, recover");

  // Stage 1: the clean world -- what calibration produces when no
  // fault strikes. This is the recovery target.
  CalibrationReport CleanReport;
  CalibratedModels Clean = calibrate(Plat, Options, &CleanReport);
  DecisionTable CleanTable = buildDecisionTable(Clean, TableProcs, Messages);

  const BcastAlgorithm Victim = mostWinningAlgorithm(CleanTable);
  std::printf("victim: '%s' (wins the most cells of the clean table)\n",
              bcastAlgorithmName(Victim));

  // The deployed model set starts as a copy of the clean one; the
  // sentinel is bound to it by address, so the in-place corruption
  // and repair below change what the sentinel predicts with.
  CalibratedModels Deployed = Clean;
  DriftSentinel Sentinel(Mode);
  Sentinel.bindModels(&Deployed);
  ScopedDriftSentinel Install(Sentinel);

  // A canary sweep: replay every algorithm at every paper message
  // size on the healthy cluster, feeding the sentinel through the
  // model/Runner hook. SeedBase varies between sweeps so commissioning
  // and detection see independent noise draws.
  const auto canarySweep = [&](std::uint64_t SeedBase) {
    for (std::size_t AlgIdx = 0; AlgIdx != AllBcastAlgorithms.size();
         ++AlgIdx) {
      const BcastAlgorithm Alg = AllBcastAlgorithms[AlgIdx];
      for (std::size_t SizeIdx = 0; SizeIdx != Messages.size(); ++SizeIdx) {
        BcastConfig Config;
        Config.Algorithm = Alg;
        Config.MessageBytes = Messages[SizeIdx];
        Config.SegmentBytes =
            Alg == BcastAlgorithm::Linear ? 0 : Deployed.SegmentBytes;
        const Experiment Canary = prepareBcast(Plat, NumProcs, Config);
        for (std::int64_t Rep = 0; Rep != Reps; ++Rep)
          Canary.run(SeedBase + 0x10000ull * AlgIdx + 0x100ull * SizeIdx +
                     static_cast<std::uint64_t>(Rep));
      }
    }
  };

  // Stage 2: commissioning -- while the models are still healthy,
  // capture each cell's reference residual profile. The paper's
  // models carry honest per-cell error (they are fitted at the
  // calibration P on canonical patterns), so drift is judged as
  // deviation *from this profile*, not from zero.
  Sentinel.beginReferenceCapture();
  canarySweep(0x5EED0000ull);
  Sentinel.endReferenceCapture();
  std::printf("commissioned: reference residual profile captured over "
              "%zu cells\n", static_cast<std::size_t>(Sentinel.stats().Cells));

  // Stage 3: the corruption -- the victim's stage-2 calibration ran
  // inside a degraded-link window (node 0's links at 8x latency / 4x
  // gap), every other measurement was healthy. The deployed table is
  // rebuilt from the spliced model set.
  {
    const FaultSchedule Window = makeFaultScenario("degraded-link");
    ScopedFaultInjection Injection(Window);
    Deployed.Algorithms[static_cast<unsigned>(Victim)] =
        calibrateSingleAlgorithm(Plat, Options, Deployed.Gamma, Victim);
  }
  DecisionTable DeployedTable = buildDecisionTable(Deployed, TableProcs, Messages);
  const unsigned CorruptCells =
      static_cast<unsigned>(diffDecisionTables(CleanTable, DeployedTable).Changed.size());
  std::printf("corrupt table: %u/%zu cells differ from clean\n\n",
              CorruptCells, CleanTable.Choice.size());
  if (!TableFile.empty() && !writeDecisionTableFile(TableFile, DeployedTable)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", TableFile.c_str());
    return 1;
  }

  // Stage 4: detection -- a second canary sweep (fresh noise draws)
  // on the *healthy* cluster. Every non-victim cell replays its
  // commissioned profile; the victim's predictions now come from the
  // corrupted fit, so only its cells deviate -- and trip.
  canarySweep(0xCA4A0000ull);
  const DriftStats Stats = Sentinel.stats();
  const std::vector<BcastAlgorithm> Tripped = Sentinel.trippedAlgorithms();
  unsigned OffTargetTrips = 0;
  for (const DriftTrip &T : Sentinel.trips())
    if (T.Algorithm != Victim)
      ++OffTargetTrips;
  std::printf("sentinel after the canary sweep:\n%s\n",
              Sentinel.report().c_str());

  // Stage 5: quarantine -- with the victim's cells tripped, the
  // robust selector must refuse every (P, m) region that contains a
  // quarantined prediction and degrade to the OMPI fallback instead.
  unsigned QuarantinedSelections = 0;
  Table Probe({"m", "deployed", "via"});
  Probe.setTitle(strFormat("selection under quarantine (P = %u)", NumProcs));
  for (std::uint64_t M : Messages) {
    RobustDecision RD = selectRobust(Deployed, CleanReport, NumProcs, M);
    if (RD.DriftQuarantined)
      ++QuarantinedSelections;
    Probe.addRow({formatBytes(M), bcastAlgorithmName(RD.Algorithm),
                  RD.DriftQuarantined ? "drift-quarantine"
                  : RD.UsedFallback   ? "ompi-fallback"
                                      : "models"});
  }
  Probe.print();

  // Stage 6: repair -- recalibrate only the violated algorithm (the
  // fault window is over, so the repair measures the healthy
  // platform and must reproduce the clean calibration bit for bit),
  // audit the patch, swap the table atomically.
  std::optional<DecisionCache> Cache;
  if (!CacheDir.empty())
    Cache.emplace(CacheDir);
  DriftRepairReport Repair =
      repairDriftedCells(Plat, Options, Sentinel, Deployed, DeployedTable,
                         Cache ? &*Cache : nullptr, TableFile);
  std::printf("\nrepair: %u tripped cells, %u repaired / %u given up "
              "(%u attempts), %u table cells changed\n",
              Repair.CellsTripped, Repair.AlgorithmsRepaired,
              Repair.AlgorithmsGivenUp, Repair.Attempts,
              Repair.TableCellsChanged);
  if (!ModelsFile.empty() && !writeCalibratedModelsFile(ModelsFile, Deployed)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", ModelsFile.c_str());
    return 1;
  }

  // Stage 7: recovery -- the patched table must equal the clean-run
  // table exactly, and the quarantine must be lifted.
  const bool Recovered = diffDecisionTables(CleanTable, DeployedTable).identical();
  unsigned QuarantinedAfter = 0;
  for (std::uint64_t M : Messages)
    if (selectRobust(Deployed, CleanReport, NumProcs, M).DriftQuarantined)
      ++QuarantinedAfter;
  std::printf("recovered: patched table %s the clean table; "
              "%u selections still quarantined\n",
              Recovered ? "matches" : "DIFFERS FROM", QuarantinedAfter);

  BenchReporter Report("drift_recovery");
  Report.info("mode", Quick ? "quick" : "full");
  Report.info("platform", Plat.Name);
  Report.info("drift", driftModeName(Mode));
  Report.info("victim", bcastAlgorithmName(Victim));
  Report.metric("corrupt_table_cells", CorruptCells);
  Report.metric("trips", Stats.Trips);
  Report.metric("tripped_algorithms", Tripped.size());
  Report.metric("offtarget_trips", OffTargetTrips);
  Report.metric("quarantined_selections", QuarantinedSelections);
  Report.metric("repairs", Repair.AlgorithmsRepaired);
  Report.metric("giveups", Repair.AlgorithmsGivenUp);
  Report.metric("repair_table_cells_changed", Repair.TableCellsChanged);
  Report.metric("recovered", Recovered ? 1.0 : 0.0);
  Report.metric("quarantined_after_repair", QuarantinedAfter);

  const bool StoryHolds =
      Stats.Trips > 0 && OffTargetTrips == 0 &&
      (Mode != DriftMode::Repair ||
       (Repair.AlgorithmsGivenUp == 0 && Recovered && QuarantinedAfter == 0));
  if (!StoryHolds)
    std::printf("\nWARNING: the recovery story did not hold; see metrics.\n");
  Report.peakRss();
  Report.workCounts();
  return Report.writeIfRequested(JsonPath) && StoryHolds ? 0 : 1;
}
