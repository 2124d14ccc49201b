//===- bench/table3_selection.cpp - Reproduce paper Table 3 ----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Paper Table 3: "Comparison of the model-based and Open MPI
// selections with the best performing MPI_Bcast algorithm" -- per
// message size: the best algorithm, the model-based choice and the
// Open MPI choice, each with its performance degradation against the
// best in braces. Two panels: P = 90 on Grisou, P = 100 on Gros.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/Selection.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace mpicsel;
using namespace mpicsel::bench;

namespace {

struct PanelSummary {
  unsigned ModelNearOptimal = 0;
  unsigned OmpiNearOptimal = 0;
  unsigned Points = 0;
  double WorstModel = 0.0;
  double WorstOmpi = 0.0;
};

PanelSummary runPanel(const Platform &Plat, unsigned NumProcs,
                      const CalibratedModels &Models, bool Csv) {
  Table T({"m (KB)", "Best", "Model-based (%)", "Open MPI (%)"});
  T.setTitle(strFormat("P=%u, MPI_Bcast, %s", NumProcs, Plat.Name.c_str()));
  PanelSummary S;
  for (std::uint64_t MessageBytes : paperMessageSizes()) {
    SelectionPoint Pt =
        evaluateSelectionPoint(Plat, NumProcs, MessageBytes, Models);
    ++S.Points;
    S.ModelNearOptimal += Pt.modelDegradation() <= 0.10;
    S.OmpiNearOptimal += Pt.ompiDegradation() <= 0.10;
    S.WorstModel = std::max(S.WorstModel, Pt.modelDegradation());
    S.WorstOmpi = std::max(S.WorstOmpi, Pt.ompiDegradation());
    T.addRow({strFormat("%llu", (unsigned long long)(MessageBytes / 1024)),
              bcastAlgorithmName(Pt.Best),
              strFormat("%s (%.0f)", bcastAlgorithmName(Pt.ModelChoice),
                        Pt.modelDegradation() * 100),
              strFormat("%s (%.0f)",
                        bcastAlgorithmName(Pt.OmpiChoice.Algorithm),
                        Pt.ompiDegradation() * 100)});
  }
  if (Csv)
    std::fputs(T.renderCsv().c_str(), stdout);
  else
    T.print();
  std::printf("model-based near-optimal (<=10%%) at %u/%u sizes "
              "(worst %s); Open MPI at %u/%u (worst %s)\n\n",
              S.ModelNearOptimal, S.Points,
              formatPercent(S.WorstModel).c_str(), S.OmpiNearOptimal,
              S.Points, formatPercent(S.WorstOmpi).c_str());
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Csv = false;
  bool UseCache = false;
  std::string JsonPath;
  std::int64_t Threads = 0;
  CommandLine Cli("Reproduces paper Table 3: per-size selections and "
                  "degradations, P=90 Grisou and P=100 Gros.");
  Cli.addFlag("quick", "fewer repetitions per measurement", Quick);
  Cli.addFlag("csv", "emit CSV instead of tables", Csv);
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  Cli.addFlag("threads", "calibration sweep threads (0 = MPICSEL_THREADS)",
              Threads);
  Cli.addFlag("cache", "memoise calibration in the decision cache",
              UseCache);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);
  BenchReporter::countWork();

  banner("Table 3: selections vs the best performing algorithm");

  BenchReporter Report("table3_selection");
  Report.info("mode", Quick ? "quick" : "full");
  DecisionCache Cache;
  if (UseCache)
    Report.info("cache_dir", Cache.directory());

  double CalibrationSeconds = 0.0;
  const struct {
    Platform Plat;
    unsigned NumProcs;
  } Panels[] = {{makeGrisou(), 90}, {makeGros(), 100}};
  for (const auto &Panel : Panels) {
    CalibrationRun Run = calibratePaperSetupTimed(
        Panel.Plat, Quick, static_cast<unsigned>(Threads),
        UseCache ? &Cache : nullptr);
    CalibrationSeconds += Run.WallSeconds;
    PanelSummary S = runPanel(Panel.Plat, Panel.NumProcs, Run.Models, Csv);
    const std::string Key =
        strFormat("%s_p%u", Panel.Plat.Name.c_str(), Panel.NumProcs);
    Report.metric("model_near_optimal_" + Key, S.ModelNearOptimal);
    Report.metric("ompi_near_optimal_" + Key, S.OmpiNearOptimal);
    Report.metric("points_" + Key, S.Points);
    Report.metric("worst_model_deg_" + Key, S.WorstModel);
    Report.metric("worst_ompi_deg_" + Key, S.WorstOmpi);
  }
  Report.peakRss();
  Report.workCounts();
  Report.timing("calibration_seconds", CalibrationSeconds);
  Report.timing("cache_hits", Cache.stats().Hits);
  Report.timing("cache_misses", Cache.stats().Misses);

  std::printf(
      "Paper reference: on Grisou the model-based choice is within 3%% of\n"
      "the best everywhere while Open MPI degrades up to 160%%; on Gros the\n"
      "model-based choice is within 10%% while Open MPI degrades up to\n"
      "7297%% (chain at 512 KB).\n");
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
