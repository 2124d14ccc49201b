//===- bench/fig5_selection.cpp - Reproduce paper Fig. 5 -------------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Paper Fig. 5: "Comparison of the selection accuracy of the Open MPI
// decision function and the proposed model-based method for
// MPI_Bcast" -- six panels: Grisou with P = 50, 80, 90 and Gros with
// P = 80, 100, 124; broadcast time vs message size (8 KB..4 MB) for
//   * the algorithm picked by the Open MPI fixed decision function
//     (blue in the paper; glyph 'o' here),
//   * the algorithm picked by the model-based method (red; 'm'),
//   * the a-posteriori best algorithm (green; 'b').
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/Selection.h"
#include "support/AsciiChart.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace mpicsel;
using namespace mpicsel::bench;

namespace {

struct PanelSummary {
  double WorstModel = 0.0;
  double WorstOmpi = 0.0;
  double MeanModel = 0.0;
  double MeanOmpi = 0.0;
};

PanelSummary runPanel(const Platform &Plat, unsigned NumProcs,
                      const CalibratedModels &Models, bool Csv) {
  std::vector<double> X, Best, Model, Ompi;
  Table T({"m", "best alg", "best", "model alg", "model", "deg",
           "ompi alg", "ompi", "deg"});
  T.setTitle(strFormat("Fig. 5 panel: %s, P = %u", Plat.Name.c_str(),
                       NumProcs));
  PanelSummary Summary;
  unsigned Points = 0;
  for (std::uint64_t MessageBytes : paperMessageSizes()) {
    SelectionPoint Pt =
        evaluateSelectionPoint(Plat, NumProcs, MessageBytes, Models);
    X.push_back(static_cast<double>(MessageBytes));
    Best.push_back(Pt.BestTime);
    Model.push_back(Pt.ModelChoiceTime);
    Ompi.push_back(Pt.OmpiChoiceTime);
    Summary.WorstModel = std::max(Summary.WorstModel, Pt.modelDegradation());
    Summary.WorstOmpi = std::max(Summary.WorstOmpi, Pt.ompiDegradation());
    Summary.MeanModel += Pt.modelDegradation();
    Summary.MeanOmpi += Pt.ompiDegradation();
    ++Points;
    T.addRow({formatBytes(MessageBytes), bcastAlgorithmName(Pt.Best),
              formatSeconds(Pt.BestTime),
              bcastAlgorithmName(Pt.ModelChoice),
              formatSeconds(Pt.ModelChoiceTime),
              formatPercent(Pt.modelDegradation()),
              bcastAlgorithmName(Pt.OmpiChoice.Algorithm),
              formatSeconds(Pt.OmpiChoiceTime),
              formatPercent(Pt.ompiDegradation())});
  }
  if (Csv) {
    std::fputs(T.renderCsv().c_str(), stdout);
  } else {
    AsciiChart Chart(70, 16);
    Chart.setTitle(strFormat("%s, P = %u (time vs message size)",
                             Plat.Name.c_str(), NumProcs));
    Chart.setLogX(true);
    Chart.setLogY(true);
    Chart.setXLabel("message size");
    Chart.addSeries("Open MPI decision function", 'o', X, Ompi);
    Chart.addSeries("model-based selection", 'm', X, Model);
    Chart.addSeries("best algorithm", 'b', X, Best);
    Chart.print();
    T.print();
  }
  if (Points) {
    Summary.MeanModel /= Points;
    Summary.MeanOmpi /= Points;
  }
  std::printf("worst degradation vs best: model-based %s, Open MPI %s\n\n",
              formatPercent(Summary.WorstModel).c_str(),
              formatPercent(Summary.WorstOmpi).c_str());
  return Summary;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Csv = false;
  bool UseCache = false;
  std::string Only;
  std::string JsonPath;
  std::int64_t Threads = 0;
  CommandLine Cli("Reproduces paper Fig. 5: Open MPI vs model-based vs best "
                  "broadcast selection on both clusters.");
  Cli.addFlag("quick", "fewer repetitions per measurement", Quick);
  Cli.addFlag("csv", "emit CSV instead of charts", Csv);
  Cli.addFlag("platform", "restrict to one cluster (grisou|gros)", Only);
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

  banner("Fig. 5: selection accuracy, Open MPI vs model-based vs best");

  BenchReporter Report("fig5_selection");
  Report.info("mode", Quick ? "quick" : "full");
  DecisionCache Cache;
  if (UseCache)
    Report.info("cache_dir", Cache.directory());

  double WorstModel = 0.0, WorstOmpi = 0.0;
  double CalibrationSeconds = 0.0;
  for (const Platform &Plat : {makeGrisou(), makeGros()}) {
    if (!Only.empty() && Plat.Name != Only)
      continue;
    CalibrationRun Run = calibratePaperSetupTimed(
        Plat, Quick, static_cast<unsigned>(Threads),
        UseCache ? &Cache : nullptr);
    CalibrationSeconds += Run.WallSeconds;
    for (unsigned NumProcs : paperSelectionProcs(Plat)) {
      PanelSummary S = runPanel(Plat, NumProcs, Run.Models, Csv);
      WorstModel = std::max(WorstModel, S.WorstModel);
      WorstOmpi = std::max(WorstOmpi, S.WorstOmpi);
      const std::string Panel =
          strFormat("%s_p%u", Plat.Name.c_str(), NumProcs);
      Report.metric("worst_model_deg_" + Panel, S.WorstModel);
      Report.metric("mean_model_deg_" + Panel, S.MeanModel);
      Report.metric("worst_ompi_deg_" + Panel, S.WorstOmpi);
    }
  }

  Report.metric("worst_model_deg", WorstModel);
  Report.metric("worst_ompi_deg", WorstOmpi);
  Report.peakRss();
  Report.workCounts();
  Report.timing("calibration_seconds", CalibrationSeconds);
  Report.timing("cache_hits", Cache.stats().Hits);
  Report.timing("cache_misses", Cache.stats().Misses);

  std::printf("Across all panels: worst model-based degradation %s, worst "
              "Open MPI degradation %s.\n"
              "(Paper: model-based within 3%% on Grisou / 10%% on Gros; "
              "Open MPI up to 160%% on Grisou\nand up to 7297%% on Gros.)\n",
              formatPercent(WorstModel).c_str(),
              formatPercent(WorstOmpi).c_str());
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
