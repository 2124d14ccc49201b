//===- bench/extension_allreduce.cpp - Beyond MPI_Bcast: allreduce ---------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The journal version of the source paper (arXiv:2004.11062) extends
// the implementation-derived modelling to the symmetric collectives.
// This bench runs the full recipe -- gamma, per-algorithm (alpha,
// beta) from collective experiments, model argmin -- for
// MPI_Allreduce (recursive doubling / ring / reduce+bcast) and
// MPI_Allgather (ring / recursive doubling / neighbor exchange) on
// both simulated clusters, and compares the model-based selection AND
// Open MPI's fixed decision rules against the measured best algorithm
// at every size. The near-optimal counts and worst degradations land
// in the --json record, gated in CI against the committed
// bench/baselines/BENCH_extension_allreduce.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/Selection.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace mpicsel;
using namespace mpicsel::bench;

namespace {

/// Deterministic per-panel gate quantities (the degradations are
/// simulator outputs, bit-stable across hosts).
struct PanelSummary {
  unsigned ModelNearOptimal = 0;
  unsigned OmpiNearOptimal = 0;
  unsigned Points = 0;
  double WorstModel = 0.0;
  double WorstOmpi = 0.0;

  void add(double Best, double Model, double Ompi) {
    const double ModelDeg = Model / Best - 1.0;
    const double OmpiDeg = Ompi / Best - 1.0;
    ++Points;
    ModelNearOptimal += ModelDeg <= 0.10;
    OmpiNearOptimal += OmpiDeg <= 0.10;
    WorstModel = std::max(WorstModel, ModelDeg);
    WorstOmpi = std::max(WorstOmpi, OmpiDeg);
  }
};

AdaptiveOptions measureOptions(bool Quick) {
  AdaptiveOptions Options;
  if (Quick) {
    Options.MinReps = 3;
    Options.MaxReps = 8;
  }
  return Options;
}

/// Calibrates the collective of \p AlgT with the paper's setup and
/// prints the oracle's verdict for \p SelectProcs ranks at the sizes
/// MinBytes..MaxBytes, doubling (column \p SizeName).
template <typename AlgT>
PanelSummary runPanel(const char *OpName, const char *SizeName,
                      std::uint64_t MinBytes, std::uint64_t MaxBytes,
                      const Platform &Plat, unsigned SelectProcs, bool Quick,
                      bool Csv) {
  const CalibrationOptions Options = paperCalibrationOptions(Plat, Quick);
  const CollectiveModels<AlgT> Models =
      calibrateCollective<AlgT>(Plat, Options);
  const AdaptiveOptions Measure = measureOptions(Quick);
  auto name = [](AlgT Alg) {
    return collectiveAlgorithmName(CollectiveDescriptor<AlgT>::Op,
                                   static_cast<unsigned>(Alg));
  };

  Table T({SizeName, "best", "t(best)", "model (%)", "ompi (%)"});
  T.setTitle(strFormat("%s on %s, P = %u (calibrated at %u)", OpName,
                       Plat.Name.c_str(), SelectProcs, Options.NumProcs));
  PanelSummary S;
  for (std::uint64_t Bytes = MinBytes; Bytes <= MaxBytes; Bytes *= 2) {
    const CollectiveSelectionPoint<AlgT> Pt =
        evaluateSelectionPoint(Plat, SelectProcs, Bytes, Models, Measure);
    const double Best = Pt.BestTime, Model = Pt.ModelChoiceTime,
                 Ompi = Pt.OmpiChoiceTime;
    S.add(Best, Model, Ompi);
    T.addRow({formatBytes(Bytes), name(Pt.Best), formatSeconds(Best),
              strFormat("%s (%.0f)", name(Pt.ModelChoice),
                        (Model / Best - 1.0) * 100),
              strFormat("%s (%.0f)", name(Pt.OmpiChoice.Algorithm),
                        (Ompi / Best - 1.0) * 100)});
  }
  if (Csv)
    std::fputs(T.renderCsv().c_str(), stdout);
  else
    T.print();
  std::printf("model-based near-optimal (<=10%%) at %u/%u sizes (worst "
              "%s); Open MPI at %u/%u (worst %s)\n\n",
              S.ModelNearOptimal, S.Points,
              formatPercent(S.WorstModel).c_str(), S.OmpiNearOptimal,
              S.Points, formatPercent(S.WorstOmpi).c_str());
  return S;
}

void reportPanel(BenchReporter &Report, const std::string &Key,
                 const PanelSummary &S) {
  Report.metric("model_near_optimal_" + Key, S.ModelNearOptimal);
  Report.metric("ompi_near_optimal_" + Key, S.OmpiNearOptimal);
  Report.metric("points_" + Key, S.Points);
  Report.metric("worst_model_deg_" + Key, S.WorstModel);
  Report.metric("worst_ompi_deg_" + Key, S.WorstOmpi);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Csv = false;
  std::string JsonPath;
  CommandLine Cli("Extension: the paper's selection method applied to "
                  "MPI_Allreduce and MPI_Allgather on both clusters, "
                  "with Open MPI's fixed rules as the baseline.");
  Cli.addFlag("quick", "fewer repetitions per measurement", Quick);
  Cli.addFlag("csv", "emit CSV instead of tables", Csv);
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);
  BenchReporter::countWork();

  banner("Extension: model-based selection for MPI_Allreduce / "
         "MPI_Allgather vs Open MPI fixed rules");

  BenchReporter Report("extension_allreduce");
  Report.info("mode", Quick ? "quick" : "full");
  for (const Platform &Plat : {makeGrisou(), makeGros()}) {
    const unsigned SelectProcs = Plat.Name == "gros" ? 100 : 90;
    const std::string Key =
        strFormat("%s_p%u", Plat.Name.c_str(), SelectProcs);
    reportPanel(Report, "allreduce_" + Key,
                runPanel<AllreduceAlgorithm>("MPI_Allreduce", "m", 8 * 1024,
                                             4 * 1024 * 1024, Plat,
                                             SelectProcs, Quick, Csv));
    reportPanel(Report, "allgather_" + Key,
                runPanel<AllgatherAlgorithm>("MPI_Allgather", "block", 1024,
                                             64 * 1024, Plat, SelectProcs,
                                             Quick, Csv));
  }

  Report.peakRss();
  Report.workCounts();

  std::printf("The paper's Sect. 6 follow-up, measured: the same gamma +\n"
              "collective-experiment calibration selects allreduce and\n"
              "allgather algorithms; the per-size gap to Open MPI's fixed\n"
              "rules above is the committed baseline.\n");
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
