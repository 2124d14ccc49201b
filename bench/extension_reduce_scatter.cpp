//===- bench/extension_reduce_scatter.cpp - Beyond MPI_Bcast ---------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The paper's conclusion proposes extending the method to the other
// collective operations. This bench runs the full recipe -- gamma,
// per-algorithm (alpha, beta) from collective experiments, model
// argmin -- for MPI_Reduce (linear / chain / binomial) and
// MPI_Scatter (linear / binomial) on both simulated clusters, and
// reports the selection's degradation against the measured best
// algorithm at every size. The near-optimal counts and worst
// degradations land in the --json record, gated in CI against the
// committed bench/baselines/BENCH_extension_reduce_scatter.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/ReduceSelection.h"
#include "model/ScatterSelection.h"
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
  unsigned NearOptimal = 0;
  unsigned Points = 0;
  double Worst = 0.0;

  void add(double Deg) {
    ++Points;
    NearOptimal += Deg <= 0.10;
    Worst = std::max(Worst, Deg);
  }
};

/// Calibrates the collective of \p AlgT with the paper's setup and
/// prints the oracle's verdict for \p SelectProcs ranks at the sizes
/// MinBytes..MaxBytes, doubling (column \p SizeName).
template <typename AlgT>
PanelSummary runPanel(const char *OpName, const char *SizeName,
                      std::uint64_t MinBytes, std::uint64_t MaxBytes,
                      const Platform &Plat, unsigned SelectProcs) {
  const CalibrationOptions Options = paperCalibrationOptions(Plat, false);
  const CollectiveModels<AlgT> Models =
      calibrateCollective<AlgT>(Plat, Options);
  auto name = [](AlgT Alg) {
    return collectiveAlgorithmName(CollectiveDescriptor<AlgT>::Op,
                                   static_cast<unsigned>(Alg));
  };

  Table T({SizeName, "best", "t(best)", "model picks", "deg"});
  T.setTitle(strFormat("%s on %s, P = %u (calibrated at %u)", OpName,
                       Plat.Name.c_str(), SelectProcs, Options.NumProcs));
  PanelSummary S;
  for (std::uint64_t Bytes = MinBytes; Bytes <= MaxBytes; Bytes *= 2) {
    const CollectiveSelectionPoint<AlgT> Pt =
        evaluateSelectionPoint(Plat, SelectProcs, Bytes, Models);
    const double Deg = Pt.ModelChoiceTime / Pt.BestTime - 1.0;
    S.add(Deg);
    T.addRow({formatBytes(Bytes), name(Pt.Best), formatSeconds(Pt.BestTime),
              name(Pt.ModelChoice), formatPercent(Deg)});
  }
  T.print();
  std::printf("worst model-based degradation: %s\n\n",
              formatPercent(S.Worst).c_str());
  return S;
}

void reportPanel(BenchReporter &Report, const std::string &Key,
                 const PanelSummary &S) {
  Report.metric("model_near_optimal_" + Key, S.NearOptimal);
  Report.metric("points_" + Key, S.Points);
  Report.metric("worst_model_deg_" + Key, S.Worst);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  CommandLine Cli("Extension: the paper's selection method applied to "
                  "MPI_Reduce and MPI_Scatter on both clusters.");
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);
  BenchReporter::countWork();

  banner("Extension: model-based selection for MPI_Reduce / MPI_Scatter");
  BenchReporter Report("extension_reduce_scatter");
  for (const Platform &Plat : {makeGrisou(), makeGros()}) {
    const unsigned SelectProcs = Plat.Name == "gros" ? 100 : 90;
    const std::string Key =
        strFormat("%s_p%u", Plat.Name.c_str(), SelectProcs);
    reportPanel(Report, "reduce_" + Key,
                runPanel<ReduceAlgorithm>("MPI_Reduce", "m", 8 * 1024,
                                          4 * 1024 * 1024, Plat,
                                          SelectProcs));
    reportPanel(Report, "scatter_" + Key,
                runPanel<ScatterAlgorithm>("MPI_Scatter", "block", 1024,
                                           128 * 1024, Plat, SelectProcs));
  }
  Report.peakRss();
  Report.workCounts();
  std::printf("This is the paper's Sect. 6 follow-up made concrete: the\n"
              "same gamma + collective-experiment calibration transfers to\n"
              "other collectives without new machinery.\n");
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
