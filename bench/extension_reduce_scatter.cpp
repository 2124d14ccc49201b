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

PanelSummary runReducePanel(const Platform &Plat, unsigned CalibProcs,
                            unsigned SelectProcs) {
  ReduceCalibrationOptions Options;
  Options.NumProcs = CalibProcs;
  ReduceModels Models = calibrateReduce(Plat, Options);

  Table T({"m", "best", "t(best)", "model picks", "deg"});
  T.setTitle(strFormat("MPI_Reduce on %s, P = %u (calibrated at %u)",
                       Plat.Name.c_str(), SelectProcs, CalibProcs));
  PanelSummary S;
  for (std::uint64_t MessageBytes : paperMessageSizes()) {
    double Best = 0, Chosen = 0;
    ReduceAlgorithm BestAlg = ReduceAlgorithm::Linear;
    ReduceAlgorithm Choice = Models.selectBest(SelectProcs, MessageBytes);
    for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
      ReduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      Config.SegmentBytes =
          Alg == ReduceAlgorithm::Linear ? 0 : Models.SegmentBytes;
      double Time =
          measureReduce(Plat, SelectProcs, Config).Stats.Mean;
      if (Best == 0 || Time < Best) {
        Best = Time;
        BestAlg = Alg;
      }
      if (Alg == Choice)
        Chosen = Time;
    }
    double Deg = Chosen / Best - 1.0;
    S.add(Deg);
    T.addRow({formatBytes(MessageBytes), reduceAlgorithmName(BestAlg),
              formatSeconds(Best), reduceAlgorithmName(Choice),
              formatPercent(Deg)});
  }
  T.print();
  std::printf("worst model-based degradation: %s\n\n",
              formatPercent(S.Worst).c_str());
  return S;
}

PanelSummary runScatterPanel(const Platform &Plat, unsigned CalibProcs,
                             unsigned SelectProcs) {
  ScatterCalibrationOptions Options;
  Options.NumProcs = CalibProcs;
  ScatterModels Models = calibrateScatter(Plat, Options);

  Table T({"block", "best", "t(best)", "model picks", "deg"});
  T.setTitle(strFormat("MPI_Scatter on %s, P = %u (calibrated at %u)",
                       Plat.Name.c_str(), SelectProcs, CalibProcs));
  PanelSummary S;
  for (std::uint64_t BlockBytes = 1024; BlockBytes <= 128 * 1024;
       BlockBytes *= 2) {
    double Best = 0, Chosen = 0;
    ScatterAlgorithm BestAlg = ScatterAlgorithm::Linear;
    ScatterAlgorithm Choice = Models.selectBest(SelectProcs, BlockBytes);
    for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
      ScatterConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = BlockBytes;
      double Time =
          measureScatter(Plat, SelectProcs, Config).Stats.Mean;
      if (Best == 0 || Time < Best) {
        Best = Time;
        BestAlg = Alg;
      }
      if (Alg == Choice)
        Chosen = Time;
    }
    double Deg = Chosen / Best - 1.0;
    S.add(Deg);
    T.addRow({formatBytes(BlockBytes), scatterAlgorithmName(BestAlg),
              formatSeconds(Best), scatterAlgorithmName(Choice),
              formatPercent(Deg)});
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

  banner("Extension: model-based selection for MPI_Reduce / MPI_Scatter");
  BenchReporter Report("extension_reduce_scatter");
  for (const Platform &Plat : {makeGrisou(), makeGros()}) {
    unsigned CalibProcs = paperCalibrationProcs(Plat);
    unsigned SelectProcs = Plat.Name == "gros" ? 100 : 90;
    const std::string Key =
        strFormat("%s_p%u", Plat.Name.c_str(), SelectProcs);
    reportPanel(Report, "reduce_" + Key,
                runReducePanel(Plat, CalibProcs, SelectProcs));
    reportPanel(Report, "scatter_" + Key,
                runScatterPanel(Plat, CalibProcs, SelectProcs));
  }
  std::printf("This is the paper's Sect. 6 follow-up made concrete: the\n"
              "same gamma + collective-experiment calibration transfers to\n"
              "other collectives without new machinery.\n");
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
