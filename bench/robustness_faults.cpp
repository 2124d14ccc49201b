//===- bench/robustness_faults.cpp - Selection under injected faults ------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Robustness study beyond the paper: the model-based selection is only
// as good as the calibration campaign behind it. This bench injects
// deterministic fault scenarios (fault/Fault.h) into the *calibration*
// stage -- stragglers, degraded links, latency spikes, noise-regime
// shifts -- then deploys the resulting selections on the healthy
// cluster and reports their degradation against the fault-free oracle
// (a-posteriori best algorithm). Two calibration pipelines compete:
//
//  * raw: the paper's pipeline, trusting every measurement;
//  * robust: MAD outlier screening + retry-with-backoff + per-model
//    quality gates (model/Calibration.h), with graceful fallback to
//    the Open MPI decision function when too few models survive
//    (model/RobustSelector.h).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "fault/Fault.h"
#include "model/RobustSelector.h"
#include "model/Runner.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace mpicsel;
using namespace mpicsel::bench;

namespace {

/// Degradation summary of one pipeline over the sweep.
struct PipelineSummary {
  double Worst = 0.0;
  double Sum = 0.0;
  unsigned Points = 0;
  unsigned Fallbacks = 0;

  void add(double Degradation) {
    Worst = std::max(Worst, Degradation);
    Sum += Degradation;
    ++Points;
  }
  double mean() const { return Points ? Sum / Points : 0.0; }
};

/// Fault-free measured time of one (algorithm, segment) at (P, m).
double measureChoice(const Platform &Plat, unsigned NumProcs,
                     std::uint64_t MessageBytes, BcastAlgorithm Alg,
                     std::uint64_t SegmentBytes, const AdaptiveOptions &Opts) {
  BcastConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = Alg == BcastAlgorithm::Linear ? 0 : SegmentBytes;
  return measureBcast(Plat, NumProcs, Config, Opts).Stats.Mean;
}

/// Calibrates under \p Scenario with the given quality policy.
CalibratedModels calibrateUnder(const Platform &Plat, const FaultSchedule &F,
                                bool Quick, bool RobustPipeline,
                                unsigned Threads,
                                CalibrationReport &Report) {
  CalibrationOptions Options;
  Options.NumProcs = paperCalibrationProcs(Plat);
  Options.Threads = Threads;
  if (Quick) {
    Options.Adaptive.MinReps = 3;
    Options.Adaptive.MaxReps = 8;
    Options.GammaOptions.Adaptive.MinReps = 3;
    Options.GammaOptions.Adaptive.MaxReps = 8;
  }
  Options.Quality.Enabled = RobustPipeline;
  ScopedFaultInjection Injection(F);
  return calibrate(Plat, Options, &Report);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Csv = false;
  std::string PlatformName = "grisou";
  std::int64_t NumProcsFlag = 0;
  std::string ScenariosFlag =
      "clean,noisy,straggler-root,degraded-link,contaminated-calibration";
  std::string JsonPath;
  std::int64_t Threads = 0;

  CommandLine Cli("Robustness study: calibrate under injected fault "
                  "scenarios, deploy on the healthy cluster, and compare "
                  "the raw and the robust pipeline against the fault-free "
                  "oracle.");
  Cli.addFlag("quick", "fewer repetitions per measurement", Quick);
  Cli.addFlag("csv", "emit CSV instead of tables", Csv);
  Cli.addFlag("platform", "cluster to simulate (grisou|gros)", PlatformName);
  Cli.addFlag("procs", "selection communicator size (0: paper default)",
              NumProcsFlag);
  Cli.addFlag("scenarios", "comma-separated fault scenarios to sweep",
              ScenariosFlag);
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

  Platform Plat = PlatformName == "gros" ? makeGros() : makeGrisou();
  unsigned NumProcs = NumProcsFlag > 0
                          ? static_cast<unsigned>(NumProcsFlag)
                          : paperSelectionProcs(Plat).back();

  std::vector<std::string> Scenarios;
  for (std::size_t Pos = 0; Pos <= ScenariosFlag.size();) {
    std::size_t Comma = ScenariosFlag.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ScenariosFlag.size();
    std::string Name = ScenariosFlag.substr(Pos, Comma - Pos);
    if (!isFaultScenarioName(Name)) {
      std::fprintf(stderr, "error: unknown fault scenario '%s'\n",
                   Name.c_str());
      return 1;
    }
    Scenarios.push_back(Name);
    Pos = Comma + 1;
  }

  banner("Robustness: selection quality after a contaminated calibration");
  std::printf("platform %s, selection at P = %u; faults strike the "
              "calibration stage only.\n\n",
              Plat.Name.c_str(), NumProcs);

  // The fault-free oracle landscape: measured time of every algorithm
  // at the default segment size, once per message size.
  AdaptiveOptions MeasureOpts;
  if (Quick) {
    MeasureOpts.MinReps = 3;
    MeasureOpts.MaxReps = 8;
  }
  const std::uint64_t SegmentBytes = CalibrationOptions().SegmentBytes;
  std::vector<std::uint64_t> Messages = paperMessageSizes();
  std::vector<std::array<double, NumBcastAlgorithms>> Landscape;
  std::vector<double> OracleTime;
  for (std::uint64_t M : Messages) {
    std::array<double, NumBcastAlgorithms> Row{};
    double Best = 0.0;
    for (BcastAlgorithm Alg : AllBcastAlgorithms) {
      double T = measureChoice(Plat, NumProcs, M, Alg, SegmentBytes,
                               MeasureOpts);
      Row[static_cast<unsigned>(Alg)] = T;
      if (Best == 0.0 || T < Best)
        Best = T;
    }
    Landscape.push_back(Row);
    OracleTime.push_back(Best);
  }

  Table Summary({"scenario", "raw worst", "raw mean", "robust worst",
                 "robust mean", "excluded", "fallbacks"});
  Summary.setTitle("Degradation vs fault-free oracle");

  BenchReporter Report("robustness_faults");
  Report.info("mode", Quick ? "quick" : "full");
  Report.info("platform", Plat.Name);

  for (const std::string &ScenarioName : Scenarios) {
    FaultSchedule Scenario = makeFaultScenario(ScenarioName);
    CalibrationReport RawReport, RobustReport;
    CalibratedModels Raw =
        calibrateUnder(Plat, Scenario, Quick, /*RobustPipeline=*/false,
                       static_cast<unsigned>(Threads), RawReport);
    CalibratedModels Robust =
        calibrateUnder(Plat, Scenario, Quick, /*RobustPipeline=*/true,
                       static_cast<unsigned>(Threads), RobustReport);

    PipelineSummary RawSum, RobustSum;
    Table Points({"m", "oracle", "raw alg", "raw deg", "robust alg",
                  "robust deg", "via"});
    Points.setTitle(strFormat("scenario '%s'", ScenarioName.c_str()));
    for (std::size_t I = 0; I != Messages.size(); ++I) {
      const std::uint64_t M = Messages[I];

      BcastAlgorithm RawChoice = Raw.selectBest(NumProcs, M);
      double RawTime = Landscape[I][static_cast<unsigned>(RawChoice)];
      double RawDeg = (RawTime - OracleTime[I]) / OracleTime[I];
      RawSum.add(RawDeg);

      RobustDecision RD = selectRobust(Robust, RobustReport, NumProcs, M);
      double RobustTime =
          RD.SegmentBytes == SegmentBytes || RD.Algorithm == BcastAlgorithm::Linear
              ? Landscape[I][static_cast<unsigned>(RD.Algorithm)]
              : measureChoice(Plat, NumProcs, M, RD.Algorithm,
                              RD.SegmentBytes, MeasureOpts);
      double RobustDeg = (RobustTime - OracleTime[I]) / OracleTime[I];
      RobustSum.add(RobustDeg);
      if (RD.UsedFallback)
        ++RobustSum.Fallbacks;

      Points.addRow({formatBytes(M), formatSeconds(OracleTime[I]),
                     bcastAlgorithmName(RawChoice), formatPercent(RawDeg),
                     bcastAlgorithmName(RD.Algorithm),
                     formatPercent(RobustDeg),
                     RD.UsedFallback ? "ompi-fallback" : "models"});
    }

    if (Csv)
      std::fputs(Points.renderCsv().c_str(), stdout);
    else
      Points.print();
    std::printf("calibration quality under '%s':\n%s\n", ScenarioName.c_str(),
                RobustReport.str().c_str());

    Summary.addRow({ScenarioName, formatPercent(RawSum.Worst),
                    formatPercent(RawSum.mean()),
                    formatPercent(RobustSum.Worst),
                    formatPercent(RobustSum.mean()),
                    strFormat("%u", NumBcastAlgorithms -
                                        RobustReport.usableCount()),
                    strFormat("%u", RobustSum.Fallbacks)});

    Report.metric("raw_worst_deg_" + ScenarioName, RawSum.Worst);
    Report.metric("raw_mean_deg_" + ScenarioName, RawSum.mean());
    Report.metric("robust_worst_deg_" + ScenarioName, RobustSum.Worst);
    Report.metric("robust_mean_deg_" + ScenarioName, RobustSum.mean());
    Report.metric("fallbacks_" + ScenarioName, RobustSum.Fallbacks);
  }

  if (Csv)
    std::fputs(Summary.renderCsv().c_str(), stdout);
  else
    Summary.print();
  std::printf("\nA robust pipeline should stay near the oracle on every "
              "scenario; the raw pipeline\nis expected to degrade once the "
              "calibration campaign is contaminated.\n");
  Report.peakRss();
  Report.workCounts();
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
