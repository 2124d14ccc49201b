//===- bench/table1_gamma.cpp - Reproduce paper Table 1 --------------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Paper Table 1: "Estimated values of gamma(P) on Grisou and Gros
// clusters" -- gamma(P) for P = 3..7 on both platforms, estimated
// with the Sect. 4.1 experiment (linear broadcast of one 8 KB
// segment, repeated measurements to the 95%/2.5% criterion).
//
// Paper reference values:
//   P      Grisou   Gros
//   3      1.114    1.084
//   4      1.219    1.170
//   5      1.283    1.254
//   6      1.451    1.339
//   7      1.540    1.424
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "model/Gamma.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace mpicsel;
using namespace mpicsel::bench;

int main(int Argc, char **Argv) {
  std::int64_t MaxP = 8;
  std::uint64_t SegmentBytes = 8 * 1024;
  bool Csv = false;
  std::string JsonPath;
  std::int64_t Threads = 0;
  CommandLine Cli("Reproduces paper Table 1: estimated gamma(P) on the "
                  "Grisou and Gros clusters.");
  Cli.addFlag("max-p", "largest linear-broadcast size to estimate", MaxP);
  Cli.addByteSizeFlag("segment", "segment size m_s", SegmentBytes);
  Cli.addFlag("csv", "emit CSV instead of a table", Csv);
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  Cli.addFlag("threads", "estimation sweep threads (0 = MPICSEL_THREADS)",
              Threads);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);
  BenchReporter::countWork();

  banner("Table 1: estimated gamma(P) on Grisou and Gros");

  GammaEstimationOptions Options;
  Options.MaxP = static_cast<unsigned>(MaxP);
  Options.SegmentBytes = SegmentBytes;
  Options.Threads = static_cast<unsigned>(Threads);

  GammaEstimate Grisou = estimateGamma(makeGrisou(), Options);
  GammaEstimate Gros = estimateGamma(makeGros(), Options);

  // Paper reference values for the side-by-side comparison.
  const double PaperGrisou[] = {1.0, 1.114, 1.219, 1.283, 1.451, 1.540};
  const double PaperGros[] = {1.0, 1.084, 1.170, 1.254, 1.339, 1.424};

  Table T({"P", "gamma Grisou", "paper", "gamma Gros", "paper"});
  for (unsigned P = 3; P <= static_cast<unsigned>(MaxP); ++P) {
    unsigned Index = P - 2;
    std::string PaperG =
        Index < 6 ? strFormat("%.3f", PaperGrisou[Index]) : "-";
    std::string PaperR = Index < 6 ? strFormat("%.3f", PaperGros[Index]) : "-";
    T.addRow({strFormat("%u", P), strFormat("%.3f", Grisou.Gamma(P)), PaperG,
              strFormat("%.3f", Gros.Gamma(P)), PaperR});
  }
  if (Csv)
    std::fputs(T.renderCsv().c_str(), stdout);
  else
    T.print();

  std::printf("\nLinear fits (gamma ~ a + b*P):\n");
  std::printf("  grisou: %.4f + %.4f * P (rmse %.4f)\n",
              Grisou.Gamma.fit().Intercept, Grisou.Gamma.fit().Slope,
              Grisou.Gamma.fit().Rmse);
  std::printf("  gros:   %.4f + %.4f * P (rmse %.4f)\n",
              Gros.Gamma.fit().Intercept, Gros.Gamma.fit().Slope,
              Gros.Gamma.fit().Rmse);
  std::printf("\nThe paper observes gamma(P) is near linear in P; the rmse\n"
              "above quantifies that on the simulated clusters.\n");

  BenchReporter Report("table1_gamma");
  Report.info("segment", strFormat("%llu", (unsigned long long)SegmentBytes));
  for (unsigned P = 3; P <= static_cast<unsigned>(MaxP); ++P) {
    Report.metric(strFormat("gamma_grisou_p%u", P), Grisou.Gamma(P));
    Report.metric(strFormat("gamma_gros_p%u", P), Gros.Gamma(P));
  }
  Report.metric("fit_slope_grisou", Grisou.Gamma.fit().Slope);
  Report.metric("fit_slope_gros", Gros.Gamma.fit().Slope);
  Report.metric("fit_rmse_grisou", Grisou.Gamma.fit().Rmse);
  Report.metric("fit_rmse_gros", Gros.Gamma.fit().Rmse);
  Report.workCounts();
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
