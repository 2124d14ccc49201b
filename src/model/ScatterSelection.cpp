//===- model/ScatterSelection.cpp - The method on a 2nd collective ---------===//

#include "model/ScatterSelection.h"

#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"
#include "topo/Tree.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

using namespace mpicsel;

CostCoefficients
mpicsel::scatterCostCoefficients(ScatterAlgorithm Alg, unsigned NumProcs,
                                 std::uint64_t BlockBytes,
                                 const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  if (NumProcs == 1)
    return {0.0, 0.0};

  switch (Alg) {
  case ScatterAlgorithm::Linear: {
    // P-1 concurrent non-blocking sends of one block: the linear-
    // broadcast structure, so the same gamma-weighted point-to-point.
    double G = Gamma(NumProcs);
    return {G, G * static_cast<double>(BlockBytes)};
  }
  case ScatterAlgorithm::Binomial: {
    // Critical path of the binomial scatter: the chain of largest
    // children. Each hop transfers the receiving child's whole
    // subtree bundle; Open MPI serves the largest child first, so
    // the path is not delayed by the sender's other sends.
    Tree T = buildBinomialTree(NumProcs, 0);
    double A = 0.0, B = 0.0;
    unsigned Cursor = 0;
    while (!T.Children[Cursor].empty()) {
      unsigned Largest = T.Children[Cursor].front();
      unsigned LargestSize = T.subtreeSize(Largest);
      for (unsigned Child : T.Children[Cursor]) {
        unsigned Size = T.subtreeSize(Child);
        if (Size > LargestSize) {
          Largest = Child;
          LargestSize = Size;
        }
      }
      A += 1.0;
      B += static_cast<double>(LargestSize) *
           static_cast<double>(BlockBytes);
      Cursor = Largest;
    }
    return {A, B};
  }
  }
  MPICSEL_UNREACHABLE("unknown scatter algorithm");
}

double ScatterModels::predict(ScatterAlgorithm Alg, unsigned NumProcs,
                              std::uint64_t BlockBytes) const {
  CostCoefficients C =
      scatterCostCoefficients(Alg, NumProcs, BlockBytes, Gamma);
  const ScatterCalibration &Params = of(Alg);
  return C.evaluate(Params.Alpha, Params.Beta);
}

ScatterAlgorithm ScatterModels::selectBest(unsigned NumProcs,
                                           std::uint64_t BlockBytes) const {
  ScatterAlgorithm Best = AllScatterAlgorithms.front();
  double BestTime = predict(Best, NumProcs, BlockBytes);
  for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
    double Time = predict(Alg, NumProcs, BlockBytes);
    if (Time < BestTime) {
      Best = Alg;
      BestTime = Time;
    }
  }
  return Best;
}

Experiment
mpicsel::prepareScatter(const Platform &P, unsigned NumProcs,
                        const ScatterConfig &Config,
                        std::optional<std::uint64_t> GatherBytes) {
  std::string Key = strFormat(
      "scatter|alg=%d|P=%u|block=%llu|root=%u|tag=%d",
      static_cast<int>(Config.Algorithm), NumProcs,
      static_cast<unsigned long long>(Config.BlockBytes), Config.Root,
      Config.Tag);
  if (GatherBytes)
    Key += strFormat("|gb=%llu", static_cast<unsigned long long>(*GatherBytes));
  return Experiment(P, NumProcs, Key,
                    GatherBytes ? "scatter+gather" : "scatter", [&] {
    ScheduleBuilder B(NumProcs);
    BuiltSchedule Built;
    Built.Exit = appendScatter(B, Config);
    if (GatherBytes)
      Built.Exit = appendGatherTimer(B, Built.Exit, Config.Root,
                                     Config.Tag + 8, *GatherBytes);
    Built.S = B.take();
    return Built;
  });
}

double mpicsel::runScatterOnce(const Platform &P, unsigned NumProcs,
                               const ScatterConfig &Config,
                               std::uint64_t Seed) {
  return prepareScatter(P, NumProcs, Config).run(Seed);
}

AdaptiveResult mpicsel::measureScatter(const Platform &P, unsigned NumProcs,
                                       const ScatterConfig &Config,
                                       const AdaptiveOptions &Options) {
  return prepareScatter(P, NumProcs, Config).measure(Options);
}

double mpicsel::runScatterGatherOnce(const Platform &P, unsigned NumProcs,
                                     const ScatterConfig &Config,
                                     std::uint64_t GatherBytes,
                                     std::uint64_t Seed) {
  return prepareScatter(P, NumProcs, Config, GatherBytes).run(Seed);
}

ScatterModels
mpicsel::calibrateScatter(const Platform &Plat,
                          const ScatterCalibrationOptions &Options) {
  ScatterModels Models;

  unsigned NumProcs = Options.NumProcs;
  if (NumProcs == 0)
    NumProcs = std::max(2u, Plat.maxProcs() / 2);
  if (NumProcs > Plat.maxProcs())
    fatalError("scatter calibration requests more processes than the "
               "platform hosts");

  std::vector<std::uint64_t> BlockSizes = Options.BlockSizes;
  if (BlockSizes.empty())
    for (std::uint64_t Bytes = 1024; Bytes <= 64 * 1024; Bytes *= 2)
      BlockSizes.push_back(Bytes);
  std::vector<std::uint64_t> GatherSizes = Options.GatherSizes;
  if (GatherSizes.empty())
    for (std::uint64_t BlockBytes : BlockSizes)
      GatherSizes.push_back(std::max<std::uint64_t>(512, BlockBytes / 4));
  if (GatherSizes.size() != BlockSizes.size())
    fatalError("scatter calibration needs one gather size per block size");

  GammaEstimationOptions GammaOpts = Options.GammaOptions;
  GammaOpts.MaxP =
      std::max(GammaOpts.MaxP, maxGammaArgument(Plat.maxProcs(), 1));
  GammaOpts.MaxP = std::min(GammaOpts.MaxP, Plat.maxProcs());
  Models.Gamma = estimateGamma(Plat, GammaOpts).Gamma;

  for (ScatterAlgorithm Alg : AllScatterAlgorithms) {
    ScatterCalibration &Calib =
        Models.Algorithms[static_cast<unsigned>(Alg)];
    Calib.Algorithm = Alg;

    std::vector<double> X, T;
    for (std::size_t I = 0; I != BlockSizes.size(); ++I) {
      ScatterConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = BlockSizes[I];
      AdaptiveOptions Adaptive = Options.Adaptive;
      Adaptive.BaseSeed = Options.Adaptive.BaseSeed +
                          0x200000ull * static_cast<unsigned>(Alg) +
                          0x100ull * I;
      AdaptiveResult R =
          prepareScatter(Plat, NumProcs, Config, GatherSizes[I])
              .measure(Adaptive);
      CostCoefficients Total =
          scatterCostCoefficients(Alg, NumProcs, BlockSizes[I],
                                  Models.Gamma) +
          linearGatherCostCoefficients(NumProcs, GatherSizes[I]);
      assert(Total.A > 0 && "degenerate scatter experiment");
      X.push_back(Total.B / Total.A);
      T.push_back(R.Stats.Mean / Total.A);
    }
    Calib.Fit = Options.UseHuber ? fitHuber(X, T) : fitLeastSquares(X, T);
    if (!Calib.Fit.Valid)
      fatalError("scatter alpha/beta regression degenerate");
    Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
    Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  }
  return Models;
}
