//===- model/AllgatherSelection.cpp - The method on MPI_Allgather ----------===//

#include "model/AllgatherSelection.h"

#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

using namespace mpicsel;

CostCoefficients
mpicsel::allgatherCostCoefficients(AllgatherAlgorithm Alg, unsigned NumProcs,
                                   std::uint64_t BlockBytes,
                                   const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  (void)Gamma; // All three algorithms are single-peer per round.
  if (NumProcs == 1)
    return {0.0, 0.0};
  if (!allgatherAlgorithmApplies(Alg, NumProcs))
    Alg = AllgatherAlgorithm::Ring;

  // Every algorithm streams (P-1) blocks along its critical path;
  // only the round count differs.
  const double TotalBytes = static_cast<double>(NumProcs - 1) *
                            static_cast<double>(BlockBytes);
  switch (Alg) {
  case AllgatherAlgorithm::Ring:
    return {static_cast<double>(NumProcs - 1), TotalBytes};
  case AllgatherAlgorithm::RecursiveDoubling: {
    double Rounds = 0.0;
    for (unsigned Distance = 1; Distance < NumProcs; Distance <<= 1)
      Rounds += 1.0;
    return {Rounds, TotalBytes};
  }
  case AllgatherAlgorithm::NeighborExchange:
    return {static_cast<double>(NumProcs / 2), TotalBytes};
  }
  MPICSEL_UNREACHABLE("unknown allgather algorithm");
}

double AllgatherModels::predict(AllgatherAlgorithm Alg, unsigned NumProcs,
                                std::uint64_t BlockBytes) const {
  CostCoefficients C =
      allgatherCostCoefficients(Alg, NumProcs, BlockBytes, Gamma);
  const AllgatherCalibration &Params = of(Alg);
  return C.evaluate(Params.Alpha, Params.Beta);
}

AllgatherAlgorithm
AllgatherModels::selectBest(unsigned NumProcs,
                            std::uint64_t BlockBytes) const {
  AllgatherAlgorithm Best = AllAllgatherAlgorithms.front();
  double BestTime = predict(Best, NumProcs, BlockBytes);
  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
    double Time = predict(Alg, NumProcs, BlockBytes);
    if (Time < BestTime) {
      Best = Alg;
      BestTime = Time;
    }
  }
  return Best;
}

Experiment
mpicsel::prepareAllgather(const Platform &P, unsigned NumProcs,
                          const AllgatherConfig &Config,
                          std::optional<std::uint64_t> GatherBytes) {
  std::string Key = strFormat(
      "allgather|alg=%d|P=%u|block=%llu|tag=%d",
      static_cast<int>(Config.Algorithm), NumProcs,
      static_cast<unsigned long long>(Config.BlockBytes), Config.Tag);
  if (GatherBytes)
    Key += strFormat("|gb=%llu", static_cast<unsigned long long>(*GatherBytes));
  return Experiment(P, NumProcs, Key,
                    GatherBytes ? "allgather+gather" : "allgather", [&] {
    ScheduleBuilder B(NumProcs);
    BuiltSchedule Built;
    Built.Exit = appendAllgather(B, Config);
    if (GatherBytes)
      Built.Exit = appendGatherTimer(B, Built.Exit, /*Root=*/0,
                                     Config.Tag + 8, *GatherBytes);
    Built.S = B.take();
    return Built;
  });
}

double mpicsel::runAllgatherOnce(const Platform &P, unsigned NumProcs,
                                 const AllgatherConfig &Config,
                                 std::uint64_t Seed) {
  return prepareAllgather(P, NumProcs, Config).run(Seed);
}

AdaptiveResult mpicsel::measureAllgather(const Platform &P,
                                         unsigned NumProcs,
                                         const AllgatherConfig &Config,
                                         const AdaptiveOptions &Options) {
  return prepareAllgather(P, NumProcs, Config).measure(Options);
}

double mpicsel::runAllgatherGatherOnce(const Platform &P, unsigned NumProcs,
                                       const AllgatherConfig &Config,
                                       std::uint64_t GatherBytes,
                                       std::uint64_t Seed) {
  return prepareAllgather(P, NumProcs, Config, GatherBytes).run(Seed);
}

AllgatherModels
mpicsel::calibrateAllgather(const Platform &Plat,
                            const AllgatherCalibrationOptions &Options) {
  AllgatherModels Models;

  unsigned NumProcs = Options.NumProcs;
  if (NumProcs == 0)
    NumProcs = std::max(2u, Plat.maxProcs() / 2);
  if (NumProcs > Plat.maxProcs())
    fatalError("allgather calibration requests more processes than the "
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
    fatalError("allgather calibration needs one gather size per block "
               "size");

  GammaEstimationOptions GammaOpts = Options.GammaOptions;
  GammaOpts.MaxP =
      std::max(GammaOpts.MaxP, maxGammaArgument(Plat.maxProcs(), 1));
  GammaOpts.MaxP = std::min(GammaOpts.MaxP, Plat.maxProcs());
  Models.Gamma = estimateGamma(Plat, GammaOpts).Gamma;

  for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
    AllgatherCalibration &Calib =
        Models.Algorithms[static_cast<unsigned>(Alg)];
    Calib.Algorithm = Alg;

    std::vector<double> X, T;
    for (std::size_t I = 0; I != BlockSizes.size(); ++I) {
      AllgatherConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = BlockSizes[I];
      AdaptiveOptions Adaptive = Options.Adaptive;
      Adaptive.BaseSeed = Options.Adaptive.BaseSeed +
                          0x800000ull * static_cast<unsigned>(Alg) +
                          0x100ull * I;
      AdaptiveResult R =
          prepareAllgather(Plat, NumProcs, Config, GatherSizes[I])
              .measure(Adaptive);
      CostCoefficients Total =
          allgatherCostCoefficients(Alg, NumProcs, BlockSizes[I],
                                    Models.Gamma) +
          linearGatherCostCoefficients(NumProcs, GatherSizes[I]);
      assert(Total.A > 0 && "degenerate allgather experiment");
      X.push_back(Total.B / Total.A);
      T.push_back(R.Stats.Mean / Total.A);
    }
    Calib.Fit = Options.UseHuber ? fitHuber(X, T) : fitLeastSquares(X, T);
    if (!Calib.Fit.Valid)
      fatalError("allgather alpha/beta regression degenerate");
    Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
    Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  }
  return Models;
}
