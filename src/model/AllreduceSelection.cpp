//===- model/AllreduceSelection.cpp - The method on MPI_Allreduce ----------===//

#include "model/AllreduceSelection.h"

#include "coll/Bcast.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

using namespace mpicsel;

CostCoefficients
mpicsel::allreduceCostCoefficients(AllreduceAlgorithm Alg, unsigned NumProcs,
                                   std::uint64_t MessageBytes,
                                   std::uint64_t SegmentBytes,
                                   const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  if (NumProcs == 1)
    return {0.0, 0.0};

  switch (Alg) {
  case AllreduceAlgorithm::RecursiveDoubling: {
    // H full-vector exchange+combine rounds; a non-power-of-two
    // communicator adds the pre/post fold -- two more full-vector
    // hops on the folded ranks' critical path.
    double Rounds = 0.0;
    unsigned PowP = 1;
    while (2 * PowP <= NumProcs) {
      PowP *= 2;
      Rounds += 1.0;
    }
    if (PowP != NumProcs)
      Rounds += 2.0;
    return {Rounds, Rounds * static_cast<double>(MessageBytes)};
  }
  case AllreduceAlgorithm::Ring: {
    // 2(P-1) rounds of ~m/P blocks: reduce-scatter then allgather.
    double Rounds = 2.0 * static_cast<double>(NumProcs - 1);
    return {Rounds, Rounds * static_cast<double>(MessageBytes) /
                        static_cast<double>(NumProcs)};
  }
  case AllreduceAlgorithm::ReduceBcast: {
    // The phases are serial (the broadcast's root send waits for the
    // reduction's last combine), so the coefficients add.
    BcastModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return reduceCostCoefficients(ReduceAlgorithm::Binomial, NumProcs,
                                  MessageBytes, SegmentBytes, Gamma) +
           bcastCostCoefficients(BcastAlgorithm::Binomial, Query, Gamma);
  }
  }
  MPICSEL_UNREACHABLE("unknown allreduce algorithm");
}

double AllreduceModels::predict(AllreduceAlgorithm Alg, unsigned NumProcs,
                                std::uint64_t MessageBytes) const {
  CostCoefficients C = allreduceCostCoefficients(
      Alg, NumProcs, MessageBytes,
      Alg == AllreduceAlgorithm::ReduceBcast ? SegmentBytes : 0, Gamma);
  const AllreduceCalibration &Params = of(Alg);
  return C.evaluate(Params.Alpha, Params.Beta);
}

AllreduceAlgorithm
AllreduceModels::selectBest(unsigned NumProcs,
                            std::uint64_t MessageBytes) const {
  AllreduceAlgorithm Best = AllAllreduceAlgorithms.front();
  double BestTime = predict(Best, NumProcs, MessageBytes);
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    double Time = predict(Alg, NumProcs, MessageBytes);
    if (Time < BestTime) {
      Best = Alg;
      BestTime = Time;
    }
  }
  return Best;
}

Experiment
mpicsel::prepareAllreduce(const Platform &P, unsigned NumProcs,
                          const AllreduceConfig &Config,
                          std::optional<std::uint64_t> GatherBytes) {
  AllreduceConfig Filled = Config;
  if (Filled.ComputeSecondsPerByte == 0.0)
    Filled.ComputeSecondsPerByte = P.ReduceComputePerByte;
  std::string Key = strFormat(
      "allreduce|alg=%d|P=%u|m=%llu|seg=%llu|cpb=%a|tag=%d",
      static_cast<int>(Filled.Algorithm), NumProcs,
      static_cast<unsigned long long>(Filled.MessageBytes),
      static_cast<unsigned long long>(Filled.SegmentBytes),
      Filled.ComputeSecondsPerByte, Filled.Tag);
  if (GatherBytes)
    Key += strFormat("|gb=%llu", static_cast<unsigned long long>(*GatherBytes));
  return Experiment(P, NumProcs, Key,
                    GatherBytes ? "allreduce+gather" : "allreduce", [&] {
    ScheduleBuilder B(NumProcs);
    BuiltSchedule Built;
    Built.Exit = appendAllreduce(B, Filled);
    if (GatherBytes)
      Built.Exit = appendGatherTimer(B, Built.Exit, /*Root=*/0,
                                     Filled.Tag + 8, *GatherBytes);
    Built.S = B.take();
    return Built;
  });
}

double mpicsel::runAllreduceOnce(const Platform &P, unsigned NumProcs,
                                 const AllreduceConfig &Config,
                                 std::uint64_t Seed) {
  return prepareAllreduce(P, NumProcs, Config).run(Seed);
}

AdaptiveResult mpicsel::measureAllreduce(const Platform &P,
                                         unsigned NumProcs,
                                         const AllreduceConfig &Config,
                                         const AdaptiveOptions &Options) {
  return prepareAllreduce(P, NumProcs, Config).measure(Options);
}

double mpicsel::runAllreduceGatherOnce(const Platform &P, unsigned NumProcs,
                                       const AllreduceConfig &Config,
                                       std::uint64_t GatherBytes,
                                       std::uint64_t Seed) {
  return prepareAllreduce(P, NumProcs, Config, GatherBytes).run(Seed);
}

AllreduceModels
mpicsel::calibrateAllreduce(const Platform &Plat,
                            const AllreduceCalibrationOptions &Options) {
  AllreduceModels Models;
  Models.SegmentBytes = Options.SegmentBytes;

  unsigned NumProcs = Options.NumProcs;
  if (NumProcs == 0)
    NumProcs = std::max(2u, Plat.maxProcs() / 2);
  if (NumProcs > Plat.maxProcs())
    fatalError("allreduce calibration requests more processes than the "
               "platform hosts");

  std::vector<std::uint64_t> MessageSizes = Options.MessageSizes;
  if (MessageSizes.empty())
    for (std::uint64_t Bytes = 8 * 1024; Bytes <= 4 * 1024 * 1024;
         Bytes *= 2)
      MessageSizes.push_back(Bytes);

  GammaEstimationOptions GammaOpts = Options.GammaOptions;
  GammaOpts.MaxP =
      std::max(GammaOpts.MaxP, maxGammaArgument(Plat.maxProcs(), 1));
  GammaOpts.MaxP = std::min(GammaOpts.MaxP, Plat.maxProcs());
  GammaOpts.SegmentBytes = Options.SegmentBytes;
  Models.Gamma = estimateGamma(Plat, GammaOpts).Gamma;

  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    AllreduceCalibration &Calib =
        Models.Algorithms[static_cast<unsigned>(Alg)];
    Calib.Algorithm = Alg;

    std::vector<double> X, T;
    for (std::size_t I = 0; I != MessageSizes.size(); ++I) {
      AllreduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageSizes[I];
      Config.SegmentBytes = Alg == AllreduceAlgorithm::ReduceBcast
                                ? Options.SegmentBytes
                                : 0;
      // The gather ramp spreads the canonical x for the segmented
      // composition (whose x would be the constant segment size) and
      // root-terminates every experiment; see ReduceSelection.
      std::uint64_t GatherBytes =
          std::max<std::uint64_t>(512, MessageSizes[I] / 64);
      if (GatherBytes == Options.SegmentBytes)
        GatherBytes += 512;
      AdaptiveOptions Adaptive = Options.Adaptive;
      Adaptive.BaseSeed = Options.Adaptive.BaseSeed +
                          0x1000000ull * static_cast<unsigned>(Alg) +
                          0x100ull * I;
      AdaptiveResult R =
          prepareAllreduce(Plat, NumProcs, Config, GatherBytes)
              .measure(Adaptive);
      CostCoefficients C =
          allreduceCostCoefficients(Alg, NumProcs, MessageSizes[I],
                                    Config.SegmentBytes, Models.Gamma) +
          linearGatherCostCoefficients(NumProcs, GatherBytes);
      assert(C.A > 0 && "degenerate allreduce experiment");
      X.push_back(C.B / C.A);
      T.push_back(R.Stats.Mean / C.A);
    }
    Calib.Fit = Options.UseHuber ? fitHuber(X, T) : fitLeastSquares(X, T);
    if (!Calib.Fit.Valid)
      fatalError("allreduce alpha/beta regression degenerate");
    Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
    Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  }
  return Models;
}
