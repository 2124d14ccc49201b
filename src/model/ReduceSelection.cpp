//===- model/ReduceSelection.cpp - The method on MPI_Reduce ----------------===//

#include "model/ReduceSelection.h"

#include "coll/Bcast.h"
#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

using namespace mpicsel;

CostCoefficients
mpicsel::reduceCostCoefficients(ReduceAlgorithm Alg, unsigned NumProcs,
                                std::uint64_t MessageBytes,
                                std::uint64_t SegmentBytes,
                                const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  if (NumProcs == 1)
    return {0.0, 0.0};

  switch (Alg) {
  case ReduceAlgorithm::Linear: {
    // Incast of P-1 full vectors into the root (Eq. 8's structure);
    // the serial combines ride on beta.
    double Count = static_cast<double>(NumProcs - 1);
    return {Count, Count * static_cast<double>(MessageBytes)};
  }
  case ReduceAlgorithm::Chain: {
    // The pipeline reversed: same fill + stream arithmetic as the
    // chain broadcast.
    BcastModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return bcastCostCoefficients(BcastAlgorithm::Chain, Query, Gamma);
  }
  case ReduceAlgorithm::Binomial: {
    // The binomial broadcast mirrored: stage k of the reduction is
    // stage H-k of the broadcast, so Eq. 6 carries over unchanged
    // (the gamma factors now describe the serialisation of receives
    // and combines at a multi-child parent instead of sends).
    BcastModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return bcastCostCoefficients(BcastAlgorithm::Binomial, Query, Gamma);
  }
  }
  MPICSEL_UNREACHABLE("unknown reduce algorithm");
}

double ReduceModels::predict(ReduceAlgorithm Alg, unsigned NumProcs,
                             std::uint64_t MessageBytes) const {
  CostCoefficients C = reduceCostCoefficients(
      Alg, NumProcs, MessageBytes,
      Alg == ReduceAlgorithm::Linear ? 0 : SegmentBytes, Gamma);
  const ReduceCalibration &Params = of(Alg);
  return C.evaluate(Params.Alpha, Params.Beta);
}

ReduceAlgorithm ReduceModels::selectBest(unsigned NumProcs,
                                         std::uint64_t MessageBytes) const {
  ReduceAlgorithm Best = AllReduceAlgorithms.front();
  double BestTime = predict(Best, NumProcs, MessageBytes);
  for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
    double Time = predict(Alg, NumProcs, MessageBytes);
    if (Time < BestTime) {
      Best = Alg;
      BestTime = Time;
    }
  }
  return Best;
}

Experiment
mpicsel::prepareReduce(const Platform &P, unsigned NumProcs,
                       const ReduceConfig &Config,
                       std::optional<std::uint64_t> GatherBytes) {
  ReduceConfig Filled = Config;
  if (Filled.ComputeSecondsPerByte == 0.0)
    Filled.ComputeSecondsPerByte = P.ReduceComputePerByte;
  std::string Key = strFormat(
      "reduce|alg=%d|P=%u|m=%llu|seg=%llu|root=%u|cpb=%a|tag=%d",
      static_cast<int>(Filled.Algorithm), NumProcs,
      static_cast<unsigned long long>(Filled.MessageBytes),
      static_cast<unsigned long long>(Filled.SegmentBytes), Filled.Root,
      Filled.ComputeSecondsPerByte, Filled.Tag);
  if (GatherBytes)
    Key += strFormat("|gb=%llu", static_cast<unsigned long long>(*GatherBytes));
  return Experiment(P, NumProcs, Key,
                    GatherBytes ? "reduce+gather" : "reduce", [&] {
    ScheduleBuilder B(NumProcs);
    BuiltSchedule Built;
    std::vector<OpId> Exit = appendReduce(B, Filled);
    // The collective's useful completion: the result ready on the root.
    Built.Exit = GatherBytes ? appendGatherTimer(B, Exit, Filled.Root,
                                                 Filled.Tag + 8, *GatherBytes)
                             : std::vector<OpId>{Exit[Filled.Root]};
    Built.S = B.take();
    return Built;
  });
}

double mpicsel::runReduceOnce(const Platform &P, unsigned NumProcs,
                              const ReduceConfig &Config,
                              std::uint64_t Seed) {
  return prepareReduce(P, NumProcs, Config).run(Seed);
}

AdaptiveResult mpicsel::measureReduce(const Platform &P, unsigned NumProcs,
                                      const ReduceConfig &Config,
                                      const AdaptiveOptions &Options) {
  return prepareReduce(P, NumProcs, Config).measure(Options);
}

double mpicsel::runReduceGatherOnce(const Platform &P, unsigned NumProcs,
                                    const ReduceConfig &Config,
                                    std::uint64_t GatherBytes,
                                    std::uint64_t Seed) {
  return prepareReduce(P, NumProcs, Config, GatherBytes).run(Seed);
}

ReduceModels
mpicsel::calibrateReduce(const Platform &Plat,
                         const ReduceCalibrationOptions &Options) {
  ReduceModels Models;
  Models.SegmentBytes = Options.SegmentBytes;

  unsigned NumProcs = Options.NumProcs;
  if (NumProcs == 0)
    NumProcs = std::max(2u, Plat.maxProcs() / 2);
  if (NumProcs > Plat.maxProcs())
    fatalError("reduce calibration requests more processes than the "
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

  for (ReduceAlgorithm Alg : AllReduceAlgorithms) {
    ReduceCalibration &Calib = Models.Algorithms[static_cast<unsigned>(Alg)];
    Calib.Algorithm = Alg;

    std::vector<double> X, T;
    for (std::size_t I = 0; I != MessageSizes.size(); ++I) {
      ReduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageSizes[I];
      Config.SegmentBytes =
          Alg == ReduceAlgorithm::Linear ? 0 : Options.SegmentBytes;
      // As in Sect. 4.2, a linear gather of a varying m_g follows the
      // modelled collective. For the segmented reduces the canonical
      // x of a reduce-only experiment would be the constant m/n_s =
      // m_s, leaving (alpha, beta) unidentifiable; the gather ramp
      // spreads x (and keeps the experiment root-terminated).
      std::uint64_t GatherBytes =
          std::max<std::uint64_t>(512, MessageSizes[I] / 64);
      if (GatherBytes == Options.SegmentBytes)
        GatherBytes += 512;
      AdaptiveOptions Adaptive = Options.Adaptive;
      Adaptive.BaseSeed = Options.Adaptive.BaseSeed +
                          0x400000ull * static_cast<unsigned>(Alg) +
                          0x100ull * I;
      AdaptiveResult R =
          prepareReduce(Plat, NumProcs, Config, GatherBytes).measure(Adaptive);
      CostCoefficients C =
          reduceCostCoefficients(Alg, NumProcs, MessageSizes[I],
                                 Config.SegmentBytes, Models.Gamma) +
          linearGatherCostCoefficients(NumProcs, GatherBytes);
      assert(C.A > 0 && "degenerate reduce experiment");
      X.push_back(C.B / C.A);
      T.push_back(R.Stats.Mean / C.A);
    }
    Calib.Fit = Options.UseHuber ? fitHuber(X, T) : fitLeastSquares(X, T);
    if (!Calib.Fit.Valid)
      fatalError("reduce alpha/beta regression degenerate");
    Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
    Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  }
  return Models;
}
