//===- model/AllgatherSelection.cpp - The method on MPI_Allgather ----------===//

#include "model/AllgatherSelection.h"

#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"

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

AdaptiveResult mpicsel::measureAllgather(const Platform &P,
                                         unsigned NumProcs,
                                         const AllgatherConfig &Config,
                                         const AdaptiveOptions &Options) {
  return prepareAllgather(P, NumProcs, Config).measure(Options);
}
