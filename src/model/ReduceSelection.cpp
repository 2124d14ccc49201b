//===- model/ReduceSelection.cpp - The method on MPI_Reduce ----------------===//

#include "model/ReduceSelection.h"

#include "coll/Bcast.h"
#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"

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
    ModelQuery Query;
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
    ModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return bcastCostCoefficients(BcastAlgorithm::Binomial, Query, Gamma);
  }
  }
  MPICSEL_UNREACHABLE("unknown reduce algorithm");
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

AdaptiveResult mpicsel::measureReduce(const Platform &P, unsigned NumProcs,
                                      const ReduceConfig &Config,
                                      const AdaptiveOptions &Options) {
  return prepareReduce(P, NumProcs, Config).measure(Options);
}
