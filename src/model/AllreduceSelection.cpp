//===- model/AllreduceSelection.cpp - The method on MPI_Allreduce ----------===//

#include "model/AllreduceSelection.h"

#include "coll/Bcast.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"

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
    ModelQuery Query;
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

AdaptiveResult mpicsel::measureAllreduce(const Platform &P,
                                         unsigned NumProcs,
                                         const AllreduceConfig &Config,
                                         const AdaptiveOptions &Options) {
  return prepareAllreduce(P, NumProcs, Config).measure(Options);
}
