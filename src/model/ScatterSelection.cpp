//===- model/ScatterSelection.cpp - The method on a 2nd collective ---------===//

#include "model/ScatterSelection.h"

#include "model/Runner.h"
#include "support/Error.h"
#include "support/Format.h"
#include "topo/Tree.h"

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

AdaptiveResult mpicsel::measureScatter(const Platform &P, unsigned NumProcs,
                                       const ScatterConfig &Config,
                                       const AdaptiveOptions &Options) {
  return prepareScatter(P, NumProcs, Config).measure(Options);
}
