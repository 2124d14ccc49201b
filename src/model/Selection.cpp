//===- model/Selection.cpp - Selection evaluation harness ------------------===//

#include "model/Selection.h"

#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/ReduceSelection.h"
#include "model/ScatterSelection.h"
#include "obs/Journal.h"

using namespace mpicsel;

template <typename AlgT>
CollectiveSelectionPoint<AlgT>
mpicsel::evaluateSelectionPoint(const Platform &P, unsigned NumProcs,
                                std::uint64_t MessageBytes,
                                const CollectiveModels<AlgT> &Models,
                                const AdaptiveOptions &Options) {
  using Descriptor = CollectiveDescriptor<AlgT>;
  obs::PhaseSpan Span(obs::Phase::Selection);
  CollectiveSelectionPoint<AlgT> Point;
  Point.NumProcs = NumProcs;
  Point.MessageBytes = MessageBytes;

  // The plain collective, no gather, under the op's seed rule.
  auto measure = [&](AlgT Alg, std::uint64_t SegmentBytes, bool FixedRule) {
    const ModelQuery Query = collectiveQuery(
        Alg, NumProcs, MessageBytes, SegmentBytes, Models.KChainFanout);
    AdaptiveOptions Seeded = Options;
    if constexpr (requires {
                    Descriptor::oracleSeed(Options.BaseSeed, Query, Alg,
                                           FixedRule);
                  })
      Seeded.BaseSeed =
          Descriptor::oracleSeed(Options.BaseSeed, Query, Alg, FixedRule);
    return Descriptor::prepare(P, Alg, Query, std::nullopt)
        .measure(Seeded)
        .Stats.Mean;
  };

  // Measure the full landscape at the calibrated segment size.
  bool First = true;
  for (AlgT Alg : Descriptor::Algorithms) {
    const double Time = measure(Alg, Models.SegmentBytes, false);
    Point.MeasuredTime[static_cast<unsigned>(Alg)] = Time;
    if (First || Time < Point.BestTime) {
      Point.Best = Alg;
      Point.BestTime = Time;
      First = false;
    }
  }

  // Model-based selection: reuse the landscape measurement (the model
  // picks among the same configurations).
  Point.ModelChoice = Models.selectBest(NumProcs, MessageBytes);
  Point.ModelPredictedTime =
      Models.predict(Point.ModelChoice, NumProcs, MessageBytes);
  Point.ModelChoiceTime =
      Point.MeasuredTime[static_cast<unsigned>(Point.ModelChoice)];

  // The fixed rule's pick comes from the landscape unless it runs a
  // segmented algorithm at a segment size of its own.
  if constexpr (CollectiveSelectionPoint<AlgT>::HasFixedRule) {
    Point.OmpiChoice = Descriptor::fixedRule(NumProcs, MessageBytes);
    const AlgT Alg = Point.OmpiChoice.Algorithm;
    const std::uint64_t Own =
        Point.OmpiChoice.SegmentBytes.value_or(Models.SegmentBytes);
    const bool Segmented =
        (Descriptor::SegmentedMask >> static_cast<unsigned>(Alg)) & 1u;
    Point.OmpiChoiceTime = Segmented && Own != Models.SegmentBytes
                               ? measure(Alg, Own, true)
                               : Point.MeasuredTime[static_cast<unsigned>(Alg)];
  }
  return Point;
}

// The five collectives the oracle serves.
#define MPICSEL_INSTANTIATE_SELECTION(AlgT)                                    \
  template CollectiveSelectionPoint<AlgT> mpicsel::evaluateSelectionPoint(     \
      const Platform &, unsigned, std::uint64_t,                               \
      const CollectiveModels<AlgT> &, const AdaptiveOptions &);
MPICSEL_INSTANTIATE_SELECTION(BcastAlgorithm)
MPICSEL_INSTANTIATE_SELECTION(ScatterAlgorithm)
MPICSEL_INSTANTIATE_SELECTION(ReduceAlgorithm)
MPICSEL_INSTANTIATE_SELECTION(AllgatherAlgorithm)
MPICSEL_INSTANTIATE_SELECTION(AllreduceAlgorithm)
#undef MPICSEL_INSTANTIATE_SELECTION
