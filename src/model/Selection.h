//===- model/Selection.h - Selection evaluation harness ---------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The a-posteriori oracle: evaluates the decision procedures the paper
/// compares in Fig. 5 and Table 3 at one (P, m) point, for any of the
/// five collectives (the journal version scores every op against this
/// one oracle):
///
///  * the *best* algorithm (green): a-posteriori argmin over the
///    measured times of all the op's algorithms at the calibrated
///    segment size;
///  * the *model-based* selection (red): the calibrated models'
///    argmin, then its measured time;
///  * the *Open MPI* fixed decision function (blue), for the ops that
///    have one: the algorithm -- and for broadcast the segment size --
///    Open MPI 3.1 would pick, then its measured time.
///
/// What differs per op -- the experiment, the segmented algorithms,
/// the fixed rule and the seeds -- is the op's CollectiveDescriptor
/// (model/Calibration.h).
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_SELECTION_H
#define MPICSEL_MODEL_SELECTION_H

#include "cluster/Platform.h"
#include "model/Calibration.h"

#include <array>
#include <cstdint>

namespace mpicsel {

/// The measured landscape and the selections at one (P, m) of the
/// collective whose algorithm enum is \p AlgT.
template <typename AlgT> struct CollectiveSelectionPoint {
  /// Whether the op has a fixed decision rule (the Ompi* fields).
  static constexpr bool HasFixedRule =
      requires(unsigned P, std::uint64_t M) {
        CollectiveDescriptor<AlgT>::fixedRule(P, M);
      };

  unsigned NumProcs = 0;
  std::uint64_t MessageBytes = 0;

  /// Mean measured time per algorithm at the calibrated segment size.
  std::array<double, CollectiveDescriptor<AlgT>::Algorithms.size()>
      MeasuredTime{};

  /// A-posteriori best algorithm and its time.
  AlgT Best{};
  double BestTime = 0.0;

  /// Model-based selection, its *measured* time and predicted time.
  AlgT ModelChoice{};
  double ModelChoiceTime = 0.0;
  double ModelPredictedTime = 0.0;

  /// Open MPI's decision and its measured time.
  FixedDecision<AlgT> OmpiChoice;
  double OmpiChoiceTime = 0.0;

  /// Performance degradation (T - T_best)/T_best of a selection.
  double modelDegradation() const {
    return BestTime > 0 ? (ModelChoiceTime - BestTime) / BestTime : 0.0;
  }
  double ompiDegradation() const {
    return BestTime > 0 ? (OmpiChoiceTime - BestTime) / BestTime : 0.0;
  }
};

using SelectionPoint = CollectiveSelectionPoint<BcastAlgorithm>;

/// Measures every algorithm of the op at (\p NumProcs, \p MessageBytes)
/// -- block bytes for scatter and allgather -- in enum order, at the
/// calibrated segment size and K-chain fanout, and evaluates the
/// model-based and fixed decisions against them. The fixed rule's pick
/// is measured again, after the landscape, only at a segment size of
/// its own. Explicitly instantiated for the five collectives.
template <typename AlgT>
CollectiveSelectionPoint<AlgT>
evaluateSelectionPoint(const Platform &P, unsigned NumProcs,
                       std::uint64_t MessageBytes,
                       const CollectiveModels<AlgT> &Models,
                       const AdaptiveOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_SELECTION_H
