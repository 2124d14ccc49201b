//===- model/TraditionalModels.cpp - State-of-the-art baselines -----------===//

#include "model/TraditionalModels.h"

#include "coll/Bcast.h"
#include "model/Runner.h"
#include "stat/Regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mpicsel;

static unsigned ceilLog2(unsigned V) {
  assert(V >= 1 && "log of zero");
  unsigned Log = 0;
  while ((1ull << Log) < V)
    ++Log;
  return Log;
}

HockneyParams
mpicsel::measureHockneyParams(const Platform &P, unsigned RankA,
                              unsigned RankB,
                              std::vector<std::uint64_t> MessageSizes,
                              const AdaptiveOptions &Options) {
  if (MessageSizes.empty())
    for (std::uint64_t Bytes = 64; Bytes <= 512 * 1024; Bytes *= 2)
      MessageSizes.push_back(Bytes);

  std::vector<double> X, Y;
  AdaptiveOptions PointOptions = Options;
  for (std::uint64_t Bytes : MessageSizes) {
    PointOptions.BaseSeed = Options.BaseSeed + Bytes;
    AdaptiveResult R =
        preparePingPong(P, RankA, RankB, Bytes).measure(PointOptions);
    X.push_back(static_cast<double>(Bytes));
    Y.push_back(R.Stats.Mean);
  }
  LinearFit Fit = fitLeastSquares(X, Y);
  HockneyParams H;
  H.Alpha = std::max(Fit.Intercept, 0.0);
  H.Beta = std::max(Fit.Slope, 0.0);
  return H;
}

double mpicsel::traditionalBinomialBcast(const HockneyParams &H,
                                         unsigned NumProcs,
                                         std::uint64_t MessageBytes) {
  if (NumProcs <= 1)
    return 0.0;
  return static_cast<double>(ceilLog2(NumProcs)) *
         H.pointToPoint(MessageBytes);
}

double mpicsel::traditionalBinaryBcast(const HockneyParams &H,
                                       unsigned NumProcs,
                                       std::uint64_t MessageBytes,
                                       std::uint64_t SegmentBytes) {
  if (NumProcs <= 1)
    return 0.0;
  std::uint64_t NumSegments = bcastSegmentCount(MessageBytes, SegmentBytes);
  double SegBytes = static_cast<double>(MessageBytes) /
                    static_cast<double>(NumSegments);
  double Stages = static_cast<double>(NumSegments) +
                  static_cast<double>(ceilLog2(NumProcs)) - 2.0;
  Stages = std::max(Stages, 1.0);
  return Stages * 2.0 *
         (H.Alpha + H.Beta * SegBytes);
}
