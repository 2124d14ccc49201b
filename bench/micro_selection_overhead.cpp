//===- bench/micro_selection_overhead.cpp - Sect. 5.3 efficiency ----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The paper argues (Sect. 5.3) that "the efficiency of the selection
// procedure is evident from the low complexity of the analytical
// formulas": a runtime decision function evaluating six closed-form
// models must cost nanoseconds-to-microseconds, comparable to Open
// MPI's hard-coded branches. This google-benchmark binary quantifies
// both, plus the simulator's event throughput for context.
//
//===----------------------------------------------------------------------===//

#include "coll/Bcast.h"
#include "coll/OmpiDecision.h"
#include "model/Calibration.h"
#include "model/CostModels.h"
#include "model/DecisionCache.h"
#include "obs/Journal.h"
#include "serve/DecisionService.h"
#include "sim/Engine.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace mpicsel;

namespace {

/// A fixed calibration (paper Table 1/2 magnitudes) so the decision
/// function benchmarks measure evaluation, not calibration.
CalibratedModels fixedModels() {
  CalibratedModels M;
  M.Gamma = GammaFunction({1.0, 1.114, 1.219, 1.283, 1.451, 1.540});
  double Alphas[] = {2.2e-6, 2.2e-5, 6.0e-6, 4.9e-6, 6.7e-6, 4.7e-6};
  double Betas[] = {5.3e-9, 1.0e-10, 1.8e-9, 2.2e-9, 1.5e-9, 2.3e-9};
  for (unsigned I = 0; I != NumBcastAlgorithms; ++I) {
    M.Algorithms[I].Algorithm = static_cast<BcastAlgorithm>(I);
    M.Algorithms[I].Alpha = Alphas[I];
    M.Algorithms[I].Beta = Betas[I];
  }
  return M;
}

void BM_ModelBasedSelection(benchmark::State &State) {
  CalibratedModels M = fixedModels();
  std::uint64_t MessageBytes = 8192;
  for (auto _ : State) {
    benchmark::DoNotOptimize(M.selectBest(90, MessageBytes));
    MessageBytes = MessageBytes >= (4u << 20) ? 8192 : MessageBytes * 2;
  }
}
BENCHMARK(BM_ModelBasedSelection);

void BM_OmpiFixedDecision(benchmark::State &State) {
  std::uint64_t MessageBytes = 8192;
  for (auto _ : State) {
    benchmark::DoNotOptimize(ompiBcastDecisionFixed(90, MessageBytes));
    MessageBytes = MessageBytes >= (4u << 20) ? 8192 : MessageBytes * 2;
  }
}
BENCHMARK(BM_OmpiFixedDecision);

/// The Sect. 5.3 comparison, served path: the same decision answered
/// from a published binary table image through the lock-free
/// DecisionService (epoch pin + direct-index lookup), the form a
/// long-lived client actually pays per collective call.
serve::DecisionService &servedFixedTable() {
  static serve::DecisionService *Service = [] {
    auto *S = new serve::DecisionService();
    std::vector<std::uint64_t> Sizes;
    for (std::uint64_t M = 8192; M <= (4u << 20); M *= 2)
      Sizes.push_back(M);
    S->publishTable(buildDecisionTable(fixedModels(),
                                       {2, 4, 8, 16, 32, 64, 128},
                                       std::move(Sizes)),
                    "bench");
    return S;
  }();
  return *Service;
}

void BM_DecisionServiceLookup(benchmark::State &State) {
  serve::DecisionService &S = servedFixedTable();
  std::uint64_t MessageBytes = 8192;
  for (auto _ : State) {
    benchmark::DoNotOptimize(S.lookup(90, MessageBytes));
    MessageBytes = MessageBytes >= (4u << 20) ? 8192 : MessageBytes * 2;
  }
}
BENCHMARK(BM_DecisionServiceLookup);

/// The sweep-client form: 64 queries answered under one epoch pin.
void BM_DecisionServiceBatch(benchmark::State &State) {
  serve::DecisionService &S = servedFixedTable();
  std::vector<serve::TableQuery> Queries;
  std::uint64_t MessageBytes = 8192;
  for (unsigned I = 0; I != 64; ++I) {
    Queries.push_back({90, MessageBytes});
    MessageBytes = MessageBytes >= (4u << 20) ? 8192 : MessageBytes * 2;
  }
  std::vector<unsigned> Choices(Queries.size());
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        S.lookupBatch(Queries.data(), Queries.size(), Choices.data()));
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Queries.size()));
}
BENCHMARK(BM_DecisionServiceBatch);

void BM_SingleModelEvaluation(benchmark::State &State) {
  GammaFunction G({1.0, 1.114, 1.219, 1.283, 1.451, 1.540});
  ModelQuery Q;
  Q.NumProcs = 90;
  Q.MessageBytes = 1 << 20;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        bcastCostCoefficients(BcastAlgorithm::Binomial, Q, G));
}
BENCHMARK(BM_SingleModelEvaluation);

/// Simulator throughput: one full segmented broadcast schedule,
/// built and executed. Reported as ops (schedule operations) per
/// second via the custom counter.
void BM_SimulateBinomialBcast(benchmark::State &State) {
  Platform P = makeGrisou();
  std::uint64_t Ops = 0;
  for (auto _ : State) {
    ScheduleBuilder B(64);
    BcastConfig Config;
    Config.Algorithm = BcastAlgorithm::Binomial;
    Config.MessageBytes = static_cast<std::uint64_t>(State.range(0));
    Config.SegmentBytes = 8192;
    appendBcast(B, Config);
    Schedule S = B.take();
    Ops += S.numOps();
    benchmark::DoNotOptimize(runSchedule(S, P, 1));
  }
  State.counters["sched_ops/s"] = benchmark::Counter(
      static_cast<double>(Ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateBinomialBcast)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);

} // namespace

// Hand-rolled BENCHMARK_MAIN so the shared --metrics flag works here
// too: it is peeled off before google-benchmark sees the arguments
// (which would otherwise reject it as unrecognised).
int main(int Argc, char **Argv) {
  std::string MetricsPath;
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.rfind("--metrics=", 0) == 0) {
      MetricsPath = Arg.substr(std::string("--metrics=").size());
      continue;
    }
    if (Arg == "--metrics" && I + 1 < Argc) {
      MetricsPath = Argv[++I];
      continue;
    }
    Args.push_back(Argv[I]);
  }
  obs::initObservability(MetricsPath);
  int BenchArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&BenchArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(BenchArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
