//===- obs/Metrics.cpp - Metric aggregation and names ----------------------===//

#include "obs/Metrics.h"

using namespace mpicsel;
using namespace mpicsel::obs;

const char *obs::counterName(Counter C) {
  switch (C) {
  case Counter::EngineReplays:
    return "engine.replays";
  case Counter::EngineEvents:
    return "engine.events";
  case Counter::EngineArenaWarmups:
    return "engine.arena_warmups";
  case Counter::EngineArenaReuses:
    return "engine.arena_reuses";
  case Counter::StreamReplays:
    return "stream.replays";
  case Counter::StreamEvents:
    return "stream.events";
  case Counter::RunnerExperiments:
    return "runner.experiments";
  case Counter::CalibExperiments:
    return "calib.experiments";
  case Counter::CalibRetries:
    return "calib.retries";
  case Counter::CalibOutliers:
    return "calib.outliers";
  case Counter::InternHits:
    return "intern.hits";
  case Counter::InternBuilds:
    return "intern.builds";
  case Counter::InternAdoptions:
    return "intern.adoptions";
  case Counter::CacheHits:
    return "cache.hits";
  case Counter::CacheMisses:
    return "cache.misses";
  case Counter::CacheCorrupt:
    return "cache.corrupt";
  case Counter::CacheStores:
    return "cache.stores";
  case Counter::PoolTasks:
    return "pool.tasks";
  case Counter::PoolSteals:
    return "pool.steals";
  case Counter::AuditChecks:
    return "audit.checks";
  case Counter::AuditViolations:
    return "audit.violations";
  case Counter::SelectorFallbacks:
    return "selector.fallbacks";
  case Counter::DriftSamples:
    return "drift.samples";
  case Counter::DriftScreened:
    return "drift.screened";
  case Counter::DriftTrips:
    return "drift.trips";
  case Counter::DriftQuarantines:
    return "drift.quarantines";
  case Counter::DriftRepairs:
    return "drift.repairs";
  case Counter::DriftGiveups:
    return "drift.giveups";
  case Counter::ServeLookups:
    return "serve.lookups";
  case Counter::ServeHits:
    return "serve.hits";
  case Counter::ServeSwaps:
    return "serve.swaps";
  case Counter::NumCounters:
    break;
  }
  return "unknown";
}

const char *obs::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::PoolThreads:
    return "pool.threads";
  case Gauge::SweepThreads:
    return "sweep.threads";
  case Gauge::PeakRssKiB:
    return "proc.peak_rss_kib";
  case Gauge::ServeStalenessMs:
    return "serve.staleness_ms";
  case Gauge::NumGauges:
    break;
  }
  return "unknown";
}

const char *obs::phaseName(Phase P) {
  switch (P) {
  case Phase::Calibration:
    return "calibration";
  case Phase::GammaFit:
    return "gamma-fit";
  case Phase::Selection:
    return "selection";
  case Phase::Replay:
    return "replay";
  case Phase::NumPhases:
    break;
  }
  return "unknown";
}

MetricsSnapshot obs::snapshotMetrics() {
  MetricsSnapshot Snap;
  for (const CounterBlock *Block =
           detail::blockListHead().load(std::memory_order_acquire);
       Block; Block = Block->Next)
    for (std::size_t I = 0; I != NumCounters; ++I)
      Snap.Counters[I] += Block->Values[I].load(std::memory_order_relaxed);
  for (std::size_t I = 0; I != NumGauges; ++I)
    Snap.Gauges[I] = detail::gaugeSlot(static_cast<Gauge>(I))
                         .load(std::memory_order_relaxed);
  for (std::size_t I = 0; I != NumPhases; ++I) {
    Snap.PhaseNs[I] = detail::phaseNsSlot(static_cast<Phase>(I))
                          .load(std::memory_order_relaxed);
    Snap.PhaseCalls[I] = detail::phaseCallsSlot(static_cast<Phase>(I))
                             .load(std::memory_order_relaxed);
  }
  return Snap;
}
