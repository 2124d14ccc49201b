//===- obs/Metrics.h - Process-wide metrics registry ------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named monotonic counters, gauges and
/// scoped phase timers. The design constraint is the engine replay
/// loop: instrumentation there must cost one relaxed atomic increment
/// when metrics are enabled and a single relaxed flag load when they
/// are not, and it must never allocate on the hot path (the
/// zero-allocation replay gate in bench/micro_engine runs with
/// metrics enabled).
///
/// To keep that contract the whole hot path is header-only and
/// link-free: counters are sharded into per-thread `CounterBlock`s
/// (registered once per thread on a lock-free intrusive list), so any
/// subsystem -- including `support/ThreadPool`, which the obs library
/// itself depends on -- can bump a counter by including this header
/// without creating a library cycle. Aggregation (`snapshotMetrics`)
/// and the human-readable names live in the `mpicsel_obs` library;
/// the JSONL run journal is in obs/Journal.h.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_OBS_METRICS_H
#define MPICSEL_OBS_METRICS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace mpicsel {
namespace obs {

/// Every monotonic counter in the process. Names (reported in the
/// journal summary and by `counterName`) are dot-separated
/// "<subsystem>.<what>" strings; see Metrics.cpp for the table.
enum class Counter : unsigned {
  EngineReplays,      ///< compiled-schedule replays completed
  EngineEvents,       ///< events popped by the compiled replay loop
  EngineArenaWarmups, ///< replays that had to grow the run-state arena
  EngineArenaReuses,  ///< replays served entirely from a warm arena
  StreamReplays,      ///< streaming (closed-form) replays completed
  StreamEvents,       ///< events popped by the streaming replay loop
  RunnerExperiments,  ///< simulated collective experiments (all callers)
  CalibExperiments,   ///< adaptive calibration measurements taken
  CalibRetries,       ///< calibration measurements reseeded and retried
  CalibOutliers,      ///< observations screened out by the MAD filter
  InternHits,         ///< schedule intern-cache lookups served
  InternBuilds,       ///< schedules built (cache miss, builder invoked)
  InternAdoptions,    ///< built schedules discarded for a racing winner's
  CacheHits,          ///< decision-cache entries loaded
  CacheMisses,        ///< decision-cache lookups with no usable entry
  CacheCorrupt,       ///< entries that read OK but failed to parse
  CacheStores,        ///< decision-cache entries written
  PoolTasks,          ///< tasks of sweeps run on more than one seat
  PoolSteals,         ///< sweep tasks a helper thread ran
  AuditChecks,        ///< model/table audit checks evaluated
  AuditViolations,    ///< audit findings at violation severity
  SelectorFallbacks,  ///< robust selections degraded to the OMPI decision
  DriftSamples,       ///< replay residuals fed to the drift sentinel
  DriftScreened,      ///< residuals the sentinel's MAD screen discarded
  DriftTrips,         ///< drift cells tripped
  DriftQuarantines,   ///< selections degraded by a quarantined cell
  DriftRepairs,       ///< algorithms repaired by targeted recalibration
  DriftGiveups,       ///< algorithms abandoned after repair backoff
  ServeLookups,       ///< decision-service lookups answered
  ServeHits,          ///< served lookups that hit a grid point exactly
  ServeSwaps,         ///< decision-table images atomically swapped in
  NumCounters         ///< sentinel: number of counters
};

constexpr std::size_t NumCounters =
    static_cast<std::size_t>(Counter::NumCounters);

/// Low-frequency instantaneous values, aggregated as a running
/// maximum (a plain "last write wins" would be meaningless across
/// threads).
enum class Gauge : unsigned {
  PoolThreads,  ///< widest helper pool started (helpers + the caller)
  SweepThreads, ///< widest parallel sweep fan-out requested
  PeakRssKiB,   ///< highest resident-set size observed (KiB, see obs/Rss.h)
  ServeStalenessMs, ///< oldest served decision image observed (ms): recorded
                    ///< at swap-out and sampled on the lookup path, so it
                    ///< advances even while the first image serves
  NumGauges     ///< sentinel: number of gauges
};

constexpr std::size_t NumGauges = static_cast<std::size_t>(Gauge::NumGauges);

/// The coarse phases a run moves through; `ScopedTimer` accumulates
/// wall-clock nanoseconds and entry counts per phase, and
/// obs/Journal.h's `PhaseSpan` additionally journals each span.
enum class Phase : unsigned {
  Calibration, ///< full two-stage model calibration
  GammaFit,    ///< stage 1: gamma(p) estimation + log fit
  Selection,   ///< model-based algorithm selection sweep
  Replay,      ///< compiled-schedule replay batches
  NumPhases    ///< sentinel: number of phases
};

constexpr std::size_t NumPhases = static_cast<std::size_t>(Phase::NumPhases);

/// One thread's shard of the counter registry. Blocks are allocated
/// on first use per thread, pushed onto a global intrusive list, and
/// deliberately never freed: a counter bump after the owning thread
/// exits is impossible, but a snapshot after it exits must still see
/// its contribution.
struct CounterBlock {
  std::array<std::atomic<std::uint64_t>, NumCounters> Values{};
  CounterBlock *Next = nullptr;
};

namespace detail {

inline std::atomic<bool> &enabledFlag() {
  static std::atomic<bool> Flag{false};
  return Flag;
}

inline std::atomic<CounterBlock *> &blockListHead() {
  static std::atomic<CounterBlock *> Head{nullptr};
  return Head;
}

inline std::atomic<std::uint64_t> &gaugeSlot(Gauge G) {
  static std::array<std::atomic<std::uint64_t>, NumGauges> Slots{};
  return Slots[static_cast<std::size_t>(G)];
}

inline std::atomic<std::uint64_t> &phaseNsSlot(Phase P) {
  static std::array<std::atomic<std::uint64_t>, NumPhases> Slots{};
  return Slots[static_cast<std::size_t>(P)];
}

inline std::atomic<std::uint64_t> &phaseCallsSlot(Phase P) {
  static std::array<std::atomic<std::uint64_t>, NumPhases> Slots{};
  return Slots[static_cast<std::size_t>(P)];
}

/// Registers (and leaks, by design) this thread's counter block.
inline CounterBlock *registerBlock() {
  auto *Block = new CounterBlock();
  std::atomic<CounterBlock *> &Head = blockListHead();
  Block->Next = Head.load(std::memory_order_relaxed);
  while (!Head.compare_exchange_weak(Block->Next, Block,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
  return Block;
}

inline CounterBlock &threadBlock() {
  thread_local CounterBlock *Block = registerBlock();
  return *Block;
}

} // namespace detail

/// Whether metric collection is on. A single relaxed load; this is
/// the only cost instrumented code pays when metrics are disabled.
inline bool metricsEnabled() {
  return detail::enabledFlag().load(std::memory_order_relaxed);
}

/// Flips collection on or off process-wide. Normally driven by
/// MPICSEL_METRICS / --metrics through obs/Journal.h; exposed for
/// tests that want counters without a journal sink.
inline void setMetricsEnabled(bool On) {
  detail::enabledFlag().store(On, std::memory_order_relaxed);
}

/// Adds \p Delta to \p C on this thread's shard: one relaxed
/// fetch_add when enabled, one relaxed load when not.
inline void bump(Counter C, std::uint64_t Delta = 1) {
  if (!metricsEnabled())
    return;
  detail::threadBlock().Values[static_cast<std::size_t>(C)].fetch_add(
      Delta, std::memory_order_relaxed);
}

/// Raises gauge \p G to at least \p Value (running maximum).
inline void gaugeMax(Gauge G, std::uint64_t Value) {
  if (!metricsEnabled())
    return;
  std::atomic<std::uint64_t> &Slot = detail::gaugeSlot(G);
  std::uint64_t Seen = Slot.load(std::memory_order_relaxed);
  while (Seen < Value && !Slot.compare_exchange_weak(
                             Seen, Value, std::memory_order_relaxed)) {
  }
}

/// Credits \p Ns wall-clock nanoseconds (one entry) to phase \p P.
inline void addPhaseSample(Phase P, std::uint64_t Ns) {
  detail::phaseNsSlot(P).fetch_add(Ns, std::memory_order_relaxed);
  detail::phaseCallsSlot(P).fetch_add(1, std::memory_order_relaxed);
}

/// RAII phase timer: credits the elapsed wall-clock to \p P on
/// destruction. Decides whether to measure at construction, so a
/// timer spanning a configure() call stays consistent.
class ScopedTimer {
public:
  explicit ScopedTimer(Phase P) : Which(P), Active(metricsEnabled()) {
    if (Active)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (Active)
      addPhaseSample(Which, elapsedNs());
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

  /// Nanoseconds since construction (0 when inactive).
  std::uint64_t elapsedNs() const {
    if (!Active)
      return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }
  bool active() const { return Active; }

private:
  Phase Which;
  bool Active;
  std::chrono::steady_clock::time_point Start;
};

/// A consistent-enough copy of every metric: counters summed over all
/// thread shards, gauges, and per-phase timer totals. Relaxed reads;
/// exact once the bumping threads have been joined.
struct MetricsSnapshot {
  std::array<std::uint64_t, NumCounters> Counters{};
  std::array<std::uint64_t, NumGauges> Gauges{};
  std::array<std::uint64_t, NumPhases> PhaseNs{};
  std::array<std::uint64_t, NumPhases> PhaseCalls{};

  std::uint64_t counter(Counter C) const {
    return Counters[static_cast<std::size_t>(C)];
  }
  std::uint64_t gauge(Gauge G) const {
    return Gauges[static_cast<std::size_t>(G)];
  }
  std::uint64_t phaseNs(Phase P) const {
    return PhaseNs[static_cast<std::size_t>(P)];
  }
  std::uint64_t phaseCalls(Phase P) const {
    return PhaseCalls[static_cast<std::size_t>(P)];
  }
};

// Implemented in Metrics.cpp (mpicsel_obs).
MetricsSnapshot snapshotMetrics();
const char *counterName(Counter C);
const char *gaugeName(Gauge G);
const char *phaseName(Phase P);

} // namespace obs
} // namespace mpicsel

#endif // MPICSEL_OBS_METRICS_H
