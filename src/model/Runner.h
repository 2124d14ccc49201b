//===- model/Runner.h - Measurement harness over the simulator -*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "MPI benchmark program" layer: composes collective schedules
/// into the communication experiments the paper runs and extracts the
/// timings it measures. Three experiments cover everything:
///
///  * a plain broadcast, timed to the last rank's exit (the quantity
///    plotted in Fig. 5 and minimised by the selection);
///  * the Sect. 4.2 calibration experiment -- modelled broadcast
///    followed by a linear gather without synchronisation -- timed on
///    the root;
///  * the Sect. 4.1 gamma experiment -- N successive linear
///    broadcasts separated by barriers -- timed on the root.
///
/// Every simulated measurement of every collective replays through one
/// path, Experiment: a measurement builds and compiles its schedule
/// once, replays its repetitions without a per-op timeline -- the
/// first MinReps side by side on several threads -- and releases the
/// schedule when it returns.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_RUNNER_H
#define MPICSEL_MODEL_RUNNER_H

#include "cluster/Platform.h"
#include "coll/Bcast.h"
#include "coll/Gather.h"
#include "mpi/ScheduleIntern.h"
#include "sim/Engine.h"
#include "stat/AdaptiveBenchmark.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpicsel {

class Experiment;

/// The experiment of one broadcast over ranks 0..NumProcs-1, observing
/// the collective's completion time -- the latest exit over all ranks,
/// the usual definition of collective latency -- or, with
/// \p GatherBytes, the Sect. 4.2 calibration experiment: the modelled
/// broadcast immediately followed by a linear gather without
/// synchronisation of \p GatherBytes per rank, timed on the root from
/// experiment start to the root completing the gather. Only the plain
/// broadcast feeds the drift sentinel.
Experiment
prepareBcast(const Platform &P, unsigned NumProcs, const BcastConfig &Config,
             std::optional<std::uint64_t> GatherBytes = std::nullopt);

/// A communication experiment ready to replay. Construction builds and
/// compiles the schedule once, through the process-wide intern cache,
/// so concurrent measurements of one shape share it. The schedule is
/// released when the last copy of the Experiment goes away.
///
/// run() is the library's one replay path. It replays on the calling
/// thread's warm Engine, or through the legacy interpreter under
/// EngineMode::Legacy, with the same pre-flight verification as
/// runSchedule. The observation is the latest completion time over the
/// schedule's exit ops, divided by \p Divisor (the call count of a
/// train, 2 for a ping-pong's one-way time). The platform is held by
/// reference and must outlive the experiment.
///
/// measure() replays the first MinReps repetitions of each attempt side
/// by side, on the calling thread and the helpers of
/// HelperPool::global(), then continues serially; its observations
/// are the serial loop's, bit for bit. Inside a parallel sweep's
/// worker every repetition replays on the worker.
class Experiment {
public:
  /// Prepares the experiment whose schedule \p Build generates over
  /// \p NumProcs ranks. \p Key must name every parameter that shapes
  /// that schedule; \p What (a string literal) names it in
  /// diagnostics. Aborts when the platform hosts fewer than
  /// \p NumProcs processes.
  Experiment(const Platform &P, unsigned NumProcs, const std::string &Key,
             const char *What, const std::function<BuiltSchedule()> &Build,
             double Divisor = 1.0);

  /// Replays one repetition under \p Seed and returns its observation.
  /// Aborts if the schedule deadlocks -- a programming error.
  double run(std::uint64_t Seed) const;

  /// Adaptively repeats run() until the paper's 95%/2.5% criterion is
  /// met and returns the statistics.
  AdaptiveResult measure(const AdaptiveOptions &Options = {}) const;

  /// The interned schedule this experiment replays.
  const InternedScheduleRef &schedule() const { return Schedule; }

private:
  friend Experiment prepareBcast(const Platform &, unsigned,
                                 const BcastConfig &,
                                 std::optional<std::uint64_t>);

  /// run() on \p E, without the drift feed; safe on any thread.
  double replay(std::uint64_t Seed, Engine &E) const;
  /// The options of a measurement replay: no timeline, exit ops only.
  ReplayOptions leanReplay() const;
  /// Feeds \p Observation to the installed drift sentinel, if this
  /// experiment is a plain broadcast.
  void feedDrift(double Observation) const;

  InternedScheduleRef Schedule;
  const Platform *Plat;
  const char *Label;
  double TimeDivisor;
  /// Plain broadcasts feed the installed drift sentinel; see
  /// prepareBcast.
  bool FeedsDrift = false;
  BcastAlgorithm DriftAlgorithm = BcastAlgorithm::Linear;
  std::uint64_t DriftMessageBytes = 0;
};

/// Appends the Sect. 4.2 calibration timer to a collective that exits
/// through \p Entry: a linear gather without synchronisation of
/// \p GatherBytes per rank to \p Root, tagged \p Tag. Returns the op
/// the experiment's timer reads -- the root's gather exit.
std::vector<OpId> appendGatherTimer(ScheduleBuilder &B,
                                    std::span<const OpId> Entry,
                                    unsigned Root, int Tag,
                                    std::uint64_t GatherBytes);

/// Adaptively repeats prepareBcast(...).run() until the paper's
/// 95%/2.5% criterion is met and returns the statistics.
AdaptiveResult measureBcast(const Platform &P, unsigned NumProcs,
                            const BcastConfig &Config,
                            const AdaptiveOptions &Options = {});

/// Runs one Sect. 4.1 gamma experiment: \p Calls successive
/// non-blocking linear broadcasts of \p SegmentBytes over NumProcs
/// ranks, each followed by a dissemination barrier (the barrier makes
/// the root-side timer observe the delivery of every broadcast).
/// Returns T1 / Calls measured on the root, where T1 spans from the
/// start to the root's exit from the last barrier.
double runLinearBcastTrainOnce(const Platform &P, unsigned NumProcs,
                               std::uint64_t SegmentBytes, unsigned Calls,
                               std::uint64_t Seed);

/// The experiment runLinearBcastTrainOnce replays.
Experiment prepareLinearBcastTrain(const Platform &P, unsigned NumProcs,
                                   std::uint64_t SegmentBytes, unsigned Calls);

/// Runs \p Calls back-to-back dissemination barriers and returns the
/// root's exit time divided by Calls. Subtracted from
/// runLinearBcastTrainOnce to isolate the broadcast cost (the paper's
/// description leaves the barrier correction implicit; without it the
/// barrier's ceil(log2 P) rounds would leak into gamma).
double runBarrierTrainOnce(const Platform &P, unsigned NumProcs,
                           unsigned Calls, std::uint64_t Seed);

/// The experiment runBarrierTrainOnce replays.
Experiment prepareBarrierTrain(const Platform &P, unsigned NumProcs,
                               unsigned Calls);

/// Runs one ping-pong between ranks \p RankA and \p RankB and returns
/// the *one-way* time (round trip / 2) -- Hockney's measurement.
double runPingPongOnce(const Platform &P, unsigned RankA, unsigned RankB,
                       std::uint64_t Bytes, std::uint64_t Seed);

/// The experiment runPingPongOnce replays.
Experiment preparePingPong(const Platform &P, unsigned RankA, unsigned RankB,
                           std::uint64_t Bytes);

} // namespace mpicsel

#endif // MPICSEL_MODEL_RUNNER_H
