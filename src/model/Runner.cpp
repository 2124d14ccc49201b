//===- model/Runner.cpp - Measurement harness over the simulator ----------===//

#include "model/Runner.h"

#include "coll/Barrier.h"
#include "coll/PointToPoint.h"
#include "drift/Drift.h"
#include "mpi/ScheduleIntern.h"
#include "obs/Metrics.h"
#include "sim/Engine.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace mpicsel;

static void checkRanks(const Platform &P, unsigned NumProcs) {
  assert(NumProcs >= 1 && "experiments need at least one rank");
  if (NumProcs > P.maxProcs())
    fatalError("experiment requests more processes than the platform hosts");
}

namespace {

/// The per-thread replay engine. ParallelSweep gives each worker its
/// own thread, and a run's result is a pure function of (schedule,
/// platform, seed, faults), so per-worker engines preserve the
/// bit-identity of serial and threaded sweeps while letting every
/// repetition reuse one warm arena.
Engine &workerEngine() {
  thread_local Engine E;
  return E;
}

/// Interning key fragment for one broadcast configuration.
std::string bcastKey(const BcastConfig &Config, unsigned NumProcs) {
  return strFormat("alg=%d|P=%u|m=%llu|seg=%llu|root=%u|k=%u|tag=%d",
                   static_cast<int>(Config.Algorithm), NumProcs,
                   static_cast<unsigned long long>(Config.MessageBytes),
                   static_cast<unsigned long long>(Config.SegmentBytes),
                   Config.Root, Config.KChainFanout, Config.Tag);
}

} // namespace

Experiment::Experiment(const Platform &P, unsigned NumProcs,
                       const std::string &Key, const char *What,
                       const std::function<BuiltSchedule()> &Build,
                       double Divisor)
    : Plat(&P), Label(What), TimeDivisor(Divisor) {
  checkRanks(P, NumProcs);
  Schedule = ScheduleInternCache::global().intern(Key, Build);
}

double Experiment::run(std::uint64_t Seed) const {
  const double Observation = replay(Seed, workerEngine());
  feedDrift(Observation);
  return Observation;
}

ReplayOptions Experiment::leanReplay() const {
  // The observation reads only the exit ops, so the replay keeps no
  // per-op timeline.
  ReplayOptions Lean;
  Lean.RecordTimings = false;
  Lean.ExitOps = Schedule->Exit;
  return Lean;
}

double Experiment::replay(std::uint64_t Seed, Engine &E) const {
  // Every simulated measurement in the process funnels through here,
  // whichever engine executes it.
  obs::bump(obs::Counter::RunnerExperiments);
  // Under EngineMode::Legacy the compiled schedule's source replays
  // through the legacy interpreter instead -- one env variable
  // (MPICSEL_ENGINE=legacy) flips the whole measurement stack for
  // differential testing.
  double Latest = 0.0;
  if (engineMode() == EngineMode::Legacy) {
    const ExecutionResult R =
        runScheduleLegacy(Schedule->Compiled.Source, *Plat, Seed);
    if (!R.Completed)
      fatalError(strFormat("%s schedule deadlocked: ", Label) + R.Diagnostic);
    for (OpId Id : Schedule->Exit)
      Latest = std::max(Latest, R.doneTime(Id));
    return Latest / TimeDivisor;
  }
  const ExecutionResult &R =
      E.run(Schedule->Compiled, *Plat, Seed, nullptr, leanReplay());
  if (!R.Completed)
    fatalError(strFormat("%s schedule deadlocked: ", Label) + R.Diagnostic);
  for (double Done : R.ExitTimes)
    Latest = std::max(Latest, Done);
  return Latest / TimeDivisor;
}

void Experiment::feedDrift(double Observation) const {
  // Plain broadcast replays are what the deployed selection serves,
  // so they are the drift sentinel's feed; the calibration's
  // bcast+gather experiments deliberately are not (a repair measuring
  // through them must not re-trigger itself). One atomic load when no
  // sentinel is installed.
  if (FeedsDrift)
    if (DriftSentinel *Sentinel = globalDriftSentinel())
      Sentinel->observe(DriftAlgorithm, Schedule->Compiled.RankCount,
                        DriftMessageBytes, Observation);
}

AdaptiveResult Experiment::measure(const AdaptiveOptions &Options) const {
  // The first MinReps repetitions always run and depend only on their
  // seeds, so they replay side by side on the idle cores, each thread
  // on its own engine over the shared schedule. The calling thread
  // replays on its warm engine. The helpers' engines live for this
  // measurement only and are sized here, so their memory comes from
  // and returns to this thread's allocator arena, where the next
  // schedule build reuses it; engines kept warm on the helper threads
  // would each pin their largest shape for good. The drift sentinel
  // needs a fixed sample order per cell, so this thread feeds it the
  // observations in repetition order afterwards.
  return measureAdaptively(
      [this](std::uint64_t Seed) { return run(Seed); }, Options,
      [this](std::span<const std::uint64_t> Seeds, std::span<double> Out) {
        HelperPool &Pool = HelperPool::global();
        std::vector<Engine> HelperEngines(Pool.seats(Seeds.size()) - 1);
        if (engineMode() == EngineMode::Compiled)
          for (Engine &E : HelperEngines)
            E.reserve(Schedule->Compiled, *Plat, leanReplay());
        Pool.run(Seeds.size(), [&](std::size_t I, unsigned Seat) {
          Out[I] = replay(Seeds[I], Seat == 0 ? workerEngine()
                                              : HelperEngines[Seat - 1]);
        });
        for (double Observation : Out)
          feedDrift(Observation);
      });
}

Experiment mpicsel::prepareBcast(const Platform &P, unsigned NumProcs,
                                 const BcastConfig &Config,
                                 std::optional<std::uint64_t> GatherBytes) {
  if (GatherBytes) {
    // The Sect. 4.2 calibration experiment starts and finishes on the
    // root; the gather's tags stay clear of the broadcast's tag range.
    const std::uint64_t Bytes = *GatherBytes;
    return Experiment(
        P, NumProcs,
        strFormat("bcastgather|gb=%llu|",
                  static_cast<unsigned long long>(Bytes)) +
            bcastKey(Config, NumProcs),
        "bcast+gather", [&] {
          ScheduleBuilder B(NumProcs);
          BuiltSchedule Built;
          Built.Exit = appendGatherTimer(B, appendBcast(B, Config),
                                         Config.Root, Config.Tag + 8, Bytes);
          Built.S = B.take();
          return Built;
        });
  }
  Experiment E(P, NumProcs, "bcast|" + bcastKey(Config, NumProcs),
               "broadcast", [&] {
                 ScheduleBuilder B(NumProcs);
                 BuiltSchedule Built;
                 Built.Exit = appendBcast(B, Config);
                 Built.S = B.take();
                 return Built;
               });
  E.FeedsDrift = true;
  E.DriftAlgorithm = Config.Algorithm;
  E.DriftMessageBytes = Config.MessageBytes;
  return E;
}

AdaptiveResult mpicsel::measureBcast(const Platform &P, unsigned NumProcs,
                                     const BcastConfig &Config,
                                     const AdaptiveOptions &Options) {
  return prepareBcast(P, NumProcs, Config).measure(Options);
}

std::vector<OpId> mpicsel::appendGatherTimer(ScheduleBuilder &B,
                                             std::span<const OpId> Entry,
                                             unsigned Root, int Tag,
                                             std::uint64_t GatherBytes) {
  GatherConfig Gather;
  Gather.BlockBytes = GatherBytes;
  Gather.Root = Root;
  Gather.Tag = Tag;
  Gather.Synchronised = false;
  return {appendLinearGather(B, Gather, Entry)[Root]};
}

Experiment mpicsel::prepareLinearBcastTrain(const Platform &P,
                                            unsigned NumProcs,
                                            std::uint64_t SegmentBytes,
                                            unsigned Calls) {
  assert(Calls >= 1 && "need at least one call");
  // T1: measured on the root, from the experiment start to the root's
  // exit from the last barrier (which certifies the last delivery).
  return Experiment(
      P, NumProcs,
      strFormat("bcasttrain|P=%u|seg=%llu|calls=%u", NumProcs,
                static_cast<unsigned long long>(SegmentBytes), Calls),
      "gamma-experiment",
      [&] {
        ScheduleBuilder B(NumProcs);
        BcastConfig Config;
        Config.Algorithm = BcastAlgorithm::Linear;
        Config.MessageBytes = SegmentBytes;
        Config.SegmentBytes = 0;
        Config.Root = 0;
        std::vector<OpId> Exit;
        for (unsigned Call = 0; Call != Calls; ++Call) {
          Config.Tag = static_cast<int>(Call) * 16;
          Exit = appendBcast(B, Config, Exit);
          Exit = appendBarrier(B, Config.Tag + 8, Exit);
        }
        BuiltSchedule Built;
        Built.Exit = {Exit[0]};
        Built.S = B.take();
        return Built;
      },
      static_cast<double>(Calls));
}

double mpicsel::runLinearBcastTrainOnce(const Platform &P, unsigned NumProcs,
                                        std::uint64_t SegmentBytes,
                                        unsigned Calls, std::uint64_t Seed) {
  return prepareLinearBcastTrain(P, NumProcs, SegmentBytes, Calls).run(Seed);
}

Experiment mpicsel::prepareBarrierTrain(const Platform &P, unsigned NumProcs,
                                        unsigned Calls) {
  assert(Calls >= 1 && "need at least one call");
  return Experiment(
      P, NumProcs, strFormat("barriertrain|P=%u|calls=%u", NumProcs, Calls),
      "barrier-train",
      [&] {
        ScheduleBuilder B(NumProcs);
        std::vector<OpId> Exit;
        for (unsigned Call = 0; Call != Calls; ++Call)
          Exit = appendBarrier(B, static_cast<int>(Call) * 16 + 8, Exit);
        BuiltSchedule Built;
        Built.Exit = {Exit[0]};
        Built.S = B.take();
        return Built;
      },
      static_cast<double>(Calls));
}

double mpicsel::runBarrierTrainOnce(const Platform &P, unsigned NumProcs,
                                    unsigned Calls, std::uint64_t Seed) {
  return prepareBarrierTrain(P, NumProcs, Calls).run(Seed);
}

Experiment mpicsel::preparePingPong(const Platform &P, unsigned RankA,
                                    unsigned RankB, std::uint64_t Bytes) {
  const unsigned NumProcs = std::max(RankA, RankB) + 1;
  return Experiment(
      P, NumProcs,
      strFormat("pingpong|a=%u|b=%u|bytes=%llu", RankA, RankB,
                static_cast<unsigned long long>(Bytes)),
      "ping-pong",
      [&] {
        ScheduleBuilder B(NumProcs);
        BuiltSchedule Built;
        Built.Exit = {appendPingPong(B, RankA, RankB, Bytes, /*Tag=*/0)[RankA]};
        Built.S = B.take();
        return Built;
      },
      2.0);
}

double mpicsel::runPingPongOnce(const Platform &P, unsigned RankA,
                                unsigned RankB, std::uint64_t Bytes,
                                std::uint64_t Seed) {
  return preparePingPong(P, RankA, RankB, Bytes).run(Seed);
}
