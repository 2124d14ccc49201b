//===- sim/Engine.h - Discrete-event network simulator ----------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a communication Schedule against a Platform's resource
/// model and returns per-operation timestamps. This is the synthetic
/// stand-in for the paper's physical Grid'5000 clusters.
///
/// Resource model (LogGP-flavoured):
///  * per-rank CPU: send initiations (SendOverhead) and receive
///    completions (RecvOverhead) of one process serialise here;
///  * per-node injection channel: a message occupies it for
///    TxGapPerMessage + Bytes*TxGapPerByte; messages leaving one node
///    serialise -- this is what makes concurrent non-blocking sends
///    from one root cost more than one send, i.e. the physical origin
///    of the paper's gamma(P) > 1;
///  * wire latency: overlaps freely across messages;
///  * per-node drain channel: arriving messages serialise for
///    RxGapPerMessage + Bytes*RxGapPerByte -- the origin of receive-
///    side contention at high-fan-in roots (linear gather);
///  * intra-node messages use a separate pair of per-node memory
///    channels with their own (cheaper) parameters.
///
/// Every channel occupancy and latency is multiplied by a log-normal
/// noise factor drawn from a generator seeded per run, so repeated
/// "measurements" scatter like real ones while remaining reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_SIM_ENGINE_H
#define MPICSEL_SIM_ENGINE_H

#include "cluster/Platform.h"
#include "fault/Fault.h"
#include "mpi/CompiledSchedule.h"
#include "mpi/Schedule.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mpicsel {

/// Timestamps of one executed operation (seconds of simulated time).
struct OpTiming {
  /// All dependencies satisfied (and, for receives, message matched).
  double ReadyTime = -1.0;
  /// Processing began (CPU acquired).
  double StartTime = -1.0;
  /// Operation complete: Send = message handed to the network (local,
  /// buffered completion); Recv = payload delivered and completion
  /// overhead paid; Compute = work finished.
  double DoneTime = -1.0;
  /// Whether the operation executed at all (false indicates deadlock).
  bool Done = false;
};

/// The outcome of executing a schedule.
struct ExecutionResult {
  /// True if every operation completed.
  bool Completed = false;
  /// Per-op timestamps, indexed by OpId. Empty after an Engine replay
  /// run without ReplayOptions::RecordTimings.
  std::vector<OpTiming> Timings;
  /// Completion times of the ReplayOptions::ExitOps of an Engine
  /// replay, in that order (empty otherwise).
  std::vector<double> ExitTimes;
  /// Time of the last completion in the run.
  double Makespan = 0.0;
  /// Payload bytes received per rank (delivered through matched
  /// receives) -- used by correctness tests.
  std::vector<std::uint64_t> BytesReceived;
  /// Payload bytes sent per rank.
  std::vector<std::uint64_t> BytesSent;
  /// Human-readable description of the failure when !Completed.
  std::string Diagnostic;
  /// The fault windows that governed the run (empty for fault-free
  /// runs); sim/Trace renders them as a dedicated timeline track.
  std::vector<FaultWindow> FaultWindows;
  /// Name of the fault scenario that governed the run ("" fault-free).
  std::string FaultScenario;

  /// Completion time of \p Id; the op must have executed.
  double doneTime(OpId Id) const {
    assert(Id < Timings.size() && Timings[Id].Done && "op did not execute");
    return Timings[Id].DoneTime;
  }
};

/// Executes \p S on \p P. \p Seed selects the noise stream; runs with
/// equal (schedule, platform, seed) are bit-identical. With
/// P.NoiseSigma == 0 the seed is irrelevant.
///
/// \p Faults perturbs the run with the given fault schedule (see
/// fault/Fault.h). Passing null consults the process-wide schedule
/// (globalFaultSchedule(), set via MPICSEL_FAULTS or
/// ScopedFaultInjection); when that is also null or empty, the run
/// takes the unperturbed code path and is bit-identical to a build
/// without fault support. Faulted runs stay deterministic: equal
/// (schedule, platform, seed, fault schedule) give equal timelines.
///
/// When pre-flight verification is enabled (see
/// setPreflightVerification), the static schedule verifier runs
/// first and its verdict is cross-checked against the engine's
/// outcome: a completed run that the verifier proved deadlocked (or
/// vice versa) is a bug in one of the two and aborts loudly.
ExecutionResult runSchedule(const Schedule &S, const Platform &P,
                            std::uint64_t Seed = 0,
                            const FaultSchedule *Faults = nullptr);

/// The original heap-walking interpreter, kept verbatim behind this
/// entry point as the differential-testing oracle for the compiled
/// engine (tests/TestCompiledSchedule.cpp). Semantics and results are
/// identical to runSchedule; only the execution machinery differs.
ExecutionResult runScheduleLegacy(const Schedule &S, const Platform &P,
                                  std::uint64_t Seed = 0,
                                  const FaultSchedule *Faults = nullptr);

/// Which machinery runSchedule dispatches to.
enum class EngineMode : std::uint8_t {
  /// Compile the schedule and replay it through Engine (default).
  Compiled,
  /// The original per-Op interpreter.
  Legacy,
};

/// The process-wide engine mode. The initial value is taken from the
/// MPICSEL_ENGINE environment variable ("legacy" selects the legacy
/// interpreter); anything else, or no variable, selects Compiled.
EngineMode engineMode();

/// Overrides the process-wide engine mode (differential tests).
void setEngineMode(EngineMode Mode);

/// Per-run knobs of the compiled replay.
struct ReplayOptions {
  /// Record one OpTiming row per op in ExecutionResult::Timings (32
  /// bytes per op). A measurement reads only its exit ops, so it
  /// replays without the timeline: the run's per-op state shrinks to
  /// the dependency counters and per-message clocks. Events, noise
  /// draws and every recorded time are the same either way.
  bool RecordTimings = true;
  /// Ops whose completion times the run records in
  /// ExecutionResult::ExitTimes, in this order.
  std::span<const OpId> ExitOps;
};

/// Replays compiled schedules with all per-run mutable state held in a
/// reusable arena: after the first run of a given schedule shape, a
/// run performs no heap allocation at all (bench/micro_engine asserts
/// this with a counting operator-new). One Engine is single-threaded:
/// every measuring thread owns one (thread_local in model/Runner.cpp),
/// and a measurement's helper threads replay on engines it sizes with
/// reserve().
///
/// run() returns a reference to the engine's internal result, valid
/// until the next run() on the same Engine -- copy it to keep it.
/// Semantics (noise draws, event ordering, fault handling, pre-flight
/// verification) are bit-identical to runSchedule/runScheduleLegacy.
/// A run without the timeline that deadlocks replays the same seed
/// once more with it, to list the ops that never completed.
class Engine {
public:
  Engine();
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  const ExecutionResult &run(const CompiledSchedule &CS, const Platform &P,
                             std::uint64_t Seed = 0,
                             const FaultSchedule *Faults = nullptr,
                             const ReplayOptions &Opts = {});

  /// Allocates, on the calling thread, all the room a run of \p CS on
  /// \p P under \p Opts needs, so that the run allocates nothing. A
  /// measurement sizes its helper threads' engines this way: memory
  /// freed when they go away then returns to the measuring thread's
  /// allocator arena, where its next schedule build reuses it.
  void reserve(const CompiledSchedule &CS, const Platform &P,
               const ReplayOptions &Opts = {});

  /// Events popped by the most recent run().
  std::uint64_t eventsProcessed() const { return LastEvents; }

  /// All per-run mutable state (event heap, readiness counters,
  /// resource clocks, match queues, timings), defined in Engine.cpp.
  struct RunState;

private:
  std::unique_ptr<RunState> State;
  std::uint64_t LastEvents = 0;
};

/// Enables or disables the static pre-flight verification inside
/// runSchedule process-wide. The initial value is taken from the
/// MPICSEL_VERIFY environment variable ("1"/"on"/"true" enable it);
/// tests set it to exercise the verifier against every executed
/// schedule.
void setPreflightVerification(bool Enabled);

/// Whether runSchedule currently performs static pre-flight checks.
bool preflightVerificationEnabled();

} // namespace mpicsel

#endif // MPICSEL_SIM_ENGINE_H
