//===- stat/ParallelSweep.cpp - Deterministic parallel sweeps --------------===//

#include "stat/ParallelSweep.h"

#include "obs/Journal.h"
#include "obs/Metrics.h"

#include <cstdlib>
#include <string>
#include <thread>

using namespace mpicsel;

unsigned mpicsel::resolveSweepThreads(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  const char *Value = std::getenv("MPICSEL_THREADS");
  if (!Value || !*Value)
    return 1;
  const std::string Text(Value);
  if (Text == "max")
    return std::max(std::thread::hardware_concurrency(), 1u);
  unsigned Count = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return 1;
    Count = Count * 10 + static_cast<unsigned>(C - '0');
    // Absurd values mean a typo; fail to serial. Checked after the
    // digit is folded in, so a six-digit value cannot slip through
    // on the last iteration.
    if (Count > 100000)
      return 1;
  }
  // "0" and "00" reach here with Count == 0: a zero-thread sweep is
  // meaningless, so non-positive normalises to serial.
  return Count == 0 ? 1 : Count;
}

void mpicsel::sweepIndexed(unsigned Threads, std::size_t Count,
                           const std::function<void(std::size_t)> &Task) {
  const unsigned Seats = Threads <= 1 || Count <= 1
                             ? 1
                             : HelperPool::global().seats(Count, Threads);
  obs::gaugeMax(obs::Gauge::SweepThreads, Seats);
  // Sweeps wide enough to matter are journalled with their fan-out;
  // the single-task degenerate case would only add noise.
  if (Count > 1) {
    obs::Journal &J = obs::Journal::global();
    if (J.enabled()) {
      JsonObject Event = J.line("sweep");
      Event.set("tasks", static_cast<std::uint64_t>(Count));
      Event.set("threads", Seats);
      J.write(Event);
    }
  }
  if (Seats == 1) {
    for (std::size_t I = 0; I != Count; ++I)
      Task(I);
    return;
  }
  obs::bump(obs::Counter::PoolTasks, Count);
  HelperPool::global().run(
      Count,
      [&Task](std::size_t I, unsigned Seat) {
        if (Seat != 0)
          obs::bump(obs::Counter::PoolSteals);
        Task(I);
      },
      Seats);
}
