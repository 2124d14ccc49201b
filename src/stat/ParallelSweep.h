//===- stat/ParallelSweep.h - Deterministic parallel sweeps -----*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans a grid of independent measurement tasks across the process-wide
/// HelperPool (support/ThreadPool.h) while keeping the results
/// *bit-identical* to the serial loop. The contract that makes this
/// possible:
///
///  * every task is a pure function of its index -- in particular each
///    task derives its own RNG seed from the index (the calibration
///    sweeps already do this so that experiments are de-correlated);
///  * tasks never share mutable state;
///  * results are collected into a vector slot chosen by the index, so
///    downstream reductions (regressions, fits, reports) consume them
///    in exactly the serial order.
///
/// With one thread (the default everywhere) the sweep degenerates to
/// the plain historical `for` loop. With more, it takes at most
/// `Threads` seats of the pool, the caller in seat 0, and the hardware
/// thread count caps them. A batch started inside a sweep's task -- a
/// measurement's first repetitions, or a nested sweep -- seats the
/// helpers the sweep leaves idle; one nested deeper runs on its
/// caller.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_STAT_PARALLELSWEEP_H
#define MPICSEL_STAT_PARALLELSWEEP_H

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace mpicsel {

/// Resolves a requested sweep thread count: 0 consults the
/// MPICSEL_THREADS environment variable -- a positive integer, or
/// "max" for the hardware concurrency; unset, empty, malformed, zero
/// or absurdly large (> 100000) values all mean 1 (serial). Any other
/// request is taken as-is.
unsigned resolveSweepThreads(unsigned Requested);

/// Void-task variant: runs \p Task(0..Count-1) for side effects on
/// disjoint, caller-owned slots. Every sweep funnels through this
/// overload, which records the fan-out (gauge + journal event) for
/// the observability layer.
void sweepIndexed(unsigned Threads, std::size_t Count,
                  const std::function<void(std::size_t)> &Task);

/// Runs \p Task(0..Count-1), each producing one ResultT, and returns
/// the results indexed by task. \p Threads <= 1 runs the serial loop
/// in index order; more threads fan the tasks over the helper pool.
/// Either way Results[I] is exactly what the serial loop's I-th
/// iteration computes, provided Task honours the purity contract in
/// the file comment.
template <typename ResultT>
std::vector<ResultT>
sweepIndexed(unsigned Threads, std::size_t Count,
             const std::function<ResultT(std::size_t)> &Task) {
  std::vector<ResultT> Results(Count);
  sweepIndexed(Threads, Count,
               std::function<void(std::size_t)>(
                   [&](std::size_t I) { Results[I] = Task(I); }));
  return Results;
}

} // namespace mpicsel

#endif // MPICSEL_STAT_PARALLELSWEEP_H
