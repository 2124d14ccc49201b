//===- tests/TestParallel.cpp - Threaded sweeps and the decision cache ----===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The contract pinned here is the one the parallel calibration
// pipeline is built on: any thread count produces results that are
// bit-identical to the historical serial pass (every experiment
// derives its seed from its grid position; downstream assembly is
// serial), and a DecisionCache round-trip reproduces the calibrated
// models bit for bit (hex-float serialisation).
//
//===----------------------------------------------------------------------===//

#include "coll/Bcast.h"
#include "fault/Fault.h"
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "model/Gamma.h"
#include "model/ReduceSelection.h"
#include "model/Runner.h"
#include "model/ScatterSelection.h"
#include "mpi/ScheduleIntern.h"
#include "stat/ParallelSweep.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace mpicsel;

namespace {

/// A small fast platform with mild noise (mirrors TestCalibration).
Platform smallCluster() {
  Platform P = makeTestPlatform(24);
  P.NoiseSigma = 0.01;
  return P;
}

/// Calibration options trimmed for test runtime.
CalibrationOptions quickOptions(unsigned NumProcs) {
  CalibrationOptions Options;
  Options.NumProcs = NumProcs;
  Options.MessageSizes = {8192, 32768, 131072, 524288, 2097152};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  return Options;
}

/// Asserts bit-for-bit equality of two calibration results: gamma
/// table and fit, every algorithm's parameters and canonical system.
template <typename AlgT>
void expectModelsIdentical(const CollectiveModels<AlgT> &A,
                           const CollectiveModels<AlgT> &B) {
  EXPECT_EQ(A.SegmentBytes, B.SegmentBytes);
  EXPECT_EQ(A.KChainFanout, B.KChainFanout);
  ASSERT_EQ(A.Gamma.measuredMax(), B.Gamma.measuredMax());
  for (unsigned P = 2; P <= A.Gamma.measuredMax() + 3; ++P)
    EXPECT_EQ(A.Gamma(P), B.Gamma(P)) << "gamma P=" << P;
  EXPECT_EQ(A.Gamma.fit().Intercept, B.Gamma.fit().Intercept);
  EXPECT_EQ(A.Gamma.fit().Slope, B.Gamma.fit().Slope);
  for (std::size_t Alg = 0; Alg != A.Algorithms.size(); ++Alg) {
    const CollectiveAlgorithmCalibration<AlgT> &CA = A.Algorithms[Alg];
    const CollectiveAlgorithmCalibration<AlgT> &CB = B.Algorithms[Alg];
    SCOPED_TRACE("algorithm " + std::to_string(Alg));
    EXPECT_EQ(CA.Algorithm, CB.Algorithm);
    EXPECT_EQ(CA.Alpha, CB.Alpha);
    EXPECT_EQ(CA.Beta, CB.Beta);
    ASSERT_EQ(CA.CanonicalX.size(), CB.CanonicalX.size());
    for (std::size_t I = 0; I != CA.CanonicalX.size(); ++I) {
      EXPECT_EQ(CA.CanonicalX[I], CB.CanonicalX[I]);
      EXPECT_EQ(CA.CanonicalT[I], CB.CanonicalT[I]);
    }
    EXPECT_EQ(CA.Fit.Intercept, CB.Fit.Intercept);
    EXPECT_EQ(CA.Fit.Slope, CB.Fit.Slope);
    EXPECT_EQ(CA.Fit.Rmse, CB.Fit.Rmse);
    EXPECT_EQ(CA.Fit.R2, CB.Fit.R2);
    EXPECT_EQ(CA.Fit.Valid, CB.Fit.Valid);
  }
}

/// A fresh cache directory under the test temp dir.
std::string freshCacheDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "mpicsel-cache-" + Name;
  DecisionCache(Dir).clear();
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// HelperPool
//===----------------------------------------------------------------------===//

namespace {

/// Runs a batch of \p Count tasks on \p Pool and returns how often each
/// task ran and from which seats.
std::vector<int> runCounted(HelperPool &Pool, std::size_t Count,
                            std::vector<unsigned> *SeatsOut = nullptr) {
  std::vector<std::atomic<int>> Ran(Count);
  std::vector<unsigned> Seats(Count, ~0u);
  Pool.run(Count, [&](std::size_t I, unsigned Seat) {
    Ran[I].fetch_add(1);
    Seats[I] = Seat;
  });
  if (SeatsOut)
    *SeatsOut = Seats;
  std::vector<int> Out;
  for (const std::atomic<int> &R : Ran)
    Out.push_back(R.load());
  return Out;
}

} // namespace

TEST(HelperPool, RunsEveryTaskExactlyOnceInAValidSeat) {
  HelperPool Pool(3);
  for (std::size_t Count : {0u, 1u, 2u, 3u, 4u, 5u, 17u, 200u}) {
    std::vector<unsigned> Seats;
    EXPECT_EQ(runCounted(Pool, Count, &Seats), std::vector<int>(Count, 1))
        << Count << " tasks";
    for (unsigned Seat : Seats)
      EXPECT_LT(Seat, Pool.seats(Count));
  }
}

TEST(HelperPool, EverySeatJoinsABatch) {
  // Each task waits until every seat's task has started, so the batch
  // completes only if min(Count, helpers + 1) threads run it at once.
  HelperPool Pool(3);
  const std::size_t Count = Pool.seats(4);
  ASSERT_EQ(Count, 4u);
  for (int Batch = 0; Batch != 20; ++Batch) {
    std::atomic<std::size_t> Started{0};
    std::atomic<bool> AllMet{true};
    Pool.run(Count, [&](std::size_t, unsigned) {
      Started.fetch_add(1);
      const auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (Started.load() != Count)
        if (std::chrono::steady_clock::now() > Deadline) {
          AllMet = false;
          return;
        }
    });
    EXPECT_TRUE(AllMet.load()) << "batch " << Batch;
  }
}

TEST(HelperPool, CallerRunsTheBatchAloneWithoutHelpers) {
  HelperPool Pool(0);
  EXPECT_EQ(Pool.seats(8), 1u);
  std::vector<unsigned> Seats;
  EXPECT_EQ(runCounted(Pool, 8, &Seats), std::vector<int>(8, 1));
  EXPECT_EQ(Seats, std::vector<unsigned>(8, 0));
}

TEST(HelperPool, SeatsAreCappedByTasksRequestAndHelpers) {
  HelperPool Pool(3);
  EXPECT_EQ(Pool.seats(100), 4u);
  EXPECT_EQ(Pool.seats(100, 2), 2u);
  EXPECT_EQ(Pool.seats(100, 64), 4u);
  EXPECT_EQ(Pool.seats(3, 64), 3u);
  EXPECT_EQ(Pool.seats(0), 1u);
  EXPECT_EQ(Pool.seats(HelperPool::MaxBatch + 1), 4u);
}

namespace {

/// Spins until \p Done holds or ten seconds pass; returns whether it
/// held.
template <typename Pred> bool waitFor(Pred Done) {
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Done())
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
  return true;
}

} // namespace

TEST(HelperPool, NestedBatchRunsOnTheHelpersASweepLeavesIdle) {
  // Two sweep seats leave two of the three helpers idle. Each task of
  // a nested batch waits until a helper has run one of the batch's
  // tasks, so a nested batch that went serial fails after the deadline
  // instead of passing.
  HelperPool Pool(3);
  for (int Sweep = 0; Sweep != 10; ++Sweep) {
    std::atomic<int> Serial{0};
    Pool.run(
        2,
        [&](std::size_t, unsigned) {
          EXPECT_EQ(Pool.seats(4), 3u);
          const std::thread::id Caller = std::this_thread::get_id();
          std::atomic<bool> HelperRan{false};
          std::vector<std::atomic<int>> Count(4);
          Pool.run(4, [&](std::size_t I, unsigned Seat) {
            Count[I].fetch_add(1);
            if (std::this_thread::get_id() != Caller) {
              EXPECT_NE(Seat, 0u);
              HelperRan = true;
            }
            // After one timeout the rest only count, so a serial pool
            // fails in one deadline.
            if (Serial.load() != 0 ||
                !waitFor([&] { return HelperRan.load(); }))
              Serial.fetch_add(1);
          });
          for (const std::atomic<int> &C : Count)
            EXPECT_EQ(C.load(), 1);
        },
        /*MaxSeats=*/2);
    ASSERT_EQ(Serial.load(), 0) << "sweep " << Sweep;
  }
}

TEST(HelperPool, NestedBatchesNeverRunMoreTasksThanThreads) {
  // Outer and nested tasks count themselves while they run; a thread
  // that runs a nested batch has left its outer task's count. The seats
  // handed out add up to the pool's threads: a nested batch seats only
  // the helpers the outer batch does not.
  HelperPool Pool(3);
  for (unsigned OuterSeats : {2u, 3u, 4u}) {
    std::atomic<unsigned> Running{0};
    std::atomic<unsigned> HighWater{0};
    auto busy = [&] {
      const unsigned Now = Running.fetch_add(1) + 1;
      unsigned Seen = HighWater.load();
      while (Now > Seen && !HighWater.compare_exchange_weak(Seen, Now))
        ;
      const auto Until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(200);
      while (std::chrono::steady_clock::now() < Until)
        ;
      Running.fetch_sub(1);
    };
    Pool.run(
        12,
        [&](std::size_t, unsigned) {
          busy();
          const unsigned NestedSeats = Pool.seats(6);
          EXPECT_EQ(OuterSeats + NestedSeats - 1, 4u);
          Pool.run(6, [&](std::size_t, unsigned Seat) {
            EXPECT_LT(Seat, NestedSeats);
            busy();
          });
          busy();
        },
        OuterSeats);
    EXPECT_LE(HighWater.load(), 4u) << OuterSeats << " outer seats";
  }
}

TEST(HelperPool, TopLevelSeatKAlwaysRunsOnTheSameThread) {
  // Every seat's task waits until all four have started, so each batch
  // seats all four threads; helper k must take seat k every time.
  HelperPool Pool(3);
  std::vector<std::thread::id> SeatThread(4);
  for (int Batch = 0; Batch != 50; ++Batch) {
    std::atomic<std::size_t> Started{0};
    std::vector<std::thread::id> Ran(4);
    std::vector<unsigned> SeatOf(4, ~0u);
    Pool.run(4, [&](std::size_t I, unsigned Seat) {
      Ran[I] = std::this_thread::get_id();
      SeatOf[I] = Seat;
      Started.fetch_add(1);
      EXPECT_TRUE(waitFor([&] { return Started.load() == 4; }));
    });
    for (std::size_t I = 0; I != 4; ++I) {
      ASSERT_LT(SeatOf[I], 4u);
      if (Batch == 0)
        SeatThread[SeatOf[I]] = Ran[I];
      EXPECT_EQ(Ran[I], SeatThread[SeatOf[I]])
          << "batch " << Batch << " seat " << SeatOf[I];
    }
  }
  EXPECT_EQ(SeatThread[0], std::this_thread::get_id());
}

TEST(HelperPool, BatchInANestedBatchRunsOnItsCaller) {
  HelperPool Pool(3);
  Pool.run(
      2,
      [&](std::size_t, unsigned) {
        Pool.run(3, [&](std::size_t, unsigned) {
          EXPECT_EQ(Pool.seats(4), 1u);
          std::vector<unsigned> Seats;
          const std::thread::id Caller = std::this_thread::get_id();
          std::vector<std::thread::id> Ran(4);
          Pool.run(4, [&](std::size_t I, unsigned Seat) {
            Ran[I] = std::this_thread::get_id();
            Seats.push_back(Seat);
          });
          EXPECT_EQ(Ran, std::vector<std::thread::id>(4, Caller));
          EXPECT_EQ(Seats, std::vector<unsigned>(4, 0));
        });
      },
      /*MaxSeats=*/2);
}

TEST(HelperPoolDeathTest, ForkedChildFinishesNestedBatches) {
  // The parent's helpers are running; the forked child inherits the
  // pool object but none of them, and runs a sweep of nested batches
  // alone.
  HelperPool Pool(3);
  EXPECT_EQ(runCounted(Pool, 8), std::vector<int>(8, 1));
  EXPECT_EXIT(
      {
        std::atomic<int> Ran{0};
        Pool.run(
            2,
            [&](std::size_t, unsigned) {
              Pool.run(4, [&](std::size_t, unsigned) { Ran.fetch_add(1); });
            },
            /*MaxSeats=*/2);
        std::_Exit(Ran.load() == 8 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(HelperPool, ConcurrentCallersEachFinishTheirBatches) {
  // Two callers share one pool: one batch holds the helpers at a time,
  // the other caller runs its batch alone.
  HelperPool Pool(3);
  std::atomic<int> Wrong{0};
  auto Caller = [&] {
    for (int Batch = 0; Batch != 200; ++Batch)
      if (runCounted(Pool, 5) != std::vector<int>(5, 1))
        Wrong.fetch_add(1);
  };
  std::thread Other(Caller);
  Caller();
  Other.join();
  EXPECT_EQ(Wrong.load(), 0);
}

//===----------------------------------------------------------------------===//
// ParallelSweep
//===----------------------------------------------------------------------===//

TEST(ParallelSweep, ResultsArriveInIndexOrder) {
  const std::function<int(std::size_t)> Square = [](std::size_t I) {
    return static_cast<int>(I * I);
  };
  std::vector<int> Serial = sweepIndexed<int>(1, 100, Square);
  std::vector<int> Threaded = sweepIndexed<int>(4, 100, Square);
  ASSERT_EQ(Serial.size(), 100u);
  EXPECT_EQ(Serial, Threaded);
  for (std::size_t I = 0; I != Serial.size(); ++I)
    EXPECT_EQ(Serial[I], static_cast<int>(I * I));
}

TEST(ParallelSweep, VoidOverloadRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> Seen(64);
  sweepIndexed(4, Seen.size(),
               [&Seen](std::size_t I) { Seen[I].fetch_add(1); });
  for (std::size_t I = 0; I != Seen.size(); ++I)
    EXPECT_EQ(Seen[I].load(), 1) << "index " << I;
}

TEST(ParallelSweep, ResolveThreadsHonoursRequestAndEnvironment) {
  EXPECT_EQ(resolveSweepThreads(3), 3u);
  ::setenv("MPICSEL_THREADS", "5", 1);
  EXPECT_EQ(resolveSweepThreads(0), 5u);
  EXPECT_EQ(resolveSweepThreads(2), 2u);
  ::unsetenv("MPICSEL_THREADS");
  EXPECT_EQ(resolveSweepThreads(0), 1u);
}

TEST(ThreadPool, ThreadCountFromEnvironment) {
  // The MPICSEL_THREADS parse that resolveSweepThreads(0) falls back to.
  ::setenv("MPICSEL_THREADS", "4", 1);
  EXPECT_EQ(resolveSweepThreads(0), 4u);
  ::setenv("MPICSEL_THREADS", "max", 1);
  EXPECT_GE(resolveSweepThreads(0), 1u);
  ::setenv("MPICSEL_THREADS", "garbage", 1);
  EXPECT_EQ(resolveSweepThreads(0), 1u);
  ::setenv("MPICSEL_THREADS", "0", 1);
  EXPECT_EQ(resolveSweepThreads(0), 1u);
  ::setenv("MPICSEL_THREADS", "00", 1);
  EXPECT_EQ(resolveSweepThreads(0), 1u);
  // Regression: the absurd-value guard used to run before the last
  // digit was folded in, so a six-digit "999999" slipped through and
  // requested 999999 worker threads.
  ::setenv("MPICSEL_THREADS", "999999", 1);
  EXPECT_EQ(resolveSweepThreads(0), 1u);
  ::unsetenv("MPICSEL_THREADS");
  EXPECT_EQ(resolveSweepThreads(0), 1u);
}

TEST(ParallelSweep, ConcurrentSweepsBothFinish) {
  // Two callers sweep at once: one holds the helpers, the other runs
  // its sweep alone, and both get every result.
  const std::function<int(std::size_t)> Square = [](std::size_t I) {
    return static_cast<int>(I * I);
  };
  const std::vector<int> Expected = sweepIndexed<int>(1, 64, Square);
  std::atomic<int> Wrong{0};
  auto Caller = [&] {
    for (int Sweep = 0; Sweep != 100; ++Sweep)
      if (sweepIndexed<int>(4, 64, Square) != Expected)
        Wrong.fetch_add(1);
  };
  std::thread Other(Caller);
  Caller();
  Other.join();
  EXPECT_EQ(Wrong.load(), 0);
}

TEST(ParallelSweep, SweepAboveMaxBatchUsesMoreThanOneSeat) {
  if (HelperPool::global().seats(2) < 2)
    GTEST_SKIP() << "no helper threads on a single hardware thread";
  // The caller waits in its tasks until a helper has run one, so a
  // sweep that went serial fails after the deadline instead of passing.
  const std::thread::id Caller = std::this_thread::get_id();
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> HelperRan{false};
  std::vector<std::atomic<int>> Ran(HelperPool::MaxBatch + 1);
  sweepIndexed(2, Ran.size(), [&](std::size_t I) {
    Ran[I].fetch_add(1);
    if (std::this_thread::get_id() != Caller)
      HelperRan = true;
    while (!HelperRan && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
  });
  EXPECT_TRUE(HelperRan.load());
  for (std::size_t I = 0; I != Ran.size(); ++I)
    ASSERT_EQ(Ran[I].load(), 1) << "task " << I;
}

//===----------------------------------------------------------------------===//
// Bit-identical threaded calibration (the acceptance contract)
//===----------------------------------------------------------------------===//

TEST(Parallel, GammaEstimationBitIdenticalAcrossThreadCounts) {
  GammaEstimationOptions Options;
  Options.MaxP = 7;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  GammaEstimate Serial = estimateGamma(smallCluster(), Options);
  Options.Threads = 4;
  GammaEstimate Threaded = estimateGamma(smallCluster(), Options);
  ASSERT_EQ(Serial.MeanCallTime.size(), Threaded.MeanCallTime.size());
  for (std::size_t I = 0; I != Serial.MeanCallTime.size(); ++I)
    EXPECT_EQ(Serial.MeanCallTime[I], Threaded.MeanCallTime[I]);
  for (unsigned P = 2; P <= 10; ++P)
    EXPECT_EQ(Serial.Gamma(P), Threaded.Gamma(P));
}

/// Calibrates the collective of \p AlgT serially and on 2, 4 and 5
/// threads under two seeds; every result must equal the serial one bit
/// for bit.
template <typename AlgT>
void expectCalibrationThreadInvariant(
    const Platform &Plat, const std::vector<std::uint64_t> &Sizes) {
  for (std::uint64_t Seed : {std::uint64_t(1), std::uint64_t(12345)}) {
    CalibrationOptions Options = quickOptions(12);
    Options.MessageSizes = Sizes;
    Options.Adaptive.BaseSeed = Seed;
    Options.Threads = 1;
    const CollectiveModels<AlgT> Serial =
        calibrateCollective<AlgT>(Plat, Options);
    for (unsigned Threads : {2u, 4u, 5u}) {
      Options.Threads = Threads;
      SCOPED_TRACE(std::string(collectiveOpName(
                       CollectiveDescriptor<AlgT>::Op)) +
                   " seed " + std::to_string(Seed) + " threads " +
                   std::to_string(Threads));
      expectModelsIdentical(Serial, calibrateCollective<AlgT>(Plat, Options));
    }
  }
}

TEST(Parallel, CalibrationBitIdenticalAcrossThreadCountsAndSeeds) {
  const Platform Plat = smallCluster();
  const std::vector<std::uint64_t> Vectors = quickOptions(12).MessageSizes;
  const std::vector<std::uint64_t> Blocks = {1024, 4096, 16384, 65536};
  expectCalibrationThreadInvariant<BcastAlgorithm>(Plat, Vectors);
  expectCalibrationThreadInvariant<ScatterAlgorithm>(Plat, Blocks);
  expectCalibrationThreadInvariant<ReduceAlgorithm>(Plat, Vectors);
  expectCalibrationThreadInvariant<AllgatherAlgorithm>(Plat, Blocks);
  expectCalibrationThreadInvariant<AllreduceAlgorithm>(Plat, Vectors);
}

TEST(Parallel, ThreadsAboveTheHardwareCountGiveTheSerialResults) {
  const Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  Options.Threads = 1;
  const CalibratedModels Serial = calibrate(Plat, Options);
  Options.Threads = 4 * std::max(std::thread::hardware_concurrency(), 1u) + 1;
  EXPECT_LT(HelperPool::global().seats(1000, Options.Threads),
            Options.Threads);
  expectModelsIdentical(Serial, calibrate(Plat, Options));
}

TEST(ParallelSweepDeathTest, TwoThreadCalibrationFinishesInAForkedChild) {
  // The pool runs in the parent; the forked child inherits the pool
  // object but none of its helpers, and its sweeps finish alone.
  sweepIndexed(2, 4, [](std::size_t) {});
  EXPECT_EXIT(
      {
        CalibrationOptions Options = quickOptions(12);
        Options.Threads = 2;
        calibrate(smallCluster(), Options);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Parallel, CalibrationBitIdenticalUnderFaultScenario) {
  Platform Plat = smallCluster();
  FaultSchedule Scenario = makeFaultScenario("noisy");
  ScopedFaultInjection Injection(Scenario);
  CalibrationOptions Options = quickOptions(12);
  Options.Threads = 1;
  CalibratedModels Serial = calibrate(Plat, Options);
  Options.Threads = 4;
  CalibratedModels Threaded = calibrate(Plat, Options);
  expectModelsIdentical(Serial, Threaded);
}

//===----------------------------------------------------------------------===//
// DecisionCache
//===----------------------------------------------------------------------===//

TEST(DecisionCache, MissThenHitRoundTripsBitIdentically) {
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  DecisionCache Cache(freshCacheDir("roundtrip"));

  CalibratedModels Direct = calibrate(Plat, Options);
  CalibratedModels Missed = calibrateCached(Plat, Options, Cache);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Stores, 1u);
  expectModelsIdentical(Direct, Missed);

  CalibratedModels Hit = calibrateCached(Plat, Options, Cache);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  expectModelsIdentical(Direct, Hit);

  // A second cache instance over the same directory also hits: the
  // entry is persistent, not per-instance.
  DecisionCache Reopened(Cache.directory());
  CalibratedModels Persisted = calibrateCached(Plat, Options, Reopened);
  EXPECT_EQ(Reopened.stats().Hits, 1u);
  expectModelsIdentical(Direct, Persisted);
}

TEST(DecisionCache, KeyIgnoresThreadsButTracksEveryInput) {
  Platform Plat = smallCluster();
  CalibrationOptions Base = quickOptions(12);

  CalibrationOptions Threaded = Base;
  Threaded.Threads = 8;
  EXPECT_EQ(DecisionCache::calibrationKey(Plat, Base),
            DecisionCache::calibrationKey(Plat, Threaded));

  CalibrationOptions OtherProcs = Base;
  OtherProcs.NumProcs = 16;
  EXPECT_NE(DecisionCache::calibrationKey(Plat, Base),
            DecisionCache::calibrationKey(Plat, OtherProcs));

  CalibrationOptions OtherSegment = Base;
  OtherSegment.SegmentBytes = 16 * 1024;
  EXPECT_NE(DecisionCache::calibrationKey(Plat, Base),
            DecisionCache::calibrationKey(Plat, OtherSegment));

  CalibrationOptions OtherSeed = Base;
  OtherSeed.Adaptive.BaseSeed += 1;
  EXPECT_NE(DecisionCache::calibrationKey(Plat, Base),
            DecisionCache::calibrationKey(Plat, OtherSeed));

  Platform OtherPlat = Plat;
  OtherPlat.NoiseSigma = 0.02;
  EXPECT_NE(DecisionCache::calibrationKey(Plat, Base),
            DecisionCache::calibrationKey(OtherPlat, Base));

  // An active fault scenario changes what calibration would measure,
  // so it must change the key.
  const std::string CleanKey = DecisionCache::calibrationKey(Plat, Base);
  FaultSchedule Scenario = makeFaultScenario("degraded-link");
  ScopedFaultInjection Injection(Scenario);
  EXPECT_NE(CleanKey, DecisionCache::calibrationKey(Plat, Base));
}

TEST(DecisionCache, CorruptEntryIsAMissNotAnError) {
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  DecisionCache Cache(freshCacheDir("corrupt"));
  const std::string Key = DecisionCache::calibrationKey(Plat, Options);

  CalibratedModels Models = calibrate(Plat, Options);
  ASSERT_TRUE(Cache.storeModels(Key, Models));
  CalibratedModels Loaded;
  ASSERT_TRUE(Cache.loadModels(Key, Loaded));

  const std::string Path = Cache.directory() + "/calib-" + Key + ".txt";
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  std::fputs("mpicsel-calib 1\nsegment not-a-number\n", File);
  std::fclose(File);
  CalibratedModels Garbage;
  EXPECT_FALSE(Cache.loadModels(Key, Garbage));
}

TEST(DecisionCache, DecisionTableBuildAndRoundTrip) {
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  CalibratedModels Models = calibrate(Plat, Options);

  std::vector<unsigned> Procs = {8, 16, 24};
  std::vector<std::uint64_t> Sizes = {8192, 131072, 2097152};
  DecisionTable T = buildDecisionTable(Models, Procs, Sizes);
  ASSERT_EQ(T.Choice.size(), Procs.size() * Sizes.size());
  for (std::size_t PI = 0; PI != Procs.size(); ++PI)
    for (std::size_t SI = 0; SI != Sizes.size(); ++SI)
      EXPECT_EQ(T.at(PI, SI), static_cast<unsigned>(
                                  Models.selectBest(Procs[PI], Sizes[SI])));

  // Tables are exchanged as files, not cached: the file round trip is
  // exact.
  const std::string Path =
      ::testing::TempDir() + "mpicsel-decision-table.txt";
  ASSERT_TRUE(writeDecisionTableFile(Path, T));
  DecisionTable Loaded;
  ASSERT_TRUE(readDecisionTableFile(Path, Loaded));
  EXPECT_EQ(Loaded.Procs, T.Procs);
  EXPECT_EQ(Loaded.MessageSizes, T.MessageSizes);
  EXPECT_EQ(Loaded.Choice, T.Choice);
  std::remove(Path.c_str());
}

TEST(DecisionCache, ClearRemovesEveryEntry) {
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  DecisionCache Cache(freshCacheDir("clear"));
  CalibratedModels Models = calibrate(Plat, Options);
  const std::string Key = DecisionCache::calibrationKey(Plat, Options);
  ASSERT_TRUE(Cache.storeModels(Key, Models));
  EXPECT_EQ(Cache.clear(), 1u);
  CalibratedModels Loaded;
  EXPECT_FALSE(Cache.loadModels(Key, Loaded));
  EXPECT_EQ(Cache.clear(), 0u);
}

//===----------------------------------------------------------------------===//
// Schedule interning: the compiled-schedule cache behind the sweeps.
//===----------------------------------------------------------------------===//

TEST(ScheduleIntern, KeySeparatesEveryShapeParameter) {
  ScheduleInternCache &Cache = ScheduleInternCache::global();
  Cache.clear();

  Platform Plat = smallCluster();
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 256 * 1024;
  Config.SegmentBytes = 8 * 1024;
  {
    std::vector<Experiment> Held;
    Held.push_back(prepareBcast(Plat, 16, Config));
    EXPECT_EQ(Cache.stats().Entries, 1u);

    // The same grid point while it is held must hit and share the
    // entry, not rebuild it.
    Held.push_back(prepareBcast(Plat, 16, Config));
    EXPECT_EQ(Held[1].schedule().get(), Held[0].schedule().get());
    EXPECT_EQ(Cache.stats().Entries, 1u);
    EXPECT_EQ(Cache.stats().Hits, 1u);
    EXPECT_EQ(Cache.stats().Misses, 1u);

    // Segment size is part of the schedule shape: a different segment
    // count is a different schedule and must occupy its own entry.
    Config.SegmentBytes = 16 * 1024;
    Held.push_back(prepareBcast(Plat, 16, Config));
    EXPECT_EQ(Cache.stats().Entries, 2u);

    // So are algorithm, rank count and message size.
    Config.Algorithm = BcastAlgorithm::Chain;
    Held.push_back(prepareBcast(Plat, 16, Config));
    Config.Algorithm = BcastAlgorithm::Binomial;
    Held.push_back(prepareBcast(Plat, 12, Config));
    Config.MessageBytes = 128 * 1024;
    Held.push_back(prepareBcast(Plat, 12, Config));
    EXPECT_EQ(Cache.stats().Entries, 5u);
    EXPECT_EQ(Cache.stats().Misses, 5u);
    for (std::size_t I = 2; I != Held.size(); ++I)
      for (std::size_t J = 0; J != I; ++J)
        EXPECT_NE(Held[I].schedule().get(), Held[J].schedule().get())
            << I << " vs " << J;
  }
  // Dropping the holders drops the entries.
  EXPECT_EQ(Cache.stats().Entries, 0u);
  Cache.clear();
}

TEST(ScheduleIntern, MeasurementBuildsOnceAndReleasesItsSchedule) {
  ScheduleInternCache &Cache = ScheduleInternCache::global();
  Cache.clear();

  Platform Plat = smallCluster();
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 64 * 1024;
  for (unsigned Reps : {5u, 40u}) {
    AdaptiveOptions Options;
    Options.MinReps = Options.MaxReps = Reps;
    const ScheduleInternCache::CacheStats Before = Cache.stats();
    AdaptiveResult R = measureBcast(Plat, 16, Config, Options);
    ASSERT_EQ(R.Observations.size(), Reps);

    // One build per measurement, whatever its repetition count: the
    // repetitions replay the measurement's own reference and never
    // look the schedule up again.
    const ScheduleInternCache::CacheStats After = Cache.stats();
    EXPECT_EQ(After.Misses - Before.Misses, 1u) << Reps << " reps";
    EXPECT_EQ(After.Hits - Before.Hits, 0u) << Reps << " reps";
    // Nothing stays resident once the measurement has returned.
    EXPECT_EQ(After.Entries, 0u) << Reps << " reps";
  }

  // The schedule itself is freed with its last holder, not merely
  // unlisted.
  std::weak_ptr<const InternedSchedule> Watch =
      prepareBcast(Plat, 16, Config).schedule();
  EXPECT_TRUE(Watch.expired());

  // A measurement of a shape some caller holds shares that entry, and
  // the shape outlives the measurement only as long as the holder.
  {
    Experiment Holder = prepareBcast(Plat, 16, Config);
    const ScheduleInternCache::CacheStats Before = Cache.stats();
    measureBcast(Plat, 16, Config);
    const ScheduleInternCache::CacheStats After = Cache.stats();
    EXPECT_EQ(After.Misses - Before.Misses, 0u);
    EXPECT_EQ(After.Hits - Before.Hits, 1u);
    EXPECT_EQ(After.Entries, 1u);
  }
  EXPECT_EQ(Cache.stats().Entries, 0u);
  Cache.clear();
}

TEST(ScheduleIntern, ConcurrentInternsSharePointerIdenticalEntry) {
  ScheduleInternCache &Cache = ScheduleInternCache::global();
  Cache.clear();

  // Eight workers race to intern one key. Losers of the insertion
  // race must discard their build and adopt the winner's entry, so
  // every worker ends up replaying the very same compiled schedule.
  constexpr std::size_t NumWorkers = 16;
  std::vector<InternedScheduleRef> Refs(NumWorkers);
  sweepIndexed(8, NumWorkers, [&](std::size_t I) {
    Refs[I] = Cache.intern("test|racing-key", [] {
      ScheduleBuilder B(16);
      BuiltSchedule Built;
      BcastConfig Config;
      Config.Algorithm = BcastAlgorithm::Binomial;
      Config.MessageBytes = 64 * 1024;
      Built.Exit = appendBcast(B, Config);
      Built.S = B.take();
      return Built;
    });
  });

  ASSERT_NE(Refs[0], nullptr);
  for (std::size_t I = 1; I != NumWorkers; ++I)
    EXPECT_EQ(Refs[I].get(), Refs[0].get()) << "worker " << I;
  ScheduleInternCache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_GE(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits + Stats.Misses, NumWorkers);
  Cache.clear();
}
