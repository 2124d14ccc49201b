//===- tests/TestServe.cpp - Decision serving layer tests -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Covers the selection-as-a-service stack end to end: binary image
// compile/load round-trips are bit-exact against the text format,
// corrupt images (truncated, grown, or any single bit flipped) are
// rejected at load, served lookups agree with a linear scan of the
// table over every grid point and clamp off-grid queries the same
// way, concurrent readers under an aggressive swapper only ever see
// fully-published images (the TSan job runs this), and the publish
// hook closes the calibrate/drift-repair -> swap -> reader loop.
//
//===----------------------------------------------------------------------===//

#include "drift/Drift.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "model/Runner.h"
#include "obs/Metrics.h"
#include "serve/DecisionService.h"
#include "serve/TableImage.h"
#include "sim/Engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace mpicsel;
using namespace mpicsel::serve;

namespace {

/// A small sorted grid with a recognisable, non-uniform choice
/// pattern (so a row/column mix-up cannot cancel out).
DecisionTable sampleTable() {
  DecisionTable T;
  T.Procs = {4, 8, 16, 32};
  T.MessageSizes = {8 * 1024, 64 * 1024, 512 * 1024, 4 * 1024 * 1024};
  for (std::size_t R = 0; R != T.Procs.size(); ++R)
    for (std::size_t C = 0; C != T.MessageSizes.size(); ++C)
      T.Choice.push_back(
          static_cast<unsigned>((R * 7 + C * 3) % NumBcastAlgorithms));
  return T;
}

/// Uniform-choice table over a fixed grid; the stress test swaps
/// between two of these and checks readers never see a mixture.
DecisionTable uniformTable(BcastAlgorithm Alg) {
  DecisionTable T;
  T.Procs = {4, 8, 16};
  T.MessageSizes = {1024, 2048, 4096};
  T.Choice.assign(T.Procs.size() * T.MessageSizes.size(),
                  static_cast<unsigned>(Alg));
  return T;
}

/// The reference semantics a served lookup must match: the choice at
/// the largest grid point <= the query in each dimension, clamped up
/// to the smallest grid point for below-grid queries.
unsigned scanLookup(const DecisionTable &T, unsigned P,
                    std::uint64_t M, bool *Exact = nullptr) {
  std::size_t Row = 0;
  for (std::size_t R = 0; R != T.Procs.size(); ++R)
    if (T.Procs[R] <= P)
      Row = R;
  std::size_t Col = 0;
  for (std::size_t C = 0; C != T.MessageSizes.size(); ++C)
    if (T.MessageSizes[C] <= M)
      Col = C;
  if (Exact)
    *Exact = T.Procs[Row] == P && T.MessageSizes[Col] == M;
  return T.at(Row, Col);
}

bool sameTable(const DecisionTable &A, const DecisionTable &B) {
  return A.Procs == B.Procs && A.MessageSizes == B.MessageSizes &&
         A.Choice == B.Choice;
}

std::string tempPath(const char *Name) { return testing::TempDir() + Name; }

/// Environment guard for MPICSEL_SERVE.
struct ScopedServeEnv {
  explicit ScopedServeEnv(const char *Value) {
    const char *Prev = std::getenv("MPICSEL_SERVE");
    Had = Prev != nullptr;
    if (Had)
      Was = Prev;
    if (Value)
      setenv("MPICSEL_SERVE", Value, 1);
    else
      unsetenv("MPICSEL_SERVE");
  }
  ~ScopedServeEnv() {
    if (Had)
      setenv("MPICSEL_SERVE", Was.c_str(), 1);
    else
      unsetenv("MPICSEL_SERVE");
  }
  bool Had = false;
  std::string Was;
};

} // namespace

//===----------------------------------------------------------------------===//
// Image format: round-trips, canonicalisation, hostile inputs.
//===----------------------------------------------------------------------===//

TEST(ServeImage, CompileLoadDecodeRoundTripIsBitExact) {
  const DecisionTable T = sampleTable();
  const std::vector<unsigned char> Bytes = compileDecisionTableImage(T);
  ASSERT_FALSE(Bytes.empty());
  EXPECT_EQ(Bytes.size() % 8, 0u);

  DecisionTableImage Image;
  ASSERT_TRUE(Image.loadFromBytes(Bytes.data(), Bytes.size()));
  EXPECT_EQ(Image.procCount(), T.Procs.size());
  EXPECT_EQ(Image.sizeCount(), T.MessageSizes.size());
  EXPECT_EQ(Image.imageBytes(), Bytes.size());
  EXPECT_EQ(Image.contentHash(), decisionTableContentHash(T));

  DecisionTable Back;
  ASSERT_TRUE(Image.decode(Back));
  EXPECT_TRUE(sameTable(T, Back));

  // Compiling the decoded table reproduces the image byte for byte:
  // the format has one canonical serialisation.
  EXPECT_EQ(compileDecisionTableImage(Back), Bytes);
}

TEST(ServeImage, FileRoundTripAndMagicSniff) {
  const DecisionTable T = sampleTable();
  const std::string ImagePath = tempPath("serve_roundtrip.img");
  const std::string TextPath = tempPath("serve_roundtrip.txt");
  ASSERT_TRUE(writeDecisionTableImageFile(ImagePath, T));
  ASSERT_TRUE(writeDecisionTableFile(TextPath, T));

  EXPECT_TRUE(DecisionTableImage::isImageFile(ImagePath));
  EXPECT_FALSE(DecisionTableImage::isImageFile(TextPath));
  EXPECT_FALSE(DecisionTableImage::isImageFile(tempPath("serve_absent.img")));

  DecisionTableImage Image;
  ASSERT_TRUE(Image.loadFromFile(ImagePath));
  EXPECT_EQ(Image.contentHash(), decisionTableContentHash(T));

  // Both containers are interchangeable evidence: the any-format
  // reader yields the identical logical table from each.
  DecisionTable FromImage, FromText;
  ASSERT_TRUE(readDecisionTableAnyFormat(ImagePath, FromImage));
  ASSERT_TRUE(readDecisionTableAnyFormat(TextPath, FromText));
  EXPECT_TRUE(sameTable(FromImage, FromText));
  EXPECT_TRUE(sameTable(FromImage, T));

  std::remove(ImagePath.c_str());
  std::remove(TextPath.c_str());
}

TEST(ServeImage, CompilerCanonicalisesAnUnsortedGrid) {
  // Same logical table as sampleTable() with rows and columns
  // permuted: the compiled image (and hence the content hash) must be
  // identical -- equal tables give equal artifacts whatever order the
  // producer enumerated the grid in.
  const DecisionTable Sorted = sampleTable();
  DecisionTable Shuffled;
  const std::size_t RowPerm[] = {2, 0, 3, 1};
  const std::size_t ColPerm[] = {1, 3, 0, 2};
  for (std::size_t R : RowPerm)
    Shuffled.Procs.push_back(Sorted.Procs[R]);
  for (std::size_t C : ColPerm)
    Shuffled.MessageSizes.push_back(Sorted.MessageSizes[C]);
  for (std::size_t R : RowPerm)
    for (std::size_t C : ColPerm)
      Shuffled.Choice.push_back(Sorted.at(R, C));

  EXPECT_EQ(compileDecisionTableImage(Shuffled),
            compileDecisionTableImage(Sorted));
  EXPECT_EQ(decisionTableContentHash(Shuffled),
            decisionTableContentHash(Sorted));
}

TEST(ServeImage, UnservableTablesAreRefused) {
  EXPECT_TRUE(compileDecisionTableImage(DecisionTable{}).empty());

  DecisionTable ShortChoices = sampleTable();
  ShortChoices.Choice.pop_back();
  EXPECT_TRUE(compileDecisionTableImage(ShortChoices).empty());

  DecisionTable DupProcs = sampleTable();
  DupProcs.Procs[1] = DupProcs.Procs[0];
  EXPECT_TRUE(compileDecisionTableImage(DupProcs).empty());

  DecisionTable BadChoice = sampleTable();
  BadChoice.Choice[5] = NumBcastAlgorithms + 3;
  EXPECT_TRUE(compileDecisionTableImage(BadChoice).empty());
}

TEST(ServeImage, TruncatedGrownAndBitFlippedImagesAreRejected) {
  const std::vector<unsigned char> Bytes =
      compileDecisionTableImage(sampleTable());
  ASSERT_FALSE(Bytes.empty());

  // Every truncation, from the empty file to one byte short.
  for (std::size_t Len = 0; Len != Bytes.size(); ++Len) {
    DecisionTableImage Image;
    EXPECT_FALSE(Image.loadFromBytes(Bytes.data(), Len))
        << "accepted a " << Len << "-byte prefix";
    EXPECT_FALSE(Image.valid());
  }

  // A grown file: the header's total-bytes field no longer matches.
  std::vector<unsigned char> Grown = Bytes;
  Grown.push_back(0);
  DecisionTableImage GrownImage;
  EXPECT_FALSE(GrownImage.loadFromBytes(Grown.data(), Grown.size()));

  // Every single-bit corruption anywhere in the image -- magic,
  // header fields, payload, the checksum itself -- must be caught.
  for (std::size_t Byte = 0; Byte != Bytes.size(); ++Byte) {
    std::vector<unsigned char> Flipped = Bytes;
    Flipped[Byte] ^= 1u << (Byte % 8);
    DecisionTableImage Image;
    EXPECT_FALSE(Image.loadFromBytes(Flipped.data(), Flipped.size()))
        << "accepted an image with byte " << Byte << " corrupted";
  }

  // The pristine bytes still load: the rejections above were the
  // corruption, not some side effect of repeated loading.
  DecisionTableImage Image;
  EXPECT_TRUE(Image.loadFromBytes(Bytes.data(), Bytes.size()));
}

//===----------------------------------------------------------------------===//
// Lookup semantics: differential against the linear scan.
//===----------------------------------------------------------------------===//

TEST(ServeImage, LookupMatchesScanOnAndOffTheGrid) {
  const DecisionTable T = sampleTable();
  const std::vector<unsigned char> Bytes = compileDecisionTableImage(T);
  DecisionTableImage Image;
  ASSERT_TRUE(Image.loadFromBytes(Bytes.data(), Bytes.size()));

  // Every grid point answers exactly.
  for (std::size_t R = 0; R != T.Procs.size(); ++R)
    for (std::size_t C = 0; C != T.MessageSizes.size(); ++C) {
      const TableLookup L = Image.lookup(T.Procs[R], T.MessageSizes[C]);
      EXPECT_TRUE(L.Exact);
      EXPECT_EQ(L.Choice, T.at(R, C));
    }

  // A dense probe sweep around and beyond the grid: clamp-down in
  // both dimensions, clamp-up below the grid, never a crash at the
  // extremes.
  const unsigned ProcProbes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                 31, 32, 33, 100, 4096};
  const std::uint64_t SizeProbes[] = {
      1,           512,          8 * 1024,     8 * 1024 + 1,
      63 * 1024,   64 * 1024,    100 * 1024,   512 * 1024 - 1,
      512 * 1024,  1024 * 1024,  4 * 1024 * 1024,
      8ull * 1024 * 1024,        1ull << 40};
  for (unsigned P : ProcProbes)
    for (std::uint64_t M : SizeProbes) {
      bool WantExact = false;
      const unsigned Want = scanLookup(T, P, M, &WantExact);
      const TableLookup L = Image.lookup(P, M);
      EXPECT_EQ(L.Choice, Want) << "P=" << P << " m=" << M;
      EXPECT_EQ(L.Exact, WantExact) << "P=" << P << " m=" << M;
    }
}

TEST(ServeImage, ZeroByteMessageClampsToTheSmallestColumn) {
  const DecisionTable T = sampleTable();
  const std::vector<unsigned char> Bytes = compileDecisionTableImage(T);
  DecisionTableImage Image;
  ASSERT_TRUE(Image.loadFromBytes(Bytes.data(), Bytes.size()));

  // bit_width(0) is 0, so without an explicit clamp the log2 column
  // bucket of m = 0 would underflow. Pin the answer: column 0 of the
  // clamped row, inexact (the smallest grid size is 8 KiB, not 0).
  const TableLookup L = Image.lookup(/*Procs=*/16, /*MessageBytes=*/0);
  EXPECT_EQ(L.Choice, T.at(2, 0));
  EXPECT_FALSE(L.Exact);
  EXPECT_EQ(Image.lookup(1, 0).Choice, T.at(0, 0));
}

TEST(ServeImage, CollectiveTagRoundTripsAndKeysTheHash) {
  DecisionTable Bcast = sampleTable();
  for (unsigned &C : Bcast.Choice)
    C %= 2; // valid ordinals for every registered collective
  DecisionTable Allreduce = Bcast;
  Allreduce.Collective = CollectiveOp::Allreduce;

  // Same grids, same choices, different collective: the images and
  // content hashes must never alias.
  const std::vector<unsigned char> BcastBytes =
      compileDecisionTableImage(Bcast);
  const std::vector<unsigned char> AllreduceBytes =
      compileDecisionTableImage(Allreduce);
  ASSERT_FALSE(BcastBytes.empty());
  ASSERT_FALSE(AllreduceBytes.empty());
  EXPECT_NE(BcastBytes, AllreduceBytes);
  EXPECT_NE(decisionTableContentHash(Bcast),
            decisionTableContentHash(Allreduce));

  DecisionTableImage Image;
  ASSERT_TRUE(
      Image.loadFromBytes(AllreduceBytes.data(), AllreduceBytes.size()));
  EXPECT_EQ(Image.collective(), CollectiveOp::Allreduce);
  const TableLookup L = Image.lookup(8, 64 * 1024);
  EXPECT_EQ(L.Collective, CollectiveOp::Allreduce);
  EXPECT_EQ(L.Choice, Allreduce.at(1, 1));

  DecisionTable Back;
  ASSERT_TRUE(Image.decode(Back));
  EXPECT_EQ(Back.Collective, CollectiveOp::Allreduce);
  EXPECT_TRUE(sameTable(Allreduce, Back));
  EXPECT_EQ(compileDecisionTableImage(Back), AllreduceBytes);

  // Choices are validated against the tagged collective's registry,
  // not bcast's: ordinal 3 is fine for bcast but out of range for
  // allreduce's three algorithms.
  DecisionTable Bad = Allreduce;
  Bad.Choice[0] = collectiveAlgorithmCount(CollectiveOp::Allreduce);
  EXPECT_TRUE(compileDecisionTableImage(Bad).empty());
}

//===----------------------------------------------------------------------===//
// The service: publication, counters, batch, reclamation.
//===----------------------------------------------------------------------===//

TEST(ServeService, UnpublishedServiceFailsSoft) {
  DecisionService S;
  EXPECT_FALSE(S.ready());
  EXPECT_EQ(S.swapCount(), 0u);
  EXPECT_EQ(S.servedContentHash(), 0u);

  const TableLookup L = S.lookup(16, 64 * 1024);
  EXPECT_FALSE(L.Served);
  EXPECT_FALSE(L.Exact);

  TableQuery Q{16, 64 * 1024};
  unsigned Choice = static_cast<unsigned>(BcastAlgorithm::Linear);
  EXPECT_EQ(S.lookupBatch(&Q, 1, &Choice), 0u);
  EXPECT_EQ(Choice, static_cast<unsigned>(BcastAlgorithm::Linear))
      << "batch wrote on miss";

  // An invalid image is refused outright.
  EXPECT_FALSE(S.publishImage(DecisionTableImage(), "test"));
  EXPECT_FALSE(S.publishTable(DecisionTable{}, "test"));
  EXPECT_EQ(S.swapCount(), 0u);
}

TEST(ServeService, ServedLookupsMatchTheTableAndCountHits) {
  const DecisionTable T = sampleTable();
  DecisionService S;
  ASSERT_TRUE(S.publishTable(T, "test"));
  EXPECT_TRUE(S.ready());
  EXPECT_EQ(S.swapCount(), 1u);
  EXPECT_EQ(S.servedContentHash(), decisionTableContentHash(T));

  const bool MetricsWere = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  const obs::MetricsSnapshot Before = obs::snapshotMetrics();

  // 16 exact grid queries + 3 off-grid ones through the single-query
  // path...
  unsigned Exact = 0;
  for (std::size_t R = 0; R != T.Procs.size(); ++R)
    for (std::size_t C = 0; C != T.MessageSizes.size(); ++C) {
      const TableLookup L = S.lookup(T.Procs[R], T.MessageSizes[C]);
      EXPECT_TRUE(L.Served);
      EXPECT_TRUE(L.Exact);
      EXPECT_EQ(L.Choice, T.at(R, C));
      ++Exact;
    }
  for (unsigned P : {5u, 9u, 33u}) {
    const TableLookup L = S.lookup(P, 3000);
    EXPECT_TRUE(L.Served);
    EXPECT_FALSE(L.Exact);
    EXPECT_EQ(L.Choice, scanLookup(T, P, 3000));
  }

  // ...and the same 19 through the batch path, which must agree
  // query for query and report the exact-hit count.
  std::vector<TableQuery> Queries;
  for (std::size_t R = 0; R != T.Procs.size(); ++R)
    for (std::size_t C = 0; C != T.MessageSizes.size(); ++C)
      Queries.push_back({T.Procs[R], T.MessageSizes[C]});
  for (unsigned P : {5u, 9u, 33u})
    Queries.push_back({P, 3000});
  std::vector<unsigned> Choices(Queries.size());
  EXPECT_EQ(S.lookupBatch(Queries.data(), Queries.size(), Choices.data()),
            Exact);
  for (std::size_t I = 0; I != Queries.size(); ++I)
    EXPECT_EQ(Choices[I],
              scanLookup(T, Queries[I].NumProcs, Queries[I].MessageBytes));

  const obs::MetricsSnapshot After = obs::snapshotMetrics();
  EXPECT_EQ(After.counter(obs::Counter::ServeLookups) -
                Before.counter(obs::Counter::ServeLookups),
            2u * Queries.size());
  EXPECT_EQ(After.counter(obs::Counter::ServeHits) -
                Before.counter(obs::Counter::ServeHits),
            2u * Exact);
  obs::setMetricsEnabled(MetricsWere);
}

TEST(ServeService, ServesACollectiveTaggedImage) {
  DecisionTable T = sampleTable();
  for (unsigned &C : T.Choice)
    C %= collectiveAlgorithmCount(CollectiveOp::Allgather);
  T.Collective = CollectiveOp::Allgather;

  DecisionService S;
  ASSERT_TRUE(S.publishTable(T, "tagged"));
  const TableLookup L = S.lookup(8, 64 * 1024);
  EXPECT_TRUE(L.Served);
  EXPECT_EQ(L.Collective, CollectiveOp::Allgather);
  EXPECT_EQ(L.Choice, scanLookup(T, 8, 64 * 1024));
}

TEST(ServeService, StalenessIsObservableBeforeTheFirstSwap) {
  DecisionService S;
  ASSERT_TRUE(S.publishTable(sampleTable(), "staleness"));

  const bool Was = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Lookup-side sampling fires on a 1-in-N process-wide tick, so a
  // full stride of lookups guarantees at least one lands on a sample
  // point after the sleep.
  for (unsigned I = 0; I != 257; ++I)
    S.lookup(16, 64 * 1024);
  const std::uint64_t StalenessMs =
      obs::snapshotMetrics().gauge(obs::Gauge::ServeStalenessMs);
  obs::setMetricsEnabled(Was);

  // Only one image was ever published, so swap-out recording never
  // ran; the gauge must still have seen the image's age.
  EXPECT_EQ(S.swapCount(), 1u);
  EXPECT_GE(StalenessMs, 25u);
}

TEST(ServeService, RepublishSwapsAtomicallyAndReclaims) {
  DecisionService S;
  ASSERT_TRUE(S.publishTable(uniformTable(BcastAlgorithm::Linear), "test"));
  const std::uint64_t HashA = S.servedContentHash();
  ASSERT_TRUE(S.publishTable(uniformTable(BcastAlgorithm::Binomial), "test"));
  EXPECT_EQ(S.swapCount(), 2u);
  EXPECT_NE(S.servedContentHash(), HashA);
  EXPECT_EQ(S.lookup(8, 2048).Algorithm, BcastAlgorithm::Binomial);

  // No reader is pinned, so the next publish reclaims every retired
  // image, including the one it just retired.
  ASSERT_TRUE(S.publishTable(uniformTable(BcastAlgorithm::Chain), "test"));
  EXPECT_EQ(S.retiredCount(), 0u);
}

TEST(ServeService, ConcurrentReadersOnlySeeFullyPublishedImages) {
  // 8 readers hammer single and batch lookups while one swapper
  // alternates between an all-Linear and an all-Binomial table. Any
  // torn publication shows up as (a) a lookup answering neither
  // algorithm, or (b) a batch whose answers mix the two images. The
  // TSan ctest pass runs this to check the memory orderings, not just
  // the outcomes.
  const DecisionTable A = uniformTable(BcastAlgorithm::Linear);
  const DecisionTable B = uniformTable(BcastAlgorithm::Binomial);
  DecisionService S;
  ASSERT_TRUE(S.publishTable(A, "stress"));

  constexpr unsigned NumReaders = 8;
  constexpr unsigned NumSwaps = 200;
  std::atomic<bool> Done{false};
  std::atomic<std::uint64_t> Invalid{0};
  std::atomic<std::uint64_t> Lookups{0};

  std::vector<std::thread> Readers;
  for (unsigned R = 0; R != NumReaders; ++R)
    Readers.emplace_back([&] {
      std::vector<TableQuery> Queries = {{4, 1024}, {8, 2048},  {16, 4096},
                                         {5, 1500}, {16, 9999}, {100, 1}};
      std::vector<unsigned> Choices(Queries.size());
      std::uint64_t Mine = 0;
      while (!Done.load(std::memory_order_acquire) || Mine < 2000) {
        const TableLookup L = S.lookup(8, 2048);
        if (!L.Served || (L.Algorithm != BcastAlgorithm::Linear &&
                          L.Algorithm != BcastAlgorithm::Binomial))
          Invalid.fetch_add(1, std::memory_order_relaxed);
        S.lookupBatch(Queries.data(), Queries.size(), Choices.data());
        for (const unsigned C : Choices)
          if (C != Choices[0])
            Invalid.fetch_add(1, std::memory_order_relaxed);
        Mine += 1 + Queries.size();
      }
      Lookups.fetch_add(Mine, std::memory_order_relaxed);
    });

  for (unsigned I = 0; I != NumSwaps; ++I) {
    ASSERT_TRUE(S.publishTable(I % 2 ? A : B, "stress"));
    std::this_thread::yield();
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(Invalid.load(), 0u);
  EXPECT_GE(Lookups.load(), NumReaders * 2000u);
  EXPECT_EQ(S.swapCount(), NumSwaps + 1u);

  // All readers joined (quiescent): one more publish drains the
  // retire list completely.
  ASSERT_TRUE(S.publishTable(A, "stress"));
  EXPECT_EQ(S.retiredCount(), 0u);
}

//===----------------------------------------------------------------------===//
// The publish hook: calibration and drift repair reach readers.
//===----------------------------------------------------------------------===//

namespace {

struct QuickWorld {
  Platform Plat;
  CalibrationOptions Options;
  CalibratedModels Models;
  CalibrationReport Report;
  DecisionTable Table;
};

const QuickWorld &quickWorld() {
  static const QuickWorld World = [] {
    QuickWorld W;
    W.Plat = makeGrisou();
    W.Options.NumProcs = 16;
    W.Options.Adaptive.MinReps = 3;
    W.Options.Adaptive.MaxReps = 10;
    W.Options.GammaOptions.Adaptive.MinReps = 3;
    W.Options.GammaOptions.Adaptive.MaxReps = 10;
    W.Models = calibrate(W.Plat, W.Options, &W.Report);
    std::vector<std::uint64_t> Sizes;
    for (std::uint64_t M = 8 * 1024; M <= 4 * 1024 * 1024; M *= 2)
      Sizes.push_back(M);
    W.Table = buildDecisionTable(W.Models, {16, 24}, Sizes);
    return W;
  }();
  return World;
}

/// The table calibrateCached publishes: powers of two up to the
/// machine width over the paper's sizes.
DecisionTable deployableTable(const CalibratedModels &Models,
                              const Platform &P) {
  std::vector<unsigned> Procs;
  for (unsigned Q = 2; Q <= P.maxProcs(); Q *= 2)
    Procs.push_back(Q);
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t M = 8 * 1024; M <= 4 * 1024 * 1024; M *= 2)
    Sizes.push_back(M);
  return buildDecisionTable(Models, std::move(Procs), std::move(Sizes));
}

} // namespace

TEST(ServeHook, CalibrateCachedPublishesThroughTheHook) {
  const QuickWorld &W = quickWorld();
  const std::string ImagePath = tempPath("serve_hook_calibrate.img");
  const std::string CacheDir = tempPath("serve_hook_cache");
  std::remove(ImagePath.c_str());

  ASSERT_TRUE(installServePublisher(ImagePath));
  EXPECT_EQ(servedImagePath(), ImagePath);
  const std::uint64_t SwapsBefore = DecisionService::global().swapCount();
  {
    DecisionCache Cache(CacheDir);
    CalibratedModels Models = calibrateCached(W.Plat, W.Options, Cache);

    // The hook fired: the global service serves the deployable table
    // and the image file landed next to it.
    const DecisionTable Expected = deployableTable(Models, W.Plat);
    EXPECT_EQ(DecisionService::global().swapCount(), SwapsBefore + 1);
    EXPECT_EQ(DecisionService::global().servedContentHash(),
              decisionTableContentHash(Expected));
    ASSERT_TRUE(DecisionTableImage::isImageFile(ImagePath));
    DecisionTableImage OnDisk;
    ASSERT_TRUE(OnDisk.loadFromFile(ImagePath));
    EXPECT_EQ(OnDisk.contentHash(), decisionTableContentHash(Expected));

    // The cache-hit path republishes too: a restarted process with a
    // warm cache still serves.
    calibrateCached(W.Plat, W.Options, Cache);
    EXPECT_EQ(DecisionService::global().swapCount(), SwapsBefore + 2);
  }
  uninstallServePublisher();
  EXPECT_EQ(tablePublishHook(), nullptr);
  EXPECT_TRUE(servedImagePath().empty());

  std::remove(ImagePath.c_str());
  std::error_code Ignored;
  std::filesystem::remove_all(CacheDir, Ignored);
}

TEST(ServeHook, DriftRepairSwapsTheRepairedTableIn) {
  const QuickWorld &W = quickWorld();
  const BcastAlgorithm Victim = BcastAlgorithm::SplitBinary;
  const unsigned V = static_cast<unsigned>(Victim);

  // Deploy a corrupted model, trip its cell, and let the repair
  // (recalibration stubbed to return the clean parameters) republish.
  CalibratedModels Deployed = W.Models;
  Deployed.Algorithms[V].Alpha *= 3.0;
  Deployed.Algorithms[V].Beta *= 3.5;
  DecisionTable Table =
      buildDecisionTable(Deployed, {16, 24}, W.Table.MessageSizes);

  DriftSentinel S(DriftMode::Repair);
  S.bindModels(&Deployed);
  DriftTrip Trip;
  for (unsigned I = 0; I != 10; ++I)
    S.observePair(Victim, 16, 64 * 1024, 1.0, 3.0, &Trip);
  ASSERT_EQ(S.trips().size(), 1u);

  ASSERT_TRUE(installServePublisher(""));
  const std::uint64_t SwapsBefore = DecisionService::global().swapCount();
  DriftRepairOptions Repair;
  Repair.Recalibrate = [&W, V](BcastAlgorithm Alg, unsigned) {
    AlgorithmCalibration Patch = W.Models.Algorithms[V];
    Patch.Algorithm = Alg;
    return Patch;
  };
  DriftRepairReport R =
      repairDriftedCells(W.Plat, W.Options, S, Deployed, Table,
                         /*Cache=*/nullptr, /*TableFile=*/{}, Repair);
  uninstallServePublisher();
  EXPECT_EQ(R.AlgorithmsRepaired, 1u);

  // Readers of the global service now see the repaired table -- the
  // same answers a fresh scan of the patched table gives, including
  // at the repaired cell.
  EXPECT_EQ(DecisionService::global().swapCount(), SwapsBefore + 1);
  EXPECT_EQ(DecisionService::global().servedContentHash(),
            decisionTableContentHash(Table));
  EXPECT_TRUE(diffDecisionTables(W.Table, Table).identical());
  for (std::uint64_t M : Table.MessageSizes) {
    const TableLookup L = DecisionService::global().lookup(16, M);
    EXPECT_TRUE(L.Served);
    EXPECT_EQ(L.Choice, scanLookup(Table, 16, M));
  }
}

TEST(ServeHook, EnvInstallServesAPreExistingImage) {
  {
    ScopedServeEnv E(nullptr);
    EXPECT_FALSE(installServeFromEnv());
  }
  {
    ScopedServeEnv E("");
    EXPECT_FALSE(installServeFromEnv());
  }

  // A fleet member restarting with MPICSEL_SERVE pointing at the last
  // published image serves it immediately, no recalibration.
  const DecisionTable T = sampleTable();
  const std::string ImagePath = tempPath("serve_env.img");
  ASSERT_TRUE(writeDecisionTableImageFile(ImagePath, T));
  {
    ScopedServeEnv E(ImagePath.c_str());
    ASSERT_TRUE(installServeFromEnv());
    EXPECT_EQ(servedImagePath(), ImagePath);
    EXPECT_EQ(DecisionService::global().servedContentHash(),
              decisionTableContentHash(T));
    uninstallServePublisher();
  }
  std::remove(ImagePath.c_str());
}

//===----------------------------------------------------------------------===//
// Cache store hygiene (satellite bugfix).
//===----------------------------------------------------------------------===//

TEST(ServeCache, FailedStoreLeavesNoTempDebris) {
  // A cache rooted at a regular file cannot mkdir its directory: the
  // store must fail softly and must not scatter temp files.
  const std::string Blocker = tempPath("serve_cache_blocker");
  {
    std::FILE *F = std::fopen(Blocker.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("not a directory\n", F);
    std::fclose(F);
  }
  {
    DecisionCache Cache(Blocker);
    CalibratedModels Models;
    EXPECT_FALSE(Cache.storeModels("deadbeef", Models));
  }
  EXPECT_TRUE(std::filesystem::is_regular_file(Blocker));
  std::remove(Blocker.c_str());

  // File-level writers with an unreachable parent fail softly too.
  const std::string NoSuchDir =
      tempPath("serve_no_such_dir/nested/table.txt");
  EXPECT_FALSE(writeDecisionTableFile(NoSuchDir, sampleTable()));
  EXPECT_FALSE(writeDecisionTableImageFile(NoSuchDir, sampleTable()));
}

TEST(ServeCache, ClearSweepsStaleTempFiles) {
  // A crash between temp-write and rename leaves a *.txt.tmp<pid>.<n>
  // behind; clear() must sweep those alongside the entries.
  const std::string CacheDir = tempPath("serve_cache_clear");
  std::error_code Ignored;
  std::filesystem::remove_all(CacheDir, Ignored);
  {
    DecisionCache Cache(CacheDir);
    ASSERT_TRUE(Cache.storeModels("feedface", CalibratedModels()));
    const std::string Stale = CacheDir + "/calib-deadbeef.txt.tmp1234.5";
    std::FILE *F = std::fopen(Stale.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fclose(F);
    EXPECT_EQ(Cache.clear(), 2u);
  }
  EXPECT_TRUE(std::filesystem::is_empty(CacheDir));
  std::filesystem::remove_all(CacheDir, Ignored);
}
