//===- model/DecisionCache.cpp - Persistent calibration memoisation --------===//

#include "model/DecisionCache.h"

#include "audit/Audit.h"
#include "fault/Fault.h"
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Format.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <unistd.h>

using namespace mpicsel;

/// Bump when the entry format or the set of hashed inputs changes:
/// old entries then simply never match again. Version 2 tags decision
/// tables with their collective.
static constexpr unsigned FormatVersion = 2;

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over a canonical byte stream of the calibration inputs.
class ContentHasher {
public:
  void bytes(const void *Data, std::size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (std::size_t I = 0; I != Size; ++I) {
      State ^= P[I];
      State *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t V) { bytes(&V, sizeof(V)); }
  void f64(double V) {
    // Hash the representation: bit-equal inputs give equal keys, and
    // any parameter nudge -- however small -- changes the key.
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void text(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void adaptive(const AdaptiveOptions &A) {
    u64(A.MinReps);
    u64(A.MaxReps);
    f64(A.TargetPrecision);
    u64(A.BaseSeed);
    u64(A.ScreenOutliers ? 1 : 0);
    f64(A.OutlierMadSigma);
    u64(A.RetryAttempts);
  }
  std::uint64_t digest() const { return State; }

private:
  std::uint64_t State = 0xCBF29CE484222325ull; // FNV offset basis
};

void hashPlatform(ContentHasher &H, const Platform &P) {
  H.text(P.Name);
  H.u64(P.NodeCount);
  H.u64(P.ProcsPerNode);
  H.f64(P.SendOverhead);
  H.f64(P.RecvOverhead);
  for (const LinkParams *L : {&P.InterNode, &P.IntraNode}) {
    H.f64(L->Latency);
    H.f64(L->TxGapPerMessage);
    H.f64(L->TxGapPerByte);
    H.f64(L->RxGapPerMessage);
    H.f64(L->RxGapPerByte);
  }
  H.f64(P.NoiseSigma);
  H.u64(static_cast<std::uint64_t>(P.Mapping));
  H.f64(P.ReduceComputePerByte);
}

void hashFaults(ContentHasher &H) {
  const FaultSchedule *Faults = globalFaultSchedule();
  if (!Faults || Faults->empty()) {
    H.u64(0);
    return;
  }
  H.text(Faults->name());
  H.u64(Faults->seed());
  H.u64(Faults->events().size());
  for (const FaultEvent &E : Faults->events()) {
    H.u64(static_cast<std::uint64_t>(E.Kind));
    H.f64(E.Start);
    H.f64(E.End);
    H.u64(E.Rank);
    H.u64(E.Node);
    H.f64(E.CpuMultiplier);
    H.f64(E.GapMultiplier);
    H.f64(E.LatencyMultiplier);
    H.f64(E.SigmaMultiplier);
    H.f64(E.SpikeProbability);
    H.f64(E.SpikeSeconds);
    H.f64(E.StallSeconds);
  }
}

} // namespace

std::string DecisionCache::calibrationKey(const Platform &P,
                                          const CalibrationOptions &O) {
  ContentHasher H;
  H.u64(FormatVersion);
  hashPlatform(H, P);
  // Every result-affecting calibration option. Threads is deliberately
  // absent: the sweep is bit-identical for any thread count.
  H.u64(O.NumProcs);
  H.u64(O.SegmentBytes);
  H.u64(O.KChainFanout);
  H.u64(O.MessageSizes.size());
  for (std::uint64_t M : O.MessageSizes)
    H.u64(M);
  H.u64(O.GatherSizes.size());
  for (std::uint64_t M : O.GatherSizes)
    H.u64(M);
  H.u64(O.GammaOptions.SegmentBytes);
  H.u64(O.GammaOptions.MaxP);
  H.u64(O.GammaOptions.CallsPerMeasurement);
  H.u64(O.GammaOptions.UseBarrierTrain ? 1 : 0);
  H.u64(O.GammaOptions.OneRankPerNode ? 1 : 0);
  H.adaptive(O.GammaOptions.Adaptive);
  H.adaptive(O.Adaptive);
  H.u64(O.UseHuber ? 1 : 0);
  H.u64(O.Quality.Enabled ? 1 : 0);
  H.u64(O.Quality.MaxRetriesPerExperiment);
  H.f64(O.Quality.BackoffGrowth);
  H.f64(O.Quality.OutlierMadSigma);
  H.f64(O.Quality.MinR2);
  H.f64(O.Quality.MaxRelativeRmse);
  H.f64(O.Quality.MaxAlpha);
  H.f64(O.Quality.AlphaSlack);
  H.f64(O.Quality.MaxBeta);
  H.f64(O.Quality.BetaSlack);
  H.f64(O.Quality.MinConvergedFraction);
  // Calibration measures through the engine, so an installed fault
  // scenario changes the result and must change the key.
  hashFaults(H);
  return strFormat("%016llx",
                   static_cast<unsigned long long>(H.digest()));
}

//===----------------------------------------------------------------------===//
// Entry serialisation
//===----------------------------------------------------------------------===//

namespace {

/// Renders a double as a C99 hex-float: exact, locale-independent,
/// round-trips bit for bit through strtod.
std::string hexFloat(double V) { return strFormat("%a", V); }

void appendDoubles(std::string &Out, const char *Tag,
                   const std::vector<double> &Values) {
  Out += strFormat("%s %zu", Tag, Values.size());
  for (double V : Values) {
    Out += ' ';
    Out += hexFloat(V);
  }
  Out += '\n';
}

/// Line-oriented reader over an entry's text, with typed accessors
/// that all fail softly (a malformed entry is a cache miss).
class EntryReader {
public:
  explicit EntryReader(std::string Text) : In(std::move(Text)) {}

  bool word(std::string &Out) { return static_cast<bool>(In >> Out); }

  bool expect(const char *Tag) {
    std::string W;
    return word(W) && W == Tag;
  }

  bool u64(std::uint64_t &Out) {
    std::string W;
    if (!word(W) || W.empty())
      return false;
    // Signs are rejected up front ("-1" wraps to ULLONG_MAX without
    // setting errno), and ERANGE catches fields past 2^64-1 that
    // strtoull would otherwise clamp silently -- either way the
    // entry is corrupt and the lookup is a miss.
    if (W[0] == '-' || W[0] == '+')
      return false;
    char *End = nullptr;
    errno = 0;
    Out = std::strtoull(W.c_str(), &End, 10);
    if (errno == ERANGE)
      return false;
    return End && *End == '\0';
  }

  bool f64(double &Out) {
    std::string W;
    if (!word(W) || W.empty())
      return false;
    char *End = nullptr;
    Out = std::strtod(W.c_str(), &End);
    return End && *End == '\0';
  }

  bool doubles(const char *Tag, std::vector<double> &Out) {
    std::uint64_t Count = 0;
    if (!expect(Tag) || !u64(Count) || Count > 1000000)
      return false;
    Out.resize(Count);
    for (double &V : Out)
      if (!f64(V))
        return false;
    return true;
  }

private:
  std::istringstream In;
};

std::string renderModels(const CalibratedModels &M) {
  std::string Out = strFormat("mpicsel-calib %u\n", FormatVersion);
  Out += strFormat("segment %llu\n",
                   static_cast<unsigned long long>(M.SegmentBytes));
  Out += strFormat("kchain %u\n", M.KChainFanout);
  // The gamma table: GammaFunction rebuilds its extrapolation fit
  // from the measured values deterministically, so the values are the
  // whole state.
  std::vector<double> GammaValues;
  for (unsigned P = 2; P <= M.Gamma.measuredMax(); ++P)
    GammaValues.push_back(P == 2 ? 1.0 : M.Gamma(P));
  appendDoubles(Out, "gamma", GammaValues);
  for (const AlgorithmCalibration &A : M.Algorithms) {
    Out += strFormat("alg %u\n", static_cast<unsigned>(A.Algorithm));
    Out += strFormat("alpha %a\nbeta %a\n", A.Alpha, A.Beta);
    Out += strFormat("fit %d %a %a %a %a\n", A.Fit.Valid ? 1 : 0,
                     A.Fit.Intercept, A.Fit.Slope, A.Fit.Rmse, A.Fit.R2);
    appendDoubles(Out, "x", A.CanonicalX);
    appendDoubles(Out, "t", A.CanonicalT);
  }
  Out += "end\n";
  return Out;
}

bool parseModels(std::string Text, CalibratedModels &Out) {
  EntryReader R(std::move(Text));
  std::uint64_t Version = 0;
  if (!R.expect("mpicsel-calib") || !R.u64(Version) ||
      Version != FormatVersion)
    return false;
  CalibratedModels M;
  std::uint64_t KChain = 0;
  if (!R.expect("segment") || !R.u64(M.SegmentBytes))
    return false;
  if (!R.expect("kchain") || !R.u64(KChain))
    return false;
  M.KChainFanout = static_cast<unsigned>(KChain);
  std::vector<double> GammaValues;
  if (!R.doubles("gamma", GammaValues))
    return false;
  if (!GammaValues.empty()) {
    if (GammaValues.front() < 0.99 || GammaValues.front() > 1.01)
      return false;
    M.Gamma = GammaFunction(GammaValues);
  }
  for (AlgorithmCalibration &A : M.Algorithms) {
    std::uint64_t AlgIndex = 0;
    if (!R.expect("alg") || !R.u64(AlgIndex) ||
        AlgIndex >= NumBcastAlgorithms)
      return false;
    A.Algorithm = static_cast<BcastAlgorithm>(AlgIndex);
    if (!R.expect("alpha") || !R.f64(A.Alpha))
      return false;
    if (!R.expect("beta") || !R.f64(A.Beta))
      return false;
    std::uint64_t Valid = 0;
    if (!R.expect("fit") || !R.u64(Valid) || !R.f64(A.Fit.Intercept) ||
        !R.f64(A.Fit.Slope) || !R.f64(A.Fit.Rmse) || !R.f64(A.Fit.R2))
      return false;
    A.Fit.Valid = Valid != 0;
    if (!R.doubles("x", A.CanonicalX) || !R.doubles("t", A.CanonicalT))
      return false;
  }
  if (!R.expect("end"))
    return false;
  Out = std::move(M);
  return true;
}

std::string renderTable(const DecisionTable &T) {
  std::string Out = strFormat("mpicsel-table %u\n", FormatVersion);
  Out += strFormat("collective %u\n",
                   static_cast<unsigned>(T.Collective));
  Out += strFormat("procs %zu", T.Procs.size());
  for (unsigned P : T.Procs)
    Out += strFormat(" %u", P);
  Out += strFormat("\nsizes %zu", T.MessageSizes.size());
  for (std::uint64_t M : T.MessageSizes)
    Out += strFormat(" %llu", static_cast<unsigned long long>(M));
  Out += strFormat("\nchoices %zu", T.Choice.size());
  for (unsigned A : T.Choice)
    Out += strFormat(" %u", A);
  Out += "\nend\n";
  return Out;
}

bool parseTable(std::string Text, DecisionTable &Out) {
  EntryReader R(std::move(Text));
  std::uint64_t Version = 0;
  if (!R.expect("mpicsel-table") || !R.u64(Version) ||
      Version != FormatVersion)
    return false;
  DecisionTable T;
  std::uint64_t Collective = 0;
  if (!R.expect("collective") || !R.u64(Collective) ||
      Collective >= NumCollectiveOps)
    return false;
  T.Collective = static_cast<CollectiveOp>(Collective);
  std::uint64_t Count = 0;
  if (!R.expect("procs") || !R.u64(Count) || Count > 1000000)
    return false;
  T.Procs.resize(Count);
  for (unsigned &P : T.Procs) {
    std::uint64_t V = 0;
    if (!R.u64(V))
      return false;
    P = static_cast<unsigned>(V);
  }
  if (!R.expect("sizes") || !R.u64(Count) || Count > 1000000)
    return false;
  T.MessageSizes.resize(Count);
  for (std::uint64_t &M : T.MessageSizes)
    if (!R.u64(M))
      return false;
  if (!R.expect("choices") || !R.u64(Count) ||
      Count != T.Procs.size() * T.MessageSizes.size())
    return false;
  T.Choice.resize(Count);
  const unsigned AlgCount = collectiveAlgorithmCount(T.Collective);
  for (unsigned &A : T.Choice) {
    std::uint64_t V = 0;
    if (!R.u64(V) || V >= AlgCount)
      return false;
    A = static_cast<unsigned>(V);
  }
  if (!R.expect("end"))
    return false;
  Out = std::move(T);
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  Out.clear();
  char Buffer[4096];
  std::size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) != 0)
    Out.append(Buffer, Read);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  return Ok;
}

bool writeFileAtomically(const std::string &Path, const std::string &Contents,
                         const char **FailStage = nullptr) {
  const char *Stage = nullptr;
  // The rename is the atomic step. The temp name carries the pid plus
  // a per-process sequence number so two threads storing the same
  // entry concurrently never scribble over each other's temp file.
  static std::atomic<unsigned> TempSeq{0};
  const std::string TempPath =
      strFormat("%s.tmp%ld.%u", Path.c_str(), static_cast<long>(getpid()),
                TempSeq.fetch_add(1, std::memory_order_relaxed));
  std::FILE *File = std::fopen(TempPath.c_str(), "wb");
  if (!File) {
    if (FailStage)
      *FailStage = "open";
    return false;
  }
  bool Ok = std::fwrite(Contents.data(), 1, Contents.size(), File) ==
            Contents.size();
  if (!Ok)
    Stage = "write";
  if (std::fclose(File) != 0 && Ok) {
    Ok = false;
    Stage = "close";
  }
  if (Ok) {
    std::error_code Error;
    std::filesystem::rename(TempPath, Path, Error);
    if (Error) {
      Ok = false;
      Stage = "rename";
    }
  }
  // Every failure path unlinks the temp file: a failed store must not
  // leave droppings behind for clear() or du to trip over.
  if (!Ok) {
    std::remove(TempPath.c_str());
    if (FailStage)
      *FailStage = Stage;
  }
  return Ok;
}

/// Journals a failed store as a `cache_store_fail` event (when the
/// run journal is open) so a write-protected or full cache directory
/// is visible instead of silently degrading every run to a miss.
void noteCacheStoreFail(const char *Kind, const std::string &Key,
                        const std::string &Path, const char *Stage) {
  obs::Journal &J = obs::Journal::global();
  if (!J.enabled())
    return;
  JsonObject Event = J.line("cache_store_fail");
  Event.set("kind", Kind);
  Event.set("key", Key);
  Event.set("path", Path);
  Event.set("stage", Stage ? Stage : "unknown");
  J.write(Event);
}

/// Journals one cache lookup/store outcome when the run journal is
/// open; always bumps the matching process-wide counter.
void noteCacheOutcome(const char *Outcome, obs::Counter C, const char *Kind,
                      const std::string &Key) {
  obs::bump(C);
  obs::Journal &J = obs::Journal::global();
  if (!J.enabled())
    return;
  JsonObject Event = J.line("cache");
  Event.set("outcome", Outcome);
  Event.set("kind", Kind);
  Event.set("key", Key);
  J.write(Event);
}

} // namespace

//===----------------------------------------------------------------------===//
// DecisionCache
//===----------------------------------------------------------------------===//

DecisionCache::DecisionCache(std::string Directory) {
  if (Directory.empty()) {
    const char *Env = std::getenv("MPICSEL_CACHE_DIR");
    Directory = Env && *Env ? Env : ".mpicsel-cache";
  }
  Dir = std::move(Directory);
}

DecisionCache::~DecisionCache() {
  if (Stats.Hits == 0 && Stats.Misses == 0 && Stats.Stores == 0 &&
      Stats.Corrupt == 0)
    return;
  obs::Journal &J = obs::Journal::global();
  if (!J.enabled())
    return;
  JsonObject Event = J.line("cache_stats");
  Event.set("dir", Dir);
  Event.set("hits", Stats.Hits);
  Event.set("misses", Stats.Misses);
  Event.set("stores", Stats.Stores);
  Event.set("corrupt", Stats.Corrupt);
  J.write(Event);
}

std::string DecisionCache::entryPath(const char *Kind,
                                     const std::string &Key) const {
  return Dir + "/" + Kind + "-" + Key + ".txt";
}

bool DecisionCache::loadModels(const std::string &Key,
                               CalibratedModels &Out) {
  std::string Text;
  const bool Read = readFile(entryPath("calib", Key), Text);
  if (Read && parseModels(std::move(Text), Out)) {
    ++Stats.Hits;
    noteCacheOutcome("hit", obs::Counter::CacheHits, "calib", Key);
    return true;
  }
  if (Read) {
    ++Stats.Corrupt;
    noteCacheOutcome("corrupt", obs::Counter::CacheCorrupt, "calib", Key);
  }
  ++Stats.Misses;
  noteCacheOutcome("miss", obs::Counter::CacheMisses, "calib", Key);
  return false;
}

bool DecisionCache::storeModels(const std::string &Key,
                                const CalibratedModels &Models) {
  std::error_code Error;
  std::filesystem::create_directories(Dir, Error);
  if (Error) {
    noteCacheStoreFail("calib", Key, Dir, "mkdir");
    return false;
  }
  const std::string Path = entryPath("calib", Key);
  const char *Stage = nullptr;
  if (!writeFileAtomically(Path, renderModels(Models), &Stage)) {
    noteCacheStoreFail("calib", Key, Path, Stage);
    return false;
  }
  ++Stats.Stores;
  noteCacheOutcome("store", obs::Counter::CacheStores, "calib", Key);
  return true;
}

unsigned DecisionCache::clear() {
  unsigned Removed = 0;
  std::error_code Error;
  std::filesystem::directory_iterator It(Dir, Error), End;
  if (Error)
    return 0;
  for (; It != End; It.increment(Error)) {
    if (Error)
      break;
    const std::string Name = It->path().filename().string();
    // Table entries are no longer written, but a directory kept from
    // a build that still cached tables may hold some.
    const bool OurPrefix =
        Name.rfind("calib-", 0) == 0 || Name.rfind("table-", 0) == 0;
    // Entries proper, plus any ".txt.tmp<pid>.<seq>" stragglers a
    // crashed writer left behind mid-store.
    bool CacheEntry =
        OurPrefix &&
        ((Name.size() > 4 &&
          Name.compare(Name.size() - 4, 4, ".txt") == 0) ||
         Name.find(".txt.tmp") != std::string::npos);
    if (CacheEntry && std::filesystem::remove(It->path(), Error) && !Error)
      ++Removed;
  }
  return Removed;
}

//===----------------------------------------------------------------------===//
// Cached calibration and decision tables
//===----------------------------------------------------------------------===//

DecisionTable mpicsel::buildAllgatherDecisionTable(
    const AllgatherModels &Models, std::vector<unsigned> Procs,
    std::vector<std::uint64_t> BlockSizes) {
  return buildDecisionTable(Models, std::move(Procs), std::move(BlockSizes));
}

DecisionTable mpicsel::buildAllreduceDecisionTable(
    const AllreduceModels &Models, std::vector<unsigned> Procs,
    std::vector<std::uint64_t> MessageSizes) {
  return buildDecisionTable(Models, std::move(Procs), std::move(MessageSizes));
}

namespace {

/// Evaluates the freshly calibrated models over the platform's
/// deployable grid (powers of two up to the machine width, the
/// paper's 8 KiB..4 MiB sizes) and hands the table to the installed
/// publish hook. Skipped entirely -- not even the table build -- when
/// no hook is installed.
void publishCalibratedTable(const CalibratedModels &Models,
                            const Platform &P) {
  if (!tablePublishHook())
    return;
  std::vector<unsigned> Procs;
  for (unsigned Q = 2; Q <= P.maxProcs(); Q *= 2)
    Procs.push_back(Q);
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t M = 8 * 1024; M <= 4 * 1024 * 1024; M *= 2)
    Sizes.push_back(M);
  notifyTablePublish(buildDecisionTable(Models, std::move(Procs),
                                        std::move(Sizes)),
                     "calibrate");
}

} // namespace

CalibratedModels mpicsel::calibrateCached(const Platform &P,
                                          const CalibrationOptions &Options,
                                          DecisionCache &Cache,
                                          CalibrationReport *Report) {
  const std::string Key = DecisionCache::calibrationKey(P, Options);
  CalibratedModels Models;
  if (Cache.loadModels(Key, Models)) {
    if (Report)
      *Report = CalibrationReport();
    // A cache hit skips the measurement campaign but not the audit: a
    // corrupt-but-parseable entry must be flagged, not served.
    postCalibrationAudit(Models, P.Name, P.maxProcs());
    publishCalibratedTable(Models, P);
    return Models;
  }
  Models = calibrate(P, Options, Report);
  Cache.storeModels(Key, Models);
  postCalibrationAudit(Models, P.Name, P.maxProcs());
  publishCalibratedTable(Models, P);
  return Models;
}

bool mpicsel::readCalibratedModelsFile(const std::string &Path,
                                       CalibratedModels &Out) {
  std::string Text;
  return readFile(Path, Text) && parseModels(std::move(Text), Out);
}

bool mpicsel::readDecisionTableFile(const std::string &Path,
                                    DecisionTable &Out) {
  std::string Text;
  return readFile(Path, Text) && parseTable(std::move(Text), Out);
}

bool mpicsel::writeDecisionTableFile(const std::string &Path,
                                     const DecisionTable &T) {
  const char *Stage = nullptr;
  if (writeFileAtomically(Path, renderTable(T), &Stage))
    return true;
  noteCacheStoreFail("table_file", Path, Path, Stage);
  return false;
}

bool mpicsel::writeCalibratedModelsFile(const std::string &Path,
                                        const CalibratedModels &Models) {
  const char *Stage = nullptr;
  if (writeFileAtomically(Path, renderModels(Models), &Stage))
    return true;
  noteCacheStoreFail("models_file", Path, Path, Stage);
  return false;
}

//===----------------------------------------------------------------------===//
// Table publication hook
//===----------------------------------------------------------------------===//

namespace {

std::atomic<TablePublishHook> &publishHookSlot() {
  static std::atomic<TablePublishHook> Slot{nullptr};
  return Slot;
}

} // namespace

TablePublishHook mpicsel::setTablePublishHook(TablePublishHook Hook) {
  return publishHookSlot().exchange(Hook, std::memory_order_acq_rel);
}

TablePublishHook mpicsel::tablePublishHook() {
  return publishHookSlot().load(std::memory_order_acquire);
}

void mpicsel::notifyTablePublish(const DecisionTable &Table,
                                 const char *Origin) {
  if (TablePublishHook Hook = tablePublishHook())
    Hook(Table, Origin);
}
