//===- examples/trace_broadcast.cpp - Visualise one broadcast -------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
//
// Executes one broadcast and dumps the full per-operation timeline as
// a Chrome-tracing JSON file (open chrome://tracing or
// https://ui.perfetto.dev and load it). Seeing the segment pipeline
// flow through the tree -- and stall on a busy NIC -- is the fastest
// way to internalise why the implementation-derived models have the
// shape they do.
//
// Try: trace_broadcast --algorithm chain --procs 16 --message 256K
//        --out chain.json
//
//===----------------------------------------------------------------------===//

#include "cluster/Platform.h"
#include "coll/Bcast.h"
#include "sim/Engine.h"
#include "sim/Trace.h"
#include "support/CommandLine.h"
#include "support/Format.h"

#include <cstdio>

using namespace mpicsel;

int main(int Argc, char **Argv) {
  std::string PlatformName = "grisou";
  std::string AlgorithmName = "binomial";
  std::string OutPath = "broadcast_trace.json";
  std::int64_t NumProcs = 16;
  std::uint64_t MessageBytes = 128 * 1024;
  std::uint64_t SegmentBytes = 8 * 1024;

  CommandLine Cli("Execute one broadcast and write a Chrome-tracing "
                  "timeline of every operation.");
  Cli.addFlag("platform", "cluster to simulate", PlatformName);
  Cli.addFlag("algorithm", "broadcast algorithm (see coll/Algorithms.h)",
              AlgorithmName);
  Cli.addFlag("procs", "number of MPI processes", NumProcs);
  Cli.addByteSizeFlag("message", "broadcast payload", MessageBytes);
  Cli.addByteSizeFlag("segment", "segment size", SegmentBytes);
  Cli.addFlag("out", "output JSON path", OutPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;

  auto Algorithm = parseBcastAlgorithm(AlgorithmName);
  if (!Algorithm) {
    std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                 AlgorithmName.c_str());
    return 1;
  }

  Platform Plat = platformByName(PlatformName);
  ScheduleBuilder B(static_cast<unsigned>(NumProcs));
  BcastConfig Config;
  Config.Algorithm = *Algorithm;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes =
      *Algorithm == BcastAlgorithm::Linear ? 0 : SegmentBytes;
  appendBcast(B, Config);
  Schedule S = B.take();
  ExecutionResult R = runSchedule(S, Plat, /*Seed=*/1);
  if (!R.Completed) {
    std::fprintf(stderr, "error: %s\n", R.Diagnostic.c_str());
    return 1;
  }
  if (!writeChromeTrace(S, R, OutPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  std::printf("%s broadcast of %s over %lld ranks: %zu ops, completed in "
              "%s.\nTimeline written to %s (load in chrome://tracing).\n",
              bcastAlgorithmName(*Algorithm),
              formatBytes(MessageBytes).c_str(),
              static_cast<long long>(NumProcs), std::size_t{S.numOps()},
              formatSeconds(R.Makespan).c_str(), OutPath.c_str());
  return 0;
}
