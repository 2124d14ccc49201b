//===- sim/Trace.cpp - Execution timeline export ---------------------------===//

#include "sim/Trace.h"

#include "support/Format.h"

#include <cstdio>

using namespace mpicsel;

static const char *opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Send:
    return "send";
  case OpKind::Recv:
    return "recv";
  case OpKind::Compute:
    return "compute";
  }
  return "?";
}

std::string mpicsel::renderChromeTrace(const Schedule &S,
                                       const ExecutionResult &R) {
  std::string Out = "{\"traceEvents\":[\n";
  bool First = true;

  // Rank track names.
  for (unsigned Rank = 0; Rank != S.RankCount; ++Rank) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += strFormat("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                     "\"args\":{\"name\":\"rank %u\"}}",
                     Rank, Rank);
  }

  // Fault windows on a dedicated track above the ranks, so degraded
  // intervals line up visually with the operations they perturbed.
  if (!R.FaultWindows.empty()) {
    const unsigned FaultPid = S.RankCount;
    Out += strFormat(",\n{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                     "\"args\":{\"name\":\"faults (%s)\"}}",
                     FaultPid, R.FaultScenario.c_str());
    for (const FaultWindow &W : R.FaultWindows) {
      std::string Target =
          W.Target == AnyTarget ? "*" : strFormat("%u", W.Target);
      Out += strFormat(
          ",\n{\"ph\":\"X\",\"pid\":%u,\"tid\":0,\"name\":\"%s\","
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"fault\":\"%s\","
          "\"target\":\"%s\"}}",
          FaultPid, faultKindName(W.Kind), W.Start * 1e6,
          (W.End - W.Start) * 1e6, faultKindName(W.Kind), Target.c_str());
    }
  }

  for (OpId Id = 0, E = S.numOps(); Id != E; ++Id) {
    const OpTiming &T = R.Timings[Id];
    if (!T.Done)
      continue;
    const OpView O = S.op(Id);
    // Chrome tracing wants microseconds; give zero-length joins a
    // sliver of width so they remain clickable.
    double StartUs = T.StartTime * 1e6;
    double DurUs = (T.DoneTime - T.StartTime) * 1e6;
    if (DurUs <= 0)
      DurUs = 0.01;
    std::string Name;
    if (O.Kind == OpKind::Send)
      Name = strFormat("send->%u", O.Peer);
    else if (O.Kind == OpKind::Recv)
      Name = strFormat("recv<-%u", O.Peer);
    else
      Name = O.Duration > 0 ? "compute" : "join";
    Out += strFormat(
        ",\n{\"ph\":\"X\",\"pid\":%u,\"tid\":0,\"name\":\"%s\","
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"kind\":\"%s\","
        "\"bytes\":%llu,\"tag\":%d,\"ready\":%.3f}}",
        O.Rank, Name.c_str(), StartUs, DurUs, Id, opKindName(O.Kind),
        static_cast<unsigned long long>(O.Bytes), O.Tag,
        T.ReadyTime * 1e6);
  }
  Out += "\n]}\n";
  return Out;
}

bool mpicsel::writeChromeTrace(const Schedule &S, const ExecutionResult &R,
                               const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  std::string Text = renderChromeTrace(S, R);
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}
