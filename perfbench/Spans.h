//===- perfbench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. A span is (name, start, end, parent); spans
/// are recorded around calls into the library's public API, kept in
/// memory and written out once when the run ends. A span's self time
/// is its duration minus the part its child spans cover. Recording is
/// off in untraced runs: a Scope then only reads the clock.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_PERFBENCH_SPANS_H
#define MPICSEL_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Span {
  std::string Name;
  double Start = 0.0; ///< seconds since the recorder's origin
  double End = 0.0;
  int Parent = -1; ///< index of the enclosing span, -1 for a root
};

/// Per-name totals of a recorded trace.
struct SpanTotals {
  unsigned Count = 0;
  double TotalSeconds = 0.0;
  double SelfSeconds = 0.0;
  std::vector<double> Durations;
};

/// Single-threaded span recorder: every traced call is made from the
/// main thread (the pipeline, the oracle, the probe and the serve
/// stage's publisher).
class SpanRecorder {
public:
  void setEnabled(bool On) { Enabled = On; }

  /// Times one call; records a span when the recorder is enabled.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name)
        : Rec(R), Start(Clock::now()) {
      if (!Rec.Enabled)
        return;
      Index = static_cast<int>(Rec.Spans.size());
      Rec.Spans.push_back({Name, secondsBetween(Rec.Origin, Start), 0.0,
                           Rec.Open});
      Rec.Open = Index;
    }
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// Ends the span now and returns its duration in seconds.
    double close() {
      if (Closed)
        return Elapsed;
      const Clock::time_point End = Clock::now();
      Elapsed = secondsBetween(Start, End);
      Closed = true;
      if (Index >= 0) {
        Rec.Spans[Index].End = secondsBetween(Rec.Origin, End);
        Rec.Open = Rec.Spans[Index].Parent;
      }
      return Elapsed;
    }

  private:
    SpanRecorder &Rec;
    Clock::time_point Start;
    int Index = -1;
    bool Closed = false;
    double Elapsed = 0.0;
  };

  /// Totals per span name, self time included. Spans nest strictly
  /// (one recording thread), so children never overlap each other.
  std::map<std::string, SpanTotals> totals() const {
    std::vector<double> ChildCover(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildCover[S.Parent] += S.End - S.Start;
    std::map<std::string, SpanTotals> Out;
    for (std::size_t I = 0; I != Spans.size(); ++I) {
      const double Duration = Spans[I].End - Spans[I].Start;
      SpanTotals &T = Out[Spans[I].Name];
      ++T.Count;
      T.TotalSeconds += Duration;
      T.SelfSeconds += Duration > ChildCover[I] ? Duration - ChildCover[I]
                                                : 0.0;
      T.Durations.push_back(Duration);
    }
    return Out;
  }

  /// Writes every span as one JSON array; false on I/O failure.
  bool write(const std::string &Path) const {
    std::FILE *File = std::fopen(Path.c_str(), "w");
    if (!File)
      return false;
    std::fputs("[\n", File);
    for (std::size_t I = 0; I != Spans.size(); ++I)
      std::fprintf(File,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   I, Spans[I].Name.c_str(), Spans[I].Start, Spans[I].End,
                   Spans[I].Parent, I + 1 == Spans.size() ? "" : ",");
    std::fputs("]\n", File);
    return std::fclose(File) == 0;
  }

private:
  bool Enabled = false;
  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  int Open = -1;
};

} // namespace perfbench

#endif // MPICSEL_PERFBENCH_SPANS_H
