//===- verify/Verifier.cpp - Static schedule analysis ----------------------===//
//
// Analysis notes.
//
// The IR makes static verification unusually tractable: sends are
// buffered (they never wait for their receiver), all intra-rank
// ordering is explicit dependency edges, and message matching is FIFO
// per (src, dst, tag) channel. Consequently:
//
//  * The engine's matching is reproduced statically by pairing the
//    k-th send with the k-th receive of each channel *in posting
//    order*. Posting order equals op-id order whenever the engine
//    activates two same-channel ops off the same trigger (dependents
//    are released in op-id order); where postings have distinct
//    triggers, the analyzer proves the order via happens-before
//    reasoning (see postingOrdered below) and reports the pair as
//    ambiguous when it cannot -- but only if the sizes differ, since
//    equal-size reorderings cannot change any outcome.
//
//  * Deadlock detection is sound and complete: an op completes iff all
//    its dependencies complete and, for a receive, its matched send
//    completes (unmatched receives never complete). That is a monotone
//    fixpoint over the dependency + match graph; the residue is the
//    exact never-completing set the engine would report.
//
//  * The happens-before closure used for posting-order proofs has
//    three edge families: dependency edges (completion(dep) <=
//    completion(op)), match edges (completion(send) <=
//    completion(recv)), and per-channel FIFO edges (completion(recv_k)
//    <= completion(recv_{k+1}), valid once both the sends and the
//    receives of ranks k and k+1 are proven posting-ordered -- FIFO
//    wires and the serialised per-rank CPU preserve the order). FIFO
//    edges are derived bottom-up per channel (edge k's proof may use
//    the already-proven edges below it -- induction over the segment
//    pipeline); reachability queries follow only proven edges and
//    carry a per-proof node budget, conservatively reporting
//    "unproven" on exhaustion.
//
//===----------------------------------------------------------------------===//

#include "verify/Verifier.h"

#include "support/Format.h"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

using namespace mpicsel;

const char *mpicsel::checkKindName(CheckKind Check) {
  switch (Check) {
  case CheckKind::Structure:
    return "structure";
  case CheckKind::Matching:
    return "matching";
  case CheckKind::AmbiguousMatch:
    return "ambiguous-match";
  case CheckKind::Deadlock:
    return "deadlock";
  case CheckKind::Contract:
    return "contract";
  case CheckKind::Lint:
    return "lint";
  }
  return "unknown";
}

const char *mpicsel::severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Error:
    return "error";
  case Severity::Warning:
    return "warning";
  case Severity::Lint:
    return "lint";
  }
  return "unknown";
}

std::string VerifyFinding::str() const {
  std::string Where;
  if (Id != InvalidOpId)
    Where += strFormat(" op %u", Id);
  if (Rank != InvalidRank)
    Where += strFormat(" rank %u", Rank);
  return strFormat("%s [%s]%s: %s", severityName(Sev), checkKindName(Check),
                   Where.c_str(), Message.c_str());
}

bool VerifyReport::clean(Severity AtLeast) const {
  for (const VerifyFinding &F : Findings)
    if (static_cast<unsigned>(F.Sev) <= static_cast<unsigned>(AtLeast))
      return false;
  return true;
}

unsigned VerifyReport::count(Severity Sev) const {
  unsigned N = 0;
  for (const VerifyFinding &F : Findings)
    if (F.Sev == Sev)
      ++N;
  return N;
}

std::string VerifyReport::str() const {
  std::string Out;
  for (const VerifyFinding &F : Findings) {
    Out += F.str();
    Out += '\n';
  }
  return Out;
}

namespace {

const char *opKindName(OpKind Kind) {
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

/// One (src, dst, tag) message channel: its sends and receives in
/// op-id order, plus the memoised FIFO-edge verdicts between
/// consecutive receives (see fifoEdgeValid).
struct Channel {
  std::vector<OpId> Sends;
  std::vector<OpId> Recvs;
  /// Per consecutive receive pair k: 0 = unknown, 1 = proven,
  /// -1 = unprovable.
  std::vector<signed char> FifoMemo;
  /// Number of leading FifoMemo entries already computed by
  /// warmChannel.
  std::size_t Warmed = 0;
};

using ChannelKey = std::tuple<unsigned, unsigned, int>;

class Analyzer {
public:
  Analyzer(const Schedule &Sched, const ScheduleContract *Contr,
           const VerifyOptions &Options)
      : S(Sched), RankCount(Sched.RankCount), NumOps(Sched.numOps()),
        Contract(Contr), Opts(Options) {}

  VerifyReport run();

private:
  void finding(Severity Sev, CheckKind Check, OpId Id, unsigned Rank,
               std::string Message);

  bool checkStructure();
  void buildChannels();
  void checkMatching();
  void warmChannel(Channel &C, std::size_t UpTo);
  void checkAmbiguity();
  void checkDeadlock();
  void checkContract();
  void checkLints();

  /// True if op \p A provably cannot be posted (activated) after op
  /// \p B. Holds when every dependency of A completes no later than
  /// some dependency of B (dependency-free ops are posted at t = 0).
  bool postingOrdered(OpId A, OpId B);

  /// True if completion(\p From) <= completion(\p To) is provable in
  /// the happens-before closure, following only already-proven FIFO
  /// edges. Consumes from the shared budget.
  bool reaches(OpId From, std::span<const OpId> Targets);

  const Schedule &S;
  unsigned RankCount;
  OpId NumOps;
  const ScheduleContract *Contract;
  const VerifyOptions &Opts;
  VerifyReport Report;
  unsigned FindingsPerCheck[6] = {};

  std::vector<std::vector<OpId>> Dependents;
  std::map<ChannelKey, Channel> Channels;
  /// Channel and index-within-direction of each Send/Recv op.
  struct ChanPos {
    Channel *Chan = nullptr;
    std::uint32_t Index = 0;
  };
  std::vector<ChanPos> PosOf;
  /// Matched counterpart of each op (send <-> recv), or InvalidOpId.
  std::vector<OpId> MatchOf;
  /// Ops excluded from the graph analyses because their structure is
  /// broken (out-of-range rank/peer/dep).
  std::vector<bool> Malformed;
  unsigned Budget = 0;
  /// Epoch-stamped visited marks and reusable stack for reaches();
  /// avoids per-query allocation in the hot ambiguity proofs.
  std::vector<std::uint32_t> VisitStamp;
  std::uint32_t Stamp = 0;
  std::vector<OpId> Stack;
};

void Analyzer::finding(Severity Sev, CheckKind Check, OpId Id, unsigned Rank,
                       std::string Message) {
  unsigned &Count = FindingsPerCheck[static_cast<unsigned>(Check)];
  if (Count == Opts.MaxFindingsPerCheck) {
    Report.Findings.push_back(
        {Sev, Check, InvalidOpId, VerifyFinding::InvalidRank,
         "further findings of this kind suppressed"});
  }
  if (Count++ >= Opts.MaxFindingsPerCheck)
    return;
  Report.Findings.push_back({Sev, Check, Id, Rank, std::move(Message)});
}

bool Analyzer::checkStructure() {
  if (RankCount == 0) {
    finding(Severity::Error, CheckKind::Structure, InvalidOpId,
            VerifyFinding::InvalidRank, "schedule has zero ranks");
    return false;
  }
  if (!S.consistent()) {
    finding(Severity::Error, CheckKind::Structure, InvalidOpId,
            VerifyFinding::InvalidRank,
            "op rows, tags and dependency offsets disagree");
    return false;
  }
  Malformed.assign(NumOps, false);
  Dependents.assign(NumOps, {});

  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpView O = S.op(Id);
    if (O.Rank >= RankCount) {
      finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
              strFormat("rank %u outside the %u-rank communicator", O.Rank,
                        RankCount));
      Malformed[Id] = true;
    }
    if (O.Kind != OpKind::Compute && O.Peer >= RankCount) {
      finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
              strFormat("peer %u outside the %u-rank communicator", O.Peer,
                        RankCount));
      Malformed[Id] = true;
    }
    if (O.Kind == OpKind::Compute && O.Duration < 0)
      finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
              strFormat("negative compute duration %g", O.Duration));
    for (OpId Dep : O.Deps) {
      if (Dep >= NumOps) {
        finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
                strFormat("dependency on nonexistent op %u", Dep));
        Malformed[Id] = true;
        continue;
      }
      if (Dep == Id)
        finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
                "op depends on itself");
      else if (Dep > Id)
        finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
                strFormat("dependency on later op %u (an op waits only on "
                          "requests posted before it)",
                          Dep));
      if (!Malformed[Id] && S.op(Dep).Rank != O.Rank)
        finding(Severity::Error, CheckKind::Structure, Id, O.Rank,
                strFormat("cross-rank dependency on op %u of rank %u (MPI "
                          "processes wait only on their own requests)",
                          Dep, S.op(Dep).Rank));
      Dependents[Dep].push_back(Id);
    }
  }

  // Cycle detection over the dependency edges alone (Kahn). The
  // builder can only produce back-references, but hand-built or
  // mutated schedules can contain forward edges and thus cycles.
  std::vector<std::uint32_t> Pending(NumOps, 0);
  for (OpId Id = 0; Id != NumOps; ++Id)
    for (OpId Dep : S.op(Id).Deps)
      if (Dep < NumOps)
        ++Pending[Id];
  std::deque<OpId> Queue;
  for (OpId Id = 0; Id != NumOps; ++Id)
    if (Pending[Id] == 0)
      Queue.push_back(Id);
  OpId Ordered = 0;
  while (!Queue.empty()) {
    OpId Id = Queue.front();
    Queue.pop_front();
    ++Ordered;
    for (OpId Next : Dependents[Id])
      if (--Pending[Next] == 0)
        Queue.push_back(Next);
  }
  if (Ordered != NumOps)
    for (OpId Id = 0; Id != NumOps; ++Id)
      if (Pending[Id] != 0)
        finding(Severity::Error, CheckKind::Structure, Id, S.op(Id).Rank,
                "op is part of a dependency cycle");
  return true;
}

void Analyzer::buildChannels() {
  PosOf.assign(NumOps, {});
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpView O = S.op(Id);
    if (O.Kind == OpKind::Compute || Malformed[Id])
      continue;
    ChannelKey Key = O.Kind == OpKind::Send
                         ? ChannelKey{O.Rank, O.Peer, O.Tag}
                         : ChannelKey{O.Peer, O.Rank, O.Tag};
    Channel &Chan = Channels[Key];
    std::vector<OpId> &List =
        O.Kind == OpKind::Send ? Chan.Sends : Chan.Recvs;
    PosOf[Id] = {&Chan, static_cast<std::uint32_t>(List.size())};
    List.push_back(Id);
  }
  for (auto &[Key, Chan] : Channels)
    Chan.FifoMemo.assign(
        Chan.Recvs.empty() ? 0 : Chan.Recvs.size() - 1, 0);
  VisitStamp.assign(NumOps, 0);
  Stamp = 0;
}

void Analyzer::checkMatching() {
  MatchOf.assign(NumOps, InvalidOpId);
  for (auto &[Key, Chan] : Channels) {
    const auto [Src, Dst, Tag] = Key;
    std::size_t Paired = std::min(Chan.Sends.size(), Chan.Recvs.size());
    for (std::size_t K = 0; K != Paired; ++K) {
      OpId SendId = Chan.Sends[K], RecvId = Chan.Recvs[K];
      MatchOf[SendId] = RecvId;
      MatchOf[RecvId] = SendId;
      if (S.op(SendId).Bytes != S.op(RecvId).Bytes)
        finding(Severity::Error, CheckKind::Matching, RecvId, Dst,
                strFormat("recv of %llu bytes matches send op %u of %llu "
                          "bytes (%u -> %u, tag %d, message #%zu)",
                          (unsigned long long)S.op(RecvId).Bytes, SendId,
                          (unsigned long long)S.op(SendId).Bytes, Src, Dst,
                          Tag, K));
    }
    for (std::size_t K = Paired; K < Chan.Sends.size(); ++K)
      finding(Severity::Error, CheckKind::Matching, Chan.Sends[K], Src,
              strFormat("unmatched send #%zu (%u -> %u, tag %d): no receive "
                        "consumes it",
                        K, Src, Dst, Tag));
    for (std::size_t K = Paired; K < Chan.Recvs.size(); ++K)
      finding(Severity::Error, CheckKind::Matching, Chan.Recvs[K], Dst,
              strFormat("unmatched recv #%zu (%u <- %u, tag %d): no send "
                        "produces it",
                        K, Dst, Src, Tag));
  }
}

bool Analyzer::reaches(OpId From, std::span<const OpId> Targets) {
  auto isTarget = [&](OpId Id) {
    return std::find(Targets.begin(), Targets.end(), Id) != Targets.end();
  };
  if (isTarget(From))
    return true;
  ++Stamp;
  Stack.clear();
  Stack.push_back(From);
  VisitStamp[From] = Stamp;
  // Breadth-first: typical proofs are a handful of edges long (the
  // next round on the same rank), while the graph reachable from
  // From can span the whole schedule. Depth-first would chase a FIFO
  // or match chain to the far end of the pipeline and exhaust the
  // budget before trying the short path.
  std::size_t Head = 0;
  auto visit = [&](OpId Id) {
    if (VisitStamp[Id] == Stamp)
      return false;
    VisitStamp[Id] = Stamp;
    return true;
  };
  while (Head != Stack.size()) {
    if (Budget == 0)
      return false;
    --Budget;
    OpId Id = Stack[Head++];

    auto follow = [&](OpId Next) {
      if (isTarget(Next))
        return true;
      if (visit(Next))
        Stack.push_back(Next);
      return false;
    };
    for (OpId Next : Dependents[Id])
      if (follow(Next))
        return true;
    const OpView O = S.op(Id);
    if (O.Kind == OpKind::Send && MatchOf[Id] != InvalidOpId &&
        follow(MatchOf[Id]))
      return true;
    if (O.Kind == OpKind::Recv && PosOf[Id].Chan) {
      Channel &Chan = *PosOf[Id].Chan;
      std::size_t K = PosOf[Id].Index;
      if (K + 1 < Chan.Recvs.size() && Chan.FifoMemo[K] == 1 &&
          follow(Chan.Recvs[K + 1]))
        return true;
    }
  }
  return false;
}

bool Analyzer::postingOrdered(OpId A, OpId B) {
  std::span<const OpId> DepsA = S.op(A).Deps;
  std::span<const OpId> DepsB = S.op(B).Deps;
  if (DepsA.empty())
    return true; // A is posted at t = 0.
  if (DepsB.empty())
    return false; // B at t = 0, A strictly later (or unprovable tie).
  for (OpId DepA : DepsA)
    if (!reaches(DepA, DepsB))
      return false;
  return true;
}

void Analyzer::warmChannel(Channel &C, std::size_t UpTo) {
  // Prove the channel's FIFO edges bottom-up, each with a fresh
  // budget: edge k's proof may walk through the already-proven edges
  // below it, so the induction climbs a segmented pipeline one step
  // at a time instead of recursing down its whole depth on the first
  // query. Called on demand -- schedules without differing-size
  // concurrent messages never pay for this.
  UpTo = std::min(UpTo, C.FifoMemo.size());
  // The all-channel warm in checkAmbiguity may have pushed Warmed past
  // this request already; K = Warmed > UpTo must not loop.
  for (std::size_t K = C.Warmed; K < UpTo; ++K) {
    // Arrival order k < k+1 needs the sends posting-ordered;
    // completion order additionally needs the receives
    // posting-ordered (both then serialise through the same wire,
    // drain channel and CPU).
    Budget = Opts.ReachabilityBudget;
    bool Valid = K + 1 < C.Sends.size() &&
                 postingOrdered(C.Sends[K], C.Sends[K + 1]) &&
                 postingOrdered(C.Recvs[K], C.Recvs[K + 1]);
    C.FifoMemo[K] = Valid ? 1 : -1;
  }
  C.Warmed = std::max(C.Warmed, UpTo);
}

void Analyzer::checkAmbiguity() {
  bool AllWarmed = false;
  for (auto &[Key, Chan] : Channels) {
    const auto [Src, Dst, Tag] = Key;
    auto checkRun = [&](const std::vector<OpId> &Run, const char *What,
                        unsigned Rank) {
      for (std::size_t K = 0; K + 1 < Run.size(); ++K) {
        const OpView A = S.op(Run[K]);
        const OpView B = S.op(Run[K + 1]);
        if (A.Bytes == B.Bytes)
          continue; // Reordering equal sizes never changes outcomes.
        // The proof may walk the channel's FIFO edges below this
        // pair; prove them first.
        warmChannel(Chan, K);
        Budget = Opts.ReachabilityBudget;
        bool Ordered = postingOrdered(Run[K], Run[K + 1]);
        if (!Ordered && !AllWarmed) {
          // A cross-channel FIFO edge might complete the proof; warm
          // everything once and retry before reporting.
          for (auto &[OtherKey, Other] : Channels)
            warmChannel(Other, Other.FifoMemo.size());
          AllWarmed = true;
          Budget = Opts.ReachabilityBudget;
          Ordered = postingOrdered(Run[K], Run[K + 1]);
        }
        if (!Ordered)
          finding(Severity::Warning, CheckKind::AmbiguousMatch, Run[K + 1],
                  Rank,
                  strFormat("%ss #%zu (%llu bytes, op %u) and #%zu (%llu "
                            "bytes) on channel %u -> %u tag %d have no "
                            "provable posting order; matching may pair "
                            "either with either",
                            What, K, (unsigned long long)A.Bytes, Run[K],
                            K + 1, (unsigned long long)B.Bytes, Src, Dst,
                            Tag));
      }
    };
    checkRun(Chan.Sends, "send", Src);
    checkRun(Chan.Recvs, "recv", Dst);
  }
}

void Analyzer::checkDeadlock() {
  // An op completes iff its valid dependencies complete and, for a
  // matched recv, its send completes; unmatched recvs never do.
  // Monotone fixpoint via Kahn over the dependency + match graph.
  std::vector<std::uint32_t> Waits(NumOps, 0);
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpView O = S.op(Id);
    for (OpId Dep : O.Deps)
      if (Dep < NumOps)
        ++Waits[Id];
    if (O.Kind == OpKind::Recv && !Malformed[Id])
      ++Waits[Id]; // The matched send; unmatched = never satisfied.
  }
  std::deque<OpId> Queue;
  std::vector<bool> Completes(NumOps, false);
  auto release = [&](OpId Id) {
    if (Waits[Id] == 0 && !Completes[Id]) {
      Completes[Id] = true;
      Queue.push_back(Id);
    }
  };
  for (OpId Id = 0; Id != NumOps; ++Id)
    release(Id);
  while (!Queue.empty()) {
    OpId Id = Queue.front();
    Queue.pop_front();
    for (OpId Next : Dependents[Id]) {
      --Waits[Next];
      release(Next);
    }
    if (S.op(Id).Kind == OpKind::Send && MatchOf[Id] != InvalidOpId) {
      OpId RecvId = MatchOf[Id];
      --Waits[RecvId];
      release(RecvId);
    }
  }

  for (OpId Id = 0; Id != NumOps; ++Id)
    if (!Completes[Id])
      Report.NeverCompleting.push_back(Id);
  if (Report.NeverCompleting.empty())
    return;

  finding(Severity::Error, CheckKind::Deadlock, Report.NeverCompleting[0],
          S.op(Report.NeverCompleting[0]).Rank,
          strFormat("guaranteed deadlock: %zu of %u ops can never complete",
                    Report.NeverCompleting.size(), NumOps));

  // Name the root causes: never-completing ops all of whose
  // dependencies complete -- an unmatched recv, or a recv whose
  // matched send is itself stuck.
  unsigned Named = 0;
  for (OpId Id : Report.NeverCompleting) {
    const OpView O = S.op(Id);
    bool DepsOk = true;
    for (OpId Dep : O.Deps)
      DepsOk &= Dep < NumOps && Completes[Dep];
    if (!DepsOk)
      continue; // Failure inherited through program order.
    if (Named++ >= Opts.MaxFindingsPerCheck)
      break;
    if (O.Kind == OpKind::Recv && MatchOf[Id] == InvalidOpId)
      finding(Severity::Error, CheckKind::Deadlock, Id, O.Rank,
              strFormat("recv (%u <- %u, tag %d) blocks forever: no send "
                        "matches it",
                        O.Rank, O.Peer, O.Tag));
    else if (O.Kind == OpKind::Recv)
      finding(Severity::Error, CheckKind::Deadlock, Id, O.Rank,
              strFormat("recv (%u <- %u, tag %d) blocks forever: its "
                        "matched send op %u can never execute",
                        O.Rank, O.Peer, O.Tag, MatchOf[Id]));
    else
      finding(Severity::Error, CheckKind::Deadlock, Id, O.Rank,
              strFormat("%s blocks forever despite completed dependencies",
                        opKindName(O.Kind)));
  }

  // Explain the shape of the deadlock when it is circular: walk one
  // blocking predecessor at a time (a stuck dependency, else the
  // stuck matched send) until an op repeats, then report the cycle.
  // Acyclic deadlocks (unmatched receives and their downstream
  // cascade) terminate the walk at a root cause named above.
  std::vector<OpId> Trail;
  std::vector<bool> OnTrail(NumOps, false);
  OpId Cur = Report.NeverCompleting[0];
  while (!OnTrail[Cur]) {
    OnTrail[Cur] = true;
    Trail.push_back(Cur);
    OpId Blocker = InvalidOpId;
    for (OpId Dep : S.op(Cur).Deps)
      if (Dep < NumOps && !Completes[Dep]) {
        Blocker = Dep;
        break;
      }
    if (Blocker == InvalidOpId && S.op(Cur).Kind == OpKind::Recv &&
        MatchOf[Cur] != InvalidOpId && !Completes[MatchOf[Cur]])
      Blocker = MatchOf[Cur];
    if (Blocker == InvalidOpId)
      return; // The walk ended at an acyclic root cause.
    Cur = Blocker;
  }
  std::string Cycle;
  bool In = false;
  for (OpId Id : Trail) {
    In |= Id == Cur;
    if (!In)
      continue;
    const OpView O = S.op(Id);
    Cycle += strFormat("op %u (rank %u %s", Id, O.Rank, opKindName(O.Kind));
    if (O.Kind != OpKind::Compute)
      Cycle += strFormat(" peer=%u tag=%d", O.Peer, O.Tag);
    Cycle += ") waits for ";
  }
  Cycle += strFormat("op %u", Cur);
  finding(Severity::Error, CheckKind::Deadlock, Cur, S.op(Cur).Rank,
          "wait-for cycle: " + Cycle);
}

void Analyzer::checkContract() {
  const ScheduleContract &C = *Contract;
  const unsigned P = RankCount;
  auto covers = [&](const auto &Vec) { return Vec.size() == P; };
  auto sized = [&](const auto &Vec, const char *What) {
    if (Vec.empty() || covers(Vec))
      return true;
    finding(Severity::Error, CheckKind::Contract, InvalidOpId,
            VerifyFinding::InvalidRank,
            strFormat("contract '%s' pins %s for %zu ranks but the schedule "
                      "has %u",
                      C.Name.c_str(), What, Vec.size(), P));
    return false;
  };

  std::vector<std::uint64_t> Recv(P, 0), Sent(P, 0);
  std::vector<std::uint32_t> RecvN(P, 0), SentN(P, 0);
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpView O = S.op(Id);
    if (Malformed[Id])
      continue;
    if (O.Kind == OpKind::Recv) {
      Recv[O.Rank] += O.Bytes;
      ++RecvN[O.Rank];
    } else if (O.Kind == OpKind::Send) {
      Sent[O.Rank] += O.Bytes;
      ++SentN[O.Rank];
    }
  }

  auto checkBytes = [&](const std::vector<std::uint64_t> &Want,
                        const std::vector<std::uint64_t> &Got,
                        const char *What) {
    if (!sized(Want, What) || Want.empty())
      return;
    for (unsigned Rank = 0; Rank != P; ++Rank)
      if (Want[Rank] != ScheduleContract::UncheckedBytes &&
          Want[Rank] != Got[Rank])
        finding(Severity::Error, CheckKind::Contract, InvalidOpId, Rank,
                strFormat("%s: rank %u %s %llu payload bytes, contract "
                          "requires %llu",
                          C.Name.c_str(), Rank, What,
                          (unsigned long long)Got[Rank],
                          (unsigned long long)Want[Rank]));
  };
  checkBytes(C.RecvBytes, Recv, "receives");
  checkBytes(C.SentBytes, Sent, "sends");

  if (sized(C.NetBytes, "net bytes") && !C.NetBytes.empty())
    for (unsigned Rank = 0; Rank != P; ++Rank) {
      if (C.NetBytes[Rank] == ScheduleContract::UncheckedNet)
        continue;
      std::int64_t Net = static_cast<std::int64_t>(Recv[Rank]) -
                         static_cast<std::int64_t>(Sent[Rank]);
      if (Net != C.NetBytes[Rank])
        finding(Severity::Error, CheckKind::Contract, InvalidOpId, Rank,
                strFormat("%s: rank %u keeps %lld payload bytes "
                          "(received - sent), contract requires %lld",
                          C.Name.c_str(), Rank, (long long)Net,
                          (long long)C.NetBytes[Rank]));
    }

  auto checkCounts = [&](const std::vector<std::uint32_t> &Want,
                         const std::vector<std::uint32_t> &Got,
                         const char *What) {
    if (!sized(Want, What) || Want.empty())
      return;
    for (unsigned Rank = 0; Rank != P; ++Rank)
      if (Want[Rank] != ScheduleContract::UncheckedCount &&
          Want[Rank] != Got[Rank])
        finding(Severity::Error, CheckKind::Contract, InvalidOpId, Rank,
                strFormat("%s: rank %u %s %u messages, contract requires %u",
                          C.Name.c_str(), Rank, What, Got[Rank], Want[Rank]));
  };
  checkCounts(C.RecvMsgs, RecvN, "receives");
  checkCounts(C.SentMsgs, SentN, "sends");

  if (C.Flow == FlowRequirement::None)
    return;
  if (C.Root >= P) {
    finding(Severity::Error, CheckKind::Contract, InvalidOpId, C.Root,
            strFormat("%s: contract root %u outside the communicator",
                      C.Name.c_str(), C.Root));
    return;
  }
  // Rank-level reachability over matched payload-carrying messages.
  std::vector<std::vector<unsigned>> Adj(P);
  for (const auto &[Key, Chan] : Channels) {
    std::size_t Paired = std::min(Chan.Sends.size(), Chan.Recvs.size());
    bool Payload = false;
    for (std::size_t K = 0; K != Paired && !Payload; ++K)
      Payload = S.op(Chan.Sends[K]).Bytes > 0;
    if (!Payload)
      continue;
    unsigned Src = std::get<0>(Key), Dst = std::get<1>(Key);
    if (C.Flow == FlowRequirement::RootToAll)
      Adj[Src].push_back(Dst);
    else
      Adj[Dst].push_back(Src); // Reverse edges: walk from the root.
  }
  std::vector<bool> Reached(P, false);
  std::deque<unsigned> Queue{C.Root};
  Reached[C.Root] = true;
  while (!Queue.empty()) {
    unsigned Rank = Queue.front();
    Queue.pop_front();
    for (unsigned Next : Adj[Rank])
      if (!Reached[Next]) {
        Reached[Next] = true;
        Queue.push_back(Next);
      }
  }
  for (unsigned Rank = 0; Rank != P; ++Rank)
    if (!Reached[Rank])
      finding(Severity::Error, CheckKind::Contract, InvalidOpId, Rank,
              strFormat("%s: %s", C.Name.c_str(),
                        C.Flow == FlowRequirement::RootToAll
                            ? strFormat("rank %u receives no data "
                                        "originating from root %u",
                                        Rank, C.Root)
                              .c_str()
                            : strFormat("root %u receives no data "
                                        "originating from rank %u",
                                        C.Root, Rank)
                              .c_str()));
}

void Analyzer::checkLints() {
  for (OpId Id = 0; Id != NumOps; ++Id) {
    const OpView O = S.op(Id);
    if (Malformed[Id])
      continue;
    if (O.Kind != OpKind::Compute && O.Peer == O.Rank)
      finding(Severity::Warning, CheckKind::Lint, Id, O.Rank,
              strFormat("self-%s: rank %u messages itself (not modelled; "
                        "real MPI would need buffering guarantees)",
                        opKindName(O.Kind), O.Rank));
    if (O.Kind == OpKind::Compute && O.Duration == 0.0 && O.Deps.empty() &&
        Dependents[Id].empty())
      finding(Severity::Lint, CheckKind::Lint, Id, O.Rank,
              "dead op: zero-duration compute with no dependencies and no "
              "dependents");
  }
}

VerifyReport Analyzer::run() {
  if (!checkStructure())
    return std::move(Report);
  buildChannels();
  checkMatching();
  checkAmbiguity();
  checkDeadlock();
  if (Contract)
    checkContract();
  if (Opts.Lints)
    checkLints();
  return std::move(Report);
}

} // namespace

VerifyReport mpicsel::verifySchedule(const Schedule &S,
                                     const ScheduleContract *Contract,
                                     const VerifyOptions &Options) {
  Analyzer A(S, Contract, Options);
  return A.run();
}
