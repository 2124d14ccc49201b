//===- mpi/ScheduleIntern.cpp - Compiled-schedule interning ---------------===//

#include "mpi/ScheduleIntern.h"

#include "obs/Journal.h"
#include "obs/Metrics.h"

#include <algorithm>

using namespace mpicsel;

ScheduleInternCache &ScheduleInternCache::global() {
  static ScheduleInternCache Cache;
  return Cache;
}

InternedScheduleRef ScheduleInternCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return nullptr;
  InternedScheduleRef Live = It->second.lock();
  if (!Live)
    return nullptr;
  ++Hits;
  obs::bump(obs::Counter::InternHits);
  return Live;
}

InternedScheduleRef ScheduleInternCache::insert(const std::string &Key,
                                                InternedScheduleRef Entry) {
  std::lock_guard<std::mutex> Guard(Lock);
  ++Misses;
  // Dead entries go here rather than from a deleter, so a schedule
  // may outlive the cache. The map holds at most the live entries
  // plus those that died since the last build.
  std::erase_if(Entries, [](const auto &KV) { return KV.second.expired(); });
  // Losing the race is harmless: both builds compiled the same
  // schedule, and the winner's entry is the one every caller shares.
  // Builds vs adoptions are journalled so the wasted duplicate work
  // under wide sweeps stays visible.
  std::weak_ptr<const InternedSchedule> &Slot = Entries[Key];
  InternedScheduleRef Shared = Slot.lock();
  const bool Adopted = Shared != nullptr;
  if (!Adopted)
    Slot = Shared = Entry;
  obs::bump(obs::Counter::InternBuilds);
  if (Adopted)
    obs::bump(obs::Counter::InternAdoptions);
  obs::Journal &J = obs::Journal::global();
  if (J.enabled()) {
    JsonObject Event = J.line("intern");
    Event.set("key", Key);
    Event.set("adopted", Adopted);
    J.write(Event);
  }
  return Shared;
}

ScheduleInternCache::CacheStats ScheduleInternCache::stats() const {
  std::lock_guard<std::mutex> Guard(Lock);
  CacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Entries = static_cast<std::size_t>(std::count_if(
      Entries.begin(), Entries.end(),
      [](const auto &KV) { return !KV.second.expired(); }));
  return S;
}

void ScheduleInternCache::clear() {
  std::lock_guard<std::mutex> Guard(Lock);
  Entries.clear();
  Hits = Misses = 0;
}
