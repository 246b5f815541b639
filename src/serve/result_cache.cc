#include "serve/result_cache.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/mutex.h"

namespace osum::serve {

size_t ApproxResultBytes(const std::vector<api::QueryResult>& results) {
  size_t bytes = sizeof(CachedResult) +
                 results.capacity() * sizeof(api::QueryResult);
  for (const api::QueryResult& r : results) {
    bytes += r.os.ApproxHeapBytes() +
             r.selection.nodes.size() * sizeof(core::OsNodeId);
  }
  return bytes;
}

ResultCache::ResultCache(ResultCacheOptions options)
    : admission_enabled_(options.admission_enabled),
      entries_(std::max<size_t>(options.max_entries, 1),
               std::max<size_t>(options.max_bytes, 1)),
      sightings_(options.admission_max_tracked != 0
                     ? options.admission_max_tracked
                     : std::max<size_t>(8 * options.max_entries, 64),
                 SIZE_MAX) {}

ResultPtr ResultCache::FindHit(const std::string& key) {
  auto it = entries_.Find(key);
  if (it == entries_.end()) return nullptr;
  entries_.Touch(it);
  ++hits_;
  if (it->value->negative()) ++negative_hits_;
  return it->value;
}

bool ResultCache::AdmitOrRecordSighting(const std::string& key) {
  if (!admission_enabled_) return true;
  auto it = sightings_.Find(key);
  if (it != sightings_.end()) {
    // Second sighting: admit, consuming the record.
    sightings_.Erase(it);
    return true;
  }
  // First sighting: record and reject.
  sightings_.Put(key, Sighting{}, 0);
  return false;
}

ResultPtr ResultCache::Lookup(const std::string& key) {
  util::MutexLock lock(mu_);
  return FindHit(key);
}

ResultPtr ResultCache::GetOrCompute(
    const std::string& key, const std::function<CachedResult()>& compute) {
  std::shared_ptr<std::promise<ResultPtr>> promise;
  // Set inside the lock scope, waited on after it: the coalesced path must
  // block outside the lock, and a scoped MutexLock (unlike the old
  // hand-unlocked unique_lock) makes that ordering structural.
  std::optional<std::shared_future<ResultPtr>> wait_on;
  {
    util::MutexLock lock(mu_);
    if (ResultPtr hit = FindHit(key)) return hit;
    auto inflight = inflight_.find(key);
    if (inflight != inflight_.end()) {
      // Someone else is computing this key right now; wait for their
      // result outside the lock. The computing thread is guaranteed to be
      // actively running `compute` (it is never queued), so this wait
      // always makes progress even from thread-pool workers.
      ++coalesced_waits_;
      wait_on = inflight->second;
    } else {
      ++misses_;
      promise = std::make_shared<std::promise<ResultPtr>>();
      inflight_.emplace(key, promise->get_future().share());
    }
  }
  if (wait_on) return wait_on->get();

  ResultPtr value;
  try {
    value = std::make_shared<const CachedResult>(compute());
  } catch (...) {
    {
      util::MutexLock lock(mu_);
      inflight_.erase(key);
    }
    promise->set_exception(std::current_exception());
    throw;
  }

  {
    util::MutexLock lock(mu_);
    inflight_.erase(key);
    // Publish only if nobody filled the key meanwhile (cannot normally
    // happen — coalescing — but cheap to keep watertight) and the
    // admission policy accepts the key (a first-sighted key is recorded,
    // returned, and not cached).
    if (entries_.Find(key) != entries_.end()) {
      ++discarded_inserts_;
    } else if (!AdmitOrRecordSighting(key)) {
      ++admission_rejects_;
    } else {
      entries_.Put(key, value, value->approx_bytes + key.size());
    }
  }
  promise->set_value(value);
  return value;
}

CacheMetrics ResultCache::metrics() const {
  CacheMetrics m;
  util::MutexLock lock(mu_);
  m.hits = hits_;
  m.negative_hits = negative_hits_;
  m.misses = misses_;
  m.coalesced_waits = coalesced_waits_;
  m.discarded_inserts = discarded_inserts_;
  m.admission_rejects = admission_rejects_;
  m.entries = entries_.size();
  m.approx_bytes = entries_.bytes();
  m.evictions = entries_.evictions();
  m.tracked_sightings = sightings_.size();
  return m;
}

}  // namespace osum::serve
