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
    : policy_(options.policy),
      clock_(options.clock != nullptr ? std::move(options.clock)
                                      : SystemClock::Instance()),
      entries_(std::max<size_t>(options.max_entries, 1),
               std::max<size_t>(options.max_bytes, 1)),
      sightings_(policy_.admission_max_tracked != 0
                     ? policy_.admission_max_tracked
                     : std::max<size_t>(8 * options.max_entries, 64),
                 SIZE_MAX) {}

ResultPtr ResultCache::FindLive(const std::string& key) {
  Lru::iterator it = entries_.Find(key);
  if (it == entries_.end() || EraseIfExpired(it)) return nullptr;
  entries_.Touch(it);
  ++hits_;
  if (it->value.result->negative()) ++negative_hits_;
  return it->value.result;
}

bool ResultCache::EraseIfExpired(Lru::iterator it) {
  // Deadline check before the clock read: in the default no-TTL
  // configuration every entry has deadline 0 and the hot hit path never
  // pays a steady_clock call under the lock.
  if (it->value.deadline == 0) return false;
  return EraseExpiredAt(it, clock_->NowMicros());
}

bool ResultCache::EraseExpiredAt(Lru::iterator it, uint64_t now) {
  if (it->value.deadline == 0 || now < it->value.deadline) return false;
  ++(it->value.result->negative() ? negative_ttl_expiries_ : ttl_expiries_);
  // An expired key already proved itself cache-worthy (it was admitted
  // once); leave a sighting so its first recompute re-admits immediately.
  // Without this, admission+TTL together would doorkeeper-reject every
  // hot key once per TTL period, doubling the expensive misses the cache
  // exists to amortize. (LRU evictions deliberately do NOT get this:
  // budget pressure means the key must re-earn its slot.)
  if (policy_.admission_enabled) sightings_.Put(it->key, now, 0);
  entries_.Erase(it);
  return true;
}

bool ResultCache::AdmitOrRecordSighting(const std::string& key,
                                        uint64_t now) {
  if (!policy_.admission_enabled) return true;
  auto it = sightings_.Find(key);
  if (it != sightings_.end() &&
      (policy_.admission_window_micros == 0 ||  // 0 = sightings never age
       now < it->value + policy_.admission_window_micros)) {
    // Second sighting within the window: admit, consuming the record.
    sightings_.Erase(it);
    return true;
  }
  // First sighting, or one that aged out of the window: record/refresh
  // and reject.
  sightings_.Put(key, now, 0);
  return false;
}

uint64_t ResultCache::DeadlineFor(const CachedResult& value,
                                  uint64_t now) const {
  uint64_t ttl =
      value.negative() ? policy_.negative_ttl_micros : policy_.ttl_micros;
  return ttl == 0 ? 0 : now + ttl;
}

ResultPtr ResultCache::Lookup(const std::string& key) {
  util::MutexLock lock(mu_);
  return FindLive(key);
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
    if (ResultPtr hit = FindLive(key)) return hit;
    // Either never cached or just lazily expired — both are misses, and
    // both coalesce onto whoever computes the key first.
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
    } else {
      uint64_t now = clock_->NowMicros();
      if (!AdmitOrRecordSighting(key, now)) {
        ++admission_rejects_;
      } else {
        entries_.Put(key, Entry{value, DeadlineFor(*value, now)},
                     value->approx_bytes + key.size());
      }
    }
  }
  promise->set_value(value);
  return value;
}

size_t ResultCache::SweepExpired() {
  size_t swept = 0;
  util::MutexLock lock(mu_);
  uint64_t now = clock_->NowMicros();
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    // Reuse the one clock read for the whole sweep — a full sweep must
    // not pay a steady_clock call per entry under the lock.
    if (EraseExpiredAt(it, now)) ++swept;
    it = next;
  }
  // Sightings age out back-to-front: the list is ordered by recording
  // time, so pruning stops at the first still-in-window record. A zero
  // window means sightings never age (only the cap bounds them).
  if (policy_.admission_window_micros != 0) {
    sightings_.EraseOldestWhile([&](const auto& sighting) {
      return now >= sighting.value + policy_.admission_window_micros;
    });
  }
  return swept;
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
  m.ttl_expiries = ttl_expiries_;
  m.negative_ttl_expiries = negative_ttl_expiries_;
  m.entries = entries_.size();
  m.approx_bytes = entries_.bytes();
  m.evictions = entries_.evictions();
  m.tracked_sightings = sightings_.size();
  return m;
}

}  // namespace osum::serve
