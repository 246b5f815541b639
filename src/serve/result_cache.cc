#include "serve/result_cache.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "util/mutex.h"

namespace osum::serve {
namespace {

// Entry-count / byte budgets are per shard; give every shard at least
// room for one entry so a cache is never vacuously empty.
size_t PerShard(size_t total, size_t shards) {
  size_t per = total / shards;
  return per == 0 ? 1 : per;
}

}  // namespace

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
    : num_shards_(std::bit_ceil(std::max<size_t>(options.num_shards, 1))),
      policy_(options.policy),
      clock_(options.clock != nullptr ? std::move(options.clock)
                                      : SystemClock::Instance()) {
  const size_t max_entries =
      PerShard(std::max<size_t>(options.max_entries, 1), num_shards_);
  const size_t max_bytes =
      PerShard(std::max<size_t>(options.max_bytes, 1), num_shards_);
  const size_t max_tracked = policy_.admission_max_tracked != 0
                                 ? policy_.admission_max_tracked
                                 : std::max<size_t>(8 * max_entries, 64);
  shards_.reserve(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(max_entries, max_bytes, max_tracked));
  }
}

std::string ResultCache::InternalKey(uint64_t epoch,
                                     const std::string& key) const {
  // 0x1d separates the epoch prefix from the caller key (which itself uses
  // only 0x1e/0x1f as separators, see api::CanonicalQueryKey).
  std::string ikey = std::to_string(epoch);
  ikey += '\x1d';
  ikey += key;
  return ikey;
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& internal_key) {
  size_t h = std::hash<std::string_view>{}(internal_key);
  return *shards_[h & (num_shards_ - 1)];
}

ResultPtr ResultCache::FindLive(Shard* shard, const std::string& ikey) {
  Lru::iterator it = shard->entries.Find(ikey);
  if (it == shard->entries.end() || EraseIfExpired(shard, it)) return nullptr;
  shard->entries.Touch(it);
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->value.result->negative()) {
    negative_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->value.result;
}

bool ResultCache::EraseIfExpired(Shard* shard, Lru::iterator it) {
  // Deadline check before the clock read: in the default no-TTL
  // configuration every entry has deadline 0 and the hot hit path never
  // pays a steady_clock call under the shard lock.
  if (it->value.deadline == 0) return false;
  return EraseExpiredAt(shard, it, clock_->NowMicros());
}

bool ResultCache::EraseExpiredAt(Shard* shard, Lru::iterator it,
                                 uint64_t now) {
  if (it->value.deadline == 0 || now < it->value.deadline) return false;
  (it->value.result->negative() ? negative_ttl_expiries_ : ttl_expiries_)
      .fetch_add(1, std::memory_order_relaxed);
  // An expired key already proved itself cache-worthy (it was admitted
  // once); leave a sighting so its first recompute re-admits immediately.
  // Without this, admission+TTL together would doorkeeper-reject every
  // hot key once per TTL period, doubling the expensive misses the cache
  // exists to amortize. (LRU evictions deliberately do NOT get this:
  // budget pressure means the key must re-earn its slot.)
  if (policy_.admission_enabled) shard->sightings.Put(it->key, now, 0);
  shard->entries.Erase(it);
  return true;
}

bool ResultCache::AdmitOrRecordSighting(Shard* shard, const std::string& ikey,
                                        uint64_t now) {
  if (!policy_.admission_enabled) return true;
  auto it = shard->sightings.Find(ikey);
  if (it != shard->sightings.end() &&
      (policy_.admission_window_micros == 0 ||  // 0 = sightings never age
       now < it->value + policy_.admission_window_micros)) {
    // Second sighting within the window: admit, consuming the record.
    shard->sightings.Erase(it);
    return true;
  }
  // First sighting, or one that aged out of the window: record/refresh
  // and reject.
  shard->sightings.Put(ikey, now, 0);
  return false;
}

uint64_t ResultCache::DeadlineFor(const CachedResult& value,
                                  uint64_t now) const {
  uint64_t ttl =
      value.negative() ? policy_.negative_ttl_micros : policy_.ttl_micros;
  return ttl == 0 ? 0 : now + ttl;
}

ResultPtr ResultCache::Lookup(const std::string& key) {
  std::string ikey = InternalKey(epoch(), key);
  Shard& shard = ShardFor(ikey);
  util::MutexLock lock(shard.mu);
  return FindLive(&shard, ikey);
}

ResultPtr ResultCache::GetOrCompute(
    const std::string& key, const std::function<CachedResult()>& compute) {
  const uint64_t epoch_at_start = epoch();
  std::string ikey = InternalKey(epoch_at_start, key);
  Shard& shard = ShardFor(ikey);

  std::shared_ptr<std::promise<ResultPtr>> promise;
  // Set inside the lock scope, waited on after it: the coalesced path must
  // block outside the shard lock, and a scoped MutexLock (unlike the old
  // hand-unlocked unique_lock) makes that ordering structural.
  std::optional<std::shared_future<ResultPtr>> wait_on;
  {
    util::MutexLock lock(shard.mu);
    if (ResultPtr hit = FindLive(&shard, ikey)) return hit;
    // Either never cached or just lazily expired — both are misses, and
    // both coalesce onto whoever computes the key first.
    auto inflight = shard.inflight.find(ikey);
    if (inflight != shard.inflight.end()) {
      // Someone else is computing this key right now; wait for their
      // result outside the lock. The computing thread is guaranteed to be
      // actively running `compute` (it is never queued), so this wait
      // always makes progress even from thread-pool workers.
      coalesced_waits_.fetch_add(1, std::memory_order_relaxed);
      wait_on = inflight->second;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      promise = std::make_shared<std::promise<ResultPtr>>();
      shard.inflight.emplace(ikey, promise->get_future().share());
    }
  }
  if (wait_on) return wait_on->get();

  ResultPtr value;
  try {
    value = std::make_shared<const CachedResult>(compute());
  } catch (...) {
    {
      util::MutexLock lock(shard.mu);
      shard.inflight.erase(ikey);
    }
    promise->set_exception(std::current_exception());
    throw;
  }

  {
    util::MutexLock lock(shard.mu);
    shard.inflight.erase(ikey);
    // Publish only if the epoch still matches (a context rebuild must not
    // resurrect results computed against the old context), nobody filled
    // the key meanwhile (cannot normally happen — coalescing — but cheap
    // to keep watertight), and the admission policy accepts the key (a
    // first-sighted key is recorded, returned, and not cached).
    if (epoch_.load(std::memory_order_acquire) != epoch_at_start ||
        shard.entries.Find(ikey) != shard.entries.end()) {
      discarded_inserts_.fetch_add(1, std::memory_order_relaxed);
    } else {
      uint64_t now = clock_->NowMicros();
      if (!AdmitOrRecordSighting(&shard, ikey, now)) {
        admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.entries.Put(ikey, Entry{value, DeadlineFor(*value, now)},
                          value->approx_bytes + ikey.size());
      }
    }
  }
  promise->set_value(value);
  return value;
}

size_t ResultCache::SweepExpired() {
  size_t swept = 0;
  for (auto& shard_ptr : shards_) {
    // A reference local keeps the held capability (`shard.mu`) and the
    // helpers' REQUIRES(shard->mu) textually identical for the analysis.
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mu);
    uint64_t now = clock_->NowMicros();
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      auto next = std::next(it);
      // Reuse the one clock read for the whole shard — a full sweep must
      // not pay a steady_clock call per entry under the lock.
      if (EraseExpiredAt(&shard, it, now)) ++swept;
      it = next;
    }
    // Sightings age out back-to-front: the list is ordered by recording
    // time, so pruning stops at the first still-in-window record. A zero
    // window means sightings never age (only the cap bounds them).
    if (policy_.admission_window_micros != 0) {
      shard.sightings.EraseOldestWhile([&](const auto& sighting) {
        return now >= sighting.value + policy_.admission_window_micros;
      });
    }
  }
  return swept;
}

void ResultCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mu);
    shard.entries.Clear();
  }
}

uint64_t ResultCache::BumpEpoch() {
  uint64_t next = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Old-epoch entries are unreachable already (epoch-prefixed keys); the
  // clear releases their memory. Old-epoch sightings are likewise
  // unreachable and age out via the cap and SweepExpired.
  Clear();
  return next;
}

CacheMetrics ResultCache::metrics() const {
  CacheMetrics m;
  m.hits = hits_.load(std::memory_order_relaxed);
  m.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  m.misses = misses_.load(std::memory_order_relaxed);
  m.coalesced_waits = coalesced_waits_.load(std::memory_order_relaxed);
  m.discarded_inserts = discarded_inserts_.load(std::memory_order_relaxed);
  m.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  m.ttl_expiries = ttl_expiries_.load(std::memory_order_relaxed);
  m.negative_ttl_expiries =
      negative_ttl_expiries_.load(std::memory_order_relaxed);
  m.epoch = epoch();
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mu);
    m.entries += shard.entries.size();
    m.approx_bytes += shard.entries.bytes();
    m.evictions += shard.entries.evictions();
    m.tracked_sightings += shard.sightings.size();
  }
  return m;
}

}  // namespace osum::serve
