// Sharded, stampede-safe LRU cache of ranked query results, with a
// byte-budget-aware cache *policy*: doorkeeper admission, per-entry TTLs
// and negative-result TTLs.
//
// The serving-layer answer to skewed keyword workloads: whole ranked result
// lists are cached behind canonical (keyword set, options) keys
// (api::CanonicalQueryKey), so a repeated query costs a mutex + a
// shared_ptr copy instead of OS generation + size-l computation — on the
// database back end a ~65x-amplified saving (paper Figure 10(f)). Design:
//   - Values are immutable shared_ptr<const CachedResult>: a hit hands the
//     caller a reference into the cache that stays valid after eviction,
//     so no copying and no lifetime coupling.
//   - Shards (power of two, independently mutexed) keep the hot path
//     contention-free; keys are partitioned by hash, LRU order, budgets
//     and the admission doorkeeper are per shard.
//   - Capacity is bounded twice: entry count and approximate bytes
//     (CachedResult::approx_bytes + key size). Either limit evicts from
//     the shard's LRU tail. The entry just inserted is never evicted by
//     its own insert, so one oversized result can transiently exceed the
//     byte budget (and is then evicted by the next insert).
//   - Admission (CachePolicyOptions::admission_enabled): a doorkeeper in
//     the TinyLFU spirit — a key's *first* sighting only records it; the
//     result is returned to the caller but not cached. A second sighting
//     within the sliding window (now < seen + admission_window_micros)
//     admits the entry. One-hit-wonder long-tail keys therefore never
//     spend budget bytes, so hot keys stay resident (bench_cache's
//     long-tail section measures exactly this). The doorkeeper is bounded
//     (admission_max_tracked per shard, oldest sighting evicted first)
//     and deterministic, so the property harness can model it exactly.
//     TTL expiry re-seeds it: an entry erased by its deadline leaves a
//     sighting, so a still-hot key re-admits on its first recompute
//     (LRU eviction leaves none — budget victims must re-earn entry).
//   - Expiry: entries carry a deadline (insert time + ttl). OK-empty
//     results — negative answers, distinguishable since the api layer —
//     use the separate (typically much shorter) negative TTL. Expiry is
//     lazy (an expired entry found by a lookup is erased and the lookup
//     misses; the next GetOrCompute recomputes exactly once, stampede
//     coalescing intact) plus swept (SweepExpired erases every expired
//     entry and prunes out-of-window doorkeeper sightings). All time
//     comes from the injectable serve::Clock, so every behavior above is
//     testable with a FakeClock and zero sleeps.
//   - Stampede protection: concurrent GetOrCompute misses for one key
//     coalesce onto a single computation via a per-key in-flight
//     shared_future. The computing caller runs `compute` inline on its own
//     thread (never queued), so waiters can always make progress — safe
//     even when every waiter is a thread-pool worker.
//   - Invalidation: Clear drops committed entries (doorkeeper sightings
//     survive — they are metadata, not results); BumpEpoch is the
//     correctness barrier for context rebuilds. Internal keys are
//     epoch-prefixed, so post-bump lookups can never see pre-bump values
//     or join pre-bump in-flight computations; completed stale
//     computations are discarded at insert time. After BumpEpoch returns,
//     no value produced under an older epoch is ever served — regardless
//     of any entry's remaining TTL.
#ifndef OSUM_SERVE_RESULT_CACHE_H_
#define OSUM_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::serve {

/// One immutable cached answer: the ranked result list plus its estimated
/// heap footprint (what the byte budget charges). An empty result list is
/// a *negative* answer (OK, zero hits) and is subject to the negative TTL.
struct CachedResult {
  std::vector<api::QueryResult> results;
  size_t approx_bytes = 0;

  bool negative() const { return results.empty(); }
};

/// How results travel through the serving layer: shared, const, detached
/// from the cache's own lifetime bookkeeping.
using ResultPtr = std::shared_ptr<const CachedResult>;

/// Conservative heap-footprint estimate of a result list (QueryResult
/// shells + OS node arenas + children lists + selections), for
/// CachedResult::approx_bytes.
size_t ApproxResultBytes(const std::vector<api::QueryResult>& results);

/// Time- and skew-aware policy knobs. Defaults preserve the historical
/// behavior: admit everything, keep it forever.
struct CachePolicyOptions {
  /// Positive entries expire once now >= insert + ttl_micros (so an entry
  /// lives strictly less than the TTL). 0 = never expire.
  uint64_t ttl_micros = 0;
  /// Separate — typically much shorter — TTL for negative (OK-empty)
  /// entries: an empty answer goes stale the moment matching data is
  /// inserted, while positive answers merely get incomplete. 0 = never.
  uint64_t negative_ttl_micros = 0;
  /// The bypass knob: false (default) admits every computed result —
  /// the historical behavior. True enables the doorkeeper: a key is
  /// cached only on its second sighting within the sliding window.
  bool admission_enabled = false;
  /// A recorded sighting stops counting once now >= seen + window (it is
  /// then refreshed, not admitted). 0 follows the TTL convention —
  /// "no time limit": sightings never age out and the doorkeeper is
  /// bounded by admission_max_tracked alone. Default 10 minutes.
  uint64_t admission_window_micros = 600ull * 1'000'000;
  /// Per-shard bound on remembered sightings; oldest-recorded is evicted
  /// first. 0 = auto (8x the shard's entry budget, minimum 64).
  size_t admission_max_tracked = 0;
};

struct ResultCacheOptions {
  /// Rounded up to a power of two; minimum 1. Use 1 in tests that assert
  /// global LRU order.
  size_t num_shards = 8;
  /// Whole-cache entry cap, split evenly across shards (minimum 1 each).
  size_t max_entries = 1024;
  /// Whole-cache approximate-byte cap, split evenly across shards.
  size_t max_bytes = 64ull << 20;
  CachePolicyOptions policy;
  /// Time source for TTLs and the admission window; null uses the shared
  /// SystemClock. Tests inject a FakeClock here.
  std::shared_ptr<const Clock> clock;
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  // Shards hold mutexes and in-flight futures; the cache is a fixture, not
  // a value.
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The serving hot path. Returns the cached value for `key` (refreshing
  /// its recency), joins an in-flight computation of the same key, or runs
  /// `compute` inline — publishing the result if the admission policy
  /// accepts it (a rejected result is still returned, just not cached).
  /// An entry found expired counts an expiry, is erased, and the call
  /// proceeds as a miss — coalescing still guarantees one recompute.
  /// `compute` may throw — the exception propagates to this caller and to
  /// every coalesced waiter, and nothing is cached.
  ResultPtr GetOrCompute(const std::string& key,
                         const std::function<CachedResult()>& compute);

  /// Pure lookup: the cached value (counts a hit, refreshes recency) or
  /// nullptr. An expired entry is erased (counting an expiry, not a miss).
  /// Counts no miss and never joins in-flight computations — the cheap
  /// first pass of the batched path.
  ResultPtr Lookup(const std::string& key);

  /// The sweep half of lazy-plus-sweep expiry: erases every expired entry
  /// (attributing positive/negative expiries) and prunes out-of-window
  /// doorkeeper sightings. Returns the number of entries erased. Call it
  /// from a maintenance tick; correctness never depends on it (lazy
  /// expiry already guarantees expired entries are unservable).
  size_t SweepExpired();

  /// Drops every committed entry (memory relief, not invalidation:
  /// computations already in flight may still publish afterwards, and
  /// doorkeeper sightings survive).
  void Clear();

  /// Invalidation barrier: advances the epoch and drops every committed
  /// entry. Once this returns, values produced under older epochs are
  /// unreachable (epoch-prefixed keys) and their late inserts are
  /// discarded. Returns the new epoch.
  uint64_t BumpEpoch();

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  CacheMetrics metrics() const;

 private:
  struct Entry {
    std::string key;  // epoch-prefixed internal key
    ResultPtr value;
    size_t bytes = 0;         // approx_bytes + key size
    uint64_t deadline = 0;    // expires once now >= deadline; 0 = never
  };
  using Lru = std::list<Entry>;

  /// One doorkeeper record: this key was computed-but-not-admitted at
  /// `seen_micros`. Recency-ordered like the LRU so the per-shard cap can
  /// evict the oldest sighting deterministically.
  struct Sighting {
    std::string key;  // epoch-prefixed internal key
    uint64_t seen_micros = 0;
  };
  using SightingList = std::list<Sighting>;

  struct Shard {
    util::Mutex mu;
    Lru lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<std::string_view, Lru::iterator> map GUARDED_BY(mu);
    std::unordered_map<std::string, std::shared_future<ResultPtr>> inflight
        GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
    SightingList sightings GUARDED_BY(mu);  // front = most recently recorded
    std::unordered_map<std::string_view, SightingList::iterator> sighting_map
        GUARDED_BY(mu);
  };

  std::string InternalKey(uint64_t epoch, const std::string& key) const;
  Shard& ShardFor(const std::string& internal_key);
  /// Evicts from the LRU tail until both per-shard budgets hold, never
  /// touching the front (most recent) entry.
  void EvictOverBudget(Shard* shard) REQUIRES(shard->mu);
  /// True when `it`'s entry has a deadline the clock reached; erases it
  /// and counts the expiry when so. Reads the clock only for entries that
  /// actually carry a deadline, so the no-TTL hit path costs no clock
  /// call. With admission enabled, the erased key gets a sighting — an
  /// expired hot key re-admits on its first recompute instead of being
  /// doorkeeper-rejected once per TTL period.
  bool EraseIfExpired(Shard* shard, Lru::iterator it) REQUIRES(shard->mu);
  /// The body of EraseIfExpired against a caller-supplied timestamp —
  /// SweepExpired reads the clock once per shard, not once per entry.
  bool EraseExpiredAt(Shard* shard, Lru::iterator it, uint64_t now)
      REQUIRES(shard->mu);
  /// Records (or refreshes and front-moves) a sighting of `ikey` at
  /// `now`, evicting the oldest past the cap.
  void RecordSighting(Shard* shard, const std::string& ikey, uint64_t now)
      REQUIRES(shard->mu);
  /// The doorkeeper decision for an insert of `ikey` at `now`: true
  /// admits (consuming the sighting), false records or refreshes a
  /// sighting and rejects.
  bool AdmitOrRecordSighting(Shard* shard, const std::string& ikey,
                             uint64_t now) REQUIRES(shard->mu);
  /// Entry deadline for a value inserted at `now` (0 = never expires).
  uint64_t DeadlineFor(const CachedResult& value, uint64_t now) const;

  const size_t num_shards_;
  const size_t max_entries_per_shard_;
  const size_t max_bytes_per_shard_;
  const CachePolicyOptions policy_;
  const size_t max_tracked_per_shard_;
  const std::shared_ptr<const Clock> clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> epoch_{0};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> negative_hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> coalesced_waits_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> discarded_inserts_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> ttl_expiries_{0};
  std::atomic<uint64_t> negative_ttl_expiries_{0};
};

}  // namespace osum::serve

#endif  // OSUM_SERVE_RESULT_CACHE_H_
