// Stampede-safe LRU cache of ranked query results, with a
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
//   - One lock: a single util::Mutex guards the entries, the in-flight
//     map and the doorkeeper sightings. Critical sections are pointer
//     copies and list splices — compute always runs outside the lock — so
//     the lock the property harness models is the lock that serves.
//   - Capacity: the entries are a util::BoundedLru (util/bounded_lru.h)
//     holding the whole-cache entry and byte budgets; an entry is charged
//     CachedResult::approx_bytes + key size.
//   - Admission (CachePolicyOptions::admission_enabled): a doorkeeper in
//     the TinyLFU spirit — a key's *first* sighting only records it; the
//     result is returned to the caller but not cached. A second sighting
//     within the sliding window (now < seen + admission_window_micros)
//     admits the entry. One-hit-wonder long-tail keys therefore never
//     spend budget bytes, so hot keys stay resident (bench_cache's
//     long-tail section measures exactly this). The doorkeeper is a
//     second BoundedLru of sighting times, capped at admission_max_tracked,
//     and deterministic, so the property harness can model it exactly.
//     TTL expiry re-seeds it: an entry erased by its deadline leaves a
//     sighting, so a still-hot key re-admits on its first recompute (LRU
//     eviction leaves none — budget victims must re-earn entry).
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
//   - No invalidation: a cache serves one immutable SearchContext for its
//     whole life (see QueryService), so the canonical key is the cache
//     key and an entry leaves only by LRU eviction or expiry.
#ifndef OSUM_SERVE_RESULT_CACHE_H_
#define OSUM_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/metrics.h"
#include "util/bounded_lru.h"
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
/// shells + OsTree::ApproxHeapBytes + selections), for
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
  /// Bound on remembered sightings; oldest-recorded is evicted first.
  /// 0 = auto (8x max_entries, minimum 64).
  size_t admission_max_tracked = 0;
};

struct ResultCacheOptions {
  /// Entry cap (minimum 1).
  size_t max_entries = 1024;
  /// Approximate-byte cap (minimum 1).
  size_t max_bytes = 64ull << 20;
  CachePolicyOptions policy;
  /// Time source for TTLs and the admission window; null uses the shared
  /// SystemClock. Tests inject a FakeClock here.
  std::shared_ptr<const Clock> clock;
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  // The cache holds a mutex and in-flight futures; it is a fixture, not a
  // value.
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
  /// Counts no miss and never joins in-flight computations — the inline
  /// hit check QueryService::Submit makes before queueing a miss.
  ResultPtr Lookup(const std::string& key);

  /// The sweep half of lazy-plus-sweep expiry: erases every expired entry
  /// (attributing positive/negative expiries) and prunes out-of-window
  /// doorkeeper sightings. Returns the number of entries erased. Call it
  /// from a maintenance tick; correctness never depends on it (lazy
  /// expiry already guarantees expired entries are unservable).
  size_t SweepExpired();

  CacheMetrics metrics() const;

 private:
  struct Entry {
    ResultPtr result;
    uint64_t deadline = 0;  // expires once now >= deadline; 0 = never
  };
  using Lru = util::BoundedLru<Entry>;

  /// The hit path shared by Lookup and GetOrCompute: the live entry for
  /// `key` (refreshed and counted as a hit) or nullptr. An expired entry
  /// is erased on the way (see EraseIfExpired).
  ResultPtr FindLive(const std::string& key) REQUIRES(mu_);
  /// True when `it`'s entry has a deadline the clock reached; erases it
  /// and counts the expiry when so. Reads the clock only for entries that
  /// actually carry a deadline, so the no-TTL hit path costs no clock
  /// call. With admission enabled, the erased key gets a sighting — an
  /// expired hot key re-admits on its first recompute instead of being
  /// doorkeeper-rejected once per TTL period.
  bool EraseIfExpired(Lru::iterator it) REQUIRES(mu_);
  /// The body of EraseIfExpired against a caller-supplied timestamp —
  /// SweepExpired reads the clock once per sweep, not once per entry.
  bool EraseExpiredAt(Lru::iterator it, uint64_t now) REQUIRES(mu_);
  /// The doorkeeper decision for an insert of `key` at `now`: true
  /// admits (consuming the sighting), false records or refreshes a
  /// sighting and rejects.
  bool AdmitOrRecordSighting(const std::string& key, uint64_t now)
      REQUIRES(mu_);
  /// Entry deadline for a value inserted at `now` (0 = never expires).
  uint64_t DeadlineFor(const CachedResult& value, uint64_t now) const;

  const CachePolicyOptions policy_;
  const std::shared_ptr<const Clock> clock_;

  /// Keys are canonical query keys. `sightings_` is the admission
  /// doorkeeper: key -> when it was computed but not admitted.
  mutable util::Mutex mu_;
  Lru entries_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_future<ResultPtr>> inflight_
      GUARDED_BY(mu_);
  util::BoundedLru<uint64_t> sightings_ GUARDED_BY(mu_);

  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t negative_hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t coalesced_waits_ GUARDED_BY(mu_) = 0;
  uint64_t discarded_inserts_ GUARDED_BY(mu_) = 0;
  uint64_t admission_rejects_ GUARDED_BY(mu_) = 0;
  uint64_t ttl_expiries_ GUARDED_BY(mu_) = 0;
  uint64_t negative_ttl_expiries_ GUARDED_BY(mu_) = 0;
};

}  // namespace osum::serve

#endif  // OSUM_SERVE_RESULT_CACHE_H_
