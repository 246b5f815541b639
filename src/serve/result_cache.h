// Stampede-safe LRU cache of ranked query results, with optional
// doorkeeper admission.
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
//   - Admission (ResultCacheOptions::admission_enabled): a doorkeeper in
//     the TinyLFU spirit — a key's *first* sighting only records it; the
//     result is returned to the caller but not cached. A second sighting
//     admits the entry. One-hit-wonder long-tail keys therefore never
//     spend budget bytes, so hot keys stay resident (bench_cache's
//     long-tail section measures exactly this). The doorkeeper is a
//     second BoundedLru of sighted keys, capped at admission_max_tracked
//     (a sighting ages out only by that cap), and deterministic, so the
//     property harness can model it exactly. LRU eviction leaves no
//     sighting: a budget victim must re-earn its entry.
//   - Stampede protection: concurrent GetOrCompute misses for one key
//     coalesce onto a single computation via a per-key in-flight
//     shared_future. The computing caller runs `compute` inline on its own
//     thread (never queued), so waiters can always make progress — safe
//     even when every waiter is a thread-pool worker.
//   - No expiry and no invalidation: a cache serves one immutable
//     SearchContext for its whole life (see QueryService), so a cached
//     answer never goes stale, the canonical key is the cache key, and an
//     entry leaves only by LRU eviction. Nothing here reads a clock.
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
#include "serve/metrics.h"
#include "util/bounded_lru.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::serve {

/// One immutable cached answer: the ranked result list plus its estimated
/// heap footprint (what the byte budget charges). An empty result list is
/// a *negative* answer (OK, zero hits), counted apart on a hit.
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

struct ResultCacheOptions {
  /// Entry cap (minimum 1).
  size_t max_entries = 1024;
  /// Approximate-byte cap (minimum 1).
  size_t max_bytes = 64ull << 20;
  /// The bypass knob: false (default) admits every computed result.
  /// True enables the doorkeeper: a key is cached only on its second
  /// sighting.
  bool admission_enabled = false;
  /// Bound on remembered sightings; oldest-recorded is evicted first.
  /// 0 = auto (8x max_entries, minimum 64).
  size_t admission_max_tracked = 0;
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
  /// `compute` may throw — the exception propagates to this caller and to
  /// every coalesced waiter, and nothing is cached.
  ResultPtr GetOrCompute(const std::string& key,
                         const std::function<CachedResult()>& compute);

  /// Pure lookup: the cached value (counts a hit, refreshes recency) or
  /// nullptr. Counts no miss and never joins in-flight computations — the
  /// inline hit check QueryService::Submit makes before queueing a miss.
  ResultPtr Lookup(const std::string& key);

  CacheMetrics metrics() const;

 private:
  /// A doorkeeper record: the key alone carries it.
  struct Sighting {};

  /// The hit path shared by Lookup and GetOrCompute: the entry for `key`
  /// (refreshed and counted as a hit) or nullptr.
  ResultPtr FindHit(const std::string& key) REQUIRES(mu_);
  /// The doorkeeper decision for an insert of `key`: true admits
  /// (consuming the sighting), false records a sighting and rejects.
  bool AdmitOrRecordSighting(const std::string& key) REQUIRES(mu_);

  const bool admission_enabled_;

  /// Keys are canonical query keys. `sightings_` is the admission
  /// doorkeeper: the keys computed but not admitted, newest first.
  mutable util::Mutex mu_;
  util::BoundedLru<ResultPtr> entries_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_future<ResultPtr>> inflight_
      GUARDED_BY(mu_);
  util::BoundedLru<Sighting> sightings_ GUARDED_BY(mu_);

  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t negative_hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t coalesced_waits_ GUARDED_BY(mu_) = 0;
  uint64_t discarded_inserts_ GUARDED_BY(mu_) = 0;
  uint64_t admission_rejects_ GUARDED_BY(mu_) = 0;
};

}  // namespace osum::serve

#endif  // OSUM_SERVE_RESULT_CACHE_H_
