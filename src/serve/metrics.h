// Observability snapshots for the serving layer.
//
// Counters answer "is the cache earning its memory?" (hit rate, coalesced
// stampedes, eviction pressure, admission rejects) and the
// latency summaries answer "what do callers actually experience?" — split
// by hit/miss because the two populations differ by orders of magnitude (a
// hit is a mutex + pointer copy; a miss is full OS generation, ~65x more
// expensive still on the database back end, paper Figure 10(f)), with
// negative hits attributed separately so "we answer 'no results' fast" is
// distinguishable from "we answer real results fast".
#ifndef OSUM_SERVE_METRICS_H_
#define OSUM_SERVE_METRICS_H_

#include <cstdint>
#include <string>

#include "core/join_cache.h"
#include "core/partials_memo.h"
#include "util/stats.h"

namespace osum::serve {

/// Point-in-time counters of one ResultCache. Monotonic except
/// entries/bytes/tracked_sightings (current occupancy).
struct CacheMetrics {
  uint64_t hits = 0;
  /// The subset of hits whose cached value was a negative (OK-empty)
  /// answer.
  uint64_t negative_hits = 0;
  uint64_t misses = 0;
  /// Lookups that found another thread already computing the same key and
  /// waited for its result instead of recomputing (stampede protection).
  uint64_t coalesced_waits = 0;
  uint64_t evictions = 0;
  /// Completed computations whose insert was discarded because the key
  /// was already filled meanwhile (a safety check; coalescing keeps it 0).
  uint64_t discarded_inserts = 0;
  /// Computed results the doorkeeper declined to cache (first sighting —
  /// the long-tail filter at work).
  uint64_t admission_rejects = 0;
  /// Current occupancy.
  uint64_t entries = 0;
  uint64_t approx_bytes = 0;
  /// Doorkeeper sightings currently remembered (admission bookkeeping).
  uint64_t tracked_sightings = 0;
};

/// Snapshot of one QueryService: cache counters + per-query wall latency
/// (microseconds) observed at the service boundary, overall and split by
/// cache outcome. Latency summaries are bounded reservoirs (most recent
/// samples), so Percentile stays O(window log window).
struct Metrics {
  CacheMetrics cache;
  /// The served context's partials memo of per-subject complete OSs
  /// (prelim-l trees bypass it), with size-l run per request — the reuse
  /// tier under the result cache (core/partials_memo.h). Context-owned,
  /// not service-owned: it lives and dies with the context it memoizes.
  core::PartialsMemoMetrics partials;
  /// The served context's join tier in front of a back end that pays per
  /// statement (core/join_cache.h): the reuse tier under the memo, also
  /// context-owned. All zeros when the context has none (data graph).
  core::JoinCacheMetrics joins;
  uint64_t queries = 0;
  /// Overload control (see OverloadOptions): requests answered
  /// kDeadlineExceeded at admission — budget already spent on arrival, or
  /// evicted lowest-budget-first by the pending-miss watermark — and at
  /// dequeue (budget expired while queued behind the pool). Neither ever
  /// touched the backend.
  uint64_t sheds_at_admission = 0;
  uint64_t sheds_at_dequeue = 0;
  /// Pooled misses admitted but not yet computing (current occupancy —
  /// the quantity the watermark bounds).
  uint64_t pending_misses = 0;
  util::Summary latency_us;           // all queries
  util::Summary hit_latency_us;       // served from cache (incl. coalesced)
  util::Summary negative_hit_latency_us;  // hits that were OK-empty answers
  util::Summary miss_latency_us;      // computed by this call
};

/// The human-readable snapshot `osum_cli metrics` prints — one counters
/// line, one line each for the policy, overload, partials memo and join
/// tier, then per-outcome latency percentiles. Lives in
/// the library (not the CLI) so its shape is pinned by a unit test.
std::string FormatMetricsReport(const Metrics& m);

}  // namespace osum::serve

#endif  // OSUM_SERVE_METRICS_H_
