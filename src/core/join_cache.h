// A lazily filled join tier in front of a back end that pays per statement.
//
// The paper's Section 6.3 trade-off has two ends: a prebuilt data graph
// (fast, but precomputed) and one SQL statement per join (no
// precomputation, ~65x slower, Figure 10(f)). Served queries repeat joins:
// overlapping keyword sets rank the same subjects, and one subject's OS is
// generated at many l. JoinCache sits between: it is an OsBackend
// decorator that answers a repeated (link, direction, parent tuple) join
// from the list an earlier statement for it returned, so the inner back
// end issues a statement per distinct join instead of one per call.
//
//   - Admission. A join is kept only once it is seen a second time. A
//     fixed table of key hashes (the doorkeeper, allocated once, direct
//     mapped) remembers first sightings; a first sighting passes straight
//     through to the inner back end's own Fetch or FetchTop, so joins that
//     never repeat (complete TPC-H OSs) cost one probe and insert nothing.
//     A slot that another key overwrote only delays an admission.
//   - A second sighting issues one full inner Fetch outside the lock, then
//     inserts the list unless another thread filled the key meanwhile
//     (counted as a discarded insert).
//   - A hit's Fetch copies the cached list out; its FetchTop answers from
//     the same entry with rel::TopImportancePrefix, so one entry serves
//     every l and every AC2 cutoff. That is exact because FetchTop is, by
//     contract, the prefix of Fetch's importance-ordered list (pinned by
//     FetchTopContract in os_backend_test). A forward FK join is in
//     importance order only once the database's FK indexes are sorted
//     (Database::SortIndexesByImportance), so FetchTop on such a join
//     throws std::logic_error before that, as the uncached back end does;
//     backward and junction joins need no sorted index.
//
// Every miss, admitted or passed through, issues exactly one inner
// statement, and the inner back end's stats() keeps counting only the
// statements actually issued, so misses equal the inner back end's
// select_calls. The tier issues none of its own; its own stats() stays
// zero.
//
// Recency and the byte budget are util::BoundedLru, guarded with the
// doorkeeper by one annotated util::Mutex (the PartialsMemo pattern); a
// hit copies the list out under the lock. The budget is fixed: it holds
// the distinct joins of the DBLP serving workloads (35k and 17k short
// lists, about 5.0 and 2.4 MB as charged) and caps the lists of workloads
// with little reuse. An entry is charged at least 128 bytes, so the byte
// budget also bounds the entry count. A tier belongs to one
// search::SearchContext and dies with it; the data it caches never changes
// under it, so it needs no invalidation.
#ifndef OSUM_CORE_JOIN_CACHE_H_
#define OSUM_CORE_JOIN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/os_backend.h"
#include "util/bounded_lru.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::core {

/// Point-in-time counters. Monotonic except entries/approx_bytes
/// (current occupancy).
struct JoinCacheMetrics {
  uint64_t hits = 0;
  /// Each miss issued exactly one inner statement.
  uint64_t misses = 0;
  /// Misses on a join's second sighting: a full inner Fetch kept for
  /// later hits. The other misses were passed through.
  uint64_t admitted = 0;
  /// Misses whose list was dropped because another thread filled the key
  /// first: two threads may miss on the same join at once, and the tier
  /// does not coalesce them.
  uint64_t discarded_inserts = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t approx_bytes = 0;
};

class JoinCache : public OsBackend {
 public:
  static constexpr size_t kMaxBytes = size_t{8} << 20;
  /// Doorkeeper slots, 8 bytes each: room for the first sightings of a
  /// DBLP working set.
  static constexpr size_t kDoorkeeperSlots = size_t{1} << 16;

  /// `inner` must outlive the tier. The byte budget is a parameter for
  /// tests only; SearchContext uses the default.
  explicit JoinCache(OsBackend* inner, size_t max_bytes = kMaxBytes);

  JoinCache(const JoinCache&) = delete;
  JoinCache& operator=(const JoinCache&) = delete;

  const char* name() const override { return "join-cache"; }
  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override;
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override;

  JoinCacheMetrics metrics() const;

 private:
  using List = std::vector<rel::TupleId>;
  enum class Probe { kHit, kPass, kAdmit };

  /// On a hit, copies the cached list's first `prefix(list)` ids into
  /// `out`. On a miss, counts it and tells a first sighting (kPass: ask
  /// the inner back end directly) from a second (kAdmit: Fill).
  template <typename Prefix>
  Probe Lookup(std::string_view key, uint64_t hash, Prefix prefix,
               List* out);
  /// Issues the one inner Fetch of an admitted miss into `out` and
  /// publishes a copy.
  void Fill(std::string_view key, graph::LinkTypeId link,
            rel::FkDirection dir, rel::TupleId parent_tuple, List* out);

  OsBackend* inner_;
  mutable util::Mutex mu_;
  util::BoundedLru<List> lru_ GUARDED_BY(mu_);
  /// Key hashes of first sightings; 0 marks an empty slot.
  std::vector<uint64_t> doorkeeper_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t admitted_ GUARDED_BY(mu_) = 0;
  uint64_t discarded_inserts_ GUARDED_BY(mu_) = 0;
};

}  // namespace osum::core

#endif  // OSUM_CORE_JOIN_CACHE_H_
