// A bounded memo of per-subject OS trees — the second, finer-grained
// reuse tier beside serve::ResultCache.
//
// Size-l OSs score independently per subject, and the expensive part of a
// subject's work is generating its OS (the back-end joins), not the size-l
// pass over it. The memo holds complete OSs (Algorithm 5) only: a complete
// OS depends on l only through the depth cap min(l - 1, G_DS depth), so
// one tree serves l = 0 and every l past the G_DS depth. A prelim-l OS
// (Algorithm 4) depends on l through its AC1/AC2 cutoff, so a kept tree
// could answer only its own (subject, l) pair; the search query path
// generates those afresh and never brings them here. For a complete OS it
// looks a (subject, depth cap) key up before generating, inserts the
// generated tree on a miss, and runs size-l on every request, hit or
// miss. Entries are immutable shared_ptrs — a hit copies the exact tree a
// fresh generation would have produced, so memo-on and memo-off results
// are byte-identical (pinned through DeterministicResultText).
//
// Recency, the entry and byte budgets and eviction are util::BoundedLru
// (util/bounded_lru.h); this class adds the enable switch and the
// counters. A memo belongs to one immutable SearchContext and dies with
// it, so it never needs invalidating: every tree it holds was generated
// from the data it is asked about.
#ifndef OSUM_CORE_PARTIALS_MEMO_H_
#define OSUM_CORE_PARTIALS_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/os_tree.h"
#include "util/bounded_lru.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::core {

/// One memoized unit of per-subject query work: the generated OS tree.
/// Immutable once published; size-l runs on a copy per request.
struct PartialSynopsis {
  OsTree os;
  /// Set by the publisher (sizeof plus OsTree::ApproxHeapBytes); charged
  /// against the memo's byte budget.
  size_t approx_bytes = 0;
};

using PartialPtr = std::shared_ptr<const PartialSynopsis>;

/// Point-in-time counters. Monotonic except entries/approx_bytes
/// (current occupancy).
struct PartialsMemoMetrics {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  /// Completed computations whose insert was dropped because another
  /// thread filled the key first: two threads may generate the same
  /// subject's tree at once, and the memo does not coalesce them.
  uint64_t discarded_inserts = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t approx_bytes = 0;
};

/// Thread-safe LRU memo. One lock — entries are shared_ptr copies, so the
/// critical sections are pointer moves and list splices, never tree
/// copies or DP work.
class PartialsMemo {
 public:
  static constexpr size_t kMaxEntries = 4096;
  static constexpr size_t kMaxBytes = size_t{32} << 20;

  /// The budgets are parameters for tests only; SearchContext uses the
  /// defaults.
  explicit PartialsMemo(size_t max_entries = kMaxEntries,
                        size_t max_bytes = kMaxBytes);

  PartialsMemo(const PartialsMemo&) = delete;
  PartialsMemo& operator=(const PartialsMemo&) = delete;

  /// Returns the memoized tree and marks it most-recently used, or
  /// nullptr on a miss.
  PartialPtr Lookup(const std::string& key);

  /// Publishes a generated tree. Discarded (returns false) if the memo
  /// is disabled or the key was filled meanwhile. Evicts LRU entries over
  /// budget.
  bool Insert(const std::string& key, PartialPtr value);

  /// The master switch (on by default): off flushes the memo, and then
  /// Lookup always misses (uncounted) and Insert is a no-op — the query
  /// path behaves exactly as if the memo did not exist. The memo-off
  /// reference path the tests and bench_micro compare against.
  void SetEnabled(bool enabled);

  PartialsMemoMetrics metrics() const;

 private:
  mutable util::Mutex mu_;
  bool enabled_ GUARDED_BY(mu_) = true;
  util::BoundedLru<PartialPtr> lru_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t inserts_ GUARDED_BY(mu_) = 0;
  uint64_t discarded_inserts_ GUARDED_BY(mu_) = 0;
};

}  // namespace osum::core

#endif  // OSUM_CORE_PARTIALS_MEMO_H_
