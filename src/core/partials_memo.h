// A bounded, epoch-aware memo of per-subject OS trees — the second,
// finer-grained reuse tier beside serve::ResultCache.
//
// Size-l OSs score independently per subject, and the expensive part of a
// subject's work is generating its OS (the back-end joins), not the size-l
// pass over it. A complete OS (Algorithm 5) depends on l only through the
// depth cap min(l - 1, G_DS depth), so one tree serves l = 0 and every l
// past the G_DS depth; a prelim-l OS (Algorithm 4) depends on l through
// its AC1/AC2 cutoff and is memoized per l. The search query path looks a
// (subject, generator, depth or l) key up before generating the OS,
// inserts the generated tree on a miss, and runs size-l on every request,
// hit or miss. Entries are immutable shared_ptrs — a hit copies the exact
// tree a fresh generation would have produced, so memo-on and memo-off
// results are byte-identical (pinned through DeterministicResultText).
//
// Epochs mirror the result cache's invalidation discipline: the serving
// layer bumps the epoch on RebindContext, which atomically clears the memo
// and causes in-flight inserts (computed against the old binding) to be
// discarded rather than resurrected — a stale tree can never decorate a
// post-rebind answer.
#ifndef OSUM_CORE_PARTIALS_MEMO_H_
#define OSUM_CORE_PARTIALS_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/os_tree.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::core {

/// One memoized unit of per-subject query work: the generated OS tree.
/// Immutable once published; size-l runs on a copy per request.
struct PartialSynopsis {
  OsTree os;
  /// Set by the publisher (see ApproxPartialBytes); charged against the
  /// memo's byte budget.
  size_t approx_bytes = 0;
};

using PartialPtr = std::shared_ptr<const PartialSynopsis>;

/// Rough heap footprint of a memoized tree, for the byte budget.
size_t ApproxPartialBytes(const PartialSynopsis& p);

/// Sizing knob (serve::ServiceOptions forwards this to the bound
/// context's memo).
struct PartialsMemoOptions {
  /// Master switch: disabled means Lookup always misses (uncounted) and
  /// Insert is a no-op — the query path behaves exactly as if the memo
  /// did not exist.
  bool enabled = true;
  size_t max_entries = 4096;
  size_t max_bytes = size_t{32} << 20;
};

/// Point-in-time counters. Monotonic except entries/approx_bytes
/// (current occupancy) and epoch.
struct PartialsMemoMetrics {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  /// Completed computations whose insert was dropped because the epoch
  /// moved since their lookup, or because another thread filled the key
  /// first.
  uint64_t discarded_inserts = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t approx_bytes = 0;
  uint64_t epoch = 0;
};

/// Thread-safe LRU memo. One lock — entries are shared_ptr copies, so the
/// critical sections are pointer moves and list splices, never tree
/// copies or DP work.
class PartialsMemo {
 public:
  explicit PartialsMemo(PartialsMemoOptions options = {});

  PartialsMemo(const PartialsMemo&) = delete;
  PartialsMemo& operator=(const PartialsMemo&) = delete;

  /// Returns the memoized tree and marks it most-recently used, or
  /// nullptr on a miss. `epoch_out` (if non-null) receives the epoch
  /// observed under the lock — pass it back to Insert so a rebind between
  /// lookup and insert invalidates the computation.
  PartialPtr Lookup(const std::string& key, uint64_t* epoch_out = nullptr);

  /// Publishes a generated tree. Discarded (returns false) if the memo
  /// is disabled, the epoch moved since `epoch_at_lookup`, or the key was
  /// filled meanwhile. Evicts LRU entries over budget.
  bool Insert(const std::string& key, PartialPtr value,
              uint64_t epoch_at_lookup);

  /// Invalidation: clears every entry and advances the epoch so in-flight
  /// inserts against the old generation are discarded.
  void BumpEpoch();

  /// Applies a new sizing configuration (evicting down if it shrank).
  void Configure(const PartialsMemoOptions& options);

  bool enabled() const;
  PartialsMemoMetrics metrics() const;

 private:
  struct Entry {
    std::string key;
    PartialPtr value;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  void EvictOverBudget() REQUIRES(mu_);

  mutable util::Mutex mu_;
  PartialsMemoOptions options_ GUARDED_BY(mu_);
  /// Front = most recently used.
  LruList lru_ GUARDED_BY(mu_);
  /// Keys view into lru_ (string_view borrows the entry's own key).
  std::unordered_map<std::string_view, LruList::iterator> index_
      GUARDED_BY(mu_);
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  size_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t inserts_ GUARDED_BY(mu_) = 0;
  uint64_t discarded_inserts_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace osum::core

#endif  // OSUM_CORE_PARTIALS_MEMO_H_
