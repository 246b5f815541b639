// Immutable, shareable query infrastructure + the stateless query path.
//
// The paper's size-l OS engine is per-query parallel: a keyword query walks
// its own t_DS hits and OS trees against structures that never change at
// query time. SearchContext captures exactly that split — everything built
// once (database ref, registered G_DSs, inverted index, join back end) is
// frozen behind a const API, and the query path allocates all per-query
// state on its own stack. One context therefore serves any number of
// threads calling Execute or Query at once, each answer byte-identical to
// running serially.
//
// One query surface over one compute path:
//   - Query — the compute primitive (string_view keywords + QueryOptions,
//     exceptions propagate). The serving layer's cache compute callback
//     rides it. It runs named stages in order: RankedHits (index lookup
//     and pre-rank), then per hit AcquireOs (prelim-l generation, or the
//     partials memo in front of complete-OS generation) and the size-l
//     selection, then the summary ranking.
//   - Execute — the public api::QueryRequest -> api::QueryResponse
//     contract over Query: validation and backend failures come back as
//     typed Status codes (never exceptions), responses carry compute-time
//     metadata, and an empty answer is distinguishable from an error.
//
// Thread-safety contract (relied on by serve::QueryService's worker pool
// and enforced by search_concurrency_test and join_cache_test):
//   - rel::Database, graph::DataGraph, gds::Gds, InvertedIndex: immutable
//     after their build/annotate phase.
//   - core::OsBackend: stateless apart from atomic I/O counters (see
//     os_backend.h).
//   - The context owns two internally synchronized structures, each behind
//     one lock, and they are the only mutable state the const query path
//     touches: the core::PartialsMemo of per-subject complete OSs
//     (partials_memo.h) and, in front of a back end that pays per
//     statement, the core::JoinCache of join lists (join_cache.h). Both
//     are deliberate: answers with and without them are byte-identical,
//     so they are observable only through timing and their own counters.
//   - SearchContext itself: no non-const member functions after Build().
#ifndef OSUM_SEARCH_SEARCH_CONTEXT_H_
#define OSUM_SEARCH_SEARCH_CONTEXT_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/query.h"
#include "core/join_cache.h"
#include "core/os_backend.h"
#include "core/os_generator.h"
#include "core/os_tree.h"
#include "core/partials_memo.h"
#include "core/size_l.h"
#include "gds/gds.h"
#include "search/inverted_index.h"

namespace osum::search {

/// The frozen query infrastructure. Build once, share freely.
class SearchContext {
 public:
  /// A data-subject relation with its (annotated) G_DS.
  struct Subject {
    rel::RelationId relation;
    gds::Gds gds;
  };

  /// Builds the inverted index over `subjects` — the only mutating phase.
  /// `db` and `backend` must outlive the context. When `backend` pays per
  /// statement (OsBackend::per_statement), OSs are generated through a
  /// join tier (core::JoinCache) the context owns, which starts empty and
  /// fills as queries run; `backend`'s own counters then count only the
  /// statements the tier's misses issue. Subjects keep their
  /// registration order for indexing. Throws std::invalid_argument when a
  /// relation appears twice or a G_DS is rooted at a different relation
  /// than the one it is registered for.
  static SearchContext Build(const rel::Database& db, core::OsBackend* backend,
                             std::vector<Subject> subjects);

  // Movable (so owners can defer construction), not copyable: a context is
  // meant to be shared by reference, not duplicated.
  SearchContext(SearchContext&&) = default;
  SearchContext& operator=(SearchContext&&) = default;
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  /// The public query contract: validates the request (empty keyword set,
  /// max_results == 0 and oversized l become kInvalidArgument), runs the
  /// compute path, and wraps backend exceptions as kBackendError. Never
  /// throws; response.stats carries the compute wall time (cache fields
  /// stay false/0 — this is the uncached path). Results are byte-identical
  /// to Query with the same arguments. Thread-safe like Query.
  api::QueryResponse Execute(const api::QueryRequest& request) const;

  /// The raw compute primitive behind Execute: runs one keyword query,
  /// propagating backend exceptions. All per-query state lives on this
  /// call's stack; safe to call concurrently from any number of threads.
  std::vector<api::QueryResult> Query(
      std::string_view keywords, const api::QueryOptions& options = {}) const;

  /// Renders one result in the paper's Example 5 format.
  std::string Render(const api::QueryResult& result) const;

  const rel::Database& db() const { return *db_; }
  const InvertedIndex& index() const { return index_; }
  const gds::Gds& GdsFor(rel::RelationId relation) const;

  /// The partials memo of per-subject complete OSs the query path
  /// consults before generating one (see partials_memo.h). Non-const
  /// through a const context because it is internally synchronized and
  /// invisible in results. It lives and dies with this context, so it
  /// never holds a tree generated from other data.
  core::PartialsMemo& partials_memo() const { return *partials_memo_; }

  /// The join tier's counters; zeros for a context without one (a back
  /// end that does not pay per statement, such as the data graph).
  core::JoinCacheMetrics join_cache_metrics() const;

 private:
  SearchContext(const rel::Database& db, core::OsBackend* backend)
      : db_(&db), backend_(backend) {}

  // Query's stages, in order; the size-l selection and the summary
  // ranking need no context and live in search_context.cc.
  /// Index lookup, the importance pre-rank, and under subject ranking the
  /// max_results truncate.
  std::vector<Hit> RankedHits(std::string_view keywords,
                              const api::QueryOptions& options) const;
  /// One hit's OS tree under the depth cap. A prelim-l OS (Algorithm 4)
  /// is generated afresh and returns before the memo; a complete OS
  /// (Algorithm 5) goes through the partials memo, generated and
  /// memoized on a miss.
  core::OsTree AcquireOs(const Hit& hit,
                         const api::QueryOptions& options) const;

  const rel::Database* db_;
  /// What AcquireOs generates through: the join tier when there is one,
  /// else the back end Build was given.
  core::OsBackend* backend_;
  std::unordered_map<rel::RelationId, gds::Gds> subjects_;
  std::vector<rel::RelationId> subject_order_;
  InvertedIndex index_;
  // shared_ptr, not value: keeps the context movable while the memo's
  // Mutex stays pinned in place for concurrent queries.
  std::shared_ptr<core::PartialsMemo> partials_memo_;
  // Null without a tier; shared_ptr for the same reason as the memo.
  std::shared_ptr<core::JoinCache> join_cache_;
};

}  // namespace osum::search

#endif  // OSUM_SEARCH_SEARCH_CONTEXT_H_
