// End-to-end size-l OS keyword search (the user-facing API of the paper's
// paradigm): keywords -> t_DS tuples -> (prelim-l) OS -> size-l OS, ranked.
//
// SizeLSearchEngine is a thin registration facade over SearchContext (see
// search_context.h): RegisterSubject collects the G_DSs, BuildIndex freezes
// them into an immutable context, and Execute/ExecuteBatch (the public
// api::QueryRequest -> api::QueryResponse contract) plus the deprecated
// Query/QueryBatch shims delegate to its stateless query path. Use the
// engine for the build-then-query lifecycle; grab context() to share the
// frozen infrastructure across threads.
#ifndef OSUM_SEARCH_ENGINE_H_
#define OSUM_SEARCH_ENGINE_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "search/search_context.h"

namespace osum::search {

/// The search engine: owns the subject registrations and the SearchContext
/// built from them, and drives OS generation + size-l computation per hit.
class SizeLSearchEngine {
 public:
  /// `db` and `backend` must outlive the engine.
  SizeLSearchEngine(const rel::Database& db, core::OsBackend* backend);

  /// Registers a data-subject relation with its G_DS. The G_DS must be
  /// annotated (importance present) before prelim-l queries. Throws
  /// std::logic_error if called after BuildIndex: the live SearchContext
  /// may be borrowed by worker threads or a serve::QueryService, and
  /// silently destroying it (the old behavior) left them dangling. To
  /// re-register, construct a fresh engine (and RebindContext any service
  /// borrowing the old context).
  void RegisterSubject(rel::RelationId relation, gds::Gds gds);

  /// Builds the inverted index over all registered subject relations and
  /// freezes the SearchContext. Call after the last RegisterSubject.
  void BuildIndex();

  /// The immutable context built by BuildIndex — share this (by reference)
  /// with worker threads or a serve::QueryService. Stays valid for the
  /// engine's lifetime: RegisterSubject refuses to run once a context
  /// exists, so the reference can never be invalidated under a borrower.
  const SearchContext& context() const;

  /// The public query contract (see SearchContext::Execute): typed Status
  /// errors instead of exceptions, per-query compute metadata, ranked
  /// size-l OSs byte-identical to the legacy Query path.
  api::QueryResponse Execute(const api::QueryRequest& request) const;

  /// Batched Execute over `num_threads` workers (0 = hardware
  /// concurrency); responses in input order, identical to serial
  /// execution, failures contained per response.
  std::vector<api::QueryResponse> ExecuteBatch(
      std::span<const api::QueryRequest> requests,
      size_t num_threads = 0) const;

  /// Deprecated shim over the request/response contract: runs a keyword
  /// query, results ranked by subject global importance. Backend failures
  /// propagate as exceptions. Prefer Execute.
  std::vector<QueryResult> Query(std::string_view keywords,
                                 const QueryOptions& options = {}) const;

  /// Deprecated shim: batched Query over `num_threads` workers (0 =
  /// hardware concurrency); per-query results in input order, identical to
  /// serial execution. Prefer ExecuteBatch, which contains per-query
  /// failures instead of terminating on a throwing worker.
  std::vector<std::vector<QueryResult>> QueryBatch(
      std::span<const std::string> queries, const QueryOptions& options = {},
      size_t num_threads = 0) const;

  /// Renders one result in the paper's Example 5 format.
  std::string Render(const QueryResult& result) const;

  const gds::Gds& GdsFor(rel::RelationId relation) const;

  /// Snapshot of the context's per-subject OS-tree memo counters
  /// ("is the second reuse tier earning its memory?"). Requires
  /// BuildIndex.
  core::PartialsMemoMetrics partials_metrics() const {
    return context().partials_memo().metrics();
  }

 private:
  const rel::Database& db_;
  core::OsBackend* backend_;
  /// Registrations pending the next BuildIndex; moved into the context on
  /// build so each Gds is stored exactly once.
  std::vector<SearchContext::Subject> subjects_;
  std::optional<SearchContext> context_;
};

}  // namespace osum::search

#endif  // OSUM_SEARCH_ENGINE_H_
