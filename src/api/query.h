// The canonical public contract of the paradigm: "keywords in, ranked
// size-l OSs out", as versioned value types.
//
// QueryRequest bundles the keyword string with every result-affecting knob
// (the former loose `(string_view, QueryOptions)` tuple), validates itself
// into typed Status errors, and canonicalizes itself into the cache key the
// serving layer caches on. QueryResponse pairs a Status with the ranked
// results and per-query metadata (cache hit/miss, compute time) — so a
// genuine empty answer (kOk, zero results) is distinguishable from a
// failure, the precondition for negative caching and for serving across
// processes (api/codec.h gives both types a wire form).
//
// Layering: this header also *defines* the result vocabulary (Hit,
// QueryOptions, QueryResult, ResultRanking) — the api layer sits below
// search so SearchContext and serve::QueryService both speak these types
// natively.
#ifndef OSUM_API_QUERY_H_
#define OSUM_API_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/status.h"
#include "core/os_tree.h"
#include "core/size_l.h"

namespace osum::api {

/// A (relation, tuple) keyword hit — the data-subject tuple t_DS a result
/// is rooted at.
struct Hit {
  rel::RelationId relation = 0;
  rel::TupleId tuple = 0;

  bool operator==(const Hit& o) const {
    return relation == o.relation && tuple == o.tuple;
  }
};

/// How result OSs are ranked against each other.
enum class ResultRanking : uint8_t {
  /// By the global importance of t_DS (cheap; computed before OS
  /// generation, so max_results caps the work).
  kSubjectImportance = 0,
  /// By Im(S) of the computed size-l OS — the combined "size-l and top-k
  /// ranking of OSs" the paper poses as future work (Section 7). Requires
  /// computing every hit's size-l OS before truncating to max_results.
  kSummaryImportance = 1,
};

/// Query-time knobs. Prefer building a QueryRequest; this struct is the
/// raw knob set the engine's compute path consumes.
struct QueryOptions {
  /// l — the synopsis size. 0 means "return the complete OS".
  size_t l = 15;
  /// Maximum number of data subjects to report.
  size_t max_results = 10;
  core::SizeLAlgorithm algorithm = core::SizeLAlgorithm::kTopPath;
  /// Generate a prelim-l OS (Algorithm 4) instead of the complete OS.
  bool use_prelim = true;
  ResultRanking ranking = ResultRanking::kSubjectImportance;

  /// Canonical serialization of every result-affecting knob, for result
  /// caching (serve::ResultCache): two QueryOptions produce byte-identical
  /// query output on the same context iff their fragments compare equal.
  /// New knobs MUST be added here or cached results go stale silently.
  std::string CacheKeyFragment() const;
};

/// Full cache identity of one (keywords, options) query against a frozen
/// context: the normalized keyword *set* (tokenized exactly like
/// InvertedIndex::SearchQuery, then sorted and deduplicated — AND semantics
/// make order and multiplicity irrelevant) joined with the options
/// fragment. "Christos  Faloutsos" and "faloutsos christos" share one key.
std::string CanonicalQueryKey(std::string_view keywords,
                              const QueryOptions& options);

/// One ranked answer: the data subject, its (partial) OS and the size-l
/// selection over it.
struct QueryResult {
  Hit subject;                    // the t_DS tuple
  double subject_importance = 0;  // global importance (ranking key)
  core::OsTree os;                // the OS the size-l was computed on
  core::Selection selection;      // the size-l OS
};

/// A ranked result list, and the shared-immutable form responses carry —
/// a cache hit hands every caller the same list without copying it.
using ResultList = std::vector<QueryResult>;
using SharedResults = std::shared_ptr<const ResultList>;

/// Guard against absurd synopsis sizes: l feeds an int32 generation depth
/// and an O(n*l)–O(n*l^2) selection pass, so a runaway l is a
/// denial-of-service, not a bigger summary. (The paper's sweeps stop at
/// l=50; this cap is three orders of magnitude above them.)
inline constexpr size_t kMaxSynopsisL = 65536;

/// One keyword query, as a value: keywords + knobs, with a fluent builder
///
///   api::QueryRequest("christos faloutsos").WithL(10).WithMaxResults(3)
///
/// Validation (`Validate` / `ValidatedKey`) is where the old silent
/// failure modes become typed errors: an empty keyword *set* (nothing
/// tokenizes) is kInvalidArgument, not an empty answer. So is
/// SizeLAlgorithm::kBruteForce: the exhaustive oracle has no operation
/// budget and is only for direct calls (core::RunSizeL) on tiny trees.
class QueryRequest {
 public:
  QueryRequest() = default;
  explicit QueryRequest(std::string keywords)
      : keywords_(std::move(keywords)) {}
  QueryRequest(std::string keywords, QueryOptions options)
      : keywords_(std::move(keywords)), options_(options) {}

  QueryRequest& WithKeywords(std::string keywords) {
    keywords_ = std::move(keywords);
    return *this;
  }
  QueryRequest& WithOptions(const QueryOptions& options) {
    options_ = options;
    return *this;
  }
  QueryRequest& WithL(size_t l) {
    options_.l = l;
    return *this;
  }
  QueryRequest& WithMaxResults(size_t max_results) {
    options_.max_results = max_results;
    return *this;
  }
  QueryRequest& WithAlgorithm(core::SizeLAlgorithm algorithm) {
    options_.algorithm = algorithm;
    return *this;
  }
  QueryRequest& WithPrelim(bool use_prelim) {
    options_.use_prelim = use_prelim;
    return *this;
  }
  QueryRequest& WithRanking(ResultRanking ranking) {
    options_.ranking = ranking;
    return *this;
  }
  QueryRequest& WithDeadlineMicros(uint64_t deadline_micros) {
    deadline_micros_ = deadline_micros;
    return *this;
  }

  const std::string& keywords() const { return keywords_; }
  const QueryOptions& options() const { return options_; }
  /// Relative time budget in microseconds; 0 means "no deadline". The
  /// serving layer converts it to an absolute deadline at admission and
  /// sheds the request (kDeadlineExceeded, no backend compute) once the
  /// budget is spent. Deliberately NOT part of the cache key: the deadline
  /// bounds *when* an answer is useful, never *what* the answer is, so two
  /// requests differing only in budget share one cached result.
  uint64_t deadline_micros() const { return deadline_micros_; }

  /// kOk, or kInvalidArgument naming the offending field: empty keyword
  /// set, max_results == 0, l > kMaxSynopsisL.
  Status Validate() const;

  /// Validate + CanonicalQueryKey in one tokenization pass — the serving
  /// hot path calls this once and threads the key through.
  StatusOr<std::string> ValidatedKey() const;

  /// CanonicalQueryKey(keywords, options); see ValidatedKey for the
  /// validated single-pass variant.
  std::string CacheKey() const { return CanonicalQueryKey(keywords_, options_); }

 private:
  std::string keywords_;
  QueryOptions options_;
  uint64_t deadline_micros_ = 0;  // 0 = no deadline
};

/// Per-query serving metadata carried on every response.
struct QueryStats {
  /// True when the results came from serve::ResultCache (including
  /// coalesced waits on an in-flight computation).
  bool cache_hit = false;
  /// True when the answer is negative (OK, zero results) — with cache_hit
  /// it distinguishes a negative-cache hit from a positive one. Serving-
  /// local observability, deliberately NOT part of the v1 wire format
  /// (it is derivable from status + results on the receiving side).
  bool negative = false;
  /// Wall time spent producing this response at the answering boundary
  /// (full compute on a miss, lookup cost on a hit).
  double compute_micros = 0.0;
  /// The v1 wire format's epoch slot, kept so encoded responses stay
  /// byte-compatible. The serving layer has no invalidation epoch (a
  /// service serves one context for life) and leaves it 0; a decoded
  /// response carries whatever the peer encoded.
  uint64_t epoch = 0;
};

/// What comes back: a Status, the ranked results (shared + immutable, so a
/// cache hit is zero-copy), and the serving metadata. `results()` is empty
/// whenever `!ok()`; an OK response with zero results is a genuine
/// negative answer.
struct QueryResponse {
  Status status;
  SharedResults results;  // may be null on failure; use result_list()
  QueryStats stats;

  static QueryResponse Success(SharedResults results, QueryStats stats);
  static QueryResponse Failure(Status status, QueryStats stats = {});

  bool ok() const { return status.ok(); }
  /// The ranked results; an empty list when results is null (failures).
  const ResultList& result_list() const;
};

}  // namespace osum::api

#endif  // OSUM_API_QUERY_H_
