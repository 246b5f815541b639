#include "search/search_context.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/timer.h"

namespace osum::search {

namespace {

// The partials-memo key: exactly what determines a subject's complete OS
// (Algorithm 5) — the subject identity and the effective depth cap, so
// one tree serves l = 0 and every l past the G_DS depth. Short enough to
// stay in std::string's small buffer. The algorithm stays out (size-l
// runs on every request, hit or miss), and so do max_results and
// ranking, which rank *across* subjects — splitting the memo on them
// would stop overlapping-keyword queries from sharing work.
std::string PartialsKey(const Hit& hit, size_t depth) {
  std::string key;
  key += 'r';
  key += std::to_string(hit.relation);
  key += 't';
  key += std::to_string(hit.tuple);
  key += 'd';
  key += std::to_string(depth);
  return key;
}

// The size-l stage: the complete OS when l == 0, otherwise the requested
// algorithm's size-l selection over it.
core::Selection Select(const core::OsTree& os,
                       const api::QueryOptions& options,
                       core::DpScratch* scratch) {
  if (options.l > 0) {
    return core::RunSizeL(options.algorithm, os, options.l, scratch);
  }
  core::Selection all;
  all.nodes.resize(os.size());
  std::iota(all.nodes.begin(), all.nodes.end(), core::OsNodeId{0});
  all.importance = os.TotalImportance();
  return all;
}

// The final ranking stage under summary ranking: order by size-l OS
// importance (stable, so ties keep the subject pre-rank) and truncate.
void RankBySummary(const api::QueryOptions& options,
                   std::vector<api::QueryResult>* results) {
  if (options.ranking != api::ResultRanking::kSummaryImportance) return;
  std::stable_sort(results->begin(), results->end(),
                   [](const api::QueryResult& a, const api::QueryResult& b) {
                     return a.selection.importance > b.selection.importance;
                   });
  if (results->size() > options.max_results) {
    results->resize(options.max_results);
  }
}

}  // namespace

SearchContext SearchContext::Build(const rel::Database& db,
                                   core::OsBackend* backend,
                                   std::vector<Subject> subjects) {
  SearchContext ctx(db, backend);
  ctx.partials_memo_ = std::make_shared<core::PartialsMemo>();
  if (backend->per_statement()) {
    ctx.join_cache_ = std::make_shared<core::JoinCache>(backend);
    ctx.backend_ = ctx.join_cache_.get();
  }
  ctx.subject_order_.reserve(subjects.size());
  for (Subject& s : subjects) {
    // Checked in every build type: a duplicate would list the relation
    // twice in subject_order_ (and so index its tuples twice), and a
    // mis-rooted G_DS would generate OSs from the wrong relation.
    if (s.gds.root_relation() != s.relation) {
      throw std::invalid_argument(
          "SearchContext::Build: G_DS rooted at relation " +
          std::to_string(s.gds.root_relation()) + " registered for relation " +
          std::to_string(s.relation));
    }
    if (!ctx.subjects_.emplace(s.relation, std::move(s.gds)).second) {
      throw std::invalid_argument(
          "SearchContext::Build: relation " + std::to_string(s.relation) +
          " registered twice");
    }
    ctx.subject_order_.push_back(s.relation);
  }
  ctx.index_ = InvertedIndex::Build(db, ctx.subject_order_);
  return ctx;
}

core::JoinCacheMetrics SearchContext::join_cache_metrics() const {
  return join_cache_ ? join_cache_->metrics() : core::JoinCacheMetrics{};
}

const gds::Gds& SearchContext::GdsFor(rel::RelationId relation) const {
  // at(): an unregistered relation throws std::out_of_range determin-
  // istically instead of being release-mode UB.
  return subjects_.at(relation);
}

std::vector<Hit> SearchContext::RankedHits(
    std::string_view keywords, const api::QueryOptions& options) const {
  std::vector<Hit> hits = index_.SearchQuery(keywords);
  // Pre-rank data subjects by global importance. Under subject ranking the
  // list is truncated here (cheap); under summary ranking every hit's
  // size-l OS must be computed first, so RankBySummary truncates at the
  // end.
  std::sort(hits.begin(), hits.end(), [this](const Hit& a, const Hit& b) {
    double ia = db_->relation(a.relation).importance(a.tuple);
    double ib = db_->relation(b.relation).importance(b.tuple);
    if (ia != ib) return ia > ib;
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.tuple < b.tuple;
  });
  if (options.ranking == api::ResultRanking::kSubjectImportance &&
      hits.size() > options.max_results) {
    hits.resize(options.max_results);
  }
  return hits;
}

core::OsTree SearchContext::AcquireOs(const Hit& hit,
                                      const api::QueryOptions& options) const {
  const gds::Gds& gds = subjects_.at(hit.relation);
  // Footnote 1: tuples at distance >= l from t_DS cannot be in a
  // connected size-l OS, so generation stops at depth l - 1. A complete
  // OS never grows past the G_DS depth, so capping there instead
  // changes nothing and lets every l past it share one tree.
  size_t depth = static_cast<size_t>(gds.MaxDepth());
  if (options.l > 0) depth = std::min(depth, options.l - 1);
  core::OsGenOptions gen;
  gen.max_depth = static_cast<int32_t>(depth);

  // A prelim-l OS (Algorithm 4) is cut by the AC1/AC2 bounds, which
  // depend on l, so a kept tree could answer only its own (subject, l)
  // pair; it is generated afresh every time and never reaches the memo.
  if (options.l > 0 && options.use_prelim) {
    return core::GeneratePrelimOs(*db_, gds, backend_, hit.tuple, options.l,
                                  gen);
  }

  // A disabled memo misses on every Lookup and drops every Insert.
  core::PartialsMemo& memo = *partials_memo_;
  const std::string memo_key = PartialsKey(hit, depth);
  if (core::PartialPtr memoized = memo.Lookup(memo_key)) {
    // The memoized tree is exactly what generation below would produce
    // for this key — copying it keeps results byte-identical to the
    // memo-off path.
    return memoized->os;
  }
  core::OsTree os =
      core::GenerateCompleteOs(*db_, gds, backend_, hit.tuple, gen);
  // The memo keeps the copy, whose buffers are exact-sized and allocated
  // in node order, because every later hit copies from it.
  auto partial = std::make_shared<core::PartialSynopsis>();
  partial->os = os;
  partial->approx_bytes =
      sizeof(core::PartialSynopsis) + os.ApproxHeapBytes();
  memo.Insert(memo_key, std::move(partial));
  return os;
}

std::vector<api::QueryResult> SearchContext::Query(
    std::string_view keywords, const api::QueryOptions& options) const {
  std::vector<Hit> hits = RankedHits(keywords, options);
  std::vector<api::QueryResult> results;
  results.reserve(hits.size());
  // One scratch serves every hit of this query: after the first tree the
  // DP tables reuse the same arena blocks (see core::DpScratch).
  core::DpScratch scratch;
  for (const Hit& hit : hits) {
    api::QueryResult r;
    r.subject = hit;
    r.subject_importance = db_->relation(hit.relation).importance(hit.tuple);
    r.os = AcquireOs(hit, options);
    r.selection = Select(r.os, options, &scratch);
    results.push_back(std::move(r));
  }
  RankBySummary(options, &results);
  return results;
}

api::QueryResponse SearchContext::Execute(
    const api::QueryRequest& request) const {
  util::WallTimer timer;
  api::Status invalid = request.Validate();
  if (!invalid.ok()) {
    return api::QueryResponse::Failure(std::move(invalid));
  }
  api::QueryStats stats;  // uncached path: cache_hit false
  try {
    auto results = std::make_shared<api::ResultList>(
        Query(request.keywords(), request.options()));
    stats.compute_micros = timer.ElapsedMicros();
    return api::QueryResponse::Success(std::move(results), stats);
  } catch (const std::exception& e) {
    stats.compute_micros = timer.ElapsedMicros();
    return api::QueryResponse::Failure(api::Status::BackendError(e.what()),
                                       stats);
  }
}

std::string SearchContext::Render(const api::QueryResult& result) const {
  const gds::Gds& gds = subjects_.at(result.subject.relation);
  return result.os.Render(*db_, gds, &result.selection.nodes);
}

}  // namespace osum::search
