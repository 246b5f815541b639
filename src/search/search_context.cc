#include "search/search_context.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace osum::search {

namespace {

// The partials-memo key: exactly what determines a subject's generated OS
// tree — the subject identity, the generator, and the one parameter the
// generator reads. A complete OS (Algorithm 5) depends on l only through
// its depth cap, so it is keyed by the effective cap and one tree serves
// l = 0 and every l past the G_DS depth. A prelim-l OS (Algorithm 4) also
// depends on l through its AC1/AC2 cutoff, so it is keyed by l. The
// algorithm stays out (size-l runs on every request, hit or miss), and so
// do max_results and ranking, which rank *across* subjects — splitting the
// memo on them would stop overlapping-keyword queries from sharing work.
std::string PartialsKey(const Hit& hit, bool prelim, size_t depth_or_l) {
  std::string key;
  key.reserve(32);
  key += 'r';
  key += std::to_string(hit.relation);
  key += 't';
  key += std::to_string(hit.tuple);
  key += prelim ? 'l' : 'd';
  key += std::to_string(depth_or_l);
  return key;
}

}  // namespace

SearchContext SearchContext::Build(const rel::Database& db,
                                   core::OsBackend* backend,
                                   std::vector<Subject> subjects) {
  SearchContext ctx(db, backend);
  ctx.partials_memo_ = std::make_shared<core::PartialsMemo>();
  ctx.subject_order_.reserve(subjects.size());
  for (Subject& s : subjects) {
    // Checked in every build type: a duplicate would list the relation
    // twice in subject_order_ (TakeSubjects would then move one G_DS out
    // twice), and a mis-rooted G_DS would generate OSs from the wrong
    // relation.
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

const gds::Gds& SearchContext::GdsFor(rel::RelationId relation) const {
  // at(): an unregistered relation throws std::out_of_range determin-
  // istically instead of being release-mode UB.
  return subjects_.at(relation);
}

std::vector<SearchContext::Subject> SearchContext::TakeSubjects() && {
  std::vector<Subject> out;
  out.reserve(subject_order_.size());
  for (rel::RelationId r : subject_order_) {
    out.push_back(Subject{r, std::move(subjects_.at(r))});
  }
  subjects_.clear();
  subject_order_.clear();
  return out;
}

std::vector<api::QueryResult> SearchContext::Query(
    std::string_view keywords, const api::QueryOptions& options) const {
  std::vector<Hit> hits = index_.SearchQuery(keywords);

  // Pre-rank data subjects by global importance. Under subject ranking the
  // list is truncated here (cheap); under summary ranking every hit's
  // size-l OS must be computed first, so truncation happens at the end.
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

  std::vector<api::QueryResult> results;
  results.reserve(hits.size());
  // One scratch serves every hit of this query: after the first tree the
  // DP tables reuse the same arena blocks (see core::DpScratch).
  core::DpScratch scratch;
  core::PartialsMemo& memo = *partials_memo_;
  const bool use_memo = memo.enabled();
  for (const Hit& hit : hits) {
    const gds::Gds& gds = subjects_.at(hit.relation);
    api::QueryResult r;
    r.subject = hit;
    r.subject_importance = db_->relation(hit.relation).importance(hit.tuple);

    // Footnote 1: tuples at distance >= l from t_DS cannot be in a
    // connected size-l OS, so generation stops at depth l - 1. A complete
    // OS never grows past the G_DS depth, so capping there instead
    // changes nothing and lets every l past it share one tree.
    const bool prelim = options.l > 0 && options.use_prelim;
    size_t depth = static_cast<size_t>(gds.MaxDepth());
    if (options.l > 0) depth = std::min(depth, options.l - 1);
    core::OsGenOptions gen;
    gen.max_depth = static_cast<int32_t>(depth);

    std::string memo_key;
    uint64_t memo_epoch = 0;
    core::PartialPtr memoized;
    if (use_memo) {
      memo_key = PartialsKey(hit, prelim, prelim ? options.l : depth);
      memoized = memo.Lookup(memo_key, &memo_epoch);
    }
    if (memoized != nullptr) {
      // The memoized tree is exactly what generation below would produce
      // for this key — copying it keeps results byte-identical to the
      // memo-off path.
      r.os = memoized->os;
    } else {
      r.os = prelim ? core::GeneratePrelimOs(*db_, gds, backend_, hit.tuple,
                                             options.l, gen)
                    : core::GenerateCompleteOs(*db_, gds, backend_,
                                               hit.tuple, gen);
      if (use_memo) {
        auto partial = std::make_shared<core::PartialSynopsis>();
        partial->os = r.os;
        partial->approx_bytes =
            sizeof(core::PartialSynopsis) + r.os.ApproxHeapBytes();
        memo.Insert(memo_key, std::move(partial), memo_epoch);
      }
    }

    if (options.l == 0) {
      r.selection.nodes.resize(r.os.size());
      for (size_t i = 0; i < r.os.size(); ++i) {
        r.selection.nodes[i] = static_cast<core::OsNodeId>(i);
      }
      r.selection.importance = r.os.TotalImportance();
    } else {
      r.selection = core::RunSizeL(options.algorithm, r.os, options.l,
                                   &scratch);
    }
    results.push_back(std::move(r));
  }

  if (options.ranking == api::ResultRanking::kSummaryImportance) {
    std::stable_sort(results.begin(), results.end(),
                     [](const api::QueryResult& a, const api::QueryResult& b) {
                       return a.selection.importance > b.selection.importance;
                     });
    if (results.size() > options.max_results) {
      results.resize(options.max_results);
    }
  }
  return results;
}

api::QueryResponse SearchContext::Execute(
    const api::QueryRequest& request) const {
  util::WallTimer timer;
  api::Status invalid = request.Validate();
  if (!invalid.ok()) {
    return api::QueryResponse::Failure(std::move(invalid));
  }
  api::QueryStats stats;  // uncached path: cache_hit false, epoch 0
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

std::vector<api::QueryResponse> SearchContext::ExecuteBatch(
    std::span<const api::QueryRequest> requests, util::ThreadPool& pool) const {
  std::vector<api::QueryResponse> responses(requests.size());
  // Execute never throws, so the fan-out honors ParallelFor's no-throw
  // contract by construction.
  util::ParallelFor(&pool, requests.size(),
                    [&](size_t i) { responses[i] = Execute(requests[i]); });
  return responses;
}

std::string SearchContext::Render(const api::QueryResult& result) const {
  const gds::Gds& gds = subjects_.at(result.subject.relation);
  return result.os.Render(*db_, gds, &result.selection.nodes);
}

}  // namespace osum::search
