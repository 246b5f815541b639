// Tests for the inverted index and the end-to-end size-l search path
// (SearchContext::Build, then Execute / Render).
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "datasets/dblp.h"
#include "db_fixtures.h"
#include "search/inverted_index.h"
#include "search/search_context.h"

namespace osum::search {
namespace {

using datasets::ApplyDblpScores;
using datasets::BuildDblp;
using datasets::Dblp;
using datasets::DblpAuthorGds;
using datasets::DblpConfig;
using datasets::DblpPaperGds;

using api::QueryOptions;
using api::QueryResult;
using api::ResultList;
using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

struct SearchFixture {
  Dblp d;
  core::DataGraphBackend backend;
  SearchContext ctx;

  SearchFixture()
      : d(MakeDblp()),
        backend(d.db, d.links, d.data_graph),
        ctx(BuildContext(d, &backend)) {}

  static SearchContext BuildContext(const Dblp& d,
                                    core::OsBackend* backend) {
    std::vector<SearchContext::Subject> subjects;
    subjects.push_back({d.author, DblpAuthorGds(d)});
    subjects.push_back({d.paper, DblpPaperGds(d)});
    return SearchContext::Build(d.db, backend, std::move(subjects));
  }

  /// The ranked results of one Execute; a failed request fails the test.
  ResultList Run(std::string keywords, const QueryOptions& options = {}) {
    api::QueryResponse response =
        ctx.Execute(api::QueryRequest(std::move(keywords), options));
    EXPECT_TRUE(response.ok()) << response.status.ToString();
    return response.result_list();
  }

  static Dblp MakeDblp() {
    DblpConfig c;
    c.num_authors = 200;
    c.num_papers = 800;
    c.num_conferences = 10;
    Dblp d = BuildDblp(c);
    ApplyDblpScores(&d, 1, 0.85);
    return d;
  }
};

TEST(InvertedIndex, SingleKeywordFindsAllFaloutsos) {
  SearchFixture f;
  InvertedIndex index = InvertedIndex::Build(f.d.db, {f.d.author});
  auto hits = index.SearchQuery("Faloutsos");
  EXPECT_EQ(hits.size(), 3u);  // the three brothers
  for (const Hit& h : hits) EXPECT_EQ(h.relation, f.d.author);
}

TEST(InvertedIndex, AndSemanticsNarrow) {
  SearchFixture f;
  InvertedIndex index = InvertedIndex::Build(f.d.db, {f.d.author});
  auto christos = index.SearchQuery("christos faloutsos");
  ASSERT_EQ(christos.size(), 1u);
  EXPECT_EQ(christos[0].tuple, 0u);
}

TEST(InvertedIndex, CaseInsensitive) {
  SearchFixture f;
  InvertedIndex index = InvertedIndex::Build(f.d.db, {f.d.author});
  EXPECT_EQ(index.SearchQuery("FALOUTSOS").size(), 3u);
}

TEST(InvertedIndex, MissingKeywordYieldsNothing) {
  SearchFixture f;
  InvertedIndex index = InvertedIndex::Build(f.d.db, {f.d.author});
  EXPECT_TRUE(index.SearchQuery("nonexistentkeyword").empty());
  EXPECT_TRUE(index.SearchQuery("").empty());
}

TEST(InvertedIndex, HiddenColumnsNotIndexed) {
  SearchFixture f;
  // Paper fk columns are hidden; only titles should be searchable.
  InvertedIndex index = InvertedIndex::Build(f.d.db, {f.d.paper});
  EXPECT_GT(index.num_terms(), 0u);
  auto hits = index.SearchQuery("databases");
  EXPECT_GT(hits.size(), 0u);
}

TEST(Engine, Q1ReturnsThreeRankedSizeLOss) {
  SearchFixture f;
  QueryOptions options;
  options.l = 15;
  auto results = f.Run("Faloutsos", options);
  ASSERT_EQ(results.size(), 3u);
  // Ranked by global importance, descending.
  EXPECT_GE(results[0].subject_importance, results[1].subject_importance);
  EXPECT_GE(results[1].subject_importance, results[2].subject_importance);
  // Christos (most prolific by construction) ranks first.
  EXPECT_EQ(results[0].subject.tuple, 0u);
  for (const QueryResult& r : results) {
    EXPECT_TRUE(core::IsValidSelection(r.os, r.selection, options.l));
  }
}

TEST(Engine, SizeLSelectionRespectsL) {
  SearchFixture f;
  for (size_t l : {5u, 10u, 30u}) {
    QueryOptions options;
    options.l = l;
    auto results = f.Run("christos faloutsos", options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].selection.nodes.size(),
              std::min(l, results[0].os.size()));
  }
}

TEST(Engine, CompleteOsWhenLZero) {
  SearchFixture f;
  QueryOptions options;
  options.l = 0;
  auto results = f.Run("christos faloutsos", options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].selection.nodes.size(), results[0].os.size());
  EXPECT_GT(results[0].os.size(), 100u);  // Christos's OS is large
}

TEST(Engine, MaxResultsTruncates) {
  SearchFixture f;
  QueryOptions options;
  options.max_results = 2;
  auto results = f.Run("Faloutsos", options);
  EXPECT_EQ(results.size(), 2u);
}

TEST(Engine, PrelimAndCompleteAgreeOnSelectionQuality) {
  SearchFixture f;
  QueryOptions with_prelim, without;
  with_prelim.l = without.l = 12;
  with_prelim.use_prelim = true;
  without.use_prelim = false;
  with_prelim.algorithm = without.algorithm = core::SizeLAlgorithm::kDp;
  auto a = f.Run("christos faloutsos", with_prelim);
  auto b = f.Run("christos faloutsos", without);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // Prelim may lose a little quality but not much (Section 6.2: <= 4%).
  EXPECT_GE(a[0].selection.importance, 0.9 * b[0].selection.importance);
}

TEST(Engine, MultiSubjectSearchCoversPapers) {
  SearchFixture f;
  auto results = f.Run("power law");
  EXPECT_GT(results.size(), 0u);
  bool has_paper = false;
  for (const QueryResult& r : results) {
    has_paper |= r.subject.relation == f.d.paper;
  }
  EXPECT_TRUE(has_paper);
}

TEST(Engine, RenderShowsSubjectAndIndentation) {
  SearchFixture f;
  QueryOptions options;
  options.l = 8;
  auto results = f.Run("christos faloutsos", options);
  ASSERT_EQ(results.size(), 1u);
  std::string text = f.ctx.Render(results[0]);
  EXPECT_NE(text.find("Author: Christos Faloutsos"), std::string::npos);
  EXPECT_NE(text.find("..Paper:"), std::string::npos);
}

TEST(SearchContext, BuildRejectsARelationRegisteredTwice) {
  // A duplicate would list the relation twice in registration order, and
  // so index its tuples twice.
  Dblp d = SearchFixture::MakeDblp();
  core::DataGraphBackend backend(d.db, d.links, d.data_graph);
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({d.author, DblpAuthorGds(d)});
  subjects.push_back({d.paper, DblpPaperGds(d)});
  subjects.push_back({d.author, DblpAuthorGds(d)});
  EXPECT_THROW(SearchContext::Build(d.db, &backend, std::move(subjects)),
               std::invalid_argument);
}

TEST(SearchContext, BuildRejectsAGdsRootedAtAnotherRelation) {
  Dblp d = SearchFixture::MakeDblp();
  core::DataGraphBackend backend(d.db, d.links, d.data_graph);
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({d.paper, DblpAuthorGds(d)});
  EXPECT_THROW(SearchContext::Build(d.db, &backend, std::move(subjects)),
               std::invalid_argument);
}

TEST(CanonicalQueryKey, NormalizesKeywordSetAndSeparatesOptions) {
  QueryOptions a;  // defaults
  // Case, order, duplicates and separators collapse onto one key.
  EXPECT_EQ(CanonicalQueryKey("Christos  Faloutsos", a),
            CanonicalQueryKey("faloutsos, christos CHRISTOS", a));
  // Distinct keyword sets split.
  EXPECT_NE(CanonicalQueryKey("christos", a),
            CanonicalQueryKey("christos faloutsos", a));
  // Every result-affecting knob splits the key.
  QueryOptions b = a;
  b.l = a.l + 1;
  EXPECT_NE(CanonicalQueryKey("x", a), CanonicalQueryKey("x", b));
  b = a;
  b.max_results = a.max_results + 1;
  EXPECT_NE(CanonicalQueryKey("x", a), CanonicalQueryKey("x", b));
  b = a;
  b.algorithm = core::SizeLAlgorithm::kBottomUp;
  EXPECT_NE(CanonicalQueryKey("x", a), CanonicalQueryKey("x", b));
  b = a;
  b.use_prelim = !a.use_prelim;
  EXPECT_NE(CanonicalQueryKey("x", a), CanonicalQueryKey("x", b));
  b = a;
  b.ranking = api::ResultRanking::kSummaryImportance;
  EXPECT_NE(CanonicalQueryKey("x", a), CanonicalQueryKey("x", b));
}

TEST(Engine, AlgorithmsAllProduceValidResults) {
  SearchFixture f;
  for (auto algo : {core::SizeLAlgorithm::kDp, core::SizeLAlgorithm::kBottomUp,
                    core::SizeLAlgorithm::kTopPath,
                    core::SizeLAlgorithm::kTopPathMemo}) {
    QueryOptions options;
    options.l = 10;
    options.algorithm = algo;
    auto results = f.Run("Faloutsos", options);
    ASSERT_EQ(results.size(), 3u) << core::AlgorithmName(algo);
    for (const QueryResult& r : results) {
      EXPECT_TRUE(core::IsValidSelection(r.os, r.selection, options.l))
          << core::AlgorithmName(algo);
    }
  }
}

// One line per (back end, memo, ranking) after running `mix` once through
// SearchContext::Query on a fresh context: the back end's {select_calls,
// tuples_read}, then the memo's {hits, misses, inserts}, then on the
// database back end the join tier's {hits, misses, admitted}. Each mix repeats and
// overlaps queries. Only its complete-OS queries (l = 0 or use_prelim
// off) reach the memo, so the memo-on lines show their reuse, while a
// repeated prelim-l query regenerates its tree. Every tier miss is one
// statement, so its misses equal the back end's select_calls.
std::vector<std::string> QueryLedgers(
    const rel::Database& db, const graph::LinkSchema& links,
    core::OsBackend* data_graph,
    const std::vector<SearchContext::Subject>& subjects,
    const std::vector<std::pair<std::string, QueryOptions>>& mix) {
  core::DatabaseBackend database(db, links, /*per_select_micros=*/0.0);
  std::vector<std::string> lines;
  for (core::OsBackend* backend : {data_graph,
                                   static_cast<core::OsBackend*>(&database)}) {
    for (bool memo_on : {false, true}) {
      for (auto ranking : {api::ResultRanking::kSubjectImportance,
                           api::ResultRanking::kSummaryImportance}) {
        SearchContext ctx = SearchContext::Build(db, backend, subjects);
        ctx.partials_memo().SetEnabled(memo_on);
        backend->ResetStats();
        for (const auto& [keywords, query_options] : mix) {
          QueryOptions options = query_options;
          options.ranking = ranking;
          ctx.Query(keywords, options);
        }
        util::IoStats io = backend->stats();
        core::PartialsMemoMetrics memo = ctx.partials_memo().metrics();
        core::JoinCacheMetrics joins = ctx.join_cache_metrics();
        std::string line =
            std::string(backend == data_graph ? "data-graph" : "database") +
            (memo_on ? " memo-on" : " memo-off") +
            (ranking == api::ResultRanking::kSubjectImportance ? " subject"
                                                               : " summary") +
            " {" + std::to_string(io.select_calls) + ", " +
            std::to_string(io.tuples_read) + "} {" +
            std::to_string(memo.hits) + ", " + std::to_string(memo.misses) +
            ", " + std::to_string(memo.inserts) + "}";
        if (backend != data_graph) {
          EXPECT_EQ(joins.misses, io.select_calls) << line;
          line += " {" + std::to_string(joins.hits) + ", " +
                  std::to_string(joins.misses) + ", " +
                  std::to_string(joins.admitted) + "}";
        } else {
          EXPECT_EQ(joins.hits + joins.misses, 0u) << line;
        }
        lines.push_back(std::move(line));
      }
    }
  }
  return lines;
}

QueryOptions LedgerOptions(size_t l, bool prelim, size_t max_results,
                           core::SizeLAlgorithm algorithm =
                               core::SizeLAlgorithm::kTopPath) {
  QueryOptions options;
  options.l = l;
  options.use_prelim = prelim;
  options.max_results = max_results;
  options.algorithm = algorithm;
  return options;
}

// The served path's work, pinned before and after any refactor of Query:
// back-end I/O, memo traffic and join-tier traffic for a fixed query mix,
// per back end, memo setting and ranking. On the database back end every
// statement is a tier miss: a join's first sighting passes through as the
// statement the generator asked for, its second is admitted (one full
// Fetch, kept), and later ones are hits.
TEST(QueryLedger, DblpMixCountsArePinned) {
  ScoredDblp f(SmallDblpConfig());
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({f.d.author, DblpAuthorGds(f.d)});
  subjects.push_back({f.d.paper, DblpPaperGds(f.d)});
  const std::vector<std::pair<std::string, QueryOptions>> mix = {
      {"faloutsos", LedgerOptions(10, true, 2)},
      {"christos faloutsos", LedgerOptions(10, true, 3)},
      {"faloutsos", LedgerOptions(10, false, 3, core::SizeLAlgorithm::kDp)},
      {"databases", LedgerOptions(8, true, 3)},
      {"mining", LedgerOptions(0, false, 2)},
      {"power law", LedgerOptions(5, true, 4, core::SizeLAlgorithm::kDp)},
      {"databases", LedgerOptions(8, true, 2)},
      {"faloutsos", LedgerOptions(0, true, 3)},
      {"nosuchkeywordanywhere", LedgerOptions(10, true, 3)},
  };
  std::vector<std::string> want = {
      "data-graph memo-off subject {1925, 5336} {0, 0, 0}",
      "data-graph memo-off summary {3325, 7976} {0, 0, 0}",
      "data-graph memo-on subject {1207, 2986} {3, 5, 5}",
      "data-graph memo-on summary {2607, 5626} {3, 33, 33}",
      "database memo-off subject {1318, 3707} {0, 0, 0} {607, 1318, 643}",
      "database memo-off summary {2153, 5436} {0, 0, 0} {1172, 2153, 1002}",
      "database memo-on subject {988, 2881} {3, 5, 5} {219, 988, 313}",
      "database memo-on summary {1964, 5020} {3, 33, 33} {643, 1964, 815}",
  };
  EXPECT_EQ(QueryLedgers(f.d.db, f.d.links, &f.backend, subjects, mix), want);
}

TEST(QueryLedger, TpchMixCountsArePinned) {
  ScoredTpch f(SmallTpchConfig());
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({f.t.customer, datasets::TpchCustomerGds(f.t)});
  subjects.push_back({f.t.supplier, datasets::TpchSupplierGds(f.t)});
  const rel::Relation& customers = f.t.db.relation(f.t.customer);
  const rel::Relation& suppliers = f.t.db.relation(f.t.supplier);
  const std::vector<std::pair<std::string, QueryOptions>> mix = {
      {customers.StringValue(3, 0), LedgerOptions(10, true, 2)},
      {customers.StringValue(11, 0), LedgerOptions(10, false, 2,
                                                   core::SizeLAlgorithm::kDp)},
      {suppliers.StringValue(0, 0), LedgerOptions(20, false, 2,
                                                  core::SizeLAlgorithm::kDp)},
      {customers.StringValue(11, 0), LedgerOptions(0, false, 2)},
      {"customer", LedgerOptions(8, true, 3)},
      {customers.StringValue(3, 0), LedgerOptions(10, true, 2)},
      {suppliers.StringValue(0, 0), LedgerOptions(30, false, 2)},
  };
  std::vector<std::string> want = {
      "data-graph memo-off subject {889, 1359} {0, 0, 0}",
      "data-graph memo-off summary {3565, 4517} {0, 0, 0}",
      "data-graph memo-on subject {538, 783} {2, 2, 2}",
      "data-graph memo-on summary {3214, 3941} {2, 2, 2}",
      "database memo-off subject {887, 1357} {0, 0, 0} {2, 887, 355}",
      "database memo-off summary {3408, 4355} {0, 0, 0} {157, 3408, 371}",
      "database memo-on subject {538, 783} {2, 2, 2} {0, 538, 6}",
      "database memo-on summary {3134, 3910} {2, 2, 2} {80, 3134, 102}",
  };
  EXPECT_EQ(QueryLedgers(f.t.db, f.t.links, &f.backend, subjects, mix), want);
}

}  // namespace
}  // namespace osum::search
