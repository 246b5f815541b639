// Tests for the inverted index and the end-to-end size-l search path
// (SearchContext::Build, then Execute / Render).
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "datasets/dblp.h"
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
  // TakeSubjects would then hand back a moved-from G_DS.
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

TEST(SearchContext, TakeSubjectsFeedsAFreshBuild) {
  // The documented rebuild flow (see search_context.h): take the subjects
  // out of a context you are about to discard, extend the set, and Build a
  // fresh richer context from them.
  Dblp d = SearchFixture::MakeDblp();
  core::DataGraphBackend backend(d.db, d.links, d.data_graph);
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({d.author, DblpAuthorGds(d)});
  SearchContext old_ctx =
      SearchContext::Build(d.db, &backend, std::move(subjects));
  ASSERT_FALSE(old_ctx.Query("faloutsos").empty());

  std::vector<SearchContext::Subject> taken =
      std::move(old_ctx).TakeSubjects();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].relation, d.author);
  // The drained context is left empty, as documented.
  EXPECT_THROW(old_ctx.GdsFor(d.author), std::out_of_range);

  taken.push_back({d.paper, DblpPaperGds(d)});
  SearchContext fresh =
      SearchContext::Build(d.db, &backend, std::move(taken));
  // The moved-out GDS still answers in the rebuilt context, and the
  // extension genuinely widened coverage to paper subjects.
  EXPECT_FALSE(fresh.Query("faloutsos").empty());
  bool has_paper = false;
  for (const QueryResult& r : fresh.Query("power law")) {
    has_paper |= r.subject.relation == d.paper;
  }
  EXPECT_TRUE(has_paper);
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

}  // namespace
}  // namespace osum::search
