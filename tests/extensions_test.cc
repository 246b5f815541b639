// Tests for the Section 7 future-work extensions: multi-l DP, the size-l
// solution-space (stability) analysis, budget-driven l selection, OS JSON
// export and summary-importance result ranking.
#include <gtest/gtest.h>

#include "core/multi_l.h"
#include "core/os_backend.h"
#include "core/os_export.h"
#include "core/os_generator.h"
#include "core/word_budget.h"
#include "datasets/dblp.h"
#include "search/search_context.h"
#include "tree_fixtures.h"
#include "util/string_util.h"

namespace osum::core {
namespace {

using osum::testing::MakeTree;
using osum::testing::PaperFigure4Tree;
using osum::testing::PaperFigure5Tree;
using osum::testing::RandomTree;

// --------------------------------------------------------------- SizeLDpAll

TEST(SizeLDpAll, MatchesPerLRunsInImportance) {
  util::Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    OsTree os = RandomTree(&rng, 5 + rng.NextU64(60));
    size_t max_l = std::min<size_t>(os.size(), 20);
    std::vector<Selection> all = SizeLDpAll(os, max_l);
    ASSERT_EQ(all.size(), max_l);
    for (size_t l = 1; l <= max_l; ++l) {
      Selection single = SizeLDp(os, l);
      EXPECT_NEAR(all[l - 1].importance, single.importance, 1e-9)
          << "trial=" << trial << " l=" << l;
      EXPECT_TRUE(IsValidSelection(os, all[l - 1], l));
    }
  }
}

TEST(SizeLDpAll, PaperFigure5AtAllL) {
  OsTree os = PaperFigure5Tree();
  std::vector<Selection> all = SizeLDpAll(os, 14);
  ASSERT_EQ(all.size(), 14u);
  EXPECT_DOUBLE_EQ(all[4].importance, 240);  // l=5: {1,5,6,12,14}
  EXPECT_DOUBLE_EQ(all[13].importance, os.TotalImportance());
}

TEST(SizeLDpAll, ClampsAtTreeSize) {
  OsTree os = MakeTree({{-1, 1}, {0, 2}});
  std::vector<Selection> all = SizeLDpAll(os, 10);
  EXPECT_EQ(all.size(), 2u);
}

TEST(SizeLDpAll, EmptyInputs) {
  OsTree empty;
  EXPECT_TRUE(SizeLDpAll(empty, 5).empty());
  OsTree os = MakeTree({{-1, 1}});
  EXPECT_TRUE(SizeLDpAll(os, 0).empty());
}

// ---------------------------------------------------------------- stability

TEST(LStability, DetectsNonIncrementalStep) {
  // root(10) with children a(9), b(5); b has child c(5.5).
  //   l=2: {root, a} (19).  l=3: {root, a, b} (24)?  or {root,b,c} = 20.5.
  //   So S_2 ⊂ S_3 here. Make a case where the optimum switches branches:
  //   root(1): child x(10); child y(6)-z(12).
  //   l=2: {root, x} = 11.  l=3: {root, y, z} = 19 > {root, x, y} = 17 —
  //   the optimum drops x entirely.
  OsTree os = MakeTree({{-1, 1}, {0, 10}, {0, 6}, {2, 12}});
  std::vector<LStabilityPoint> points = AnalyzeLStability(os, 3);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[1].l, 2u);
  EXPECT_FALSE(points[1].is_incremental);  // S_2 = {0,1}, S_3 = {0,2,3}
  EXPECT_EQ(points[1].overlap, 1u);        // only the root survives
}

TEST(LStability, MonotoneTreesAreFullyIncremental) {
  util::Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    OsTree os = osum::testing::RandomMonotoneTree(&rng, 30);
    auto points = AnalyzeLStability(os, 15);
    // On monotone trees the optimum is the top-l set, which grows by one
    // element per l; every step is incremental.
    EXPECT_DOUBLE_EQ(IncrementalFraction(points), 1.0) << "trial=" << trial;
  }
}

TEST(ChooseL, StopsAtDiminishingReturns) {
  // One heavy child, then a sea of negligible ones: the chooser should
  // stop right after the heavy tuple.
  OsTree os;
  os.AddRoot(0, 0, 0, 100.0);
  os.AddChild(kOsRoot, 0, 0, 1, 90.0);
  for (int i = 2; i < 30; ++i) {
    os.AddChild(kOsRoot, 0, 0, static_cast<rel::TupleId>(i), 0.5);
  }
  size_t l = ChooseLByMarginalGain(os, 29);
  EXPECT_EQ(l, 2u);
}

TEST(ChooseL, TakesEverythingWhenGainsStayHigh) {
  // Uniform weights: every added tuple contributes exactly the running
  // average, so the chooser runs to max_l.
  OsTree os;
  os.AddRoot(0, 0, 0, 10.0);
  for (int i = 1; i < 12; ++i) {
    os.AddChild(kOsRoot, 0, 0, static_cast<rel::TupleId>(i), 10.0);
  }
  EXPECT_EQ(ChooseLByMarginalGain(os, 12), 12u);
}

TEST(ChooseL, AtLeastOneAndHandlesEmpty) {
  OsTree empty;
  EXPECT_EQ(ChooseLByMarginalGain(empty, 10), 0u);
  OsTree os = MakeTree({{-1, 5.0}});
  EXPECT_EQ(ChooseLByMarginalGain(os, 10), 1u);
}

TEST(LStability, RatiosWithinBounds) {
  util::Rng rng(78);
  OsTree os = RandomTree(&rng, 200);
  for (const auto& p : AnalyzeLStability(os, 50)) {
    EXPECT_GE(p.overlap_ratio, 0.0);
    EXPECT_LE(p.overlap_ratio, 1.0);
    EXPECT_GE(p.overlap, 1u);  // the root is always shared
  }
}

}  // namespace
}  // namespace osum::core

namespace osum {
namespace {

struct ExtFixture {
  datasets::Dblp d;
  gds::Gds gds;
  core::DataGraphBackend backend;
  core::OsTree os;

  ExtFixture()
      : d(MakeDblp()),
        gds(datasets::DblpAuthorGds(d)),
        backend(d.db, d.links, d.data_graph),
        os(core::GenerateCompleteOs(d.db, gds, &backend, 0)) {}

  static datasets::Dblp MakeDblp() {
    datasets::DblpConfig c;
    c.num_authors = 120;
    c.num_papers = 400;
    c.num_conferences = 8;
    datasets::Dblp d = datasets::BuildDblp(c);
    datasets::ApplyDblpScores(&d, 1, 0.85);
    return d;
  }
};

// ------------------------------------------------------------- word budget

TEST(WordBudget, NodeCostsMatchRenderedWords) {
  ExtFixture f;
  auto costs = core::NodeBudgetCosts(f.d.db, f.os, core::BudgetUnit::kWords);
  ASSERT_EQ(costs.size(), f.os.size());
  // Root is an author name: two or three words.
  EXPECT_GE(costs[0], 2u);
  EXPECT_LE(costs[0], 4u);
  // Spot-check one node against its rendering.
  const core::OsNode& n = f.os.node(1);
  size_t words = util::TokenizeWords(
                     f.d.db.relation(n.relation).RenderValues(n.tuple))
                     .size();
  EXPECT_EQ(costs[1], words);
}

TEST(WordBudget, AttributeCosts) {
  ExtFixture f;
  auto costs =
      core::NodeBudgetCosts(f.d.db, f.os, core::BudgetUnit::kAttributes);
  // Author has exactly one display attribute.
  EXPECT_EQ(costs[0], 1u);
}

TEST(WordBudget, SelectionFitsBudget) {
  ExtFixture f;
  for (uint64_t budget : {20u, 50u, 120u}) {
    auto result = core::SizeLByBudget(f.d.db, f.os, budget,
                                      core::BudgetUnit::kWords,
                                      core::SizeLAlgorithm::kTopPathMemo);
    EXPECT_LE(result.cost, budget) << "budget=" << budget;
    EXPECT_EQ(result.selection.nodes.size(), result.l);
    EXPECT_TRUE(core::IsValidSelection(f.os, result.selection, result.l));
  }
}

TEST(WordBudget, LargerBudgetNeverShrinksL) {
  ExtFixture f;
  size_t prev_l = 0;
  for (uint64_t budget : {10u, 30u, 80u, 200u, 500u}) {
    auto result = core::SizeLByBudget(f.d.db, f.os, budget,
                                      core::BudgetUnit::kWords,
                                      core::SizeLAlgorithm::kBottomUp);
    EXPECT_GE(result.l, prev_l) << "budget=" << budget;
    prev_l = result.l;
  }
}

TEST(WordBudget, TinyBudgetStillReturnsRoot) {
  ExtFixture f;
  auto result =
      core::SizeLByBudget(f.d.db, f.os, 1, core::BudgetUnit::kWords,
                          core::SizeLAlgorithm::kDp);
  EXPECT_EQ(result.l, 1u);
  EXPECT_EQ(result.selection.nodes,
            (std::vector<core::OsNodeId>{core::kOsRoot}));
}

TEST(WordBudget, WholeOsFitsWhenBudgetHuge) {
  ExtFixture f;
  auto result = core::SizeLByBudget(f.d.db, f.os, 100'000'000,
                                    core::BudgetUnit::kWords,
                                    core::SizeLAlgorithm::kBottomUp);
  EXPECT_EQ(result.l, f.os.size());
}

// -------------------------------------------------------------- JSON export

TEST(OsJson, EscapesSpecials) {
  EXPECT_EQ(core::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(core::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(OsJson, RendersSelectedSubtree) {
  ExtFixture f;
  core::Selection sel = core::SizeLDp(f.os, 8);
  std::string json = core::RenderOsJson(f.d.db, f.gds, f.os, &sel.nodes);
  EXPECT_NE(json.find("\"label\": \"Author\""), std::string::npos);
  EXPECT_NE(json.find("Christos Faloutsos"), std::string::npos);
  // Selected subtree has exactly 8 nodes = 8 "label" keys.
  size_t labels = 0;
  for (size_t pos = json.find("\"label\""); pos != std::string::npos;
       pos = json.find("\"label\"", pos + 1)) {
    ++labels;
  }
  EXPECT_EQ(labels, 8u);
}

TEST(OsJson, CompactModeHasNoNewlines) {
  ExtFixture f;
  core::Selection sel = core::SizeLDp(f.os, 3);
  std::string json =
      core::RenderOsJson(f.d.db, f.gds, f.os, &sel.nodes, /*pretty=*/false);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(OsJson, EmptyTreeAndMissingRoot) {
  ExtFixture f;
  core::OsTree empty;
  EXPECT_EQ(core::RenderOsJson(f.d.db, f.gds, empty), "null");
  std::vector<core::OsNodeId> no_root{1, 2};
  EXPECT_EQ(core::RenderOsJson(f.d.db, f.gds, f.os, &no_root), "null");
}

// ------------------------------------------------------------ result ranking

/// An author-only context over the fixture's DBLP instance.
search::SearchContext AuthorContext(ExtFixture& f) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({f.d.author, datasets::DblpAuthorGds(f.d)});
  return search::SearchContext::Build(f.d.db, &f.backend, std::move(subjects));
}

/// The ranked results of one Execute; a failed request fails the test.
api::ResultList RunQuery(const search::SearchContext& ctx,
                         const char* keywords,
                         const api::QueryOptions& options) {
  api::QueryResponse response =
      ctx.Execute(api::QueryRequest(keywords, options));
  EXPECT_TRUE(response.ok()) << response.status.ToString();
  return response.result_list();
}

TEST(SummaryRanking, OrdersBySizeLImportance) {
  ExtFixture f;
  search::SearchContext ctx = AuthorContext(f);

  api::QueryOptions options;
  options.l = 10;
  options.ranking = api::ResultRanking::kSummaryImportance;
  api::ResultList results = RunQuery(ctx, "Faloutsos", options);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_GE(results[i].selection.importance,
              results[i + 1].selection.importance);
  }
}

TEST(SummaryRanking, TruncatesAfterRanking) {
  ExtFixture f;
  search::SearchContext ctx = AuthorContext(f);

  api::QueryOptions options;
  options.l = 6;
  options.max_results = 1;
  options.ranking = api::ResultRanking::kSummaryImportance;
  api::ResultList top1 = RunQuery(ctx, "Faloutsos", options);
  ASSERT_EQ(top1.size(), 1u);

  options.max_results = 3;
  api::ResultList top3 = RunQuery(ctx, "Faloutsos", options);
  ASSERT_EQ(top3.size(), 3u);
  // The retained result is the global best, not just the best of a
  // pre-truncated subject list.
  EXPECT_DOUBLE_EQ(top1[0].selection.importance,
                   top3[0].selection.importance);
}

}  // namespace
}  // namespace osum
