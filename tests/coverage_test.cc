// Cross-cutting coverage: ablation toggles, backend accounting, automatic
// G_DS on TPC-H, rendering, role names, evaluator configs, and assorted
// edge cases not owned by a single module test.
#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "core/os_generator.h"
#include "core/size_l.h"
#include "datasets/dblp.h"
#include "datasets/tpch.h"
#include "db_fixtures.h"
#include "eval/evaluator.h"
#include "gds/affinity.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace osum {
namespace {

using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

// ------------------------------------------------ avoidance-condition toggles

/// Node-by-node identity of two OS trees: every OsNode field, with exact
/// importances (both generators compute Im(t) * Af(R_i) the same way).
::testing::AssertionResult IdenticalTree(const core::OsTree& got,
                                         const core::OsTree& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "tree size " << got.size() << " != " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const core::OsNode& g = got.node(static_cast<core::OsNodeId>(i));
    const core::OsNode& w = want.node(static_cast<core::OsNodeId>(i));
    if (g.parent != w.parent || g.gds_node != w.gds_node ||
        g.relation != w.relation || g.tuple != w.tuple ||
        g.local_importance != w.local_importance || g.depth != w.depth ||
        g.children != w.children) {
      return ::testing::AssertionFailure() << "node " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PrelimToggles, DisablingConditionsNeverShrinksTheTree) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  gds::Gds gds = datasets::DblpAuthorGds(d);
  core::DatabaseBackend sql(d.db, d.links, /*per_select_micros=*/0.0);
  core::OsGenOptions both, no_ac1, no_ac2, none;
  no_ac1.prelim_use_ac1 = false;
  no_ac2.prelim_use_ac2 = false;
  none.prelim_use_ac1 = none.prelim_use_ac2 = false;
  for (core::OsBackend* backend :
       std::initializer_list<core::OsBackend*>{&f.backend, &sql}) {
    SCOPED_TRACE(backend->name());
    for (rel::TupleId tds : {0u, 4u}) {
      size_t s_both =
          core::GeneratePrelimOs(d.db, gds, backend, tds, 10, both).size();
      size_t s_no1 =
          core::GeneratePrelimOs(d.db, gds, backend, tds, 10, no_ac1).size();
      size_t s_no2 =
          core::GeneratePrelimOs(d.db, gds, backend, tds, 10, no_ac2).size();
      core::OsTree no_conditions =
          core::GeneratePrelimOs(d.db, gds, backend, tds, 10, none);
      core::OsTree complete =
          core::GenerateCompleteOs(d.db, gds, backend, tds);
      EXPECT_LE(s_both, s_no2);
      EXPECT_LE(s_both, s_no1);
      // No conditions = Algorithm 5, node for node.
      EXPECT_TRUE(IdenticalTree(no_conditions, complete)) << "tds " << tds;
      EXPECT_LE(s_no1, complete.size());
      EXPECT_LE(s_no2, complete.size());
    }
  }
}

// l = 0 means "no cutoff": Algorithm 4 without a top-l is Algorithm 5, so
// it needs no G_DS annotation and returns the complete OS node for node.
TEST(PrelimOs, ZeroLIsTheCompleteOs) {
  datasets::Dblp d = datasets::BuildDblp(SmallDblpConfig());
  gds::Gds unannotated = datasets::DblpAuthorGds(d);  // built before scores
  datasets::ApplyDblpScores(&d, 1, 0.85);
  gds::Gds annotated = datasets::DblpAuthorGds(d);
  ASSERT_FALSE(unannotated.annotated());
  core::DataGraphBackend mem(d.db, d.links, d.data_graph);
  core::DatabaseBackend sql(d.db, d.links, /*per_select_micros=*/0.0);
  for (core::OsBackend* backend :
       std::initializer_list<core::OsBackend*>{&mem, &sql}) {
    SCOPED_TRACE(backend->name());
    for (rel::TupleId tds : {0u, 4u}) {
      core::OsTree complete =
          core::GenerateCompleteOs(d.db, annotated, backend, tds);
      EXPECT_TRUE(IdenticalTree(
          core::GeneratePrelimOs(d.db, annotated, backend, tds, 0), complete))
          << "tds " << tds;
      EXPECT_TRUE(IdenticalTree(
          core::GeneratePrelimOs(d.db, unannotated, backend, tds, 0),
          complete))
          << "tds " << tds;
    }
  }
}

TEST(PrelimToggles, AllVariantsContainTopL) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  gds::Gds gds = datasets::DblpAuthorGds(d);
  core::DataGraphBackend& backend = f.backend;
  const size_t l = 8;
  core::OsTree complete = core::GenerateCompleteOs(d.db, gds, &backend, 0);
  std::vector<double> top;
  for (const core::OsNode& n : complete.nodes()) {
    top.push_back(n.local_importance);
  }
  std::sort(top.begin(), top.end(), std::greater<>());
  top.resize(std::min(top.size(), l));

  for (bool ac1 : {true, false}) {
    for (bool ac2 : {true, false}) {
      core::OsGenOptions options;
      options.prelim_use_ac1 = ac1;
      options.prelim_use_ac2 = ac2;
      core::OsTree prelim =
          core::GeneratePrelimOs(d.db, gds, &backend, 0, l, options);
      std::vector<double> got;
      for (const core::OsNode& n : prelim.nodes()) {
        got.push_back(n.local_importance);
      }
      std::sort(got.begin(), got.end(), std::greater<>());
      ASSERT_GE(got.size(), top.size());
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_GE(got[i], top[i] - 1e-9) << "ac1=" << ac1 << " ac2=" << ac2;
      }
    }
  }
}

// ---------------------------------------------------- backend accounting

TEST(BackendAccounting, DatabaseBackendLatencyIsSimulated) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  gds::Gds gds = datasets::DblpAuthorGds(d);
  core::DatabaseBackend slow(d.db, d.links, /*per_select_micros=*/200.0);
  core::DatabaseBackend fast(d.db, d.links, /*per_select_micros=*/0.0);
  util::WallTimer timer;
  core::GenerateCompleteOs(d.db, gds, &slow, 5);
  double slow_ms = timer.ElapsedMillis();
  timer.Reset();
  core::GenerateCompleteOs(d.db, gds, &fast, 5);
  double fast_ms = timer.ElapsedMillis();
  EXPECT_GT(slow_ms, fast_ms * 3);
}

TEST(BackendAccounting, StatsResetWorks) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  gds::Gds gds = datasets::DblpAuthorGds(d);
  core::DataGraphBackend& backend = f.backend;
  core::GenerateCompleteOs(d.db, gds, &backend, 0);
  EXPECT_GT(backend.stats().select_calls, 0u);
  backend.ResetStats();
  EXPECT_EQ(backend.stats().select_calls, 0u);
}

TEST(BackendAccounting, FetchTopCountsEmptyResults) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  core::DataGraphBackend& backend = f.backend;
  std::vector<rel::TupleId> out;
  backend.ResetStats();
  // Threshold above any importance: empty result, still one SELECT
  // (the Section 5.3 caveat).
  backend.FetchTop(d.link_writes, rel::FkDirection::kForward, 0, 10, 1e18,
                   &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(backend.stats().select_calls, 1u);
}

// ----------------------------------------------------- automatic G_DS, TPC-H

TEST(AutoGdsTpch, CustomerTreealizationFindsCoreRelations) {
  ScoredTpch f(SmallTpchConfig());
  datasets::Tpch& t = f.t;
  gds::GdsAutoOptions options;
  options.theta = 0.55;
  options.max_depth = 4;
  gds::Gds gds =
      gds::BuildGdsAuto(t.db, t.links, t.customer, "Customer", options);
  std::set<std::string> relations;
  for (size_t i = 0; i < gds.size(); ++i) {
    relations.insert(
        t.db.relation(gds.node(static_cast<gds::GdsNodeId>(i)).relation)
            .name());
  }
  // The Figure 12 backbone must be discovered automatically.
  EXPECT_TRUE(relations.count("Customer"));
  EXPECT_TRUE(relations.count("Nation"));
  EXPECT_TRUE(relations.count("Order"));
  EXPECT_TRUE(relations.count("Lineitem"));
}

TEST(AutoGdsTpch, GeneratesUsableOss) {
  ScoredTpch f(SmallTpchConfig());
  datasets::Tpch& t = f.t;
  gds::GdsAutoOptions options;
  options.theta = 0.6;
  gds::Gds gds =
      gds::BuildGdsAuto(t.db, t.links, t.customer, "Customer", options);
  gds.AnnotateStatistics(t.db);
  core::OsTree os = core::GenerateCompleteOs(t.db, gds, &f.backend, 3);
  EXPECT_GT(os.size(), 3u);
  core::Selection s = core::SizeLDp(os, 5);
  EXPECT_TRUE(core::IsValidSelection(os, s, 5));
}

// ----------------------------------------------------------- rendering

TEST(Rendering, SelectionRenderListsOnlySelected) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  gds::Gds gds = datasets::DblpAuthorGds(d);
  core::DataGraphBackend& backend = f.backend;
  core::OsTree os = core::GenerateCompleteOs(d.db, gds, &backend, 0);
  core::Selection sel = core::SizeLDp(os, 6);
  std::string text = os.Render(d.db, gds, &sel.nodes);
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            6u);
  std::string full = os.Render(d.db, gds);
  EXPECT_EQ(static_cast<size_t>(std::count(full.begin(), full.end(), '\n')),
            os.size());
}

TEST(Rendering, DepthShownAsDots) {
  ScoredDblp f(SmallDblpConfig());
  datasets::Dblp& d = f.d;
  gds::Gds gds = datasets::DblpAuthorGds(d);
  core::DataGraphBackend& backend = f.backend;
  core::OsTree os = core::GenerateCompleteOs(d.db, gds, &backend, 3);
  std::string text = os.Render(d.db, gds);
  EXPECT_EQ(text.rfind("Author:", 0), 0u);          // root: no dots
  EXPECT_NE(text.find("\n..Paper:"), std::string::npos);  // depth 1
}

// ------------------------------------------------------------- role names

TEST(RoleNames, DirectSelfFkDisambiguates) {
  rel::Database db;
  rel::Schema schema({{"name", rel::ValueType::kString, true},
                      {"boss", rel::ValueType::kInt, false}});
  rel::RelationId employee = db.AddRelation("Employee", schema);
  db.AddForeignKey("manages", employee, 1, employee);
  db.relation(employee).Append({rel::Value{std::string("ceo")},
                                rel::Value{}});
  db.relation(employee).Append({rel::Value{std::string("dev")},
                                rel::Value{int64_t{0}}});
  db.BuildIndexes();
  graph::LinkSchema links = graph::LinkSchema::Build(db);
  const graph::LinkType& lt = links.link(links.GetLink("manages"));
  EXPECT_EQ(graph::RoleName(lt, rel::FkDirection::kForward),
            "manages_children");
  EXPECT_EQ(graph::RoleName(lt, rel::FkDirection::kBackward),
            "manages_parent");
  // And the data graph handles the self edge.
  graph::DataGraph g = graph::DataGraph::Build(db, links);
  auto reports = g.Neighbors(g.node(employee, 0), lt.id,
                             rel::FkDirection::kForward);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(g.TupleOf(reports[0]), 1u);
}

// ------------------------------------------------------ evaluator configs

TEST(EvaluatorConfigs, TpchPanelDeterministicAndDistinct) {
  ScoredTpch f(SmallTpchConfig());
  datasets::Tpch& t = f.t;
  gds::Gds gds = datasets::TpchCustomerGds(t);
  core::DataGraphBackend& backend = f.backend;
  // Largest OS among the first customers: the panel needs enough nodes for
  // distinct size-10 picks regardless of the fixture's cardinalities.
  core::OsTree os;
  for (rel::TupleId c = 0; c < 20; ++c) {
    core::OsTree candidate = core::GenerateCompleteOs(t.db, gds, &backend, c);
    if (candidate.size() > os.size()) os = std::move(candidate);
  }
  ASSERT_GT(os.size(), 20u);
  eval::EvaluatorPanel panel(eval::TpchEvaluatorConfig(4));
  std::vector<double> ref = eval::NodeScores(os);
  auto a0 = panel.IdealSizeL(os, gds, ref, 0, 10);
  auto a0_again = panel.IdealSizeL(os, gds, ref, 0, 10);
  auto a1 = panel.IdealSizeL(os, gds, ref, 1, 10);
  EXPECT_EQ(a0.nodes, a0_again.nodes);
  EXPECT_TRUE(core::IsValidSelection(os, a1, 10));
}

// --------------------------------------------------------------- misc core

TEST(MiscCore, StarTreeSelectsTopChildren) {
  // Root with 50 children of increasing weight: size-l must take the
  // heaviest l-1 children.
  core::OsTree os;
  os.AddRoot(0, 0, 0, 1.0);
  for (int i = 1; i <= 50; ++i) {
    os.AddChild(core::kOsRoot, 0, 0, static_cast<rel::TupleId>(i),
                static_cast<double>(i));
  }
  for (auto algo : {core::SizeLAlgorithm::kDp, core::SizeLAlgorithm::kBottomUp,
                    core::SizeLAlgorithm::kTopPath}) {
    core::Selection s = core::RunSizeL(algo, os, 6);
    EXPECT_DOUBLE_EQ(s.importance, 1.0 + 50 + 49 + 48 + 47 + 46)
        << core::AlgorithmName(algo);
  }
}

TEST(MiscCore, EqualWeightsAreDeterministic) {
  core::OsTree os;
  os.AddRoot(0, 0, 0, 5.0);
  for (int i = 1; i <= 10; ++i) {
    os.AddChild(core::kOsRoot, 0, 0, static_cast<rel::TupleId>(i), 5.0);
  }
  core::Selection a = core::SizeLBottomUp(os, 4);
  core::Selection b = core::SizeLBottomUp(os, 4);
  EXPECT_EQ(a.nodes, b.nodes);
  core::Selection c = core::SizeLTopPath(os, 4);
  core::Selection d = core::SizeLTopPathMemo(os, 4);
  EXPECT_EQ(c.nodes, d.nodes);
}

TEST(MiscCore, SearchEngineOnTpch) {
  ScoredTpch f(SmallTpchConfig());
  datasets::Tpch& t = f.t;
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
  subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
  search::SearchContext ctx =
      search::SearchContext::Build(t.db, &f.backend, std::move(subjects));
  api::QueryResponse response = ctx.Execute(api::QueryRequest("customer#42"));
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  const api::ResultList& results = response.result_list();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].subject.relation, t.customer);
  EXPECT_EQ(results[0].subject.tuple, 42u);
}

}  // namespace
}  // namespace osum
