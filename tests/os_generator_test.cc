// Tests for OS generation (Algorithm 5) and prelim-l generation
// (Algorithm 4): structure, back-end equivalence, the exclude-origin rule,
// depth caps, Definition 2 (top-l containment) and avoidance-condition
// accounting.
#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "core/os_generator.h"
#include "core/size_l.h"
#include "datasets/dblp.h"

namespace osum::core {
namespace {

using datasets::ApplyDblpScores;
using datasets::BuildDblp;
using datasets::Dblp;
using datasets::DblpAuthorGds;
using datasets::DblpConfig;

struct Pipeline {
  Dblp d;
  gds::Gds author_gds;

  explicit Pipeline(DblpConfig config = {}) : d(BuildDblp(config)) {
    ApplyDblpScores(&d, 1, 0.85);
    author_gds = DblpAuthorGds(d);
  }
};

DblpConfig TinyConfig() {
  DblpConfig c;
  c.num_authors = 80;
  c.num_papers = 300;
  c.num_conferences = 8;
  c.mean_citations_per_paper = 4.0;
  return c;
}

// Canonical structural signature of an OS: sorted (gds node, relation,
// tuple, parent tuple) quadruples — order-independent comparison of trees.
std::vector<std::tuple<int, uint32_t, uint32_t, int64_t>> Signature(
    const OsTree& os) {
  std::vector<std::tuple<int, uint32_t, uint32_t, int64_t>> sig;
  sig.reserve(os.size());
  for (const OsNode& n : os.nodes()) {
    int64_t parent_tuple =
        n.parent == kNoOsNode ? -1 : os.node(n.parent).tuple;
    sig.emplace_back(n.gds_node, n.relation, n.tuple, parent_tuple);
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

TEST(OsGeneration, CompleteOsStructure) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  OsTree os = GenerateCompleteOs(p.d.db, p.author_gds, &backend, 0);
  ASSERT_GT(os.size(), 1u);
  EXPECT_EQ(os.node(kOsRoot).relation, p.d.author);
  EXPECT_EQ(os.node(kOsRoot).tuple, 0u);
  // Max depth is bounded by the G_DS depth.
  EXPECT_LE(os.MaxDepth(), p.author_gds.MaxDepth());
  // Every node's G_DS spec matches its relation, and local importance is
  // global importance x affinity (Equation 3).
  for (const OsNode& n : os.nodes()) {
    const gds::GdsNode& spec = p.author_gds.node(n.gds_node);
    EXPECT_EQ(spec.relation, n.relation);
    EXPECT_DOUBLE_EQ(n.local_importance,
                     p.d.db.relation(n.relation).importance(n.tuple) *
                         spec.affinity);
  }
}

TEST(OsGeneration, CoAuthorsExcludeTheRootAuthor) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  OsTree os = GenerateCompleteOs(p.d.db, p.author_gds, &backend, 0);
  size_t coauthor_nodes = 0;
  for (const OsNode& n : os.nodes()) {
    if (p.author_gds.node(n.gds_node).label != "Co-Author") continue;
    ++coauthor_nodes;
    // The paper's Example 4: "Co-Author(s)" never lists the subject.
    EXPECT_FALSE(n.relation == p.d.author && n.tuple == 0u);
  }
  EXPECT_GT(coauthor_nodes, 0u);
}

TEST(OsGeneration, DepthCapLimitsTree) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  OsGenOptions options;
  options.max_depth = 1;
  OsTree os = GenerateCompleteOs(p.d.db, p.author_gds, &backend, 0, options);
  EXPECT_LE(os.MaxDepth(), 1);
  // Depth-1 OS = root + its papers only.
  for (const OsNode& n : os.nodes()) {
    if (n.parent == kNoOsNode) continue;
    EXPECT_EQ(p.author_gds.node(n.gds_node).label, "Paper");
  }
}

TEST(OsGeneration, MaxNodesSafetyValve) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  OsGenOptions options;
  options.max_nodes = 10;
  OsTree os = GenerateCompleteOs(p.d.db, p.author_gds, &backend, 0, options);
  // BFS stops expanding after the cap; one final batch may overshoot by
  // the fan-out of the last expanded node.
  EXPECT_LT(os.size(), 2000u);
  EXPECT_GE(os.size(), 10u);
}

TEST(OsGeneration, DatabaseBackendMatchesDataGraphBackend) {
  Pipeline p(TinyConfig());
  DataGraphBackend mem(p.d.db, p.d.links, p.d.data_graph);
  DatabaseBackend sql(p.d.db, p.d.links, /*per_select_micros=*/0.0);
  for (rel::TupleId tds : {0u, 1u, 5u, 17u}) {
    OsTree a = GenerateCompleteOs(p.d.db, p.author_gds, &mem, tds);
    OsTree b = GenerateCompleteOs(p.d.db, p.author_gds, &sql, tds);
    EXPECT_EQ(a.size(), b.size()) << "tds=" << tds;
    EXPECT_EQ(Signature(a), Signature(b)) << "tds=" << tds;
  }
}

TEST(OsGeneration, BackendIoAccounting) {
  Pipeline p(TinyConfig());
  DatabaseBackend sql(p.d.db, p.d.links, /*per_select_micros=*/0.0);
  sql.ResetStats();
  OsTree os = GenerateCompleteOs(p.d.db, p.author_gds, &sql, 0);
  // Algorithm 5 issues one SELECT per (node, G_DS child) pair of expanded
  // nodes; at minimum one per non-root node's producing join.
  EXPECT_GT(sql.stats().select_calls, 0u);
  EXPECT_GE(sql.stats().tuples_read + 1, os.size());
}

// ---------------------------------------------------------------- prelim-l

TEST(PrelimOs, ContainsTopLTuples) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  for (rel::TupleId tds : {0u, 1u, 2u, 9u}) {
    for (size_t l : {5u, 10u, 25u}) {
      OsTree complete =
          GenerateCompleteOs(p.d.db, p.author_gds, &backend, tds);
      OsTree prelim =
          GeneratePrelimOs(p.d.db, p.author_gds, &backend, tds, l);
      ASSERT_LE(prelim.size(), complete.size());

      // Definition 2: the prelim-l OS contains the l tuples with the
      // largest local importance. Compare score multisets.
      std::vector<double> all;
      for (const OsNode& n : complete.nodes()) {
        all.push_back(n.local_importance);
      }
      std::sort(all.begin(), all.end(), std::greater<>());
      if (all.size() > l) all.resize(l);

      std::vector<double> got;
      for (const OsNode& n : prelim.nodes()) {
        got.push_back(n.local_importance);
      }
      std::sort(got.begin(), got.end(), std::greater<>());
      ASSERT_GE(got.size(), all.size());
      for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_GE(got[i], all[i] - 1e-9)
            << "tds=" << tds << " l=" << l << " rank=" << i;
      }
    }
  }
}

TEST(PrelimOs, IsSubtreeOfComplete) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  OsTree complete = GenerateCompleteOs(p.d.db, p.author_gds, &backend, 0);
  OsTree prelim = GeneratePrelimOs(p.d.db, p.author_gds, &backend, 0, 10);
  auto complete_sig = Signature(complete);
  auto prelim_sig = Signature(prelim);
  // Every prelim entry appears in the complete OS.
  EXPECT_TRUE(std::includes(complete_sig.begin(), complete_sig.end(),
                            prelim_sig.begin(), prelim_sig.end()));
}

TEST(PrelimOs, AvoidanceConditionsFire) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  PrelimStats stats;
  GeneratePrelimOs(p.d.db, p.author_gds, &backend, 0, 5, {}, &stats);
  // With l=5 on a large OS the cutoff rises quickly: both conditions must
  // trigger on this dataset.
  EXPECT_GT(stats.ac1_subtree_skips, 0u);
  EXPECT_GT(stats.ac2_limited_fetches, 0u);
  EXPECT_GT(stats.full_fetches, 0u);
}

TEST(PrelimOs, CheaperThanCompleteOnDatabaseBackend) {
  Pipeline p(TinyConfig());
  DatabaseBackend sql(p.d.db, p.d.links, /*per_select_micros=*/0.0);
  sql.ResetStats();
  OsTree complete = GenerateCompleteOs(p.d.db, p.author_gds, &sql, 0);
  uint64_t complete_reads = sql.stats().tuples_read;
  sql.ResetStats();
  OsTree prelim = GeneratePrelimOs(p.d.db, p.author_gds, &sql, 0, 10);
  uint64_t prelim_reads = sql.stats().tuples_read;
  EXPECT_LT(prelim.size(), complete.size());
  EXPECT_LT(prelim_reads, complete_reads);
}

TEST(PrelimOs, DpOnPrelimCloseToOptimal) {
  // Not guaranteed by theory (Definition 2 containment is of the top-l
  // set, not the optimal size-l OS), but on this data the paper's
  // observation "in most cases the prelim-l OS did contain the optimal
  // solution" should hold on average.
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  double ratio_sum = 0.0;
  int count = 0;
  for (rel::TupleId tds = 0; tds < 8; ++tds) {
    size_t l = 10;
    OsTree complete =
        GenerateCompleteOs(p.d.db, p.author_gds, &backend, tds);
    OsTree prelim =
        GeneratePrelimOs(p.d.db, p.author_gds, &backend, tds, l);
    if (complete.size() <= l) continue;
    Selection opt = SizeLDp(complete, l);
    Selection pre = SizeLDp(prelim, l);
    ratio_sum += pre.importance / opt.importance;
    ++count;
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(ratio_sum / count, 0.95);
}

TEST(PrelimOs, RespectsDepthCap) {
  Pipeline p(TinyConfig());
  DataGraphBackend backend(p.d.db, p.d.links, p.d.data_graph);
  OsGenOptions options;
  options.max_depth = 2;
  OsTree prelim =
      GeneratePrelimOs(p.d.db, p.author_gds, &backend, 0, 10, options);
  EXPECT_LE(prelim.MaxDepth(), 2);
}

TEST(PrelimOs, BackendsAgreeOnPrelim) {
  Pipeline p(TinyConfig());
  DataGraphBackend mem(p.d.db, p.d.links, p.d.data_graph);
  DatabaseBackend sql(p.d.db, p.d.links, /*per_select_micros=*/0.0);
  for (size_t l : {5u, 20u}) {
    OsTree a = GeneratePrelimOs(p.d.db, p.author_gds, &mem, 1, l);
    OsTree b = GeneratePrelimOs(p.d.db, p.author_gds, &sql, 1, l);
    EXPECT_EQ(Signature(a), Signature(b)) << "l=" << l;
  }
}

// A G_DS built before the importance scores exists is never annotated: its
// max = mmax = 0 would make AC1 skip every child, so Algorithm 4 must
// refuse it rather than return a root-only OS.
TEST(PrelimOs, UnannotatedGdsThrows) {
  Dblp d = BuildDblp(TinyConfig());
  gds::Gds unannotated = DblpAuthorGds(d);
  ApplyDblpScores(&d, 1, 0.85);
  ASSERT_FALSE(unannotated.annotated());
  DataGraphBackend mem(d.db, d.links, d.data_graph);
  DatabaseBackend sql(d.db, d.links, /*per_select_micros=*/0.0);
  EXPECT_THROW(GeneratePrelimOs(d.db, unannotated, &mem, 0, 10),
               std::logic_error);
  EXPECT_THROW(GeneratePrelimOs(d.db, unannotated, &sql, 0, 10),
               std::logic_error);
  unannotated.AnnotateStatistics(d.db);
  EXPECT_GT(GeneratePrelimOs(d.db, unannotated, &mem, 0, 10).size(), 1u);
}

// FetchTop stops at the first neighbor at or below the threshold, which is
// only the TOP-l when the adjacency is importance-sorted.
TEST(DataGraphBackendTop, UnsortedNeighborsThrow) {
  Pipeline p(TinyConfig());
  graph::DataGraph unsorted = graph::DataGraph::Build(p.d.db, p.d.links);
  ASSERT_FALSE(unsorted.neighbors_sorted());
  DataGraphBackend backend(p.d.db, p.d.links, unsorted);
  std::vector<rel::TupleId> out;
  EXPECT_THROW(backend.FetchTop(p.d.link_writes, rel::FkDirection::kForward,
                                0, 3, 0.0, &out),
               std::logic_error);
  EXPECT_THROW(GeneratePrelimOs(p.d.db, p.author_gds, &backend, 0, 10),
               std::logic_error);
}

}  // namespace
}  // namespace osum::core
