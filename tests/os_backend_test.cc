// The join back ends' contracts, pinned on the small DBLP and TPC-H
// fixtures: FetchTop is the importance-ordered Fetch list filtered to
// Im > min_importance and cut to `limit`, both back ends return the same
// Fetch lists, and OS generation books an exact, fixed I/O ledger on each
// back end (the counters perfbench reports per query).
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "core/os_generator.h"
#include "db_fixtures.h"

namespace osum::core {
namespace {

using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

// ------------------------------------------------------- FetchTop contract

/// One join a G_DS asks for: (link, direction, parent tuple).
using Join = std::tuple<graph::LinkTypeId, rel::FkDirection, rel::TupleId>;

/// Every join the complete OSs of `subjects` issue.
std::set<Join> ReachableJoins(const rel::Database& db, const gds::Gds& gds,
                              OsBackend* backend,
                              const std::vector<rel::TupleId>& subjects) {
  std::set<Join> joins;
  for (rel::TupleId tds : subjects) {
    OsTree os = GenerateCompleteOs(db, gds, backend, tds);
    for (const OsNode& n : os.nodes()) {
      for (gds::GdsNodeId child : gds.node(n.gds_node).children) {
        const gds::GdsNode& spec = gds.node(child);
        joins.emplace(spec.via_link, spec.via_dir, n.tuple);
      }
    }
  }
  return joins;
}

/// Which of the four join shapes a test walked.
struct ShapesSeen {
  size_t forward_fk = 0;
  size_t backward_fk = 0;
  size_t junction_forward = 0;
  size_t junction_backward = 0;
};

/// Checks every join on both back ends, for limits 0..large and for
/// thresholds below, at (ties) and above every importance in the list.
void ExpectFetchTopIsFetchPrefix(const rel::Database& db,
                                 const graph::LinkSchema& links,
                                 DataGraphBackend* graph_backend,
                                 const std::set<Join>& joins,
                                 ShapesSeen* seen) {
  DatabaseBackend db_backend(db, links, /*per_select_micros=*/0.0);
  std::vector<rel::TupleId> from_graph, from_db, top_graph, top_db;
  for (const auto& [link, dir, parent] : joins) {
    const graph::LinkType& lt = links.link(link);
    bool forward = dir == rel::FkDirection::kForward;
    if (lt.via_junction) {
      ++(forward ? seen->junction_forward : seen->junction_backward);
    } else {
      ++(forward ? seen->forward_fk : seen->backward_fk);
    }
    const rel::Relation& target = db.relation(forward ? lt.b : lt.a);
    SCOPED_TRACE(lt.name + (forward ? " forward" : " backward") +
                 " parent " + std::to_string(parent));

    graph_backend->Fetch(link, dir, parent, &from_graph);
    db_backend.Fetch(link, dir, parent, &from_db);
    ASSERT_EQ(from_graph, from_db);

    std::vector<double> thresholds = {-1.0, 0.0, 1e18};
    for (rel::TupleId t : from_db) {
      double im = target.importance(t);
      thresholds.push_back(im);           // ties: Im == min is excluded
      thresholds.push_back(im * 0.999);   // just below
    }
    for (double min_importance : thresholds) {
      for (size_t limit : {0u, 1u, 2u, 3u, 10u, 1000u}) {
        std::vector<rel::TupleId> want;
        for (rel::TupleId t : from_db) {
          if (want.size() < limit && target.importance(t) > min_importance) {
            want.push_back(t);
          }
        }
        graph_backend->FetchTop(link, dir, parent, limit, min_importance,
                                &top_graph);
        db_backend.FetchTop(link, dir, parent, limit, min_importance,
                            &top_db);
        ASSERT_EQ(top_graph, want)
            << "data graph, limit " << limit << " min " << min_importance;
        ASSERT_EQ(top_db, want)
            << "database, limit " << limit << " min " << min_importance;
      }
    }
  }
}

TEST(FetchTopContract, PrefixOfFetchOnDblpAndTpch) {
  ShapesSeen seen;
  {
    ScoredDblp f(SmallDblpConfig());
    gds::Gds author = datasets::DblpAuthorGds(f.d);
    gds::Gds paper = datasets::DblpPaperGds(f.d);
    std::set<Join> joins =
        ReachableJoins(f.d.db, author, &f.backend, {0u, 4u, 17u});
    joins.merge(ReachableJoins(f.d.db, paper, &f.backend, {0u, 9u}));
    ExpectFetchTopIsFetchPrefix(f.d.db, f.d.links, &f.backend, joins, &seen);
  }
  {
    ScoredTpch f(SmallTpchConfig());
    gds::Gds customer = datasets::TpchCustomerGds(f.t);
    gds::Gds supplier = datasets::TpchSupplierGds(f.t);
    std::set<Join> joins =
        ReachableJoins(f.t.db, customer, &f.backend, {3u, 11u});
    joins.merge(ReachableJoins(f.t.db, supplier, &f.backend, {1u}));
    ExpectFetchTopIsFetchPrefix(f.t.db, f.t.links, &f.backend, joins, &seen);
  }
  // All four join shapes were walked.
  EXPECT_GT(seen.forward_fk, 0u);
  EXPECT_GT(seen.backward_fk, 0u);
  EXPECT_GT(seen.junction_forward, 0u);
  EXPECT_GT(seen.junction_backward, 0u);
}

// ----------------------------------------------------------- I/O ledger

/// The counters one generation run leaves behind: the OS size, the back
/// end's own ledger and the database's access-path ledger.
struct Ledger {
  size_t nodes = 0;
  util::IoStats backend;
  util::IoStats db;

  std::string ToString() const {
    std::ostringstream s;
    s << "{" << nodes << ", {" << backend.select_calls << ", "
      << backend.tuples_read << ", " << backend.index_probes << "}, {"
      << db.select_calls << ", " << db.tuples_read << ", " << db.index_probes
      << "}}";
    return s.str();
  }
};

/// Generates one OS (complete when l == 0, prelim-l otherwise) with
/// freshly reset counters and returns what it booked.
Ledger Generate(const rel::Database& db, const gds::Gds& gds,
                OsBackend* backend, rel::TupleId tds, size_t l) {
  backend->ResetStats();
  db.io_stats().Reset();
  OsTree os = l == 0 ? GenerateCompleteOs(db, gds, backend, tds)
                     : GeneratePrelimOs(db, gds, backend, tds, l);
  return Ledger{os.size(), backend->stats(), db.io_stats().Snapshot()};
}

/// Complete, prelim-3 and prelim-10 ledgers of each subject on the
/// data-graph back end then the database back end, one line per run.
std::vector<std::string> Ledgers(const rel::Database& db,
                                 const graph::LinkSchema& links,
                                 DataGraphBackend* graph_backend,
                                 const gds::Gds& gds,
                                 const std::vector<rel::TupleId>& subjects) {
  DatabaseBackend db_backend(db, links, /*per_select_micros=*/0.0);
  std::vector<std::string> lines;
  for (OsBackend* backend :
       std::initializer_list<OsBackend*>{graph_backend, &db_backend}) {
    for (rel::TupleId tds : subjects) {
      for (size_t l : {0u, 3u, 10u}) {
        lines.push_back(std::string(backend->name()) + " tds " +
                        std::to_string(tds) + " l " + std::to_string(l) +
                        " " + Generate(db, gds, backend, tds, l).ToString());
      }
    }
  }
  return lines;
}

// {nodes, {backend selects, tuples, probes}, {db selects, tuples, probes}}.
// The data graph never touches the database; the database back end books
// no index probes of its own, and its junction joins read every junction
// tuple from the database even when FetchTop returns fewer.
TEST(IoLedger, DblpAuthorCountsArePinned) {
  ScoredDblp f(SmallDblpConfig());
  gds::Gds gds = datasets::DblpAuthorGds(f.d);
  std::vector<std::string> want = {
      "data-graph tds 0 l 0 {992, {351, 1061, 351}, {0, 0, 0}}",
      "data-graph tds 0 l 3 {84, {43, 84, 43}, {0, 0, 0}}",
      "data-graph tds 0 l 10 {149, {163, 154, 163}, {0, 0, 0}}",
      "data-graph tds 4 l 0 {539, {141, 566, 141}, {0, 0, 0}}",
      "data-graph tds 4 l 3 {43, {22, 43, 22}, {0, 0, 0}}",
      "data-graph tds 4 l 10 {77, {82, 83, 82}, {0, 0, 0}}",
      "database tds 0 l 0 {992, {351, 1061, 0}, {351, 1061, 351}}",
      "database tds 0 l 3 {84, {43, 84, 0}, {43, 402, 43}}",
      "database tds 0 l 10 {149, {163, 154, 0}, {163, 692, 163}}",
      "database tds 4 l 0 {539, {141, 566, 0}, {141, 566, 141}}",
      "database tds 4 l 3 {43, {22, 43, 0}, {22, 225, 22}}",
      "database tds 4 l 10 {77, {82, 83, 0}, {82, 442, 82}}",
  };
  EXPECT_EQ(Ledgers(f.d.db, f.d.links, &f.backend, gds, {0u, 4u}), want);
}

TEST(IoLedger, TpchCustomerCountsArePinned) {
  ScoredTpch f(SmallTpchConfig());
  gds::Gds gds = datasets::TpchCustomerGds(f.t);
  std::vector<std::string> want = {
      "data-graph tds 3 l 0 {6, {5, 5, 5}, {0, 0, 0}}",
      "data-graph tds 3 l 3 {5, {5, 4, 5}, {0, 0, 0}}",
      "data-graph tds 3 l 10 {6, {5, 5, 5}, {0, 0, 0}}",
      "data-graph tds 11 l 0 {131, {76, 130, 76}, {0, 0, 0}}",
      "data-graph tds 11 l 3 {21, {3, 20, 3}, {0, 0, 0}}",
      "data-graph tds 11 l 10 {84, {76, 83, 76}, {0, 0, 0}}",
      "database tds 3 l 0 {6, {5, 5, 0}, {5, 5, 5}}",
      "database tds 3 l 3 {5, {5, 4, 0}, {5, 5, 5}}",
      "database tds 3 l 10 {6, {5, 5, 0}, {5, 5, 5}}",
      "database tds 11 l 0 {131, {76, 130, 0}, {76, 130, 76}}",
      "database tds 11 l 3 {21, {3, 20, 0}, {3, 20, 3}}",
      "database tds 11 l 10 {84, {76, 83, 0}, {76, 130, 76}}",
  };
  EXPECT_EQ(Ledgers(f.t.db, f.t.links, &f.backend, gds, {3u, 11u}), want);
}

// At theta 0.9 Order is a leaf reached through a forward FK, so Algorithm
// 4 serves it with a forward-FK FetchTop. That path books its SELECT but
// no tuples on the back end (they land in the database ledger only): the
// database back end's tuples_read falls below the data graph's.
TEST(IoLedger, ForwardFkFetchTopBooksNoBackendTuples) {
  ScoredTpch f(SmallTpchConfig());
  gds::Gds gds = datasets::TpchCustomerGds(f.t, /*theta=*/0.9);
  std::vector<std::string> want = {
      "data-graph tds 3 l 0 {4, {3, 3, 3}, {0, 0, 0}}",
      "data-graph tds 3 l 3 {4, {3, 3, 3}, {0, 0, 0}}",
      "data-graph tds 3 l 10 {4, {3, 3, 3}, {0, 0, 0}}",
      "data-graph tds 11 l 0 {21, {3, 20, 3}, {0, 0, 0}}",
      "data-graph tds 11 l 3 {6, {3, 5, 3}, {0, 0, 0}}",
      "data-graph tds 11 l 10 {13, {3, 12, 3}, {0, 0, 0}}",
      "database tds 3 l 0 {4, {3, 3, 0}, {3, 3, 3}}",
      "database tds 3 l 3 {4, {3, 2, 0}, {3, 3, 3}}",
      "database tds 3 l 10 {4, {3, 2, 0}, {3, 3, 3}}",
      "database tds 11 l 0 {21, {3, 20, 0}, {3, 20, 3}}",
      "database tds 11 l 3 {6, {3, 2, 0}, {3, 5, 3}}",
      "database tds 11 l 10 {13, {3, 2, 0}, {3, 12, 3}}",
  };
  EXPECT_EQ(Ledgers(f.t.db, f.t.links, &f.backend, gds, {3u, 11u}), want);
}

}  // namespace
}  // namespace osum::core
