// core::JoinCache: the join tier SearchContext puts in front of a back end
// that pays per statement. The per-key differential walks every join the
// complete OSs of every DBLP author and paper and every TPC-H customer and
// supplier ask for, and checks the tier's Fetch and FetchTop answers on a
// first sighting (passed through), a second (admitted) and later ones
// (cached) against the uncached database back end, including cutoffs tied
// with a listed tuple's importance. The context differential checks whole
// query answers against the data graph; the concurrency test runs in the
// TSan lane; the contract test pins where FetchTop needs sorted indexes
// and the budget test pins oldest-first eviction.
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/codec.h"
#include "core/join_cache.h"
#include "core/os_generator.h"
#include "db_fixtures.h"
#include "search/search_context.h"

namespace osum::core {
namespace {

using api::DeterministicResultText;
using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;
using search::SearchContext;
using Subjects = std::vector<SearchContext::Subject>;

/// One join a G_DS asks for: (link, direction, parent tuple).
using Join = std::tuple<graph::LinkTypeId, rel::FkDirection, rel::TupleId>;

/// Every join the complete OSs of every tuple of each subject relation
/// issue, in a fixed order.
std::vector<Join> ReachableJoins(const rel::Database& db, OsBackend* backend,
                                 const Subjects& subjects) {
  std::set<Join> joins;
  for (const SearchContext::Subject& s : subjects) {
    for (rel::TupleId tds = 0; tds < db.relation(s.relation).num_tuples();
         ++tds) {
      OsTree os = GenerateCompleteOs(db, s.gds, backend, tds);
      for (const OsNode& n : os.nodes()) {
        for (gds::GdsNodeId child : s.gds.node(n.gds_node).children) {
          const gds::GdsNode& spec = s.gds.node(child);
          joins.emplace(spec.via_link, spec.via_dir, n.tuple);
        }
      }
    }
  }
  return {joins.begin(), joins.end()};
}

const rel::Relation& TargetOf(const rel::Database& db,
                              const graph::LinkSchema& links,
                              const Join& join) {
  const graph::LinkType& lt = links.link(std::get<0>(join));
  return db.relation(std::get<1>(join) == rel::FkDirection::kForward ? lt.b
                                                                     : lt.a);
}

Subjects DblpSubjects(const datasets::Dblp& d) {
  Subjects subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return subjects;
}

Subjects TpchSubjects(const datasets::Tpch& t) {
  Subjects subjects;
  subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
  subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
  return subjects;
}

// ------------------------------------------------------ per-key differential

/// For every join: the tier's Fetch equals the uncached Fetch on the
/// join's first sighting (passed through), its second (admitted) and its
/// third (a hit), and its FetchTop equals the uncached FetchTop at limits
/// 1, 5 and 50 with no cutoff and with the cutoff at each listed tuple's
/// own importance (a tie, which FetchTop excludes). FetchTop is asked of a
/// tier that holds the join and of a fresh one, whose first two of these
/// calls pass through and admit.
void ExpectTierMatchesUncached(const rel::Database& db,
                               const graph::LinkSchema& links,
                               const std::vector<Join>& joins) {
  DatabaseBackend uncached(db, links, /*per_select_micros=*/0.0);
  DatabaseBackend inner(db, links, /*per_select_micros=*/0.0);
  DatabaseBackend top_inner(db, links, /*per_select_micros=*/0.0);
  JoinCache warm(&inner);
  uint64_t calls = 0;
  std::vector<rel::TupleId> want, got;
  for (const Join& join : joins) {
    const auto& [link, dir, parent] = join;
    const bool forward = dir == rel::FkDirection::kForward;
    SCOPED_TRACE(links.link(link).name + (forward ? " forward" : " backward") +
                 " parent " + std::to_string(parent));
    uncached.Fetch(link, dir, parent, &want);
    for (const char* state : {"passed through", "admitted", "cached"}) {
      warm.Fetch(link, dir, parent, &got);
      ++calls;
      ASSERT_EQ(got, want) << "Fetch, " << state;
    }

    const rel::Relation& target = TargetOf(db, links, join);
    std::vector<double> cutoffs = {-1.0};
    for (rel::TupleId t : want) cutoffs.push_back(target.importance(t));
    std::vector<rel::TupleId> want_top;
    JoinCache fresh(&top_inner);
    for (double min_importance : cutoffs) {
      for (size_t limit : {1u, 5u, 50u}) {
        uncached.FetchTop(link, dir, parent, limit, min_importance,
                          &want_top);
        fresh.FetchTop(link, dir, parent, limit, min_importance, &got);
        ASSERT_EQ(got, want_top)
            << "FetchTop fresh, limit " << limit << " min " << min_importance;
        warm.FetchTop(link, dir, parent, limit, min_importance, &got);
        ++calls;
        ASSERT_EQ(got, want_top)
            << "FetchTop warm, limit " << limit << " min " << min_importance;
      }
    }
    JoinCacheMetrics f = fresh.metrics();
    ASSERT_EQ(f.misses, 2u);
    ASSERT_EQ(f.admitted, 1u);
    ASSERT_EQ(f.entries, 1u);
  }
  // Two statements per distinct join, one passed through and one kept;
  // every later call was a hit.
  JoinCacheMetrics m = warm.metrics();
  EXPECT_EQ(m.misses, 2 * joins.size());
  EXPECT_EQ(m.admitted, joins.size());
  EXPECT_EQ(m.hits, calls - 2 * joins.size());
  EXPECT_EQ(inner.stats().select_calls, m.misses);
  EXPECT_EQ(m.entries, joins.size());
  EXPECT_EQ(m.evictions, 0u);
  EXPECT_EQ(m.discarded_inserts, 0u);
  // The tier issues no statements of its own.
  EXPECT_EQ(warm.stats().select_calls, 0u);
}

TEST(JoinCacheDifferential, EveryReachableDblpJoinMatchesUncached) {
  ScoredDblp f(SmallDblpConfig());
  std::vector<Join> joins =
      ReachableJoins(f.d.db, &f.backend, DblpSubjects(f.d));
  ASSERT_GT(joins.size(), 100u);
  ExpectTierMatchesUncached(f.d.db, f.d.links, joins);
}

TEST(JoinCacheDifferential, EveryReachableTpchJoinMatchesUncached) {
  ScoredTpch f(SmallTpchConfig());
  std::vector<Join> joins =
      ReachableJoins(f.t.db, &f.backend, TpchSubjects(f.t));
  ASSERT_GT(joins.size(), 100u);
  ExpectTierMatchesUncached(f.t.db, f.t.links, joins);
}

// -------------------------------------------------- context differential

/// A tiered database context answers every subject's name query like the
/// data-graph context, at every l and with prelim on and off, twice over
/// (the second pass is answered from a full tier). The memo is off so
/// every query generates its OSs through the tier.
void ExpectTieredContextMatchesDataGraph(
    const rel::Database& db, const graph::LinkSchema& links,
    DataGraphBackend* graph_backend,
    const Subjects& subjects) {
  DatabaseBackend database(db, links, /*per_select_micros=*/0.0);
  ASSERT_TRUE(database.per_statement());
  ASSERT_FALSE(graph_backend->per_statement());
  SearchContext tiered = SearchContext::Build(db, &database, subjects);
  SearchContext reference = SearchContext::Build(db, graph_backend, subjects);
  tiered.partials_memo().SetEnabled(false);
  reference.partials_memo().SetEnabled(false);

  size_t queries = 0, answered = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const SearchContext::Subject& s : subjects) {
      const rel::Relation& relation = db.relation(s.relation);
      for (rel::TupleId t = 0; t < relation.num_tuples(); ++t) {
        const std::string& name = relation.StringValue(t, 0);
        for (size_t l : {0u, 5u, 10u, 30u}) {
          for (bool prelim : {true, false}) {
            api::QueryOptions options;
            options.l = l;
            options.use_prelim = prelim;
            api::ResultList got = tiered.Query(name, options);
            ASSERT_EQ(DeterministicResultText(got),
                      DeterministicResultText(reference.Query(name, options)))
                << "pass " << pass << ", '" << name << "', l " << l
                << (prelim ? ", prelim" : ", complete");
            ++queries;
            answered += got.empty() ? 0 : 1;
          }
        }
      }
    }
  }
  // A subject's own name finds it.
  EXPECT_EQ(answered, queries);
  JoinCacheMetrics joins = tiered.join_cache_metrics();
  EXPECT_GT(joins.hits, joins.misses);
  EXPECT_EQ(joins.misses, database.stats().select_calls);
  EXPECT_EQ(joins.entries, joins.admitted);
  EXPECT_EQ(reference.join_cache_metrics().misses, 0u);
}

TEST(JoinCacheContext, TieredDatabaseMatchesDataGraphOnDblp) {
  ScoredDblp f(SmallDblpConfig());
  ExpectTieredContextMatchesDataGraph(f.d.db, f.d.links, &f.backend,
                                      DblpSubjects(f.d));
}

TEST(JoinCacheContext, TieredDatabaseMatchesDataGraphOnTpch) {
  ScoredTpch f(SmallTpchConfig());
  ExpectTieredContextMatchesDataGraph(f.t.db, f.t.links, &f.backend,
                                      TpchSubjects(f.t));
}

// ------------------------------------------------------------ concurrency

// Four threads walk the same joins from different starting points, so they
// miss on overlapping keys at once. Every answer equals the uncached one,
// and every miss, passed through, admitted or discarded, issued exactly
// one inner statement.
TEST(JoinCacheConcurrency, OverlappingThreadsAgreeAndCountEveryStatement) {
  ScoredDblp f(SmallDblpConfig());
  std::vector<Join> joins =
      ReachableJoins(f.d.db, &f.backend, DblpSubjects(f.d));
  DatabaseBackend uncached(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  std::vector<std::vector<rel::TupleId>> want(joins.size()),
      want_top(joins.size());
  for (size_t i = 0; i < joins.size(); ++i) {
    const auto& [link, dir, parent] = joins[i];
    uncached.Fetch(link, dir, parent, &want[i]);
    uncached.FetchTop(link, dir, parent, 5, 0.0, &want_top[i]);
  }

  DatabaseBackend inner(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  JoinCache tier(&inner);
  constexpr size_t kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      std::vector<rel::TupleId> got;
      for (int round = 0; round < 2; ++round) {
        for (size_t k = 0; k < joins.size(); ++k) {
          // Thread `id` starts a quarter further in, and odd threads ask
          // for the TOP-5 first, so misses on one key race both calls.
          size_t i = (k + id * joins.size() / kThreads) % joins.size();
          const auto& [link, dir, parent] = joins[i];
          for (int call = 0; call < 2; ++call) {
            if ((call + id) % 2 == 0) {
              tier.Fetch(link, dir, parent, &got);
              if (got != want[i]) ++mismatches;
            } else {
              tier.FetchTop(link, dir, parent, 5, 0.0, &got);
              if (got != want_top[i]) ++mismatches;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  JoinCacheMetrics m = tier.metrics();
  EXPECT_EQ(inner.stats().select_calls, m.misses);
  EXPECT_EQ(m.admitted, m.entries + m.discarded_inserts);
  EXPECT_GT(m.hits, 0u);
  EXPECT_EQ(m.hits + m.misses, kThreads * 2 * 2 * joins.size());

  // Threads may overwrite each other's doorkeeper slots, which only delays
  // an admission: two sightings in a row keep every join.
  std::vector<rel::TupleId> got;
  for (size_t i = 0; i < joins.size(); ++i) {
    const auto& [link, dir, parent] = joins[i];
    for (int call = 0; call < 2; ++call) {
      tier.Fetch(link, dir, parent, &got);
      EXPECT_EQ(got, want[i]);
    }
  }
  m = tier.metrics();
  EXPECT_EQ(m.entries, joins.size());
  EXPECT_EQ(inner.stats().select_calls, m.misses);
}

// --------------------------------------------------------- sorted indexes

// Without Database::SortIndexesByImportance a forward-FK list is in
// insertion order, so its prefix is not the TOP-l: the tier refuses
// FetchTop on such a join like the uncached back end does, instead of
// answering wrong. Backward and junction joins order by importance
// themselves, so both answer on unsorted indexes, passed through, admitted
// and cached alike.
TEST(JoinCacheContract, FetchTopRequiresSortedIndexes) {
  // Author 0 writes papers 0, 1 and 3 with importance 5, 9 and 7 and
  // reviews the same three.
  rel::Database db;
  rel::RelationId author = db.AddRelation(
      "Author", rel::Schema({{"name", rel::ValueType::kString, true}}));
  rel::RelationId paper = db.AddRelation(
      "Paper", rel::Schema({{"title", rel::ValueType::kString, true},
                            {"author_id", rel::ValueType::kInt, false}}));
  rel::RelationId reviews = db.AddRelation(
      "Reviews",
      rel::Schema({{"author_id", rel::ValueType::kInt, false},
                   {"paper_id", rel::ValueType::kInt, false}}),
      /*is_junction=*/true);
  db.AddForeignKey("paper_author", paper, 1, author);
  db.AddForeignKey("reviews_author", reviews, 0, author);
  db.AddForeignKey("reviews_paper", reviews, 1, paper);
  db.relation(author).Append({rel::Value{std::string("Ann")}});
  db.relation(author).Append({rel::Value{std::string("Bob")}});
  for (int64_t writer : {0, 0, 1, 0}) {
    db.relation(paper).Append({rel::Value{std::string("P")},
                               rel::Value{writer}});
  }
  for (int64_t reviewed : {0, 1, 3}) {
    db.relation(reviews).Append({rel::Value{int64_t{0}},
                                 rel::Value{reviewed}});
  }
  db.BuildIndexes();
  db.relation(author).SetImportance({1.0, 1.0});
  db.relation(paper).SetImportance({5.0, 9.0, 3.0, 7.0});
  db.relation(reviews).SetImportance({1.0, 1.0, 1.0});
  graph::LinkSchema links = graph::LinkSchema::Build(db);
  ASSERT_EQ(links.num_links(), 2u);
  graph::LinkTypeId writes = 0, reviewed_by = 0;
  for (graph::LinkTypeId id = 0; id < links.num_links(); ++id) {
    (links.link(id).via_junction ? reviewed_by : writes) = id;
  }
  ASSERT_NE(writes, reviewed_by);

  DatabaseBackend inner(db, links, /*per_select_micros=*/0.0);
  JoinCache tier(&inner);
  std::vector<rel::TupleId> out;
  for (int call = 0; call < 3; ++call) {
    EXPECT_THROW(
        tier.FetchTop(writes, rel::FkDirection::kForward, 0, 1, 0.0, &out),
        std::logic_error);
    EXPECT_THROW(
        inner.FetchTop(writes, rel::FkDirection::kForward, 0, 1, 0.0, &out),
        std::logic_error);
  }
  for (int call = 0; call < 3; ++call) {
    tier.FetchTop(reviewed_by, rel::FkDirection::kForward, 0, 2, 0.0, &out);
    EXPECT_EQ(out, (std::vector<rel::TupleId>{1u, 3u})) << "call " << call;
    tier.FetchTop(writes, rel::FkDirection::kBackward, 1, 1, 0.0, &out);
    EXPECT_EQ(out, std::vector<rel::TupleId>{0u}) << "call " << call;
  }
  JoinCacheMetrics m = tier.metrics();
  EXPECT_EQ(m.hits, 2u);
  EXPECT_EQ(m.admitted, 2u);

  db.SortIndexesByImportance();
  tier.FetchTop(writes, rel::FkDirection::kForward, 0, 1, 0.0, &out);
  EXPECT_EQ(out, std::vector<rel::TupleId>{1u});
}

// ----------------------------------------------------------------- budget

// Under a byte budget that holds two lists, inserting a third evicts the
// oldest, a hit makes an entry the newest, and one list larger than the
// whole budget still stays (the newest entry is never evicted). Answers
// never change; only the statement count does.
TEST(JoinCacheBudget, TinyByteBudgetEvictsOldestFirstAndNeverTheNewest) {
  ScoredDblp f(SmallDblpConfig());
  std::vector<Join> joins =
      ReachableJoins(f.d.db, &f.backend, DblpSubjects(f.d));
  // Four joins that return one tuple each, so every entry costs the same.
  std::vector<Join> same_size;
  DatabaseBackend uncached(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  std::vector<rel::TupleId> list;
  for (const Join& join : joins) {
    const auto& [link, dir, parent] = join;
    uncached.Fetch(link, dir, parent, &list);
    if (list.size() != 1) continue;
    same_size.push_back(join);
    if (same_size.size() == 4) break;
  }
  ASSERT_EQ(same_size.size(), 4u);

  // Measure one entry's charge on an unbounded tier. A join is kept on
  // its second sighting.
  DatabaseBackend probe_inner(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  JoinCache probe(&probe_inner);
  for (int call = 0; call < 2; ++call) {
    const auto& [link, dir, parent] = same_size[0];
    probe.Fetch(link, dir, parent, &list);
  }
  const uint64_t charge = probe.metrics().approx_bytes;
  ASSERT_GT(charge, 0u);

  DatabaseBackend inner(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  JoinCache tier(&inner, 2 * charge);
  auto fetch = [&](size_t i) {
    const auto& [link, dir, parent] = same_size[i];
    std::vector<rel::TupleId> want, got;
    uncached.Fetch(link, dir, parent, &want);
    tier.Fetch(link, dir, parent, &got);
    EXPECT_EQ(got, want) << "join " << i;
  };
  auto admit = [&](size_t i) {
    fetch(i);
    fetch(i);
  };
  auto misses = [&] { return tier.metrics().misses; };

  admit(0);
  admit(1);
  admit(2);  // evicts 0, the oldest
  EXPECT_EQ(tier.metrics().evictions, 1u);
  EXPECT_EQ(tier.metrics().entries, 2u);
  EXPECT_EQ(tier.metrics().approx_bytes, 2 * charge);
  fetch(1);  // a hit: 1 becomes the newest, 2 the oldest
  EXPECT_EQ(misses(), 6u);
  admit(3);  // evicts 2
  fetch(1);  // still held
  EXPECT_EQ(misses(), 8u);
  fetch(2);  // was evicted: a miss, and a first sighting again
  EXPECT_EQ(misses(), 9u);
  EXPECT_EQ(tier.metrics().admitted, 4u);
  EXPECT_EQ(inner.stats().select_calls, misses());

  // A budget below one entry's charge keeps exactly the newest.
  DatabaseBackend tiny_inner(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  JoinCache tiny(&tiny_inner, 1);
  for (size_t i = 0; i < 2; ++i) {
    const auto& [link, dir, parent] = same_size[i];
    for (int call = 0; call < 3; ++call) tiny.Fetch(link, dir, parent, &list);
  }
  JoinCacheMetrics m = tiny.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(m.hits, 2u);
  EXPECT_EQ(m.misses, 4u);
}

}  // namespace
}  // namespace osum::core
