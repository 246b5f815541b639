// core::PartialsMemo: the bounded memo of per-subject OS trees the search
// query path consults. Unit tests pin the LRU/byte budgets, the lost-race
// discard, and the disabled no-op mode; the integration tests
// pin the load-bearing claim — memo-on and memo-off query answers are
// byte-identical through DeterministicResultText, so the memo is
// observable only through its own counters. The l-sweep tests are the
// independent check on the tree keying: a complete OS is shared across
// every l with the same effective depth cap, and never across caps, and
// a prelim-l OS never reaches the memo at all.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/codec.h"
#include "core/partials_memo.h"
#include "db_fixtures.h"
#include "search/search_context.h"

namespace osum {
namespace {

using api::DeterministicResultText;
using core::PartialPtr;
using core::PartialsMemo;
using core::PartialsMemoMetrics;
using core::PartialSynopsis;
using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

PartialPtr MakePartial(size_t approx_bytes) {
  auto p = std::make_shared<PartialSynopsis>();
  p->approx_bytes = approx_bytes;
  return p;
}

// Built with += (not operator+) to sidestep a GCC 12 -Wrestrict false
// positive on short-string concatenation.
std::string NumberedKey(int i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

TEST(PartialsMemoTest, LookupReturnsTheInsertedValue) {
  PartialsMemo memo;
  EXPECT_EQ(memo.Lookup("k1"), nullptr);

  PartialPtr value = MakePartial(100);
  EXPECT_TRUE(memo.Insert("k1", value));
  EXPECT_EQ(memo.Lookup("k1"), value);

  PartialsMemoMetrics m = memo.metrics();
  EXPECT_EQ(m.hits, 1u);
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.inserts, 1u);
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.approx_bytes, 100u);
}

TEST(PartialsMemoTest, EntryBudgetEvictsLeastRecentlyUsed) {
  PartialsMemo memo(/*max_entries=*/3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(memo.Insert(NumberedKey(i), MakePartial(10)));
  }
  PartialsMemoMetrics m = memo.metrics();
  EXPECT_EQ(m.entries, 3u);
  EXPECT_EQ(m.evictions, 2u);
  EXPECT_EQ(m.approx_bytes, 30u);
  // The two oldest are gone; the three youngest survive.
  EXPECT_EQ(memo.Lookup("k0"), nullptr);
  EXPECT_EQ(memo.Lookup("k1"), nullptr);
  EXPECT_NE(memo.Lookup("k2"), nullptr);
  EXPECT_NE(memo.Lookup("k3"), nullptr);
  EXPECT_NE(memo.Lookup("k4"), nullptr);
}

TEST(PartialsMemoTest, LookupRefreshesLruPosition) {
  PartialsMemo memo(/*max_entries=*/2);
  ASSERT_TRUE(memo.Insert("old", MakePartial(10)));
  ASSERT_TRUE(memo.Insert("mid", MakePartial(10)));
  // Touch "old" so "mid" becomes the eviction victim.
  ASSERT_NE(memo.Lookup("old"), nullptr);
  ASSERT_TRUE(memo.Insert("new", MakePartial(10)));
  EXPECT_NE(memo.Lookup("old"), nullptr);
  EXPECT_EQ(memo.Lookup("mid"), nullptr);
  EXPECT_NE(memo.Lookup("new"), nullptr);
}

TEST(PartialsMemoTest, ByteBudgetEvictsButKeepsTheNewestEntry) {
  PartialsMemo memo(PartialsMemo::kMaxEntries, /*max_bytes=*/100);
  ASSERT_TRUE(memo.Insert("a", MakePartial(60)));
  ASSERT_TRUE(memo.Insert("b", MakePartial(60)));  // evicts "a"
  PartialsMemoMetrics m = memo.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(m.approx_bytes, 60u);
  EXPECT_EQ(memo.Lookup("a"), nullptr);

  // One oversized synopsis may exceed the whole budget, but the insert
  // must not be a self-defeating no-op: the newest entry always survives.
  ASSERT_TRUE(memo.Insert("huge", MakePartial(10'000)));
  m = memo.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_NE(memo.Lookup("huge"), nullptr);
}

TEST(PartialsMemoTest, DuplicateInsertLosesToTheExistingEntry) {
  PartialsMemo memo;
  PartialPtr first = MakePartial(10);
  ASSERT_TRUE(memo.Insert("k", first));
  EXPECT_FALSE(memo.Insert("k", MakePartial(10)));
  PartialsMemoMetrics m = memo.metrics();
  EXPECT_EQ(m.inserts, 1u);
  EXPECT_EQ(m.discarded_inserts, 1u);
  EXPECT_EQ(memo.Lookup("k"), first);
}

TEST(PartialsMemoTest, DisabledMemoIsInert) {
  PartialsMemo memo;
  ASSERT_TRUE(memo.Insert("k", MakePartial(10)));

  memo.SetEnabled(false);
  PartialsMemoMetrics m = memo.metrics();
  EXPECT_EQ(m.entries, 0u);  // disabling flushes

  // Lookups miss without counting, inserts are no-ops.
  EXPECT_EQ(memo.Lookup("k"), nullptr);
  EXPECT_FALSE(memo.Insert("k", MakePartial(10)));
  m = memo.metrics();
  EXPECT_EQ(m.misses, 0u);
  EXPECT_EQ(m.inserts, 1u);  // only the pre-disable insert
  EXPECT_EQ(m.entries, 0u);
}

// ---------------------------------------------------------------------------
// SearchContext integration: the memo must be invisible in results.

search::SearchContext BuildDblpContext(const datasets::Dblp& d,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return search::SearchContext::Build(d.db, backend, std::move(subjects));
}

TEST(PartialsMemoIntegration, MemoOnMatchesMemoOffByteForByte) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext with_memo = BuildDblpContext(f.d, &f.backend);
  search::SearchContext without_memo = BuildDblpContext(f.d, &f.backend);
  without_memo.partials_memo().SetEnabled(false);

  api::QueryOptions options;
  options.l = 5;
  options.use_prelim = false;  // only complete OSs reach the memo
  for (const char* keywords :
       {"databases", "faloutsos", "christos faloutsos"}) {
    SCOPED_TRACE(keywords);
    std::string golden =
        DeterministicResultText(without_memo.Query(keywords, options));
    // Cold pass populates the memo, warm pass serves from it — both must
    // match the memo-free context byte for byte.
    EXPECT_EQ(DeterministicResultText(with_memo.Query(keywords, options)),
              golden);
    EXPECT_EQ(DeterministicResultText(with_memo.Query(keywords, options)),
              golden);
  }
  PartialsMemoMetrics on = with_memo.partials_memo().metrics();
  EXPECT_GT(on.hits, 0u);
  EXPECT_GT(on.inserts, 0u);
  PartialsMemoMetrics offm = without_memo.partials_memo().metrics();
  EXPECT_EQ(offm.hits, 0u);
  EXPECT_EQ(offm.inserts, 0u);
}

TEST(PartialsMemoIntegration, OverlappingQueriesShareSubjectWork) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  api::QueryOptions options;
  options.l = 5;
  options.use_prelim = false;  // only complete OSs reach the memo

  ctx.Query("faloutsos", options);
  PartialsMemoMetrics cold = ctx.partials_memo().metrics();
  EXPECT_GT(cold.inserts, 0u);
  EXPECT_EQ(cold.hits, 0u);

  // A different keyword set whose subject hits overlap reuses the
  // memoized per-subject synopses even though its result-cache key
  // differs. AND semantics make this query's hits a subset of the
  // previous one's, so every subject is already memoized.
  ASSERT_FALSE(ctx.Query("christos faloutsos", options).empty());
  PartialsMemoMetrics warm = ctx.partials_memo().metrics();
  EXPECT_GT(warm.hits, 0u);
}

TEST(PartialsMemoIntegration, DistinctLAndAlgorithmDoNotCollide) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);

  api::QueryOptions l5;
  l5.l = 5;
  l5.use_prelim = false;  // only complete OSs reach the memo
  api::QueryOptions l3 = l5;
  l3.l = 3;
  api::QueryOptions dp = l5;
  dp.algorithm = core::SizeLAlgorithm::kDp;

  // Golden answers from a memo-free context.
  search::SearchContext plain = BuildDblpContext(f.d, &f.backend);
  plain.partials_memo().SetEnabled(false);

  // Warm every variant through one shared memo, then check each against
  // its own golden — a key collision would cross-contaminate.
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(DeterministicResultText(ctx.Query("databases", l5)),
              DeterministicResultText(plain.Query("databases", l5)));
    EXPECT_EQ(DeterministicResultText(ctx.Query("databases", l3)),
              DeterministicResultText(plain.Query("databases", l3)));
    EXPECT_EQ(DeterministicResultText(ctx.Query("databases", dp)),
              DeterministicResultText(plain.Query("databases", dp)));
  }
}

// ---------------------------------------------------------------------------
// The l sweep: complete OSs (Algorithm 5) are keyed by their effective
// depth cap min(l - 1, G_DS depth), so one tree serves l = 0 and every l
// past the G_DS depth.

search::SearchContext BuildTpchContext(const datasets::Tpch& t,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
  subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
  return search::SearchContext::Build(t.db, backend, std::move(subjects));
}

search::SearchContext MemoOff(search::SearchContext ctx) {
  ctx.partials_memo().SetEnabled(false);
  return ctx;
}

// The depth cap the complete-OS generator effectively runs under.
size_t EffectiveDepth(size_t l, size_t gds_depth) {
  return l == 0 ? gds_depth : std::min(l - 1, gds_depth);
}

constexpr size_t kSweepLs[] = {0,  1,  2,  3,  4,  5,  10, 15,
                               20, 25, 30, 35, 40, 45, 50};

// The first few customer and supplier names: each matches one subject.
std::vector<std::string> TpchSubjectNames(const datasets::Tpch& t) {
  std::vector<std::string> names;
  for (rel::RelationId relation : {t.customer, t.supplier}) {
    const rel::Relation& r = t.db.relation(relation);
    for (rel::TupleId tuple = 0; tuple < 3 && tuple < r.num_tuples();
         ++tuple) {
      names.push_back(r.StringValue(tuple, 0));
    }
  }
  return names;
}

void ExpectCompleteOsSweepMatchesMemoOff(const datasets::Tpch& t,
                                         core::OsBackend* backend) {
  search::SearchContext with_memo = BuildTpchContext(t, backend);
  search::SearchContext without_memo =
      MemoOff(BuildTpchContext(t, backend));

  size_t expected_misses = 0;
  size_t lookups = 0;
  for (const std::string& name : TpchSubjectNames(t)) {
    SCOPED_TRACE(name);
    PartialsMemoMetrics before = with_memo.partials_memo().metrics();
    std::set<size_t> depths;
    size_t gds_depth = 0;
    for (core::SizeLAlgorithm algorithm :
         {core::SizeLAlgorithm::kDp, core::SizeLAlgorithm::kTopPath,
          core::SizeLAlgorithm::kBottomUp}) {
      for (size_t l : kSweepLs) {
        SCOPED_TRACE("l=" + std::to_string(l));
        api::QueryOptions options;
        options.l = l;
        options.use_prelim = false;
        options.algorithm = algorithm;
        std::vector<api::QueryResult> on = with_memo.Query(name, options);
        ASSERT_EQ(on.size(), 1u);
        EXPECT_EQ(DeterministicResultText(on),
                  DeterministicResultText(without_memo.Query(name, options)));
        gds_depth = static_cast<size_t>(
            with_memo.GdsFor(on[0].subject.relation).MaxDepth());
        depths.insert(EffectiveDepth(l, gds_depth));
        ++lookups;
      }
    }
    // One generation per distinct effective depth, whatever l or the
    // algorithm asked for; everything else is served from the memo.
    PartialsMemoMetrics after = with_memo.partials_memo().metrics();
    EXPECT_EQ(after.misses - before.misses, depths.size());
    EXPECT_EQ(depths.size(), gds_depth + 1);  // caps 0..G_DS depth
    expected_misses += depths.size();
  }
  PartialsMemoMetrics m = with_memo.partials_memo().metrics();
  EXPECT_EQ(m.misses, expected_misses);
  EXPECT_EQ(m.inserts, expected_misses);
  EXPECT_EQ(m.entries, expected_misses);
  EXPECT_EQ(m.hits, lookups - expected_misses);
  EXPECT_EQ(m.evictions, 0u);
}

TEST(PartialsMemoLSweep, CompleteOsSweepOnTheDatabaseBackend) {
  ScoredTpch f(SmallTpchConfig());
  core::DatabaseBackend backend(f.t.db, f.t.links, /*per_select_micros=*/0.0);
  ExpectCompleteOsSweepMatchesMemoOff(f.t, &backend);
}

TEST(PartialsMemoLSweep, CompleteOsSweepOnTheDataGraphBackend) {
  ScoredTpch f(SmallTpchConfig());
  ExpectCompleteOsSweepMatchesMemoOff(f.t, &f.backend);
}

TEST(PartialsMemoLSweep, ShallowTreeNeverServesADeeperRequest) {
  ScoredTpch f(SmallTpchConfig());
  search::SearchContext ctx = BuildTpchContext(f.t, &f.backend);
  search::SearchContext plain = MemoOff(BuildTpchContext(f.t, &f.backend));
  const std::string name = TpchSubjectNames(f.t).front();

  api::QueryOptions shallow;
  shallow.l = 2;
  shallow.use_prelim = false;
  shallow.algorithm = core::SizeLAlgorithm::kDp;
  api::QueryOptions deep = shallow;
  deep.l = 5;

  std::vector<api::QueryResult> l2 = ctx.Query(name, shallow);
  ASSERT_EQ(l2.size(), 1u);
  PartialsMemoMetrics after_shallow = ctx.partials_memo().metrics();
  ASSERT_EQ(after_shallow.misses, 1u);

  std::vector<api::QueryResult> l5 = ctx.Query(name, deep);
  ASSERT_EQ(l5.size(), 1u);
  PartialsMemoMetrics after_deep = ctx.partials_memo().metrics();
  // The depth-1 tree must not answer the depth-4 request: a miss, a new
  // entry, and a strictly larger OS than the shallow one.
  EXPECT_EQ(after_deep.hits, 0u);
  EXPECT_EQ(after_deep.misses, 2u);
  EXPECT_EQ(after_deep.entries, 2u);
  EXPECT_GT(l5[0].os.size(), l2[0].os.size());
  EXPECT_EQ(DeterministicResultText(l5),
            DeterministicResultText(plain.Query(name, deep)));
  EXPECT_EQ(DeterministicResultText(l2),
            DeterministicResultText(plain.Query(name, shallow)));
}

TEST(PartialsMemoLSweep, PrelimTreesAreNeverMemoized) {
  ScoredTpch f(SmallTpchConfig());
  search::SearchContext ctx = BuildTpchContext(f.t, &f.backend);
  search::SearchContext plain = MemoOff(BuildTpchContext(f.t, &f.backend));
  const std::string name = TpchSubjectNames(f.t).front();

  api::QueryOptions l5;
  l5.l = 5;
  l5.use_prelim = true;
  api::QueryOptions l10 = l5;
  l10.l = 10;

  // Prelim-l OSs depend on l through the AC1/AC2 cutoff, so a kept tree
  // could answer only its own (subject, l) pair: every pass regenerates
  // and the memo is never consulted.
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(DeterministicResultText(ctx.Query(name, l5)),
              DeterministicResultText(plain.Query(name, l5)));
    EXPECT_EQ(DeterministicResultText(ctx.Query(name, l10)),
              DeterministicResultText(plain.Query(name, l10)));
  }
  PartialsMemoMetrics m = ctx.partials_memo().metrics();
  EXPECT_EQ(m.hits, 0u);
  EXPECT_EQ(m.misses, 0u);
  EXPECT_EQ(m.inserts, 0u);
  EXPECT_EQ(m.entries, 0u);

  // The same subject's complete OS does go through the memo.
  api::QueryOptions complete = l5;
  complete.use_prelim = false;
  EXPECT_EQ(DeterministicResultText(ctx.Query(name, complete)),
            DeterministicResultText(plain.Query(name, complete)));
  m = ctx.partials_memo().metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.inserts, 1u);
  EXPECT_EQ(m.entries, 1u);
}

}  // namespace
}  // namespace osum
