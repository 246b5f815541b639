// Concurrency guarantees of the search layer: ExecuteBatch over a shared
// immutable SearchContext must be byte-identical to serial Execute on both
// join back ends, and hammering one context from many threads must
// expose zero mutable shared state (run under TSan via
// `OSUM_SANITIZE=thread`, see scripts/ci.sh).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "db_fixtures.h"
#include "api/codec.h"
#include "search/search_context.h"
#include "util/thread_pool.h"

namespace osum::search {
namespace {

using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::api::DeterministicResultText;
using osum::api::QueryOptions;
using osum::api::QueryRequest;
using osum::api::QueryResponse;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

/// A deterministic DBLP keyword mix: prolific-author surnames (big OSs,
/// multiple hits per query) + title terms + a no-hit probe.
std::vector<std::string> DblpMix(const datasets::Dblp& d) {
  std::vector<std::string> mix;
  for (rel::TupleId t = 0; t < 12; ++t) {
    std::string name = d.db.relation(d.author).StringValue(t, 0);
    mix.push_back(name.substr(name.rfind(' ') + 1));
  }
  mix.insert(mix.end(), {"faloutsos", "christos faloutsos", "databases",
                         "mining", "power law", "nosuchkeywordanywhere"});
  return mix;
}

SearchContext BuildDblpContext(const datasets::Dblp& d,
                               core::OsBackend* backend) {
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return SearchContext::Build(d.db, backend, std::move(subjects));
}

std::vector<QueryRequest> Requests(const std::vector<std::string>& mix,
                                   const QueryOptions& options) {
  std::vector<QueryRequest> requests;
  requests.reserve(mix.size());
  for (const std::string& q : mix) requests.emplace_back(q, options);
  return requests;
}

/// The result fingerprint of every response; a failed response fails the
/// test (the mixes hold only valid requests).
std::vector<std::string> Fingerprints(
    const std::vector<QueryResponse>& responses) {
  std::vector<std::string> out;
  out.reserve(responses.size());
  for (const QueryResponse& response : responses) {
    EXPECT_TRUE(response.ok()) << response.status.ToString();
    out.push_back(DeterministicResultText(response.result_list()));
  }
  return out;
}

std::vector<std::string> SerialFingerprints(
    const SearchContext& ctx, const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> serial;
  serial.reserve(requests.size());
  for (const QueryRequest& r : requests) serial.push_back(ctx.Execute(r));
  return Fingerprints(serial);
}

void ExpectBatchMatchesSerial(const SearchContext& ctx,
                              const std::vector<std::string>& mix,
                              const QueryOptions& options) {
  const std::vector<QueryRequest> requests = Requests(mix, options);
  const std::vector<std::string> serial = SerialFingerprints(ctx, requests);

  for (size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    std::vector<std::string> batch =
        Fingerprints(ctx.ExecuteBatch(requests, pool));
    ASSERT_EQ(batch.size(), mix.size()) << threads << " threads";
    for (size_t i = 0; i < mix.size(); ++i) {
      EXPECT_EQ(batch[i], serial[i])
          << "query \"" << mix[i] << "\" diverged at " << threads
          << " threads";
    }
  }
}

TEST(ExecuteBatchEquivalence, DataGraphBackendDblp) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryOptions options;
  options.l = 12;
  options.max_results = 4;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

TEST(ExecuteBatchEquivalence, DatabaseBackendDblp) {
  ScoredDblp f(SmallDblpConfig());
  // Latency 0: the simulated round-trip only burns wall clock and must not
  // affect results.
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  SearchContext ctx = BuildDblpContext(f.d, &backend);
  QueryOptions options;
  options.l = 10;
  options.max_results = 3;
  options.algorithm = core::SizeLAlgorithm::kDp;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

TEST(ExecuteBatchEquivalence, BothBackendsAgreeOnTpch) {
  ScoredTpch f(SmallTpchConfig());
  core::DatabaseBackend sql(f.t.db, f.t.links, /*per_select_micros=*/0.0);
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({f.t.customer, datasets::TpchCustomerGds(f.t)});
  subjects.push_back({f.t.supplier, datasets::TpchSupplierGds(f.t)});
  std::vector<SearchContext::Subject> subjects2 = subjects;
  SearchContext graph_ctx =
      SearchContext::Build(f.t.db, &f.backend, std::move(subjects));
  SearchContext sql_ctx =
      SearchContext::Build(f.t.db, &sql, std::move(subjects2));

  std::vector<std::string> mix;
  for (rel::TupleId c = 0; c < 8; ++c) {
    mix.push_back(f.t.db.relation(f.t.customer).StringValue(c, 0));
  }
  mix.push_back(f.t.db.relation(f.t.supplier).StringValue(0, 0));

  QueryOptions options;
  options.l = 8;
  options.max_results = 2;
  ExpectBatchMatchesSerial(graph_ctx, mix, options);
  ExpectBatchMatchesSerial(sql_ctx, mix, options);
  // The back ends themselves must agree tuple-for-tuple (importance-sorted
  // access paths make OS generation backend-independent).
  const std::vector<QueryRequest> requests = Requests(mix, options);
  util::ThreadPool pool(4);
  std::vector<std::string> a =
      Fingerprints(graph_ctx.ExecuteBatch(requests, pool));
  std::vector<std::string> b =
      Fingerprints(sql_ctx.ExecuteBatch(requests, pool));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "query " << mix[i];
  }
}

TEST(ExecuteBatchEquivalence, DegenerateBatches) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  util::ThreadPool pool(16);
  EXPECT_TRUE(ctx.ExecuteBatch({}, pool).empty());
  // A pool wider than the batch leaves the spare workers idle.
  std::vector<QueryRequest> one{QueryRequest("faloutsos")};
  std::vector<std::string> batch = Fingerprints(ctx.ExecuteBatch(one, pool));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], SerialFingerprints(ctx, one)[0]);
}

TEST(ExecuteBatchEquivalence, SummaryRankingMatchesSerial) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryOptions options;
  options.l = 8;
  options.max_results = 5;
  options.ranking = api::ResultRanking::kSummaryImportance;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

// The TSan canary: many threads hammer ONE shared context through the
// DatabaseBackend (whose access paths also bump the shared
// rel::Database::io_stats counters) while each thread re-verifies its
// results against a precomputed golden. Any non-atomic mutable state on the
// query path is a data race here; ~8 threads on the same structures give
// TSan dense interleavings. Labeled slow: runtime is ~seconds under TSan.
TEST(SearchConcurrencyStress, SharedContextSharedBackend) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  SearchContext ctx = BuildDblpContext(f.d, &backend);
  const std::vector<std::string> mix = DblpMix(f.d);
  QueryOptions options;
  options.l = 10;
  options.max_results = 3;

  std::vector<std::string> golden;
  golden.reserve(mix.size());
  for (const std::string& q : mix) {
    golden.push_back(DeterministicResultText(ctx.Query(q, options)));
  }

  constexpr size_t kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Stagger starting offsets so threads collide on different queries.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < mix.size(); ++i) {
          size_t q = (i + w) % mix.size();
          if (DeterministicResultText(ctx.Query(mix[q], options)) !=
              golden[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Accounting survived the stampede: counters aggregated every SELECT.
  EXPECT_GT(backend.stats().select_calls, 0u);
  EXPECT_GT(f.d.db.io_stats().Snapshot().select_calls, 0u);
}

// Same canary through the pool path: overlapping ExecuteBatch calls on one
// context (the pool is stressed too — many small batches churn the queue).
TEST(SearchConcurrencyStress, ConcurrentBatchesOnOneContext) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  const std::vector<std::string> mix = DblpMix(f.d);
  QueryOptions options;
  options.l = 8;
  options.max_results = 2;

  const std::vector<QueryRequest> requests = Requests(mix, options);
  const std::vector<std::string> golden = SerialFingerprints(ctx, requests);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> drivers;
  for (size_t w = 0; w < 4; ++w) {
    drivers.emplace_back([&] {
      util::ThreadPool pool(3);
      for (int round = 0; round < 2; ++round) {
        std::vector<QueryResponse> batch = ctx.ExecuteBatch(requests, pool);
        for (size_t i = 0; i < mix.size(); ++i) {
          if (!batch[i].ok() ||
              DeterministicResultText(batch[i].result_list()) != golden[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace osum::search
