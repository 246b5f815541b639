// Concurrency guarantees of the search layer: a batch of requests run by
// N threads calling Execute on one shared immutable SearchContext must be
// byte-identical to serial Execute on both join back ends, and hammering
// one context from many threads must expose zero mutable shared state
// (run under TSan via `OSUM_SANITIZE=thread`, see scripts/ci.sh).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "db_fixtures.h"
#include "api/codec.h"
#include "search/search_context.h"

namespace osum::search {
namespace {

using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::api::DeterministicResultText;
using osum::api::QueryOptions;
using osum::api::QueryRequest;
using osum::api::QueryResponse;
using osum::api::StatusCode;
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

/// Runs `requests` on `threads` std::threads sharing `ctx`. Thread w
/// executes requests w, w + threads, w + 2 * threads, ... and stores each
/// response in its request's slot, so the output is in input order.
std::vector<QueryResponse> ExecuteOnThreads(
    const SearchContext& ctx, const std::vector<QueryRequest>& requests,
    size_t threads) {
  std::vector<QueryResponse> responses(requests.size());
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < requests.size(); i += threads) {
        responses[i] = ctx.Execute(requests[i]);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return responses;
}

/// At 2, 4 and 8 threads every response must match serial Execute: the
/// same status and the same results.
void ExpectBatchMatchesSerial(const SearchContext& ctx,
                              const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> serial;
  serial.reserve(requests.size());
  for (const QueryRequest& r : requests) serial.push_back(ctx.Execute(r));

  for (size_t threads : {2u, 4u, 8u}) {
    std::vector<QueryResponse> batch =
        ExecuteOnThreads(ctx, requests, threads);
    ASSERT_EQ(batch.size(), requests.size()) << threads << " threads";
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batch[i].status, serial[i].status)
          << "query \"" << requests[i].keywords() << "\" at " << threads
          << " threads";
      EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
                DeterministicResultText(serial[i].result_list()))
          << "query \"" << requests[i].keywords() << "\" diverged at "
          << threads << " threads";
    }
  }
}

/// The valid-mix form: every serial response must succeed (Fingerprints
/// fails the test otherwise), and the threaded runs must match them.
void ExpectBatchMatchesSerial(const SearchContext& ctx,
                              const std::vector<std::string>& mix,
                              const QueryOptions& options) {
  const std::vector<QueryRequest> requests = Requests(mix, options);
  SerialFingerprints(ctx, requests);
  ExpectBatchMatchesSerial(ctx, requests);
}

TEST(ThreadedExecuteEquivalence, DataGraphBackendDblp) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryOptions options;
  options.l = 12;
  options.max_results = 4;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

TEST(ThreadedExecuteEquivalence, DatabaseBackendDblp) {
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

TEST(ThreadedExecuteEquivalence, BothBackendsAgreeOnTpch) {
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
  std::vector<std::string> a =
      Fingerprints(ExecuteOnThreads(graph_ctx, requests, 4));
  std::vector<std::string> b =
      Fingerprints(ExecuteOnThreads(sql_ctx, requests, 4));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "query " << mix[i];
  }
}

TEST(ThreadedExecuteEquivalence, SummaryRankingMatchesSerial) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryOptions options;
  options.l = 8;
  options.max_results = 5;
  options.ranking = api::ResultRanking::kSummaryImportance;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

// One bad request in a batch fails alone: its threaded response matches
// serial Execute, and its neighbors succeed.
TEST(ThreadedExecuteEquivalence, InvalidRequestFailsAlone) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  std::vector<QueryRequest> requests;
  for (const char* keywords : {"faloutsos", "databases", "mining", "",
                               "graphs", "faloutsos"}) {
    requests.push_back(QueryRequest(keywords).WithL(7).WithMaxResults(3));
  }
  ExpectBatchMatchesSerial(ctx, requests);
  std::vector<QueryResponse> batch = ExecuteOnThreads(ctx, requests, 4);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i == 3) {
      EXPECT_EQ(batch[i].status.code(), StatusCode::kInvalidArgument);
    } else {
      EXPECT_TRUE(batch[i].ok()) << requests[i].keywords();
    }
  }
}

// The TSan canary: many threads hammer ONE shared context through the
// DatabaseBackend (whose access paths also bump the shared
// rel::Database::io_stats counters) while each thread re-verifies its
// results against a golden from a memo-off context. Any non-atomic mutable
// state on the query path is a data race here; ~8 threads on the same
// structures give TSan dense interleavings. It runs once on prelim-l OSs
// (the join tier only) and once on complete OSs, the only ones the
// partials memo keeps, so concurrent memo lookups, inserts and discarded
// inserts stay under TSan too. Labeled slow: runtime is ~seconds under
// TSan.
TEST(SearchConcurrencyStress, SharedContextSharedBackend) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  const std::vector<std::string> mix = DblpMix(f.d);
  SearchContext plain = BuildDblpContext(f.d, &backend);
  plain.partials_memo().SetEnabled(false);

  for (bool prelim : {true, false}) {
    SCOPED_TRACE(prelim ? "prelim-l" : "complete");
    SearchContext ctx = BuildDblpContext(f.d, &backend);
    QueryOptions options;
    options.l = 10;
    options.max_results = 3;
    options.use_prelim = prelim;

    std::vector<std::string> golden;
    golden.reserve(mix.size());
    for (const std::string& q : mix) {
      golden.push_back(DeterministicResultText(plain.Query(q, options)));
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
    if (!prelim) {
      EXPECT_GT(ctx.partials_memo().metrics().hits, 0u);
    }
  }
  // Accounting survived the stampede: counters aggregated every SELECT.
  EXPECT_GT(backend.stats().select_calls, 0u);
  EXPECT_GT(f.d.db.io_stats().Snapshot().select_calls, 0u);
}

// Same canary with overlapping batches: four drivers each run the whole
// mix on three threads, twice, against one context.
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
      for (int round = 0; round < 2; ++round) {
        std::vector<QueryResponse> batch = ExecuteOnThreads(ctx, requests, 3);
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
