// QueryService end-to-end: cached results must be byte-identical to
// uncached SearchContext::Query on both join back ends, Submit (the served
// path) must agree with the sync path and stay cache-aware across many
// requests, and overload, expiry and teardown must answer every request
// exactly once.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "db_fixtures.h"
#include "api/codec.h"
#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/query_service.h"

namespace osum::serve {
namespace {

using osum::api::DeterministicResultText;
using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

search::SearchContext BuildDblpContext(const datasets::Dblp& d,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return search::SearchContext::Build(d.db, backend, std::move(subjects));
}

ServiceOptions SmallService() {
  ServiceOptions o;
  o.num_threads = 3;
  return o;
}

/// One request per keyword string, all with `options`.
std::vector<api::QueryRequest> Requests(const std::vector<std::string>& queries,
                                        const api::QueryOptions& options) {
  std::vector<api::QueryRequest> requests;
  requests.reserve(queries.size());
  for (const std::string& q : queries) requests.emplace_back(q, options);
  return requests;
}

/// Collects Submit callbacks, one slot per request, and blocks until all
/// have fired.
class BatchCollector {
 public:
  explicit BatchCollector(size_t n) : answered_(n, 0), responses_(n) {}

  /// The on_done for request `i`.
  std::function<void(api::QueryResponse)> Sink(size_t i = 0) {
    return [this, i](api::QueryResponse response) {
      std::lock_guard<std::mutex> lock(mu_);
      ++answered_[i];
      responses_[i] = std::move(response);
      cv_.notify_all();
    };
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      for (int count : answered_) {
        if (count == 0) return false;
      }
      return true;
    }));
  }
  const api::QueryResponse& response(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_[i];
  }
  int answered(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return answered_[i];
  }
  size_t size() const { return answered_.size(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> answered_;
  std::vector<api::QueryResponse> responses_;
};

/// Submits every request without a deadline; request i answers into
/// collector slot i.
void SubmitAll(QueryService* service, std::vector<api::QueryRequest> requests,
               BatchCollector* collector) {
  for (size_t i = 0; i < requests.size(); ++i) {
    service->Submit(std::move(requests[i]), /*deadline_micros=*/0,
                    collector->Sink(i));
  }
}

/// The blocking batch over Submit: every request submitted, then the
/// responses in input order. Must not run on a pool worker.
std::vector<api::QueryResponse> ExecuteBatch(
    QueryService* service, std::vector<api::QueryRequest> requests) {
  BatchCollector collector(requests.size());
  SubmitAll(service, std::move(requests), &collector);
  collector.Wait();
  std::vector<api::QueryResponse> responses;
  for (size_t i = 0; i < collector.size(); ++i) {
    responses.push_back(collector.response(i));
  }
  return responses;
}

/// One request submitted without a deadline, its answer as a future. The
/// promise lives in the callback, so the future outlives the service.
std::future<api::QueryResponse> SubmitFuture(QueryService* service,
                                             api::QueryRequest request) {
  auto promise = std::make_shared<std::promise<api::QueryResponse>>();
  std::future<api::QueryResponse> future = promise->get_future();
  service->Submit(std::move(request), /*deadline_micros=*/0,
                  [promise](api::QueryResponse response) {
                    promise->set_value(std::move(response));
                  });
  return future;
}

/// Delegating back end that can hold every join call on a gate (to keep a
/// query deterministically in flight) or fail it (to make Query throw) —
/// the levers the in-flight, coalescing and batch-exception tests need.
class GatedBackend : public core::OsBackend {
 public:
  explicit GatedBackend(core::OsBackend* inner)
      : OsBackend(inner->db(), inner->links()), inner_(inner) {}

  const char* name() const override { return "gated"; }

  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override {
    Enter();
    inner_->Fetch(link, dir, parent_tuple, out);
  }
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override {
    Enter();
    inner_->FetchTop(link, dir, parent_tuple, limit, min_importance, out);
  }

  void FailJoins(bool fail) { fail_.store(fail); }
  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_closed_ = false;
    }
    cv_.notify_all();
  }
  /// Blocks until some join call is parked on the closed gate.
  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ > 0; });
  }

 private:
  void Enter() {
    if (fail_.load()) throw std::runtime_error("injected join failure");
    std::unique_lock<std::mutex> lock(mu_);
    if (!gate_closed_) return;
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !gate_closed_; });
    --waiting_;
  }

  core::OsBackend* inner_;
  std::atomic<bool> fail_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_closed_ = false;
  int waiting_ = 0;
};

/// Delegating back end that counts join calls — the witness the shedding
/// tests use to prove "answered kDeadlineExceeded WITHOUT backend work".
class CountingBackend : public core::OsBackend {
 public:
  explicit CountingBackend(core::OsBackend* inner)
      : OsBackend(inner->db(), inner->links()), inner_(inner) {}

  const char* name() const override { return "counting"; }

  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override {
    fetches_.fetch_add(1, std::memory_order_relaxed);
    inner_->Fetch(link, dir, parent_tuple, out);
  }
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override {
    fetches_.fetch_add(1, std::memory_order_relaxed);
    inner_->FetchTop(link, dir, parent_tuple, limit, min_importance, out);
  }

  uint64_t fetches() const {
    return fetches_.load(std::memory_order_relaxed);
  }

 private:
  core::OsBackend* inner_;
  std::atomic<uint64_t> fetches_{0};
};

/// The headline invariant on one backend: miss computes, hit returns the
/// same immutable object, both byte-identical to an uncached Query.
void ExpectHitMatchesRecompute(const search::SearchContext& ctx) {
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 10;
  options.max_results = 4;

  const std::string query = "faloutsos";
  std::string golden = DeterministicResultText(ctx.Query(query, options));

  api::QueryResponse first = service.Execute(api::QueryRequest(query, options));
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(DeterministicResultText(first.result_list()), golden);
  EXPECT_EQ(service.metrics().cache.misses, 1u);

  api::QueryResponse second =
      service.Execute(api::QueryRequest(query, options));
  // A hit is the same immutable object, not a recompute.
  EXPECT_EQ(second.results.get(), first.results.get());
  EXPECT_EQ(DeterministicResultText(second.result_list()), golden);
  Metrics m = service.metrics();
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.queries, 2u);
  EXPECT_GT(m.cache.approx_bytes, 0u);
}

TEST(QueryServiceEquivalence, HitMatchesRecomputeDataGraphBackend) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  ExpectHitMatchesRecompute(ctx);
}

TEST(QueryServiceEquivalence, HitMatchesRecomputeDatabaseBackend) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  search::SearchContext ctx = BuildDblpContext(f.d, &backend);
  ExpectHitMatchesRecompute(ctx);
}

// metrics().joins reads the served context's join tier: counted on the
// database back end, all zeros on the data graph, which has no tier. Three
// sizes of one query generate the same OSs three times: the tier passes a
// join's first sighting through, keeps its second and answers the third.
TEST(QueryServiceMetrics, JoinTierCountersFollowTheContext) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  search::SearchContext db_ctx = BuildDblpContext(f.d, &backend);
  search::SearchContext graph_ctx = BuildDblpContext(f.d, &f.backend);
  for (const search::SearchContext* ctx : {&db_ctx, &graph_ctx}) {
    QueryService service(*ctx, SmallService());
    for (size_t l : {8u, 9u, 10u}) {
      ASSERT_TRUE(
          service.Execute(api::QueryRequest("faloutsos").WithL(l)).ok());
    }
    core::JoinCacheMetrics joins = service.metrics().joins;
    if (ctx == &graph_ctx) {
      EXPECT_EQ(joins.hits + joins.misses + joins.entries, 0u);
      continue;
    }
    EXPECT_EQ(joins.misses, backend.stats().select_calls);
    EXPECT_GT(joins.hits, 0u);
    EXPECT_GT(joins.admitted, 0u);
    EXPECT_LT(joins.admitted, joins.misses);
    EXPECT_EQ(joins.entries, joins.admitted);
    EXPECT_GT(joins.approx_bytes, 0u);
  }
}

TEST(QueryServiceEquivalence, KeywordNormalizationSharesOneEntry) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryResponse a =
      service.Execute(api::QueryRequest("Christos  Faloutsos"));
  api::QueryResponse b =
      service.Execute(api::QueryRequest("faloutsos christos"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.results.get(), b.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 1u);
  // Different options are different entries.
  api::QueryResponse c =
      service.Execute(api::QueryRequest("christos faloutsos").WithL(7));
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c.results.get(), a.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 2u);
}

TEST(QueryServiceAsync, FutureAndCallbackAgreeWithSync) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  std::string golden = DeterministicResultText(ctx.Query("databases", options));

  std::future<api::QueryResponse> fut =
      SubmitFuture(&service, api::QueryRequest("databases", options));
  api::QueryResponse from_future = fut.get();
  ASSERT_TRUE(from_future.ok()) << from_future.status.ToString();
  EXPECT_EQ(DeterministicResultText(from_future.result_list()), golden);

  BatchCollector delivered(1);
  service.Submit(api::QueryRequest("databases", options),
                 /*deadline_micros=*/0, delivered.Sink());
  delivered.Wait();
  const api::QueryResponse& from_callback = delivered.response(0);
  ASSERT_TRUE(from_callback.ok()) << from_callback.status.ToString();
  EXPECT_EQ(DeterministicResultText(from_callback.result_list()), golden);
  // Both submissions share the cache: one compute total.
  EXPECT_EQ(service.metrics().cache.misses, 1u);
}

TEST(QueryServiceBatch, CacheAwareAndInputOrdered) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 9;
  options.max_results = 3;

  // Duplicates on purpose: they must coalesce, not recompute.
  std::vector<std::string> queries = {"faloutsos", "databases", "mining",
                                      "faloutsos", "power law",
                                      "nosuchkeywordanywhere", "databases"};
  std::vector<api::QueryResponse> batch =
      ExecuteBatch(&service, Requests(queries, options));
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << queries[i];
    EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
              DeterministicResultText(ctx.Query(queries[i], options)))
        << queries[i];
  }
  Metrics after_first = service.metrics();
  EXPECT_EQ(after_first.cache.misses, 5u);  // distinct queries only

  // Re-running the batch is pure hits — no new computes.
  std::vector<api::QueryResponse> again =
      ExecuteBatch(&service, Requests(queries, options));
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(again[i].results.get(), batch[i].results.get()) << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 5u);
}

// A throwing miss inside the batch fan-out comes back as that request's
// kBackendError (pool tasks themselves must not throw — an escaped
// exception would terminate the process): the rest of the batch is still
// answered, and the failure neither poisons the service nor is cached.
TEST(QueryServiceBatch, FailingMissIsABackendErrorAndTheBatchCompletes) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm one key so the failing batch mixes cache hits with bad misses.
  api::QueryResponse warm =
      service.Execute(api::QueryRequest("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  // "nosuchkeywordanywhere" has no hits, so its miss never joins and
  // completes while the joining misses fail.
  gated.FailJoins(true);
  const std::vector<std::string> queries = {"faloutsos", "databases",
                                            "nosuchkeywordanywhere", "mining"};
  std::vector<api::QueryResponse> failed =
      ExecuteBatch(&service, Requests(queries, options));
  ASSERT_EQ(failed.size(), queries.size());
  ASSERT_TRUE(failed[0].ok());
  EXPECT_EQ(failed[0].results.get(), warm.results.get());
  for (size_t i : {1u, 3u}) {
    EXPECT_EQ(failed[i].status.code(), api::StatusCode::kBackendError)
        << queries[i];
    EXPECT_TRUE(failed[i].result_list().empty()) << queries[i];
  }
  ASSERT_TRUE(failed[2].ok());
  EXPECT_TRUE(failed[2].result_list().empty());

  // Failures cached nothing: once joins heal, the same batch succeeds and
  // still reuses the pre-failure entry.
  gated.FailJoins(false);
  std::vector<api::QueryResponse> batch =
      ExecuteBatch(&service, Requests(queries, options));
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(batch[0].results.get(), warm.results.get());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << queries[i];
    EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
              DeterministicResultText(ctx.Query(queries[i], options)))
        << queries[i];
  }
}

// The request/response surface: Execute must agree byte-for-byte with the
// uncached SearchContext::Query, share one cache with Submit, and report
// the cache outcome in stats.
TEST(QueryServiceApi, ExecuteMatchesLegacyAndReportsCacheOutcome) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryRequest request =
      api::QueryRequest("faloutsos").WithL(10).WithMaxResults(4);
  api::QueryOptions options;
  options.l = 10;
  options.max_results = 4;
  std::string golden = DeterministicResultText(ctx.Query("faloutsos", options));

  api::QueryResponse first = service.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.stats.cache_hit);
  EXPECT_GT(first.stats.compute_micros, 0.0);
  EXPECT_EQ(first.stats.epoch, 0u);  // the service never sets it
  EXPECT_EQ(DeterministicResultText(first.result_list()), golden);

  api::QueryResponse second = service.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.stats.cache_hit);
  // A hit shares the same immutable list, zero-copy.
  EXPECT_EQ(second.results.get(), first.results.get());

  // Execute and Submit ride one cache: the submitted request resolves to
  // the very list the first response aliases.
  api::QueryResponse async = SubmitFuture(&service, request).get();
  EXPECT_EQ(async.results.get(), first.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 1u);
}

TEST(QueryServiceApi, ExecuteMatchesRecomputeOnTpchDatabaseBackend) {
  ScoredTpch f(SmallTpchConfig());
  core::DatabaseBackend backend(f.t.db, f.t.links, /*per_select_micros=*/0.0);
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({f.t.customer, datasets::TpchCustomerGds(f.t)});
  subjects.push_back({f.t.supplier, datasets::TpchSupplierGds(f.t)});
  search::SearchContext ctx =
      search::SearchContext::Build(f.t.db, &backend, std::move(subjects));
  QueryService service(ctx, SmallService());

  std::string keywords = f.t.db.relation(f.t.customer).StringValue(0, 0);
  api::QueryResponse response =
      service.Execute(api::QueryRequest(keywords).WithL(10));
  ASSERT_TRUE(response.ok());
  api::QueryOptions options;
  options.l = 10;
  EXPECT_EQ(DeterministicResultText(response.result_list()),
            DeterministicResultText(ctx.Query(keywords, options)));
}

TEST(QueryServiceApi, InvalidAndFailingRequestsBecomeStatuses) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());

  api::QueryResponse invalid = service.Execute(api::QueryRequest(""));
  EXPECT_EQ(invalid.status.code(), api::StatusCode::kInvalidArgument);
  Metrics after_invalid = service.metrics();
  EXPECT_EQ(after_invalid.queries, 0u);  // rejected before the cache
  EXPECT_EQ(after_invalid.cache.misses, 0u);

  gated.FailJoins(true);
  api::QueryResponse failed = service.Execute(api::QueryRequest("databases"));
  EXPECT_EQ(failed.status.code(), api::StatusCode::kBackendError);
  EXPECT_TRUE(failed.result_list().empty());

  // The failure cached nothing: healing the backend recomputes...
  gated.FailJoins(false);
  api::QueryResponse healed = service.Execute(api::QueryRequest("databases"));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.stats.cache_hit);
  // ...and a no-hit query is an OK empty answer, no longer conflatable
  // with the kBackendError above.
  api::QueryResponse none =
      service.Execute(api::QueryRequest("nosuchkeywordanywhere"));
  EXPECT_TRUE(none.ok());
  EXPECT_TRUE(none.result_list().empty());
}

// Neither exhaustive algorithm is served. Brute force has no operation
// budget, so one request could pin a worker. DP-Enumerate burns its
// budget for seconds on a large complete OS and then answers with an empty
// selection. Both are rejected at validation, before any back-end SELECT;
// kDp returns the same optimum.
TEST(QueryRequestValidation, ExhaustiveAlgorithmsAreNotServed) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  for (core::SizeLAlgorithm algorithm : {core::SizeLAlgorithm::kBruteForce,
                                         core::SizeLAlgorithm::kDpEnumerate}) {
    SCOPED_TRACE(core::AlgorithmName(algorithm));
    api::QueryRequest exhaustive =
        api::QueryRequest("databases").WithAlgorithm(algorithm);
    EXPECT_EQ(exhaustive.Validate().code(),
              api::StatusCode::kInvalidArgument);
    EXPECT_EQ(exhaustive.ValidatedKey().status().code(),
              api::StatusCode::kInvalidArgument);

    f.backend.ResetStats();
    api::QueryResponse response = service.Execute(exhaustive);
    EXPECT_EQ(response.status.code(), api::StatusCode::kInvalidArgument);
    EXPECT_EQ(f.backend.stats().select_calls, 0u);
    EXPECT_EQ(service.metrics().queries, 0u);
    EXPECT_EQ(ctx.Execute(exhaustive).status.code(),
              api::StatusCode::kInvalidArgument);
    // The same request with a served algorithm validates.
    EXPECT_TRUE(
        exhaustive.WithAlgorithm(core::SizeLAlgorithm::kDp).Validate().ok());
  }
}

// The acceptance contract: Submit returns while its miss is still
// computing — the submitting thread never blocks. The hit and the invalid
// request are answered before their calls return; the gated misses are
// not.
TEST(QueryServiceApi, SubmitNeverBlocksTheSubmitter) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm one key so the submissions mix a ready hit with gated misses.
  api::QueryResponse warm =
      service.Execute(api::QueryRequest("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  gated.CloseGate();
  BatchCollector collector(4);
  SubmitAll(&service,
            Requests({"faloutsos", "databases", "", "mining"}, options),
            &collector);
  // Submission returned while every miss is parked on the closed gate.
  gated.WaitUntilBlocked();
  EXPECT_EQ(collector.answered(0), 1);
  EXPECT_EQ(collector.answered(2), 1);
  EXPECT_EQ(collector.answered(1), 0);

  gated.OpenGate();
  collector.Wait();
  const api::QueryResponse& hit = collector.response(0);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(hit.results.get(), warm.results.get());  // zero-copy alias
  EXPECT_EQ(collector.response(2).status.code(),
            api::StatusCode::kInvalidArgument);
  const api::QueryResponse& miss = collector.response(1);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.stats.cache_hit);
  EXPECT_EQ(DeterministicResultText(miss.result_list()),
            DeterministicResultText(ctx.Query("databases", options)));
  ASSERT_TRUE(collector.response(3).ok());
}

// Destruction-order regression: futures over submitted requests may
// outlive the QueryService. The destructor must block until in-flight misses
// finish (pool_ is the last member, so it drains while cache/context are
// still alive), and the futures stay valid afterwards — their shared state
// is heap-owned, not service-owned. ASan/TSan turn any violation into a
// hard failure here.
TEST(QueryServiceApi, FuturesOutliveTheServiceWithoutUseAfterFree) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  auto service = std::make_unique<QueryService>(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  std::vector<std::future<api::QueryResponse>> futures;
  for (const char* q : {"databases", "mining"}) {
    futures.push_back(
        SubmitFuture(service.get(), api::QueryRequest(q, options)));
  }
  gated.WaitUntilBlocked();

  // Tear the service down while both misses are parked on the gate.
  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    service.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The destructor is draining, not abandoning: it cannot finish while a
  // miss is still executing.
  EXPECT_FALSE(destroyed.load());

  gated.OpenGate();
  destroyer.join();
  EXPECT_TRUE(destroyed.load());

  // The service is gone; the futures still deliver real answers.
  for (std::future<api::QueryResponse>& future : futures) {
    api::QueryResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_FALSE(response.result_list().empty());
  }
}

// The teardown branch of Submit: a request that arrives once the pool has
// stopped is rolled back out of the pending-miss count and answered
// exactly once, inline, with kInternal. Only a worker callback can submit
// while ~QueryService drains the pool, so a gated miss's callback does.
// It cannot see when Stop() has begun, so it submits uncached probes until
// one is refused; each probe accepted before that is queued behind the
// single busy worker and answered OK during the drain.
TEST(QueryServiceApi, SubmitDuringTeardownAnswersInternalExactlyOnce) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  ServiceOptions so;
  so.num_threads = 1;  // queued probes stay pending until the drain
  auto service = std::make_unique<QueryService>(ctx, so);
  QueryService* const raw = service.get();
  api::QueryOptions options;
  options.l = 8;

  constexpr size_t kMaxProbes = 10'000;
  BatchCollector probes(kMaxProbes);
  size_t refused = kMaxProbes;  // index of the probe answered kInternal
  size_t pending_after_refusal = 0;
  BatchCollector first(1);
  gated.CloseGate();
  raw->Submit(
      api::QueryRequest("databases", options), /*deadline_micros=*/0,
      [&, sink = first.Sink()](api::QueryResponse response) {
        sink(std::move(response));
        for (size_t i = 0; i < kMaxProbes; ++i) {
          raw->Submit(api::QueryRequest("probe" + std::to_string(i), options),
                      /*deadline_micros=*/0, probes.Sink(i));
          if (probes.answered(i) == 1 &&
              probes.response(i).status.code() == api::StatusCode::kInternal) {
            refused = i;
            pending_after_refusal = raw->metrics().pending_misses;
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  gated.WaitUntilBlocked();
  std::thread destroyer([&] { service.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated.OpenGate();
  destroyer.join();

  ASSERT_LT(refused, kMaxProbes) << "no probe reached the stopped pool";
  EXPECT_EQ(first.answered(0), 1);
  EXPECT_TRUE(first.response(0).ok());
  for (size_t i = 0; i <= refused; ++i) {
    EXPECT_EQ(probes.answered(i), 1) << i;
    EXPECT_EQ(probes.response(i).status.code(),
              i == refused ? api::StatusCode::kInternal : api::StatusCode::kOk)
        << i;
  }
  // Only the accepted probes are still pending: the refused one's ticket
  // was rolled back.
  EXPECT_EQ(pending_after_refusal, refused);
}

// Submit (the TCP front end's entry point): every request is answered
// exactly once, hits and invalids inline, misses on the pool.
TEST(QueryServiceApi, SubmitAnswersEveryRequestExactlyOnce) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  api::QueryResponse warm =
      service.Execute(api::QueryRequest("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  std::vector<api::QueryRequest> requests;
  for (const char* q : {"faloutsos", "databases", "", "databases"}) {
    requests.push_back(api::QueryRequest(q).WithOptions(options));
  }
  BatchCollector collector(requests.size());
  SubmitAll(&service, std::move(requests), &collector);
  collector.Wait();
  for (size_t i = 0; i < collector.size(); ++i) {
    EXPECT_EQ(collector.answered(i), 1);
  }
  EXPECT_TRUE(collector.response(0).ok());
  EXPECT_TRUE(collector.response(0).stats.cache_hit);
  EXPECT_EQ(collector.response(0).results.get(), warm.results.get());
  EXPECT_TRUE(collector.response(1).ok());
  EXPECT_EQ(collector.response(2).status.code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(collector.response(3).ok());
  // The duplicate coalesced onto one computation: shared immutable list.
  EXPECT_EQ(collector.response(3).results.get(),
            collector.response(1).results.get());
  EXPECT_EQ(service.metrics().cache.misses, 2u);  // warm + "databases"
}

// A blocking batch over Submit (the file-local ExecuteBatch) must stay
// byte-identical to serial execution and cache-aware across runs.
TEST(QueryServiceApi, ExecuteBatchMatchesSerialAndStaysCacheAware) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 9;
  options.max_results = 3;

  std::vector<std::string> queries = {"faloutsos", "databases", "faloutsos",
                                      "nosuchkeywordanywhere"};
  std::vector<api::QueryRequest> requests;
  for (const std::string& q : queries) {
    requests.push_back(api::QueryRequest(q).WithOptions(options));
  }
  std::vector<api::QueryResponse> batch = ExecuteBatch(&service, requests);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << queries[i];
    EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
              DeterministicResultText(ctx.Query(queries[i], options)))
        << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 3u);  // distinct queries only

  // Re-running is pure hits on the same immutable lists.
  std::vector<api::QueryResponse> again = ExecuteBatch(&service, requests);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(again[i].stats.cache_hit) << queries[i];
    EXPECT_EQ(again[i].results.get(), batch[i].results.get()) << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 3u);
}

TEST(QueryServiceApi, SubmitAgreesWithExecute) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryRequest request = api::QueryRequest("databases").WithL(8);

  api::QueryResponse from_future = SubmitFuture(&service, request).get();
  ASSERT_TRUE(from_future.ok());
  api::QueryResponse direct = service.Execute(request);
  EXPECT_TRUE(direct.stats.cache_hit);  // one compute total
  EXPECT_EQ(from_future.results.get(), direct.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 1u);
}

TEST(QueryServiceMetrics, LatencyReservoirsPopulate) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Execute(api::QueryRequest("faloutsos")).ok());
  }
  Metrics m = service.metrics();
  EXPECT_EQ(m.queries, 3u);
  EXPECT_EQ(m.latency_us.count(), 3u);
  EXPECT_EQ(m.miss_latency_us.count(), 1u);
  EXPECT_EQ(m.hit_latency_us.count(), 2u);
  EXPECT_GE(m.latency_us.Percentile(99.0), m.latency_us.Percentile(50.0));
  // Misses do strictly more work than hits on this dataset.
  EXPECT_GT(m.miss_latency_us.Max(), 0.0);
}

// Negative answers (OK-empty) are first-class: flagged in QueryStats on
// both the miss and the hit, attributed in the cache counters and in the
// dedicated negative-hit latency reservoir.
TEST(QueryServicePolicy, NegativeHitsAttributedInStatsAndMetrics) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryRequest none = api::QueryRequest("nosuchkeywordanywhere");

  api::QueryResponse miss = service.Execute(none);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss.stats.negative);
  EXPECT_FALSE(miss.stats.cache_hit);
  EXPECT_TRUE(miss.result_list().empty());

  api::QueryResponse hit = service.Execute(none);
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_TRUE(hit.stats.negative);

  api::QueryResponse positive = service.Execute(api::QueryRequest("faloutsos"));
  ASSERT_TRUE(positive.ok());
  EXPECT_FALSE(positive.stats.negative);

  Metrics m = service.metrics();
  EXPECT_EQ(m.cache.negative_hits, 1u);
  EXPECT_EQ(m.negative_hit_latency_us.count(), 1u);
  EXPECT_EQ(m.hit_latency_us.count(), 1u);  // the negative hit is a hit too
  EXPECT_EQ(m.cache.hits, 1u);
}

// Stampede coalescing at the service boundary: N Submits of one cold key,
// all admitted while the first compute is parked on the gate, run exactly
// one compute, and every caller gets that one immutable list.
TEST(QueryServiceApi, ConcurrentColdSubmitsOfOneKeyComputeOnce) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;
  api::QueryRequest request =
      api::QueryRequest("databases").WithOptions(options);

  constexpr size_t kSubmits = 4;
  gated.CloseGate();
  std::vector<std::future<api::QueryResponse>> inflight;
  for (size_t i = 0; i < kSubmits; ++i) {
    inflight.push_back(SubmitFuture(&service, request));
  }
  gated.WaitUntilBlocked();
  gated.OpenGate();
  std::vector<api::QueryResponse> responses;
  for (auto& fut : inflight) responses.push_back(fut.get());
  for (const api::QueryResponse& r : responses) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.results.get(), responses[0].results.get());
  }
  EXPECT_EQ(DeterministicResultText(responses[0].result_list()),
            DeterministicResultText(ctx.Query("databases", options)));
  Metrics m = service.metrics();
  EXPECT_EQ(m.cache.misses, 1u);  // exactly one compute
  EXPECT_EQ(m.cache.hits + m.cache.coalesced_waits, kSubmits - 1);
}

// A request whose budget is already spent on arrival is answered
// kDeadlineExceeded before the service spends anything on it — no cache
// lookup, no backend I/O — even when a cached answer exists. ("No time is
// spent on work nobody is waiting for", not "answer if cheap".)
TEST(QueryServiceOverload, ExpiredAtAdmissionShedsWithoutBackendWork) {
  ScoredDblp f(SmallDblpConfig());
  CountingBackend counting(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &counting);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so = SmallService();
  so.clock = clock;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  // Warm the key so "shed beats a ready cache hit" is what gets proven.
  ASSERT_TRUE(service.Execute(api::QueryRequest("databases", options)).ok());
  uint64_t fetches_after_warm = counting.fetches();
  uint64_t hits_after_warm = service.metrics().cache.hits;

  BatchCollector collector(1);
  service.Submit(api::QueryRequest("databases").WithOptions(options),
                 clock->NowMicros() - 1, collector.Sink());
  collector.Wait();

  EXPECT_EQ(collector.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(collector.response(0).result_list().empty());
  EXPECT_EQ(counting.fetches(), fetches_after_warm);
  Metrics m = service.metrics();
  EXPECT_EQ(m.sheds_at_admission, 1u);
  EXPECT_EQ(m.sheds_at_dequeue, 0u);
  EXPECT_EQ(m.cache.hits, hits_after_warm);  // shed before the cache
  EXPECT_EQ(m.pending_misses, 0u);
}

// The pending-miss watermark sheds lowest-budget-first: when the pool
// backs up past max_pending_misses, the queued miss with the earliest
// absolute deadline is the victim — unless the newcomer's own budget is
// even lower, in which case it is shed inline instead.
TEST(QueryServiceOverload, WatermarkShedsLowestBudgetFirst) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so;
  so.num_threads = 1;  // one worker: everything behind the gate queues
  so.clock = clock;
  so.overload.max_pending_misses = 2;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;
  const uint64_t now = clock->NowMicros();

  auto submit_one = [&](const char* q, uint64_t deadline,
                        BatchCollector* collector) {
    service.Submit(api::QueryRequest(q).WithOptions(options), deadline,
                   collector->Sink());
  };

  // Park the single worker on a deadline-less miss so subsequent misses
  // pile up as pending.
  gated.CloseGate();
  BatchCollector blocker(1);
  submit_one("faloutsos", 0, &blocker);
  gated.WaitUntilBlocked();  // worker busy; pending count is now exact

  BatchCollector early(1), late(1), mid(1), hopeless(1);
  submit_one("databases", now + 1'000, &early);  // pending #1
  submit_one("mining", now + 2'000, &late);      // pending #2 — watermark
  // Newcomer with more budget than the earliest pending: the earliest
  // ("databases") is the victim and the newcomer takes its place.
  submit_one("graphs", now + 1'500, &mid);
  // Newcomer with less budget than every pending miss: shed inline.
  submit_one("clustering", now + 500, &hopeless);
  EXPECT_EQ(hopeless.answered(0), 1);
  EXPECT_EQ(hopeless.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);

  gated.OpenGate();
  blocker.Wait();
  early.Wait();
  late.Wait();
  mid.Wait();

  EXPECT_TRUE(blocker.response(0).ok());
  EXPECT_EQ(early.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(late.response(0).ok());
  EXPECT_TRUE(mid.response(0).ok());
  Metrics m = service.metrics();
  EXPECT_EQ(m.sheds_at_admission, 2u);  // "databases" victim + "clustering"
  EXPECT_EQ(m.sheds_at_dequeue, 0u);
  EXPECT_EQ(m.pending_misses, 0u);
}

// Deadline-less work has infinite budget: it is never displaced by a
// finite-budget newcomer — the newcomer is shed instead.
TEST(QueryServiceOverload, DeadlinelessWorkIsNeverTheWatermarkVictim) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so;
  so.num_threads = 1;
  so.clock = clock;
  so.overload.max_pending_misses = 1;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  auto submit_one = [&](const char* q, uint64_t deadline,
                        BatchCollector* collector) {
    service.Submit(api::QueryRequest(q).WithOptions(options), deadline,
                   collector->Sink());
  };

  gated.CloseGate();
  BatchCollector blocker(1);
  submit_one("faloutsos", 0, &blocker);
  gated.WaitUntilBlocked();

  BatchCollector patient(1), newcomer(1);
  submit_one("databases", 0, &patient);  // deadline-less, fills watermark
  submit_one("mining", clock->NowMicros() + 1'000'000, &newcomer);
  EXPECT_EQ(newcomer.answered(0), 1);  // shed inline, generous budget or not
  EXPECT_EQ(newcomer.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);

  gated.OpenGate();
  blocker.Wait();
  patient.Wait();
  EXPECT_TRUE(blocker.response(0).ok());
  EXPECT_TRUE(patient.response(0).ok());
  EXPECT_EQ(service.metrics().sheds_at_admission, 1u);
}

// A miss whose budget expires while queued behind a busy pool is answered
// kDeadlineExceeded when dequeued, before compute: zero backend I/O for
// the expired request, counted as a dequeue shed. The deadline is the
// request's deadline_micros budget stamped against the service clock, as
// the TCP front end does.
TEST(QueryServiceOverload, ExpiredWhileQueuedShedsAtDequeueWithoutCompute) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  CountingBackend counting(&gated);
  search::SearchContext ctx = BuildDblpContext(f.d, &counting);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so;
  so.num_threads = 1;
  so.clock = clock;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  uint64_t fetches_before = counting.fetches();
  BatchCollector blocker(1);
  service.Submit(api::QueryRequest("faloutsos").WithOptions(options),
                 /*deadline_micros=*/0, blocker.Sink());
  gated.WaitUntilBlocked();

  // Queue a miss with a 1ms budget, then burn the budget while it waits
  // behind the parked worker.
  BatchCollector doomed(1);
  api::QueryRequest tight = api::QueryRequest("databases")
                                .WithOptions(options)
                                .WithDeadlineMicros(1'000);
  const uint64_t deadline = clock->NowMicros() + tight.deadline_micros();
  service.Submit(std::move(tight), deadline, doomed.Sink());
  clock->AdvanceMicros(2'000);
  gated.OpenGate();
  blocker.Wait();
  doomed.Wait();

  EXPECT_TRUE(blocker.response(0).ok());
  EXPECT_EQ(doomed.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);
  // The blocker's compute is the only backend traffic after the gate
  // opened: the expired miss never touched it.
  uint64_t blocker_fetches = counting.fetches() - fetches_before;
  EXPECT_GT(blocker_fetches, 0u);
  // A twin context over its own counter establishes exactly how many
  // fetches one uncached "faloutsos" compute costs.
  CountingBackend twin_counter(&f.backend);
  search::SearchContext twin_ctx = BuildDblpContext(f.d, &twin_counter);
  uint64_t twin_before = twin_counter.fetches();
  (void)twin_ctx.Query("faloutsos", options);
  EXPECT_EQ(blocker_fetches, twin_counter.fetches() - twin_before);

  Metrics m = service.metrics();
  EXPECT_EQ(m.sheds_at_dequeue, 1u);
  EXPECT_EQ(m.sheds_at_admission, 0u);
  EXPECT_EQ(m.pending_misses, 0u);
}

// Pins the exact report the CLI's `metrics` command prints (osum_cli
// delegates to FormatMetricsReport, so this is the CLI output-shape test
// the negative-hit counters needed).
TEST(MetricsReport, ShapePinnedForTheCli) {
  Metrics m;
  m.queries = 7;
  m.cache.hits = 4;
  m.cache.negative_hits = 1;
  m.cache.misses = 3;
  m.cache.coalesced_waits = 2;
  m.cache.entries = 3;
  m.cache.approx_bytes = 4096;
  m.cache.evictions = 5;
  m.cache.admission_rejects = 6;
  m.cache.tracked_sightings = 2;
  m.sheds_at_admission = 3;
  m.sheds_at_dequeue = 1;
  m.pending_misses = 2;
  m.partials.hits = 12;
  m.partials.misses = 9;
  m.partials.inserts = 8;
  m.partials.discarded_inserts = 1;
  m.partials.evictions = 2;
  m.partials.entries = 6;
  m.partials.approx_bytes = 2048;
  m.joins.hits = 40;
  m.joins.misses = 11;
  m.joins.admitted = 8;
  m.joins.discarded_inserts = 1;
  m.joins.evictions = 3;
  m.joins.entries = 7;
  m.joins.approx_bytes = 1024;
  for (double v : {1.0, 2.0, 4.0}) m.latency_us.Add(v);
  for (double v : {1.0, 2.0}) m.hit_latency_us.Add(v);
  m.miss_latency_us.Add(4.0);

  EXPECT_EQ(FormatMetricsReport(m),
            "queries 7 | hits 4 (1 negative), misses 3, coalesced 2 | "
            "entries 3 (~4096 bytes), evictions 5\n"
            "policy: admission rejects 6 (2 tracked)\n"
            "overload: sheds 3 at admission + 1 at dequeue, "
            "2 misses pending\n"
            "partials: hits 12, misses 9, inserts 8 (1 discarded), "
            "evictions 2 | entries 6 (~2048 bytes)\n"
            "joins: hits 40, misses 11 (8 admitted), discarded 1, "
            "evictions 3, entries 7 (~1024 bytes)\n"
            "  latency      p50 2.0 us, p99 4.0 us, max 4.0 us\n"
            "    hits       p50 1.5 us, p99 2.0 us, max 2.0 us\n"
            "    neg hits   (no samples)\n"
            "    misses     p50 4.0 us, p99 4.0 us, max 4.0 us\n");
}

// TSan canary for the full serving stack: many driver threads hammer one
// service (Execute, single Submits and submitted pairs, overlapping keys)
// while the pool computes misses. Verifies every answer against
// precomputed goldens.
TEST(ServeConcurrencyStress, MixedTrafficOneService) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  search::SearchContext ctx = BuildDblpContext(f.d, &backend);
  ServiceOptions so;
  so.num_threads = 4;
  so.cache.max_entries = 4;  // fewer than the 8 queries: evicts too
  QueryService service(ctx, so);

  api::QueryOptions options;
  options.l = 8;
  options.max_results = 3;
  std::vector<std::string> mix = {"faloutsos",  "databases", "mining",
                                  "power law",  "clustering", "graphs",
                                  "christos faloutsos", "streams"};
  std::vector<std::string> golden;
  golden.reserve(mix.size());
  for (const std::string& q : mix) {
    golden.push_back(DeterministicResultText(ctx.Query(q, options)));
  }

  std::atomic<int> mismatches{0};
  auto check_response = [&](size_t qi, const api::QueryResponse& r) {
    if (!r.ok() || DeterministicResultText(r.result_list()) != golden[qi]) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };

  constexpr size_t kDrivers = 4;
  constexpr int kRounds = 6;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (size_t w = 0; w < kDrivers; ++w) {
    drivers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = (round + w) % mix.size();
        check_response(qi,
                       service.Execute(api::QueryRequest(mix[qi], options)));
        size_t ai = (qi + 1) % mix.size();
        check_response(
            ai,
            SubmitFuture(&service, api::QueryRequest(mix[ai], options)).get());
        size_t ei = (qi + 2) % mix.size();
        check_response(ei,
                       service.Execute(api::QueryRequest(mix[ei], options)));
        // A submitted pair per round rides the same cache and pool.
        size_t bi = (qi + 3) % mix.size();
        std::vector<api::QueryResponse> batch =
            ExecuteBatch(&service, Requests({mix[qi], mix[bi]}, options));
        check_response(qi, batch[0]);
        check_response(bi, batch[1]);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Metrics m = service.metrics();
  // 5 recorded queries per round: two Executes, one single Submit and the
  // submitted pair.
  EXPECT_EQ(m.queries,
            static_cast<uint64_t>(kDrivers) * kRounds * 5);
  EXPECT_EQ(m.cache.hits + m.cache.misses + m.cache.coalesced_waits,
            m.queries);
}

}  // namespace
}  // namespace osum::serve
