// QueryService end-to-end: cached results must be byte-identical to
// uncached SearchContext::Query on both join back ends, the async paths
// (future + callback) must agree with the sync path, the batched path must
// be cache-aware, and rebinding a rebuilt context must invalidate — a
// stale context can never serve cached results.
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

/// Collects SubmitBatch callbacks and blocks until all have fired.
class BatchCollector {
 public:
  explicit BatchCollector(size_t n) : answered_(n, 0), responses_(n) {}

  std::function<void(size_t, api::QueryResponse)> Sink() {
    return [this](size_t i, api::QueryResponse response) {
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

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> answered_;
  std::vector<api::QueryResponse> responses_;
};

/// Delegating back end that can hold every join call on a gate (to keep a
/// query deterministically in flight) or fail it (to make Query throw) —
/// the levers the rebind-drain and batch-exception tests need.
class GatedBackend : public core::OsBackend {
 public:
  explicit GatedBackend(core::OsBackend* inner) : inner_(inner) {}

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
  explicit CountingBackend(core::OsBackend* inner) : inner_(inner) {}

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
      service.SubmitAsync(api::QueryRequest("databases", options));
  api::QueryResponse from_future = fut.get();
  ASSERT_TRUE(from_future.ok()) << from_future.status.ToString();
  EXPECT_EQ(DeterministicResultText(from_future.result_list()), golden);

  BatchCollector delivered(1);
  service.SubmitBatch({api::QueryRequest("databases", options)},
                      delivered.Sink());
  delivered.Wait();
  const api::QueryResponse& from_callback = delivered.response(0);
  ASSERT_TRUE(from_callback.ok()) << from_callback.status.ToString();
  EXPECT_EQ(DeterministicResultText(from_callback.result_list()), golden);
  // The async paths share the cache: one compute total.
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
      service.ExecuteBatch(Requests(queries, options));
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
      service.ExecuteBatch(Requests(queries, options));
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(again[i].results.get(), batch[i].results.get()) << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 5u);
}

TEST(QueryServiceEpoch, RebindAfterRebuildNeverServesStaleResults) {
  ScoredDblp f(SmallDblpConfig());

  // Context #1 registers only Author; it misses paper subjects.
  std::vector<search::SearchContext::Subject> authors;
  authors.push_back({f.d.author, datasets::DblpAuthorGds(f.d)});
  search::SearchContext ctx1 =
      search::SearchContext::Build(f.d.db, &f.backend, std::move(authors));

  QueryService service(ctx1, SmallService());
  api::QueryOptions options;
  options.l = 8;
  options.max_results = 6;

  api::QueryResponse stale =
      service.Execute(api::QueryRequest("databases", options));
  ASSERT_TRUE(stale.ok());
  std::string stale_bytes = DeterministicResultText(stale.result_list());

  // The context is rebuilt richer (Author + Paper).
  search::SearchContext ctx2 = BuildDblpContext(f.d, &f.backend);

  service.RebindContext(ctx2);
  EXPECT_EQ(&service.context(), &ctx2);
  EXPECT_EQ(service.metrics().cache.epoch, 1u);
  EXPECT_EQ(service.metrics().cache.entries, 0u);

  api::QueryResponse fresh =
      service.Execute(api::QueryRequest("databases", options));
  ASSERT_TRUE(fresh.ok());
  std::string fresh_bytes = DeterministicResultText(fresh.result_list());
  EXPECT_EQ(fresh_bytes,
            DeterministicResultText(ctx2.Query("databases", options)));
  // The richer context genuinely changes the answer, so serving the old
  // entry would have been observable — and did not happen.
  EXPECT_NE(fresh_bytes, stale_bytes);
  EXPECT_EQ(service.metrics().cache.misses, 2u);
}

// The partials-memo half of the rebind contract (ISSUE 10): rebinding
// flushes the memos on BOTH sides of the swap — the outgoing context (it
// may be rebound again later) and the incoming one (it may carry partials
// computed before the rebind) — and metrics() follows the bound context.
TEST(QueryServiceEpoch, RebindFlushesThePartialsMemo) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext old_ctx = BuildDblpContext(f.d, &f.backend);
  search::SearchContext new_ctx = BuildDblpContext(f.d, &f.backend);

  QueryService service(old_ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm the bound context's memo through the service.
  ASSERT_TRUE(service.Execute(api::QueryRequest("databases", options)).ok());
  Metrics before = service.metrics();
  EXPECT_GT(before.partials.inserts, 0u);
  EXPECT_GT(before.partials.entries, 0u);
  EXPECT_EQ(before.partials.epoch, 0u);

  // Seed the NEW context's memo before it is bound — rebind must flush
  // this side too, not just the outgoing one.
  new_ctx.Query("databases", options);
  ASSERT_GT(new_ctx.partials_memo().metrics().entries, 0u);

  service.RebindContext(new_ctx);

  core::PartialsMemoMetrics old_memo = old_ctx.partials_memo().metrics();
  EXPECT_EQ(old_memo.entries, 0u);
  EXPECT_EQ(old_memo.epoch, 1u);
  Metrics after = service.metrics();  // now snapshots new_ctx's memo
  EXPECT_EQ(after.partials.entries, 0u);
  EXPECT_EQ(after.partials.epoch, 1u);

  // Post-rebind queries recompute from scratch with unchanged answers.
  api::QueryResponse fresh =
      service.Execute(api::QueryRequest("databases", options));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(DeterministicResultText(fresh.result_list()),
            DeterministicResultText(new_ctx.Query("databases", options)));
  EXPECT_GT(service.metrics().partials.misses, after.partials.misses);
}

// The lifetime half of the RebindContext contract: it must not return
// while a query is still executing against the old context, because the
// caller is entitled to destroy that context the moment it returns.
TEST(QueryServiceEpoch, RebindDrainsInFlightQueriesBeforeReturning) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  auto old_ctx = std::make_unique<search::SearchContext>(
      BuildDblpContext(f.d, &gated));
  search::SearchContext new_ctx = BuildDblpContext(f.d, &f.backend);

  QueryService service(*old_ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  std::future<api::QueryResponse> inflight =
      service.SubmitAsync(api::QueryRequest("databases", options));
  gated.WaitUntilBlocked();  // the miss has pinned old_ctx and is computing

  std::atomic<bool> rebound{false};
  std::thread rebinder([&] {
    service.RebindContext(new_ctx);
    rebound.store(true);
  });
  // While the old context is pinned, RebindContext must stay blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(rebound.load());

  gated.OpenGate();
  rebinder.join();
  EXPECT_TRUE(rebound.load());
  // The query drained before RebindContext returned, so its future is
  // already satisfied and destroying the old context now is safe (the
  // sanitizer lanes would flag a use-after-free here otherwise).
  ASSERT_TRUE(inflight.get().ok());
  old_ctx.reset();

  EXPECT_EQ(&service.context(), &new_ctx);
  api::QueryResponse fresh =
      service.Execute(api::QueryRequest("databases", options));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(DeterministicResultText(fresh.result_list()),
            DeterministicResultText(new_ctx.Query("databases", options)));
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
      service.ExecuteBatch(Requests(queries, options));
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
      service.ExecuteBatch(Requests(queries, options));
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
// uncached SearchContext::Query, share one cache with the async path, and
// report the cache outcome in stats.
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
  EXPECT_EQ(first.stats.epoch, 0u);
  EXPECT_EQ(DeterministicResultText(first.result_list()), golden);

  api::QueryResponse second = service.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.stats.cache_hit);
  // A hit shares the same immutable list, zero-copy.
  EXPECT_EQ(second.results.get(), first.results.get());

  // The sync and async paths ride one cache: the future resolves to the
  // very list the first response aliases.
  api::QueryResponse async = service.SubmitAsync(request).get();
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

// The batch acceptance contract: SubmitBatch returns while its misses are
// still computing — the submitting thread never blocks. The hit and the
// invalid request are answered before the call returns; the gated miss is
// not.
TEST(QueryServiceApi, SubmitBatchNeverBlocksTheSubmitter) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm one key so the batch mixes a ready hit with gated misses.
  api::QueryResponse warm =
      service.Execute(api::QueryRequest("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  gated.CloseGate();
  BatchCollector collector(4);
  service.SubmitBatch(
      Requests({"faloutsos", "databases", "", "mining"}, options),
      collector.Sink());
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

// Destruction-order regression: futures from SubmitAsync may outlive the
// QueryService. The destructor must block until in-flight misses
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
    futures.push_back(service->SubmitAsync(api::QueryRequest(q, options)));
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

// SubmitBatch (the TCP front end's entry point): every request is answered
// exactly once, hits and invalids inline, misses on the pool.
TEST(QueryServiceApi, SubmitBatchAnswersEveryRequestExactlyOnce) {
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
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> answered(requests.size(), 0);
  std::vector<api::QueryResponse> responses(requests.size());
  service.SubmitBatch(std::move(requests),
                      [&](size_t i, api::QueryResponse response) {
                        std::lock_guard<std::mutex> lock(mu);
                        ++answered[i];
                        responses[i] = std::move(response);
                        cv.notify_all();
                      });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] {
      for (int count : answered) {
        if (count == 0) return false;
      }
      return true;
    }));
  }
  for (int count : answered) {
    EXPECT_EQ(count, 1);
  }
  EXPECT_TRUE(responses[0].ok());
  EXPECT_TRUE(responses[0].stats.cache_hit);
  EXPECT_EQ(responses[0].results.get(), warm.results.get());
  EXPECT_TRUE(responses[1].ok());
  EXPECT_EQ(responses[2].status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[3].ok());
  // The duplicate coalesced onto one computation: shared immutable list.
  EXPECT_EQ(responses[3].results.get(), responses[1].results.get());
  EXPECT_EQ(service.metrics().cache.misses, 2u);  // warm + "databases"
}

// ExecuteBatch (the blocking layer over SubmitBatch) must stay
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
  std::vector<api::QueryResponse> batch = service.ExecuteBatch(requests);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << queries[i];
    EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
              DeterministicResultText(ctx.Query(queries[i], options)))
        << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 3u);  // distinct queries only

  // Re-running is pure hits on the same immutable lists.
  std::vector<api::QueryResponse> again = service.ExecuteBatch(requests);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(again[i].stats.cache_hit) << queries[i];
    EXPECT_EQ(again[i].results.get(), batch[i].results.get()) << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 3u);
}

TEST(QueryServiceApi, SubmitAsyncRequestAgreesWithExecute) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryRequest request = api::QueryRequest("databases").WithL(8);

  api::QueryResponse from_future = service.SubmitAsync(request).get();
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

// The ISSUE 5 acceptance scenario end-to-end, on a fake clock with zero
// sleeps: an expired positive entry and an expired negative entry each
// recompute exactly once (stampede coalescing preserved across expiry),
// and after a context rebind no pre-bump value is served regardless of
// how much TTL it had left.
TEST(QueryServicePolicy, ExpiryRecomputesOnceAndRebindBeatsTtl) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);

  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so = SmallService();
  so.cache.clock = clock;
  so.cache.policy.ttl_micros = 1000;
  so.cache.policy.negative_ttl_micros = 100;
  // The partials memo would serve the post-expiry recompute without
  // touching the (gated) backend — correct, but it would decouple the
  // gate from the stampede this test proves. Disable the context's memo
  // so the recompute demonstrably reaches the backend.
  core::PartialsMemoOptions no_partials;
  no_partials.enabled = false;
  ctx.partials_memo().Configure(no_partials);
  QueryService service(ctx, so);

  api::QueryOptions options;
  options.l = 8;
  api::QueryRequest pos = api::QueryRequest("databases").WithOptions(options);
  api::QueryRequest neg =
      api::QueryRequest("nosuchkeywordanywhere").WithOptions(options);

  // Warm both at t=0: deadlines land at +1000 (positive) / +100 (negative).
  ASSERT_TRUE(service.Execute(pos).ok());
  ASSERT_TRUE(service.Execute(neg).ok());
  EXPECT_EQ(service.metrics().cache.misses, 2u);

  // t=100: only the negative entry expired. Concurrent re-queries must
  // produce exactly one recompute (the others coalesce or hit).
  clock->AdvanceMicros(100);
  EXPECT_TRUE(service.Execute(pos).stats.cache_hit) << "positive still live";
  {
    constexpr size_t kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t w = 0; w < kThreads; ++w) {
      threads.emplace_back([&] {
        api::QueryResponse r = service.Execute(neg);
        if (!r.ok() || !r.stats.negative) ADD_FAILURE() << "bad neg answer";
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Metrics after_neg = service.metrics();
  EXPECT_EQ(after_neg.cache.misses, 3u);  // exactly one recompute
  EXPECT_EQ(after_neg.cache.negative_ttl_expiries, 1u);
  EXPECT_EQ(after_neg.cache.ttl_expiries, 0u);

  // t=1000: the positive entry expired. Hold the recompute on the gate so
  // the other callers are provably concurrent — still one compute.
  clock->AdvanceMicros(900);
  gated.CloseGate();
  std::vector<std::future<api::QueryResponse>> inflight;
  for (int i = 0; i < 3; ++i) inflight.push_back(service.SubmitAsync(pos));
  gated.WaitUntilBlocked();
  gated.OpenGate();
  for (auto& fut : inflight) {
    api::QueryResponse r = fut.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(DeterministicResultText(r.result_list()),
              DeterministicResultText(ctx.Query("databases", options)));
  }
  Metrics after_pos = service.metrics();
  EXPECT_EQ(after_pos.cache.misses, 4u);  // exactly one recompute
  EXPECT_EQ(after_pos.cache.ttl_expiries, 1u);

  // Rebind invalidates instantly: the fresh positive entry had ~900us of
  // TTL left and is unservable anyway.
  search::SearchContext rebuilt = BuildDblpContext(f.d, &f.backend);
  service.RebindContext(rebuilt);
  api::QueryResponse after_rebind = service.Execute(pos);
  ASSERT_TRUE(after_rebind.ok());
  EXPECT_FALSE(after_rebind.stats.cache_hit);
  EXPECT_EQ(after_rebind.stats.epoch, 1u);
}

TEST(QueryServicePolicy, SweepExpiredCacheDropsOnlyExpiredEntries) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so = SmallService();
  so.cache.clock = clock;
  so.cache.policy.ttl_micros = 1000;
  so.cache.policy.negative_ttl_micros = 100;
  QueryService service(ctx, so);

  ASSERT_TRUE(service.Execute(api::QueryRequest("databases")).ok());
  ASSERT_TRUE(
      service.Execute(api::QueryRequest("nosuchkeywordanywhere")).ok());
  EXPECT_EQ(service.SweepExpiredCache(), 0u);
  clock->AdvanceMicros(100);
  EXPECT_EQ(service.SweepExpiredCache(), 1u);  // the negative entry
  clock->AdvanceMicros(900);
  EXPECT_EQ(service.SweepExpiredCache(), 1u);  // the positive entry
  EXPECT_EQ(service.metrics().cache.entries, 0u);
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
  so.cache.clock = clock;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  // Warm the key so "shed beats a ready cache hit" is what gets proven.
  ASSERT_TRUE(service.Execute(api::QueryRequest("databases", options)).ok());
  uint64_t fetches_after_warm = counting.fetches();
  uint64_t hits_after_warm = service.metrics().cache.hits;

  std::vector<api::QueryRequest> requests;
  requests.push_back(api::QueryRequest("databases").WithOptions(options));
  std::vector<uint64_t> deadlines = {clock->NowMicros() - 1};
  BatchCollector collector(1);
  service.SubmitBatch(std::move(requests), std::move(deadlines),
                      collector.Sink());
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
  so.cache.clock = clock;
  so.overload.max_pending_misses = 2;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;
  const uint64_t now = clock->NowMicros();

  auto submit_one = [&](const char* q, uint64_t deadline,
                        BatchCollector* collector) {
    std::vector<api::QueryRequest> requests;
    requests.push_back(api::QueryRequest(q).WithOptions(options));
    service.SubmitBatch(std::move(requests), {deadline}, collector->Sink());
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
  so.cache.clock = clock;
  so.overload.max_pending_misses = 1;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  auto submit_one = [&](const char* q, uint64_t deadline,
                        BatchCollector* collector) {
    std::vector<api::QueryRequest> requests;
    requests.push_back(api::QueryRequest(q).WithOptions(options));
    service.SubmitBatch(std::move(requests), {deadline}, collector->Sink());
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
// the expired request, counted as a dequeue shed. Also exercises the
// relative-budget SubmitBatch overload (the deadline here comes from
// request.deadline_micros, stamped against the service clock at entry).
TEST(QueryServiceOverload, ExpiredWhileQueuedShedsAtDequeueWithoutCompute) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  CountingBackend counting(&gated);
  search::SearchContext ctx = BuildDblpContext(f.d, &counting);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so;
  so.num_threads = 1;
  so.cache.clock = clock;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  uint64_t fetches_before = counting.fetches();
  BatchCollector blocker(1);
  {
    std::vector<api::QueryRequest> requests;
    requests.push_back(api::QueryRequest("faloutsos").WithOptions(options));
    service.SubmitBatch(std::move(requests), blocker.Sink());
  }
  gated.WaitUntilBlocked();

  // Queue a miss with a 1ms budget via the RELATIVE overload, then burn
  // the budget while it waits behind the parked worker.
  BatchCollector doomed(1);
  {
    std::vector<api::QueryRequest> requests;
    requests.push_back(api::QueryRequest("databases")
                           .WithOptions(options)
                           .WithDeadlineMicros(1'000));
    service.SubmitBatch(std::move(requests), doomed.Sink());
  }
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
  m.cache.epoch = 2;
  m.cache.admission_rejects = 6;
  m.cache.tracked_sightings = 2;
  m.cache.ttl_expiries = 8;
  m.cache.negative_ttl_expiries = 9;
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
  m.partials.epoch = 1;
  for (double v : {1.0, 2.0, 4.0}) m.latency_us.Add(v);
  for (double v : {1.0, 2.0}) m.hit_latency_us.Add(v);
  m.miss_latency_us.Add(4.0);

  EXPECT_EQ(FormatMetricsReport(m),
            "queries 7 | hits 4 (1 negative), misses 3, coalesced 2 | "
            "entries 3 (~4096 bytes), evictions 5, epoch 2\n"
            "policy: admission rejects 6 (2 tracked), ttl expiries "
            "8 positive + 9 negative\n"
            "overload: sheds 3 at admission + 1 at dequeue, "
            "2 misses pending\n"
            "partials: hits 12, misses 9, inserts 8 (1 discarded), "
            "evictions 2 | entries 6 (~2048 bytes), epoch 1\n"
            "  latency      p50 2.0 us, p99 4.0 us, max 4.0 us\n"
            "    hits       p50 1.5 us, p99 2.0 us, max 2.0 us\n"
            "    neg hits   (no samples)\n"
            "    misses     p50 4.0 us, p99 4.0 us, max 4.0 us\n");
}

// TSan canary for the full serving stack: many driver threads hammer one
// service (sync + async + batch, overlapping keys) while the pool computes
// misses. Verifies every answer against precomputed goldens.
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
            ai, service.SubmitAsync(api::QueryRequest(mix[ai], options)).get());
        size_t ei = (qi + 2) % mix.size();
        check_response(ei,
                       service.Execute(api::QueryRequest(mix[ei], options)));
        // A two-request batch per round rides the same cache and pool.
        size_t bi = (qi + 3) % mix.size();
        std::vector<api::QueryResponse> batch =
            service.ExecuteBatch(Requests({mix[qi], mix[bi]}, options));
        check_response(qi, batch[0]);
        check_response(bi, batch[1]);
        if (w == 0 && round == kRounds / 2) service.ClearCache();
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Metrics m = service.metrics();
  // 5 recorded queries per round: two Executes, one SubmitAsync and the
  // 2-request batch.
  EXPECT_EQ(m.queries,
            static_cast<uint64_t>(kDrivers) * kRounds * 5);
  EXPECT_EQ(m.cache.hits + m.cache.misses + m.cache.coalesced_waits,
            m.queries);
}

}  // namespace
}  // namespace osum::serve
