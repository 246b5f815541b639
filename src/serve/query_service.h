// The async query-serving layer: a frozen SearchContext fronted by a
// thread pool and a stampede-safe result cache.
//
// QueryService is what a production deployment would put between user
// traffic and the engine. The public contract is the api layer's
// request/response pair:
//   - Execute(QueryRequest) -> QueryResponse — cache-aware synchronous
//     query; validation and backend failures come back as typed Status
//     codes, and response.stats reports cache hit/miss, wall time and the
//     cache epoch.
//   - SubmitAsync(QueryRequest) -> future<QueryResponse> — same answer,
//     computed on the service's pool.
//   - SubmitBatchAsync(requests) -> one future per request. Fully async:
//     cache hits resolve immediately, misses fan out over the shared pool,
//     and the submitting thread never blocks — the composition point for
//     an event-loop/RPC front end. Duplicate misses within (and across)
//     batches coalesce onto one computation.
// Every path shares one ResultCache keyed by api::CanonicalQueryKey, so
// skewed workloads — the realistic shape of keyword traffic — collapse
// onto one computation per distinct (keyword set, options) pair.
//
// The string-based overloads (Query / SubmitAsync / Submit / QueryBatch)
// are deprecated shims over the same machinery: they keep the historical
// exception-throwing, ResultPtr-returning contract. QueryBatch is
// reimplemented on top of the per-query-future fan-out and stays
// byte-identical to serial execution.
//
// Lifetime and threading contract:
//   - The service *borrows* its SearchContext; the caller keeps it alive
//     (SizeLSearchEngine::RegisterSubject now throws after BuildIndex
//     precisely so a borrowed context cannot be destroyed under a
//     service). All public methods are thread-safe.
//   - When the context is rebuilt, call RebindContext(new_ctx) BEFORE
//     destroying the old one: it swaps the pointer, bumps the cache
//     epoch, and blocks until every in-flight query still executing
//     against the old context has finished — once it returns, the old
//     context is unreferenced by the service and no result computed
//     against it is ever served, so the caller may destroy it.
//   - Callbacks passed to Submit run on worker threads and must not throw
//     (util::ThreadPool contract). They must not block on QueryBatch or on
//     SubmitBatchAsync futures (a blocked worker can deadlock a fully
//     occupied pool); Execute, Query and SubmitAsync are safe from
//     callbacks.
#ifndef OSUM_SERVE_QUERY_SERVICE_H_
#define OSUM_SERVE_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace osum::serve {

/// Overload-control knobs. The service converts each request's relative
/// `deadline_micros` budget into an absolute deadline at admission (via
/// the same injectable Clock the cache policies use) and sheds work that
/// cannot be answered in time — before it ever touches the backend.
struct OverloadOptions {
  /// High watermark on pooled misses (admitted but not yet computing).
  /// When an arriving miss finds this many already pending, the
  /// lowest-budget request (earliest absolute deadline; deadline-less
  /// work has infinite budget and is never the victim over finite-budget
  /// work) is shed with kDeadlineExceeded. 0 = unlimited.
  size_t max_pending_misses = 0;
};

struct ServiceOptions {
  /// Worker threads for the async paths and batch misses. 0 = hardware
  /// concurrency.
  size_t num_threads = 0;
  ResultCacheOptions cache;
  OverloadOptions overload;
  /// Sizing knob for the bound context's partials memo of per-subject OS
  /// trees (the finer-grained reuse tier under the result cache; size-l
  /// still runs per request; see core/partials_memo.h). Applied to the
  /// context at construction and to every context passed to
  /// RebindContext; nullopt leaves each context's own configuration
  /// untouched.
  std::optional<core::PartialsMemoOptions> partials;
  /// Per-outcome latency reservoir size (most recent samples kept).
  size_t latency_window = 4096;
};

class QueryService {
 public:
  /// `context` must outlive the service (or be swapped out via
  /// RebindContext before it dies).
  explicit QueryService(const search::SearchContext& context,
                        ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Cache-aware synchronous query — the public contract every other
  /// entry point rides on. Hit: the shared immutable cached result list,
  /// zero-copy. Miss: computes inline (coalescing concurrent misses for
  /// the same key), publishes, returns. Invalid requests and backend
  /// failures come back as non-OK statuses (nothing is cached for
  /// either); result bytes are identical to SearchContext::Query with the
  /// same arguments.
  api::QueryResponse Execute(const api::QueryRequest& request);

  /// Async submission of one request: runs on the service's pool; the
  /// future resolves to the same value Execute would return (it never
  /// carries an exception).
  std::future<api::QueryResponse> SubmitAsync(api::QueryRequest request);

  /// The fully async batch: one future per request, in input order.
  /// Never blocks the submitting thread — cache hits (and invalid
  /// requests) resolve immediately, misses fan out over the shared pool
  /// with duplicates coalesced. Futures are independent: consume them in
  /// any order, or drop them (the computations still populate the cache).
  std::vector<std::future<api::QueryResponse>> SubmitBatchAsync(
      std::vector<api::QueryRequest> requests);

  /// Callback twin of SubmitBatchAsync, for event-loop front ends
  /// (net::Server) that cannot block on futures: identical fan-out —
  /// invalid requests and cache hits are answered inline on the
  /// submitting thread, misses run on the pool with duplicates coalesced
  /// — but each answer is delivered as on_done(index, response) instead
  /// of a future. on_done may therefore run on the submitting thread or
  /// on a worker; it must not throw and must not block on other batched
  /// QueryService calls. Every request is answered exactly once: if the
  /// pool has already stopped (service teardown), the miss is answered
  /// inline with kInternal rather than dropped.
  void SubmitBatch(std::vector<api::QueryRequest> requests,
                   std::function<void(size_t, api::QueryResponse)> on_done);

  /// Deadline-aware SubmitBatch: `deadlines_micros[i]` is the ABSOLUTE
  /// deadline of requests[i] on this service's clock() (0 = none) — the
  /// wire front end stamps `now + request.deadline_micros()` at decode
  /// time, so time spent queued in the front end counts against the
  /// budget. An expired request is answered kDeadlineExceeded at
  /// admission without touching the cache or backend
  /// (metrics().sheds_at_admission); a miss whose deadline expires while
  /// queued behind the pool is answered the same way when dequeued,
  /// before compute (metrics().sheds_at_dequeue). The plain SubmitBatch
  /// overload derives deadlines from each request's relative budget at
  /// entry and forwards here.
  void SubmitBatch(std::vector<api::QueryRequest> requests,
                   std::vector<uint64_t> deadlines_micros,
                   std::function<void(size_t, api::QueryResponse)> on_done);

  /// Blocking batch over SubmitBatchAsync: responses in input order.
  /// Per-request failures are per-response statuses. Must not be called
  /// from a worker callback (see header note).
  std::vector<api::QueryResponse> ExecuteBatch(
      std::vector<api::QueryRequest> requests);

  /// Deprecated shim: cache-aware synchronous query with the historical
  /// contract — backend failures propagate as exceptions. Prefer Execute.
  ResultPtr Query(std::string_view keywords,
                  const search::QueryOptions& options = {});

  /// Deprecated shim: async submission with the historical contract (the
  /// future rethrows query exceptions). Prefer SubmitAsync(QueryRequest).
  std::future<ResultPtr> SubmitAsync(std::string keywords,
                                     search::QueryOptions options = {});

  /// Fire-and-forget: `callback` is invoked on a worker thread with the
  /// result, or with nullptr if the query threw (there is no future to
  /// carry the exception). The callback must not throw and must not block
  /// on other QueryService batched calls.
  void Submit(std::string keywords, search::QueryOptions options,
              std::function<void(ResultPtr)> callback);

  /// Deprecated shim, reimplemented over the per-query-future fan-out:
  /// cache-aware batch, results in input order, byte-identical to serial
  /// execution. Hits are answered inline from the cache; misses run on
  /// the pool (duplicates within the batch coalesce onto one
  /// computation). Blocks until every answer is ready. If any miss
  /// computation throws, the remaining misses still run and the first
  /// exception (in input order) is rethrown on the calling thread. Must
  /// not be called from a worker callback. Prefer ExecuteBatch /
  /// SubmitBatchAsync.
  std::vector<ResultPtr> QueryBatch(std::span<const std::string> queries,
                                    const search::QueryOptions& options = {});

  /// Atomically redirects future queries to `context`, invalidates the
  /// cache, and drains: blocks until every in-flight query still executing
  /// against the previous context has finished. Once this returns, the
  /// previous context is unreferenced by the service and no cached result
  /// computed against it can be served; the caller may then destroy it.
  void RebindContext(const search::SearchContext& context);

  /// Drops cached entries without invalidating (memory relief).
  void ClearCache() { cache_.Clear(); }

  /// Maintenance tick for the cache policy: erases expired entries and
  /// prunes stale doorkeeper sightings (see ResultCache::SweepExpired).
  /// Returns the number of entries erased. Optional — lazy expiry already
  /// guarantees expired entries are never served.
  size_t SweepExpiredCache() { return cache_.SweepExpired(); }

  /// The currently bound context. The reference itself is not pinned —
  /// it stays valid only under the caller's own lifetime coordination
  /// (no concurrent RebindContext-then-destroy).
  const search::SearchContext& context() const {
    util::MutexLock lock(context_mu_);
    return *binding_->ctx;
  }
  size_t num_threads() const { return pool_.size(); }

  /// The time source deadlines are measured against: options.cache.clock,
  /// or the shared SystemClock when none was injected. Front ends stamp
  /// absolute deadlines (`clock()->NowMicros() + budget`) on this clock so
  /// service-side expiry checks compare like with like.
  const std::shared_ptr<const Clock>& clock() const { return clock_; }

  /// Counters + latency reservoir snapshot (see serve/metrics.h).
  Metrics metrics() const;

 private:
  /// The bound context plus the number of queries currently executing
  /// against it (both guarded by context_mu_). Queries pin the binding
  /// for the duration of a compute; RebindContext retires a binding only
  /// after its pins drain to zero, so "the caller may destroy the old
  /// context once RebindContext returns" is safe, not just documented.
  struct Binding {
    const search::SearchContext* ctx = nullptr;
    size_t pins = 0;
  };

  /// RAII pin on the currently bound context: between construction and
  /// destruction the pinned context cannot be retired by RebindContext,
  /// so it is safe to query even while a rebind is in progress.
  class PinnedContext {
   public:
    explicit PinnedContext(QueryService* service);
    ~PinnedContext();
    PinnedContext(const PinnedContext&) = delete;
    PinnedContext& operator=(const PinnedContext&) = delete;
    const search::SearchContext* operator->() const { return binding_->ctx; }

   private:
    QueryService* const service_;
    Binding* binding_;
  };

  /// Fixed-capacity reservoir of the most recent samples (guarded by
  /// latency_mu_); keeps metrics() bounded under sustained traffic.
  struct LatencyRing {
    std::vector<double> samples;
    size_t next = 0;

    void Add(double v, size_t window);
    util::Summary Snapshot() const;
  };

  /// The one cache-aware compute path every entry point rides: hit,
  /// coalesced wait, or inline compute under a context pin. `key` is the
  /// precomputed canonical key (canonicalized exactly once per query —
  /// callers thread it through). Records hit/miss latency on success
  /// (negative answers attributed separately); compute exceptions
  /// propagate (and nothing is recorded or cached).
  ResultPtr ComputeCached(std::string_view keywords,
                          const search::QueryOptions& options,
                          const std::string& key, bool* computed_out);

  /// Status-typed wrapper over ComputeCached for a pre-validated request;
  /// never throws (the future-based paths rely on that).
  api::QueryResponse ExecuteWithKey(const api::QueryRequest& request,
                                    const std::string& key);

  /// One admitted-but-not-started pooled miss. Lives in the pending
  /// registry between admission and dequeue so the watermark shedder can
  /// pick a victim by deadline; all fields are guarded by pending_mu_
  /// (by convention — tickets are shared heap objects, so the analysis
  /// cannot bind their fields to the service's mutex; every access site
  /// is inside a pending_mu_ critical section in this file).
  struct MissTicket {
    uint64_t deadline = 0;  // absolute micros; 0 = no deadline
    bool shed = false;      // victim of a watermark shed (already counted)
    bool in_queue = false;  // registered in deadline_queue_
    std::multimap<uint64_t, std::shared_ptr<MissTicket>>::iterator it;
  };

  /// Why a pooled miss was not computed (BeginMiss result).
  enum class MissGate {
    kProceed,
    kShedByWatermark,   // admission-time victim; counted there
    kExpiredInQueue,    // deadline passed while queued; counts at dequeue
  };

  /// Admission side of the watermark: registers the miss as pending, or
  /// sheds lowest-budget-first when max_pending_misses is hit. Returns
  /// false when the NEW request is the victim (caller answers
  /// kDeadlineExceeded inline); the admission-expiry check is the
  /// caller's, before the cache lookup.
  bool AdmitMiss(uint64_t deadline, std::shared_ptr<MissTicket>* ticket_out)
      EXCLUDES(pending_mu_);

  /// Dequeue side: unregisters the ticket and re-checks the budget.
  MissGate BeginMiss(const std::shared_ptr<MissTicket>& ticket)
      EXCLUDES(pending_mu_);

  /// Rolls back AdmitMiss when the pool rejected the task (teardown).
  void AbandonMiss(const std::shared_ptr<MissTicket>& ticket)
      EXCLUDES(pending_mu_);

  /// The kDeadlineExceeded response for a shed request.
  api::QueryResponse ShedResponse(const char* why);

  void RecordLatency(bool hit, bool negative, double micros)
      EXCLUDES(latency_mu_);

  const ServiceOptions options_;
  const std::shared_ptr<const Clock> clock_;

  /// Pending pooled misses: count of everything admitted-not-started plus
  /// a deadline-ordered index of the deadline-carrying subset (the
  /// watermark shedder's victim queue). Shed counters live here too; all
  /// guarded by pending_mu_.
  mutable util::Mutex pending_mu_;
  size_t pending_misses_ GUARDED_BY(pending_mu_) = 0;
  std::multimap<uint64_t, std::shared_ptr<MissTicket>> deadline_queue_
      GUARDED_BY(pending_mu_);
  uint64_t sheds_at_admission_ GUARDED_BY(pending_mu_) = 0;
  uint64_t sheds_at_dequeue_ GUARDED_BY(pending_mu_) = 0;

  mutable util::Mutex context_mu_;
  mutable util::CondVar context_cv_;  // signaled when pins hit 0
  std::unique_ptr<Binding> binding_ GUARDED_BY(context_mu_)
      PT_GUARDED_BY(context_mu_);

  ResultCache cache_;

  mutable util::Mutex latency_mu_;
  uint64_t queries_ GUARDED_BY(latency_mu_) = 0;
  LatencyRing all_latency_ GUARDED_BY(latency_mu_);
  LatencyRing hit_latency_ GUARDED_BY(latency_mu_);
  LatencyRing negative_hit_latency_ GUARDED_BY(latency_mu_);
  LatencyRing miss_latency_ GUARDED_BY(latency_mu_);

  // Last member on purpose: destroyed first, so the pool drains queued
  // tasks (which touch cache_/context_/latency rings) while the rest of
  // the service is still alive.
  util::ThreadPool pool_;
};

}  // namespace osum::serve

#endif  // OSUM_SERVE_QUERY_SERVICE_H_
