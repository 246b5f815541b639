// The async query-serving layer: a frozen SearchContext fronted by a
// thread pool and a stampede-safe result cache.
//
// QueryService is what a production deployment would put between user
// traffic and the engine. The public contract is the api layer's
// request/response pair, served by one path per job:
//   - SubmitBatch(requests, deadlines, on_done) — the served path (what
//     net::Server calls). Invalid requests, expired budgets and cache
//     hits are answered inline on the submitting thread; misses pass the
//     pending-miss watermark and fan out over the shared pool, with
//     duplicates coalesced onto one computation. The submitting thread
//     never blocks. The relative-deadline SubmitBatch overload stamps
//     deadlines at entry and forwards here, and ExecuteBatch is its
//     blocking wrapper.
//   - Execute(QueryRequest) -> QueryResponse — cache-aware synchronous
//     query, computed inline on the calling thread; SubmitAsync is the
//     same call hopped onto the pool.
// Failures are typed Status codes, never exceptions, and response.stats
// reports cache hit/miss, wall time and the cache epoch. Every path shares
// one ResultCache keyed by api::CanonicalQueryKey, so skewed workloads —
// the realistic shape of keyword traffic — collapse onto one computation
// per distinct (keyword set, options) pair.
//
// Lifetime and threading contract:
//   - The service *borrows* its SearchContext; the caller keeps it alive.
//     All public methods are thread-safe.
//   - When the context is rebuilt, call RebindContext(new_ctx) BEFORE
//     destroying the old one: it swaps the pointer, bumps the cache
//     epoch, and blocks until every in-flight query still executing
//     against the old context has finished — once it returns, the old
//     context is unreferenced by the service and no result computed
//     against it is ever served, so the caller may destroy it.
//   - SubmitBatch callbacks may run on worker threads and must not throw
//     (util::ThreadPool contract). They must not block on ExecuteBatch or
//     on SubmitAsync futures (a blocked worker can deadlock a fully
//     occupied pool); Execute is safe from callbacks.
#ifndef OSUM_SERVE_QUERY_SERVICE_H_
#define OSUM_SERVE_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
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

  /// Cache-aware synchronous query. Hit: the shared immutable cached
  /// result list, zero-copy. Miss: computes inline (coalescing concurrent
  /// misses for the same key), publishes, returns. Invalid requests and
  /// backend failures come back as non-OK statuses (nothing is cached for
  /// either); result bytes are identical to SearchContext::Query with the
  /// same arguments.
  api::QueryResponse Execute(const api::QueryRequest& request);

  /// Async submission of one request: runs Execute on the service's pool;
  /// the future resolves to the same value Execute would return (it never
  /// carries an exception).
  std::future<api::QueryResponse> SubmitAsync(api::QueryRequest request);

  /// Relative-deadline SubmitBatch: derives each request's absolute
  /// deadline from its `deadline_micros` budget at entry and forwards to
  /// the absolute overload below.
  void SubmitBatch(std::vector<api::QueryRequest> requests,
                   std::function<void(size_t, api::QueryResponse)> on_done);

  /// The batch path, for event-loop front ends (net::Server) that cannot
  /// block: invalid requests and cache hits are answered inline on the
  /// submitting thread, misses run on the pool with duplicates coalesced,
  /// and each answer is delivered as on_done(index, response). on_done
  /// may therefore run on the submitting thread or on a worker; it must
  /// not throw and must not block on other batched QueryService calls.
  /// Every request is answered exactly once: if the pool has already
  /// stopped (service teardown), the miss is answered inline with
  /// kInternal rather than dropped.
  ///
  /// `deadlines_micros[i]` is the ABSOLUTE deadline of requests[i] on this
  /// service's clock() (0 = none) — the wire front end stamps
  /// `now + request.deadline_micros()` at decode time, so time spent
  /// queued in the front end counts against the budget. An expired
  /// request is answered kDeadlineExceeded at admission without touching
  /// the cache or backend (metrics().sheds_at_admission); a miss whose
  /// deadline expires while queued behind the pool is answered the same
  /// way when dequeued, before compute (metrics().sheds_at_dequeue).
  void SubmitBatch(std::vector<api::QueryRequest> requests,
                   std::vector<uint64_t> deadlines_micros,
                   std::function<void(size_t, api::QueryResponse)> on_done);

  /// Blocking batch over SubmitBatch: responses in input order.
  /// Per-request failures are per-response statuses. Must not be called
  /// from a worker callback (see header note).
  std::vector<api::QueryResponse> ExecuteBatch(
      std::vector<api::QueryRequest> requests);

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

  /// The one cache-aware compute path every entry point rides for a
  /// pre-validated request: hit, coalesced wait, or inline compute under a
  /// context pin. `key` is the request's canonical key (canonicalized
  /// exactly once per query — callers thread it through). Records
  /// hit/miss latency on success (negative answers attributed
  /// separately); backend failures become kBackendError and nothing is
  /// recorded or cached. Never throws (the pooled paths rely on that).
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
