// The query-serving layer: a frozen SearchContext fronted by a thread
// pool and a stampede-safe result cache.
//
// QueryService is what a production deployment would put between user
// traffic and the engine. The public contract is the api layer's
// request/response pair, served by one path per job:
//   - Submit(request, deadline, on_done) — the served path (what
//     net::Server calls, once per decoded frame). An invalid request, an
//     expired budget and a cache hit are answered inline on the
//     submitting thread; a miss passes the pending-miss watermark and
//     runs on the pool, coalesced with any concurrent miss for the same
//     key. The submitting thread never blocks.
//   - Execute(request) — cache-aware synchronous query, computed inline
//     on the calling thread (the CLI, bench_cache, tests).
// Both ride one compute path (ExecuteWithKey) and one ResultCache keyed
// by api::CanonicalQueryKey, so skewed workloads — the realistic shape of
// keyword traffic — collapse onto one computation per distinct (keyword
// set, options) pair. Failures are typed Status codes, never exceptions,
// and response.stats reports cache hit/miss and wall time.
//
// Lifetime and threading contract:
//   - The service *borrows* its SearchContext and serves that one context
//     until it is destroyed; the caller keeps the context alive for the
//     service's whole life. All public methods are thread-safe.
//   - To serve a rebuilt context, shut the front end down, destroy the
//     service, then the old context, and construct a new service over the
//     new one. The result cache, the context's partials memo and its join
//     tier therefore never hold an entry computed from other data.
//   - Destruction drains: misses already on the pool finish (and answer)
//     before the service is gone.
//   - Submit callbacks may run on worker threads and must not throw
//     (util::ThreadPool contract). They must not block waiting for other
//     submitted requests (a blocked worker can deadlock a fully occupied
//     pool); Execute and Submit are safe from callbacks.
#ifndef OSUM_SERVE_QUERY_SERVICE_H_
#define OSUM_SERVE_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Overload-control knobs. Submit takes each request's absolute deadline
/// on the service clock (ServiceOptions::clock) and sheds work that
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
  /// Worker threads for submitted misses. 0 = hardware concurrency.
  size_t num_threads = 0;
  ResultCacheOptions cache;
  OverloadOptions overload;
  /// Time source for request deadlines; null uses the shared SystemClock.
  /// Tests inject a FakeClock here.
  std::shared_ptr<const Clock> clock;
};

class QueryService {
 public:
  /// `context` must outlive the service.
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

  /// The served path, for event-loop front ends (net::Server) that cannot
  /// block. An invalid request, an expired budget and a cache hit are
  /// answered inline on the submitting thread; a miss runs on the pool,
  /// coalesced with concurrent misses for the same key. on_done may
  /// therefore run on the submitting thread or on a worker; it must not
  /// throw. The request is answered exactly once: if the pool has already
  /// stopped (service teardown), the miss is answered inline with
  /// kInternal rather than dropped.
  ///
  /// `deadline_micros` is the ABSOLUTE deadline on clock() (0 = none).
  /// net::Server stamps `now + request.deadline_micros()` at dispatch, so
  /// the wait for a round-robin turn is not charged to the budget but
  /// time queued behind the pool is. An expired request is answered
  /// kDeadlineExceeded at admission without touching the cache or backend
  /// (metrics().sheds_at_admission); a miss whose deadline expires while
  /// queued behind the pool is answered the same way when dequeued,
  /// before compute (metrics().sheds_at_dequeue).
  void Submit(api::QueryRequest request, uint64_t deadline_micros,
              std::function<void(api::QueryResponse)> on_done);

  size_t num_threads() const { return pool_.size(); }

  /// The time source deadlines are measured against: options.clock, or
  /// the shared SystemClock when none was injected. Front ends stamp
  /// absolute deadlines (`clock()->NowMicros() + budget`, saturating) on
  /// this clock so service-side expiry checks compare like with like.
  const std::shared_ptr<const Clock>& clock() const { return clock_; }

  /// Counters + latency reservoir snapshot (see serve/metrics.h).
  Metrics metrics() const;

 private:
  /// Fixed-capacity reservoir of the most recent samples (guarded by
  /// latency_mu_); keeps metrics() bounded under sustained traffic.
  struct LatencyRing {
    std::vector<double> samples;
    size_t next = 0;

    void Add(double v);
    util::Summary Snapshot() const;
  };

  /// The one cache-aware compute path both entry points ride for a
  /// pre-validated request: hit, coalesced wait, or inline compute.
  /// `key` is the request's canonical key (canonicalized
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

  const search::SearchContext& context_;

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
