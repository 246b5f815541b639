#include "serve/query_service.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "util/timer.h"

namespace osum::serve {
namespace {

/// The zero-copy bridge from the cache's value type to the response's:
/// shares ownership of the CachedResult while exposing only its immutable
/// result list.
api::SharedResults AliasResults(const ResultPtr& cached) {
  return api::SharedResults(cached, &cached->results);
}

}  // namespace

void QueryService::LatencyRing::Add(double v, size_t window) {
  if (window == 0) return;
  if (samples.size() < window) {
    samples.push_back(v);
  } else {
    samples[next] = v;
  }
  next = (next + 1) % window;
}

util::Summary QueryService::LatencyRing::Snapshot() const {
  util::Summary s;
  for (double v : samples) s.Add(v);
  return s;
}

QueryService::PinnedContext::PinnedContext(QueryService* service)
    : service_(service) {
  util::MutexLock lock(service_->context_mu_);
  binding_ = service_->binding_.get();
  ++binding_->pins;
}

QueryService::PinnedContext::~PinnedContext() {
  util::MutexLock lock(service_->context_mu_);
  if (--binding_->pins == 0) service_->context_cv_.NotifyAll();
}

QueryService::QueryService(const search::SearchContext& context,
                           ServiceOptions options)
    : options_(options),
      clock_(options.cache.clock != nullptr
                 ? options.cache.clock
                 : std::shared_ptr<const Clock>(SystemClock::Instance())),
      binding_(new Binding{&context, 0}),
      cache_(options.cache),
      pool_(options.num_threads == 0 ? util::ThreadPool::HardwareThreads()
                                     : options.num_threads) {}

bool QueryService::AdmitMiss(uint64_t deadline,
                             std::shared_ptr<MissTicket>* ticket_out) {
  util::MutexLock lock(pending_mu_);
  const size_t watermark = options_.overload.max_pending_misses;
  if (watermark != 0 && pending_misses_ >= watermark) {
    // Shed lowest-budget-first: the earliest absolute deadline goes.
    // Deadline-less work has infinite budget, so a finite-budget request
    // never displaces it — and when nothing pending carries a deadline,
    // the newcomer (finite or not, it is the youngest claim on a full
    // queue) is the victim.
    auto earliest = deadline_queue_.begin();
    if (earliest == deadline_queue_.end() ||
        (deadline != 0 && deadline <= earliest->first)) {
      ++sheds_at_admission_;
      return false;
    }
    earliest->second->shed = true;
    earliest->second->in_queue = false;
    deadline_queue_.erase(earliest);
    --pending_misses_;
    ++sheds_at_admission_;
  }
  auto ticket = std::make_shared<MissTicket>();
  ticket->deadline = deadline;
  if (deadline != 0) {
    ticket->it = deadline_queue_.emplace(deadline, ticket);
    ticket->in_queue = true;
  }
  ++pending_misses_;
  *ticket_out = std::move(ticket);
  return true;
}

QueryService::MissGate QueryService::BeginMiss(
    const std::shared_ptr<MissTicket>& ticket) {
  {
    util::MutexLock lock(pending_mu_);
    if (ticket->shed) {
      // A watermark victim: de-registered and counted by the shedder.
      return MissGate::kShedByWatermark;
    }
    if (ticket->in_queue) {
      deadline_queue_.erase(ticket->it);
      ticket->in_queue = false;
    }
    --pending_misses_;
  }
  if (ticket->deadline != 0 && clock_->NowMicros() >= ticket->deadline) {
    util::MutexLock lock(pending_mu_);
    ++sheds_at_dequeue_;
    return MissGate::kExpiredInQueue;
  }
  return MissGate::kProceed;
}

void QueryService::AbandonMiss(const std::shared_ptr<MissTicket>& ticket) {
  util::MutexLock lock(pending_mu_);
  if (ticket->shed) return;  // the shedder already de-registered it
  if (ticket->in_queue) {
    deadline_queue_.erase(ticket->it);
    ticket->in_queue = false;
  }
  --pending_misses_;
}

api::QueryResponse QueryService::ShedResponse(const char* why) {
  api::QueryStats stats;
  stats.epoch = cache_.epoch();
  return api::QueryResponse::Failure(api::Status::DeadlineExceeded(why),
                                     stats);
}

api::QueryResponse QueryService::ExecuteWithKey(
    const api::QueryRequest& request, const std::string& key) {
  util::WallTimer timer;
  api::QueryStats stats;
  bool computed = false;
  try {
    // GetOrCompute runs `compute` inline within this frame, so borrowing
    // the request's keywords is safe — and keeps the hit path free of a
    // string copy it would never use.
    ResultPtr result = cache_.GetOrCompute(key, [&]() -> CachedResult {
      computed = true;
      // The context is pinned inside the compute callback, i.e. after
      // GetOrCompute captured its epoch. Together with RebindContext's
      // swap-then-bump order this makes a stale (old-context) result under
      // a current epoch impossible: an old pin implies the bump has not
      // happened yet, so the entry is wiped by the bump's clear. The pin
      // also keeps the context destroyable-safe: RebindContext does not
      // return (and so the caller cannot destroy the old context) until
      // every pin on it is released.
      PinnedContext ctx(this);
      CachedResult out;
      out.results = ctx->Query(request.keywords(), request.options());
      out.approx_bytes = ApproxResultBytes(out.results);
      return out;
    });
    const double micros = timer.ElapsedMicros();
    RecordLatency(/*hit=*/!computed, /*negative=*/result->negative(), micros);
    stats.cache_hit = !computed;
    stats.negative = result->negative();
    stats.compute_micros = micros;
    stats.epoch = cache_.epoch();
    return api::QueryResponse::Success(AliasResults(result), stats);
  } catch (const std::exception& e) {
    stats.compute_micros = timer.ElapsedMicros();
    stats.epoch = cache_.epoch();
    return api::QueryResponse::Failure(api::Status::BackendError(e.what()),
                                       stats);
  }
}

api::QueryResponse QueryService::Execute(const api::QueryRequest& request) {
  api::StatusOr<std::string> key = request.ValidatedKey();
  if (!key.ok()) {
    api::QueryStats stats;
    stats.epoch = cache_.epoch();
    return api::QueryResponse::Failure(key.status(), stats);
  }
  return ExecuteWithKey(request, *key);
}

std::future<api::QueryResponse> QueryService::SubmitAsync(
    api::QueryRequest request) {
  return pool_.SubmitWithFuture(
      [this, request = std::move(request)]() -> api::QueryResponse {
        return Execute(request);
      });
}

void QueryService::SubmitBatch(
    std::vector<api::QueryRequest> requests,
    std::function<void(size_t, api::QueryResponse)> on_done) {
  // Relative budgets become absolute deadlines at entry; a front end that
  // wants queueing time before this call to count against the budget
  // stamps its own deadlines and uses the absolute overload directly.
  std::vector<uint64_t> deadlines(requests.size(), 0);
  uint64_t now = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].deadline_micros() != 0) {
      if (now == 0) now = clock_->NowMicros();
      deadlines[i] = now + requests[i].deadline_micros();
    }
  }
  SubmitBatch(std::move(requests), std::move(deadlines), std::move(on_done));
}

void QueryService::SubmitBatch(
    std::vector<api::QueryRequest> requests,
    std::vector<uint64_t> deadlines_micros,
    std::function<void(size_t, api::QueryResponse)> on_done) {
  for (size_t i = 0; i < requests.size(); ++i) {
    api::QueryRequest& request = requests[i];
    const uint64_t deadline =
        i < deadlines_micros.size() ? deadlines_micros[i] : 0;
    util::WallTimer timer;
    api::StatusOr<std::string> key = request.ValidatedKey();
    if (!key.ok()) {
      api::QueryStats stats;
      stats.epoch = cache_.epoch();
      on_done(i, api::QueryResponse::Failure(key.status(), stats));
      continue;
    }
    // Admission budget check, before the cache is even consulted: an
    // expired request gets kDeadlineExceeded for free — the contract is
    // "no time is spent on work nobody is waiting for", not "answer if
    // cheap".
    if (deadline != 0 && clock_->NowMicros() >= deadline) {
      {
        util::MutexLock lock(pending_mu_);
        ++sheds_at_admission_;
      }
      on_done(i, ShedResponse("deadline expired at admission"));
      continue;
    }
    if (ResultPtr hit = cache_.Lookup(*key)) {
      double micros = timer.ElapsedMicros();
      RecordLatency(/*hit=*/true, /*negative=*/hit->negative(), micros);
      api::QueryStats stats;
      stats.cache_hit = true;
      stats.negative = hit->negative();
      stats.compute_micros = micros;
      stats.epoch = cache_.epoch();
      on_done(i, api::QueryResponse::Success(AliasResults(hit), stats));
      continue;
    }
    // Miss: the pending-miss watermark may shed this request now (it has
    // the lowest budget of everything queued) or evict a lower-budget
    // pending miss to make room.
    std::shared_ptr<MissTicket> ticket;
    if (!AdmitMiss(deadline, &ticket)) {
      on_done(i, ShedResponse("shed at admission: pool over watermark, "
                              "lowest budget first"));
      continue;
    }
    // Compute on the pool. ExecuteWithKey never throws and on_done must
    // not, so the task honors the pool's no-throw contract. BeginMiss
    // re-checks the budget at dequeue — time queued behind a backed-up
    // pool counts.
    bool submitted = pool_.Submit(
        [this, i, request = std::move(request), key = std::move(*key),
         ticket, on_done] {
          switch (BeginMiss(ticket)) {
            case MissGate::kShedByWatermark:
              on_done(i, ShedResponse("shed while queued: pool over "
                                      "watermark, lowest budget first"));
              return;
            case MissGate::kExpiredInQueue:
              on_done(i, ShedResponse("deadline expired while queued"));
              return;
            case MissGate::kProceed:
              break;
          }
          on_done(i, ExecuteWithKey(request, key));
        });
    if (!submitted) {
      // Pool already stopped (teardown): every request is still answered
      // exactly once — a dropped callback would wedge the front end's
      // drain accounting forever. The never-run task also never consumes
      // its ticket, so roll the registration back here.
      AbandonMiss(ticket);
      api::QueryStats stats;
      stats.epoch = cache_.epoch();
      on_done(i, api::QueryResponse::Failure(
                     api::Status::Internal("service shutting down"), stats));
    }
  }
}

std::vector<api::QueryResponse> QueryService::ExecuteBatch(
    std::vector<api::QueryRequest> requests) {
  // One slot per index, filled by on_done on whichever thread answers it.
  // Shared ownership: a worker may still hold its copy of on_done after
  // the last answer has woken the waiter below.
  struct Gather {
    util::Mutex mu;
    util::CondVar cv;
    size_t remaining GUARDED_BY(mu) = 0;
    std::vector<api::QueryResponse> responses GUARDED_BY(mu);
  };
  auto gather = std::make_shared<Gather>();
  {
    util::MutexLock lock(gather->mu);
    gather->remaining = requests.size();
    gather->responses.resize(requests.size());
  }
  SubmitBatch(std::move(requests),
              [gather](size_t i, api::QueryResponse response) {
                util::MutexLock lock(gather->mu);
                gather->responses[i] = std::move(response);
                if (--gather->remaining == 0) gather->cv.NotifyAll();
              });
  util::MutexLock lock(gather->mu);
  while (gather->remaining != 0) gather->cv.Wait(gather->mu);
  return std::move(gather->responses);
}

void QueryService::RebindContext(const search::SearchContext& context) {
  std::unique_ptr<Binding> old;
  {
    util::MutexLock lock(context_mu_);
    old = std::move(binding_);
    binding_.reset(new Binding{&context, 0});
  }
  // Swap first, then bump. A racing query that pinned the old binding
  // necessarily captured a pre-bump epoch, so its insert is either
  // rejected (epoch moved) or wiped by the bump's clear — after BumpEpoch
  // returns, stale results are unreachable (see result_cache.h).
  cache_.BumpEpoch();
  // Same discipline one tier down: flush the per-subject OS trees on
  // both sides of the swap. The old context's memo (it may be rebound
  // back, or still referenced elsewhere) holds trees about to go stale
  // with its data; the new context's memo may hold partials from a life
  // before an earlier rebind. In-flight queries pinned to the old binding
  // captured pre-bump memo epochs, so their inserts are discarded.
  old->ctx->partials_memo().BumpEpoch();
  context.partials_memo().BumpEpoch();
  // Drain. No new pin can reach `old` (binding_ no longer points to it),
  // so wait for the in-flight ones to release; only once the count hits
  // zero is the documented "caller may now destroy the old context" safe.
  // Explicit predicate loop: `old->pins` is guarded by context_mu_ by
  // convention (retired bindings are only touched under it), and the loop
  // keeps that read inside the annotated critical section.
  util::MutexLock lock(context_mu_);
  while (old->pins != 0) context_cv_.Wait(context_mu_);
}

void QueryService::RecordLatency(bool hit, bool negative, double micros) {
  util::MutexLock lock(latency_mu_);
  ++queries_;
  all_latency_.Add(micros, options_.latency_window);
  (hit ? hit_latency_ : miss_latency_).Add(micros, options_.latency_window);
  // Negative hits are double-attributed (they are hits, and they are
  // negative): negative_hit_latency_us answers "how fast do we say no?".
  if (hit && negative) {
    negative_hit_latency_.Add(micros, options_.latency_window);
  }
}

Metrics QueryService::metrics() const {
  Metrics m;
  m.cache = cache_.metrics();
  {
    // Snapshot under context_mu_ so a concurrent rebind cannot swap the
    // binding mid-read; the memo's own (leaf) lock orders the counters.
    util::MutexLock lock(context_mu_);
    m.partials = binding_->ctx->partials_memo().metrics();
  }
  {
    util::MutexLock lock(pending_mu_);
    m.sheds_at_admission = sheds_at_admission_;
    m.sheds_at_dequeue = sheds_at_dequeue_;
    m.pending_misses = pending_misses_;
  }
  util::MutexLock lock(latency_mu_);
  m.queries = queries_;
  m.latency_us = all_latency_.Snapshot();
  m.hit_latency_us = hit_latency_.Snapshot();
  m.negative_hit_latency_us = negative_hit_latency_.Snapshot();
  m.miss_latency_us = miss_latency_.Snapshot();
  return m;
}

}  // namespace osum::serve
