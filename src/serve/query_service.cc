#include "serve/query_service.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "util/timer.h"

namespace osum::serve {
namespace {

/// Per-outcome latency reservoir size (most recent samples kept).
constexpr size_t kLatencyWindow = 4096;

/// The zero-copy bridge from the cache's value type to the response's:
/// shares ownership of the CachedResult while exposing only its immutable
/// result list.
api::SharedResults AliasResults(const ResultPtr& cached) {
  return api::SharedResults(cached, &cached->results);
}

}  // namespace

void QueryService::LatencyRing::Add(double v) {
  if (samples.size() < kLatencyWindow) {
    samples.push_back(v);
  } else {
    samples[next] = v;
  }
  next = (next + 1) % kLatencyWindow;
}

util::Summary QueryService::LatencyRing::Snapshot() const {
  util::Summary s;
  for (double v : samples) s.Add(v);
  return s;
}

QueryService::QueryService(const search::SearchContext& context,
                           ServiceOptions options)
    : options_(options),
      clock_(options.clock != nullptr
                 ? options.clock
                 : std::shared_ptr<const Clock>(SystemClock::Instance())),
      context_(context),
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
      CachedResult out;
      out.results = context_.Query(request.keywords(), request.options());
      out.approx_bytes = ApproxResultBytes(out.results);
      return out;
    });
    const double micros = timer.ElapsedMicros();
    RecordLatency(/*hit=*/!computed, /*negative=*/result->negative(), micros);
    stats.cache_hit = !computed;
    stats.negative = result->negative();
    stats.compute_micros = micros;
    return api::QueryResponse::Success(AliasResults(result), stats);
  } catch (const std::exception& e) {
    stats.compute_micros = timer.ElapsedMicros();
    return api::QueryResponse::Failure(api::Status::BackendError(e.what()),
                                       stats);
  }
}

api::QueryResponse QueryService::Execute(const api::QueryRequest& request) {
  api::StatusOr<std::string> key = request.ValidatedKey();
  if (!key.ok()) return api::QueryResponse::Failure(key.status());
  return ExecuteWithKey(request, *key);
}

void QueryService::Submit(api::QueryRequest request, uint64_t deadline_micros,
                          std::function<void(api::QueryResponse)> on_done) {
  util::WallTimer timer;
  api::StatusOr<std::string> key = request.ValidatedKey();
  if (!key.ok()) {
    on_done(api::QueryResponse::Failure(key.status()));
    return;
  }
  // Admission budget check, before the cache is even consulted: an
  // expired request gets kDeadlineExceeded for free — the contract is
  // "no time is spent on work nobody is waiting for", not "answer if
  // cheap".
  if (deadline_micros != 0 && clock_->NowMicros() >= deadline_micros) {
    {
      util::MutexLock lock(pending_mu_);
      ++sheds_at_admission_;
    }
    on_done(api::QueryResponse::Failure(
        api::Status::DeadlineExceeded("deadline expired at admission")));
    return;
  }
  if (ResultPtr hit = cache_.Lookup(*key)) {
    double micros = timer.ElapsedMicros();
    RecordLatency(/*hit=*/true, /*negative=*/hit->negative(), micros);
    api::QueryStats stats;
    stats.cache_hit = true;
    stats.negative = hit->negative();
    stats.compute_micros = micros;
    on_done(api::QueryResponse::Success(AliasResults(hit), stats));
    return;
  }
  // Miss: the pending-miss watermark may shed this request now (it has
  // the lowest budget of everything queued) or evict a lower-budget
  // pending miss to make room.
  std::shared_ptr<MissTicket> ticket;
  if (!AdmitMiss(deadline_micros, &ticket)) {
    on_done(api::QueryResponse::Failure(api::Status::DeadlineExceeded(
        "shed at admission: pool over watermark, lowest budget first")));
    return;
  }
  // Compute on the pool. ExecuteWithKey never throws and on_done must
  // not, so the task honors the pool's no-throw contract. BeginMiss
  // re-checks the budget at dequeue — time queued behind a backed-up
  // pool counts. The task holds a copy of on_done: if the pool rejects
  // it, the original still answers below.
  bool submitted = pool_.Submit(
      [this, request = std::move(request), key = std::move(*key), ticket,
       on_done] {
        switch (BeginMiss(ticket)) {
          case MissGate::kShedByWatermark:
            on_done(api::QueryResponse::Failure(api::Status::DeadlineExceeded(
                "shed while queued: pool over watermark, lowest budget "
                "first")));
            return;
          case MissGate::kExpiredInQueue:
            on_done(api::QueryResponse::Failure(api::Status::DeadlineExceeded(
                "deadline expired while queued")));
            return;
          case MissGate::kProceed:
            break;
        }
        on_done(ExecuteWithKey(request, key));
      });
  if (!submitted) {
    // Pool already stopped (teardown): the request is still answered
    // exactly once — a dropped callback would wedge the front end's
    // drain accounting forever. The never-run task also never consumes
    // its ticket, so roll the registration back here.
    AbandonMiss(ticket);
    on_done(api::QueryResponse::Failure(
        api::Status::Internal("service shutting down")));
  }
}

void QueryService::RecordLatency(bool hit, bool negative, double micros) {
  util::MutexLock lock(latency_mu_);
  ++queries_;
  all_latency_.Add(micros);
  (hit ? hit_latency_ : miss_latency_).Add(micros);
  // Negative hits are double-attributed (they are hits, and they are
  // negative): negative_hit_latency_us answers "how fast do we say no?".
  if (hit && negative) negative_hit_latency_.Add(micros);
}

Metrics QueryService::metrics() const {
  Metrics m;
  m.cache = cache_.metrics();
  m.partials = context_.partials_memo().metrics();
  m.joins = context_.join_cache_metrics();
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
