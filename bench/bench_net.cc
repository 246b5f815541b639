// TCP front-end load generator: drives an in-process net::Server over real
// loopback sockets with the blocking net::Client and reports
//   1. ping_pong: closed-loop round-trip latency on one connection over a
//      warm cache (p50/p95/p99 us) — the pure transport+framing overhead
//      on top of a served hit.
//   2. open_loop: C connections, each with a sender thread following a
//      seeded open-loop arrival schedule (exponential gaps at a fixed
//      target rate; a late sender sends immediately but latency is
//      measured from the *scheduled* arrival, so queueing delay is not
//      omitted) and a receiver thread recording per-response latency into
//      util::Summary. Reports achieved QPS and the latency histogram.
//   3. wire: a seeded hostile sweep — well-framed garbage payloads
//      interleaved with valid requests on one connection; every garbage
//      frame must come back as an in-band kCodecError and every valid
//      request must still succeed, all counted.
//   4. overload: a dedicated server with a FakeClock and a gated backend —
//      the single worker parks on a deadline-less blocker while
//      tight-deadline misses pile into the pending queue past the
//      watermark (lowest-budget-first admission sheds), the clock jumps
//      past the tight budgets (dequeue sheds), and a generous-deadline
//      request rides it all out and completes. Every shed count is decided
//      by the deterministic shedding logic against a frozen clock, not by
//      machine timing.
//
// The request/response counts (requests_sent, responses_ok,
// malformed_rejects, the overload section's sheds_at_admission /
// sheds_at_dequeue / responses_deadline_exceeded, and the server's own
// frames_in/responses_out) are
// machine-independent: the same on every box, so bench/baselines/
// bench_net.json gates them strictly under OSUM_PERF_LANE while the
// timing rows stay report-only. The bench FAILS (exit 1) if any response
// goes missing, any valid request fails, or any garbage frame is not
// rejected — it is an end-to-end acceptance harness as much as a bench.
//
// Flags: --json <path> (bench::JsonReport rows), --tiny (CI smoke sizes).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/query.h"
#include "bench_common.h"
#include "core/os_backend.h"
#include "net/client.h"
#include "net/server.h"
#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/query_service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace osum {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A small warm query mix: distinct keywords with real results, all
/// pre-warmed through the wire so every measured request is a cache hit —
/// the bench measures the serving path, not OS generation.
std::vector<api::QueryRequest> WarmMix() {
  std::vector<api::QueryRequest> mix;
  for (const char* q : {"faloutsos", "databases", "mining", "graphs"}) {
    mix.push_back(api::QueryRequest(q).WithL(12).WithMaxResults(4));
  }
  return mix;
}

struct PingPongResult {
  util::Summary rtt_us;
  uint64_t sent = 0;
  uint64_t ok = 0;
};

PingPongResult RunPingPong(uint16_t port,
                           const std::vector<api::QueryRequest>& mix,
                           size_t rounds) {
  PingPongResult result;
  api::StatusOr<net::Client> client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "ping_pong connect: %s\n",
                 client.status().ToString().c_str());
    return result;
  }
  for (size_t i = 0; i < rounds; ++i) {
    const api::QueryRequest& request = mix[i % mix.size()];
    Clock::time_point start = Clock::now();
    if (!client->Send(request).ok()) break;
    ++result.sent;
    api::StatusOr<api::QueryResponse> response = client->Receive();
    if (!response.ok() || !response->ok()) break;
    ++result.ok;
    if (i >= mix.size()) {  // first pass over the mix is cache warmup
      result.rtt_us.Add(SecondsSince(start) * 1e6);
    }
  }
  return result;
}

struct OpenLoopResult {
  util::Summary latency_us;
  uint64_t sent = 0;
  uint64_t ok = 0;
  double wall_s = 0;
};

/// One open-loop connection: precomputed arrival offsets, a sender that
/// follows them, a receiver that timestamps responses. Results come back
/// in request order (server guarantee), so response i pairs with
/// schedule[i] with no correlation id on the wire.
void RunConnection(uint16_t port, const std::vector<api::QueryRequest>& mix,
                   const std::vector<double>& schedule_s,
                   Clock::time_point epoch, OpenLoopResult* out,
                   std::mutex* out_mu) {
  api::StatusOr<net::Client> client =
      net::Client::Connect("127.0.0.1", port, /*timeout_ms=*/120'000);
  if (!client.ok()) {
    std::fprintf(stderr, "open_loop connect: %s\n",
                 client.status().ToString().c_str());
    return;
  }
  uint64_t sent = 0;
  std::thread sender([&] {
    for (size_t i = 0; i < schedule_s.size(); ++i) {
      double now = SecondsSince(epoch);
      if (now < schedule_s[i]) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(schedule_s[i] - now));
      }
      if (!client->Send(mix[i % mix.size()]).ok()) return;
      ++sent;
    }
  });
  std::vector<double> latencies;
  latencies.reserve(schedule_s.size());
  uint64_t ok = 0;
  for (size_t i = 0; i < schedule_s.size(); ++i) {
    api::StatusOr<api::QueryResponse> response = client->Receive();
    if (!response.ok()) break;
    if (response->ok()) ++ok;
    latencies.push_back((SecondsSince(epoch) - schedule_s[i]) * 1e6);
  }
  sender.join();
  std::lock_guard<std::mutex> lock(*out_mu);
  for (double v : latencies) out->latency_us.Add(v);
  out->sent += sent;
  out->ok += ok;
}

OpenLoopResult RunOpenLoop(uint16_t port,
                           const std::vector<api::QueryRequest>& mix,
                           size_t connections, size_t requests_per_connection,
                           double target_qps_per_connection) {
  // Seeded exponential inter-arrival gaps: the schedule (and therefore the
  // request counts) is identical on every machine; only the timings vary.
  std::vector<std::vector<double>> schedules(connections);
  util::Rng rng(0x5E4FCADEull);
  for (size_t c = 0; c < connections; ++c) {
    double t = 0;
    schedules[c].reserve(requests_per_connection);
    for (size_t i = 0; i < requests_per_connection; ++i) {
      double u = (static_cast<double>(rng.NextU64(1'000'000'000)) + 1.0) /
                 1'000'000'001.0;
      t += -std::log(u) / target_qps_per_connection;
      schedules[c].push_back(t);
    }
  }

  OpenLoopResult result;
  std::mutex result_mu;
  Clock::time_point epoch = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(RunConnection, port, std::cref(mix),
                         std::cref(schedules[c]), epoch, &result, &result_mu);
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsSince(epoch);
  return result;
}

struct WireResult {
  uint64_t garbage_sent = 0;
  uint64_t malformed_rejects = 0;
  uint64_t valid_sent = 0;
  uint64_t valid_ok = 0;
};

/// Seeded hostile sweep through the framing layer: every 3rd frame is
/// well-framed garbage (random bytes, random length 0..96), the rest are
/// valid requests. The stream must stay in sync: garbage answered in-band
/// with kCodecError, valid requests still served.
WireResult RunWireSweep(uint16_t port,
                        const std::vector<api::QueryRequest>& mix,
                        size_t frames) {
  WireResult result;
  api::StatusOr<net::Client> client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "wire connect: %s\n",
                 client.status().ToString().c_str());
    return result;
  }
  util::Rng rng(0xBADF8A3E5ull);
  std::vector<bool> is_garbage;
  is_garbage.reserve(frames);
  for (size_t i = 0; i < frames; ++i) {
    bool garbage = (i % 3) == 2;
    is_garbage.push_back(garbage);
    if (garbage) {
      std::string payload(rng.NextU64(97), '\0');
      for (char& ch : payload) {
        ch = static_cast<char>(rng.NextU64(256));
      }
      if (!client->SendPayload(payload).ok()) return result;
      ++result.garbage_sent;
    } else {
      if (!client->Send(mix[i % mix.size()]).ok()) return result;
      ++result.valid_sent;
    }
  }
  for (size_t i = 0; i < frames; ++i) {
    api::StatusOr<api::QueryResponse> response = client->Receive();
    if (!response.ok()) {
      std::fprintf(stderr, "wire receive %zu: %s\n", i,
                   response.status().ToString().c_str());
      return result;
    }
    if (is_garbage[i]) {
      if (response->status.code() == api::StatusCode::kCodecError) {
        ++result.malformed_rejects;
      }
    } else if (response->ok()) {
      ++result.valid_ok;
    }
  }
  return result;
}

/// Delegating back end whose join calls park on a gate — the lever that
/// keeps the overload section's single worker deterministically busy while
/// tight-deadline requests queue up behind it (same idiom as the net and
/// serve test suites).
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
  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ > 0; });
  }

 private:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!gate_closed_) return;
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !gate_closed_; });
    --waiting_;
  }

  core::OsBackend* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_closed_ = false;
  int waiting_ = 0;
};

struct OverloadResult {
  uint64_t sheds_at_admission = 0;
  uint64_t sheds_at_dequeue = 0;
  uint64_t responses_deadline_exceeded = 0;
  uint64_t responses_ok = 0;
  bool drained = false;
  uint64_t dropped = 0;
  bool infra_ok = false;  // sends/receives all succeeded at the wire level
};

/// The overload section. Every count below is decided by the service's
/// deterministic shedding logic against a frozen FakeClock, so the rows
/// gate strictly across machines:
///   - `watermark` tights with strictly increasing (still-tight) budgets
///     fill the pending queue; each later arrival displaces the
///     earliest-deadline victim, and the generous request displaces one
///     more -> sheds_at_admission = tights - watermark + 1.
///   - the clock jumps past every tight budget; the queued survivors are
///     shed when the worker dequeues them -> sheds_at_dequeue =
///     watermark - 1.
///   - the deadline-less blocker and the generous request both complete.
OverloadResult RunOverload(search::SearchContext& context, GatedBackend* gate,
                           size_t watermark, size_t tights) {
  OverloadResult result;
  auto clock = std::make_shared<serve::FakeClock>();
  serve::ServiceOptions service_options;
  service_options.num_threads = 1;  // one worker: the pool the blocker parks
  service_options.clock = clock;
  service_options.overload.max_pending_misses = watermark;
  serve::QueryService service(context, service_options);
  net::Server server(&service);
  if (!server.Start().ok()) return result;
  api::StatusOr<net::Client> client =
      net::Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/60'000);
  if (!client.ok()) {
    std::fprintf(stderr, "overload connect: %s\n",
                 client.status().ToString().c_str());
    return result;
  }

  // Park the worker on a deadline-less miss, then pipeline the tights
  // (distinct cache keys, deadlines strictly increasing so the watermark
  // victim is always the earliest arrival — no tie-breaks) and one
  // generous request that must survive the clock jump.
  gate->CloseGate();
  if (!client->Send(api::QueryRequest("faloutsos").WithL(10)).ok()) {
    return result;
  }
  gate->WaitUntilBlocked();
  for (size_t i = 0; i < tights; ++i) {
    if (!client
             ->Send(api::QueryRequest("databases")
                        .WithL(8)
                        .WithMaxResults(1 + i)
                        .WithDeadlineMicros(1'000 + 10 * i))
             .ok()) {
      return result;
    }
  }
  if (!client
           ->Send(api::QueryRequest("mining").WithL(8).WithDeadlineMicros(
               60'000'000))
           .ok()) {
    return result;
  }
  // Admission decisions happen on the server's loop thread; wait for the
  // whole burst to be admitted-or-shed before burning the budgets.
  const uint64_t expected_admission_sheds =
      static_cast<uint64_t>(tights - watermark + 1);
  for (int i = 0;
       i < 12'000 && service.metrics().sheds_at_admission <
                         expected_admission_sheds;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  clock->AdvanceMicros(1'000'000);  // > every tight budget, << the generous
  gate->OpenGate();

  for (size_t i = 0; i < tights + 2; ++i) {
    api::StatusOr<api::QueryResponse> response = client->Receive();
    if (!response.ok()) {
      std::fprintf(stderr, "overload receive %zu: %s\n", i,
                   response.status().ToString().c_str());
      return result;
    }
    if (response->ok()) {
      ++result.responses_ok;
    } else if (response->status.code() ==
               api::StatusCode::kDeadlineExceeded) {
      ++result.responses_deadline_exceeded;
    }
  }
  client->Close();
  result.drained = server.Shutdown();
  net::ServerStats stats = server.stats();
  result.dropped = stats.dropped_responses;
  serve::Metrics metrics = service.metrics();
  result.sheds_at_admission = metrics.sheds_at_admission;
  result.sheds_at_dequeue = metrics.sheds_at_dequeue;
  result.infra_ok = true;
  return result;
}

}  // namespace
}  // namespace osum

int main(int argc, char** argv) {
  using namespace osum;
  bench::JsonReport json =
      bench::JsonReport::FromArgs(argc, argv, "bench_net");
  bool tiny = bench::TinyFromArgs(argc, argv);

  datasets::DblpConfig config;
  config.num_authors = tiny ? 100 : 500;
  config.num_papers = tiny ? 400 : 2000;
  config.num_conferences = tiny ? 8 : 15;
  datasets::Dblp d = datasets::BuildDblp(config);
  datasets::ApplyDblpScores(&d, 1, 0.85);
  core::DataGraphBackend backend(d.db, d.links, d.data_graph);
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  search::SearchContext ctx =
      search::SearchContext::Build(d.db, &backend, std::move(subjects));

  serve::ServiceOptions service_options;
  service_options.num_threads = 4;
  serve::QueryService service(ctx, service_options);
  net::Server server(&service);  // port 0: the OS picks a free port
  if (api::Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<api::QueryRequest> mix = WarmMix();
  const size_t ping_rounds = tiny ? 64 : 1000;
  const size_t connections = tiny ? 2 : 4;
  const size_t per_connection = tiny ? 100 : 1500;
  const double rate_per_connection = tiny ? 1000.0 : 2500.0;
  const size_t wire_frames = tiny ? 48 : 600;

  // 1. Closed-loop RTT (also warms the cache on its first pass).
  PingPongResult ping = RunPingPong(server.port(), mix, ping_rounds);
  util::PrintHeading(std::cout, "ping_pong (1 connection, " +
                                    std::to_string(ping_rounds) +
                                    " closed-loop round trips, warm cache)");
  util::TablePrinter ping_table({"metric", "value"});
  ping_table.AddRow({"rtt p50 us",
                     util::FormatDouble(ping.rtt_us.Percentile(50.0), 1)});
  ping_table.AddRow({"rtt p95 us",
                     util::FormatDouble(ping.rtt_us.Percentile(95.0), 1)});
  ping_table.AddRow({"rtt p99 us",
                     util::FormatDouble(ping.rtt_us.Percentile(99.0), 1)});
  ping_table.Print(std::cout);
  json.Add("ping_pong", "rtt", "p50_us", ping.rtt_us.Percentile(50.0));
  json.Add("ping_pong", "rtt", "p99_us", ping.rtt_us.Percentile(99.0));
  json.Add("ping_pong", "count", "requests_sent",
           static_cast<double>(ping.sent));
  json.Add("ping_pong", "count", "responses_ok",
           static_cast<double>(ping.ok));

  // 2. Open-loop multi-connection load.
  OpenLoopResult open = RunOpenLoop(server.port(), mix, connections,
                                    per_connection, rate_per_connection);
  double achieved_qps =
      static_cast<double>(open.ok) / std::max(open.wall_s, 1e-9);
  util::PrintHeading(
      std::cout,
      "open_loop (" + std::to_string(connections) + " connections x " +
          std::to_string(per_connection) + " requests, offered " +
          util::FormatDouble(rate_per_connection * connections, 0) + " qps)");
  util::TablePrinter open_table({"metric", "value"});
  open_table.AddRow({"achieved qps", util::FormatDouble(achieved_qps, 0)});
  open_table.AddRow({"latency p50 us",
                     util::FormatDouble(open.latency_us.Percentile(50.0), 1)});
  open_table.AddRow({"latency p95 us",
                     util::FormatDouble(open.latency_us.Percentile(95.0), 1)});
  open_table.AddRow({"latency p99 us",
                     util::FormatDouble(open.latency_us.Percentile(99.0), 1)});
  open_table.Print(std::cout);
  json.Add("open_loop", "served", "achieved_qps", achieved_qps);
  json.Add("open_loop", "latency", "p50_us",
           open.latency_us.Percentile(50.0));
  json.Add("open_loop", "latency", "p99_us",
           open.latency_us.Percentile(99.0));
  json.Add("open_loop", "count", "requests_sent",
           static_cast<double>(open.sent));
  json.Add("open_loop", "count", "responses_ok",
           static_cast<double>(open.ok));

  // 3. Hostile wire sweep.
  WireResult wire = RunWireSweep(server.port(), mix, wire_frames);
  util::PrintHeading(std::cout, "wire (seeded hostile sweep, " +
                                    std::to_string(wire_frames) + " frames)");
  std::printf("garbage frames: %llu sent, %llu rejected in-band; valid: "
              "%llu sent, %llu ok\n",
              static_cast<unsigned long long>(wire.garbage_sent),
              static_cast<unsigned long long>(wire.malformed_rejects),
              static_cast<unsigned long long>(wire.valid_sent),
              static_cast<unsigned long long>(wire.valid_ok));
  json.Add("wire", "count", "garbage_sent",
           static_cast<double>(wire.garbage_sent));
  json.Add("wire", "count", "malformed_rejects",
           static_cast<double>(wire.malformed_rejects));
  json.Add("wire", "count", "valid_ok",
           static_cast<double>(wire.valid_ok));

  // 4. Deterministic overload section (own server, FakeClock, gated pool).
  const size_t overload_watermark = tiny ? 4 : 8;
  const size_t overload_tights = tiny ? 16 : 32;
  GatedBackend gate(&backend);
  std::vector<search::SearchContext::Subject> overload_subjects;
  overload_subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  overload_subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  search::SearchContext overload_ctx = search::SearchContext::Build(
      d.db, &gate, std::move(overload_subjects));
  OverloadResult overload =
      RunOverload(overload_ctx, &gate, overload_watermark, overload_tights);
  util::PrintHeading(
      std::cout, "overload (" + std::to_string(overload_tights) +
                     " tight-deadline misses vs watermark " +
                     std::to_string(overload_watermark) +
                     ", frozen clock, 1 worker)");
  util::TablePrinter overload_table({"metric", "value"});
  overload_table.AddRow({"sheds at admission",
                         std::to_string(overload.sheds_at_admission)});
  overload_table.AddRow({"sheds at dequeue",
                         std::to_string(overload.sheds_at_dequeue)});
  overload_table.AddRow(
      {"responses deadline_exceeded",
       std::to_string(overload.responses_deadline_exceeded)});
  overload_table.AddRow({"responses ok",
                         std::to_string(overload.responses_ok)});
  overload_table.Print(std::cout);
  json.Add("overload", "count", "sheds_at_admission",
           static_cast<double>(overload.sheds_at_admission));
  json.Add("overload", "count", "sheds_at_dequeue",
           static_cast<double>(overload.sheds_at_dequeue));
  json.Add("overload", "count", "responses_deadline_exceeded",
           static_cast<double>(overload.responses_deadline_exceeded));
  json.Add("overload", "count", "responses_ok",
           static_cast<double>(overload.responses_ok));

  bool drained = server.Shutdown();
  net::ServerStats stats = server.stats();
  json.Add("server", "count", "frames_in",
           static_cast<double>(stats.frames_in));
  json.Add("server", "count", "responses_out",
           static_cast<double>(stats.responses_out));
  json.Add("server", "count", "malformed_frames",
           static_cast<double>(stats.malformed_frames));
  json.Add("server", "count", "dropped_responses",
           static_cast<double>(stats.dropped_responses));
  if (!json.Write()) return 1;

  // Acceptance gates: the bench doubles as the end-to-end harness, so a
  // lost response, a failed valid request, an unrejected garbage frame or
  // a dirty drain all fail the run.
  const uint64_t expected =
      ping_rounds + connections * per_connection;
  uint64_t total_ok = ping.ok + open.ok + wire.valid_ok;
  uint64_t total_sent = ping.sent + open.sent + wire.valid_sent;
  if (ping.ok != ping_rounds || open.ok != connections * per_connection) {
    std::printf("FAIL: %llu/%llu valid responses received\n",
                static_cast<unsigned long long>(total_ok),
                static_cast<unsigned long long>(expected + wire.valid_sent));
    return 1;
  }
  if (wire.malformed_rejects != wire.garbage_sent ||
      wire.valid_ok != wire.valid_sent) {
    std::printf("FAIL: wire sweep: %llu/%llu garbage rejected, %llu/%llu "
                "valid ok\n",
                static_cast<unsigned long long>(wire.malformed_rejects),
                static_cast<unsigned long long>(wire.garbage_sent),
                static_cast<unsigned long long>(wire.valid_ok),
                static_cast<unsigned long long>(wire.valid_sent));
    return 1;
  }
  if (!drained || stats.dropped_responses != 0) {
    std::printf("FAIL: shutdown did not drain cleanly (%llu dropped)\n",
                static_cast<unsigned long long>(stats.dropped_responses));
    return 1;
  }
  // Overload section: every count is fixed by the deterministic shedding
  // logic — tights-watermark+1 admission sheds (each later tight and the
  // generous request displace the earliest-deadline victim), watermark-1
  // dequeue sheds (the queued survivors after the clock jump), and exactly
  // the blocker plus the generous request complete.
  const uint64_t want_admission =
      static_cast<uint64_t>(overload_tights - overload_watermark + 1);
  const uint64_t want_dequeue =
      static_cast<uint64_t>(overload_watermark - 1);
  if (!overload.infra_ok || !overload.drained || overload.dropped != 0 ||
      overload.sheds_at_admission != want_admission ||
      overload.sheds_at_dequeue != want_dequeue ||
      overload.responses_deadline_exceeded !=
          static_cast<uint64_t>(overload_tights) ||
      overload.responses_ok != 2) {
    std::printf(
        "FAIL: overload section: admission %llu/%llu, dequeue %llu/%llu, "
        "deadline_exceeded %llu/%llu, ok %llu/2, drained=%d, dropped=%llu\n",
        static_cast<unsigned long long>(overload.sheds_at_admission),
        static_cast<unsigned long long>(want_admission),
        static_cast<unsigned long long>(overload.sheds_at_dequeue),
        static_cast<unsigned long long>(want_dequeue),
        static_cast<unsigned long long>(overload.responses_deadline_exceeded),
        static_cast<unsigned long long>(overload_tights),
        static_cast<unsigned long long>(overload.responses_ok),
        overload.drained ? 1 : 0,
        static_cast<unsigned long long>(overload.dropped));
    return 1;
  }
  std::printf("PASS: %llu/%llu responses delivered, %llu/%llu garbage "
              "frames rejected, clean drain\n",
              static_cast<unsigned long long>(total_ok),
              static_cast<unsigned long long>(total_sent),
              static_cast<unsigned long long>(wire.malformed_rejects),
              static_cast<unsigned long long>(wire.garbage_sent));
  return 0;
}
