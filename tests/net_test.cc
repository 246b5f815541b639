// The TCP front end, end to end over real sockets: frame reassembly across
// pathological read boundaries, in-band rejection of well-framed garbage,
// connection drop on framing violations, response ordering under
// pipelining, backpressure against a slow reader (the outbound queue must
// stay bounded), and graceful drain — Shutdown must answer and flush every
// request it already accepted before the loop stops.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/codec.h"
#include "api/query.h"
#include "api/status.h"
#include "core/os_backend.h"
#include "db_fixtures.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/query_service.h"

namespace osum::net {
namespace {

using osum::api::DeterministicResponseText;
using osum::testing::ScoredDblp;
using osum::testing::SmallDblpConfig;

// ---- framing unit tests --------------------------------------------------

TEST(FrameReassembler, ReassemblesAcrossOneByteFeeds) {
  std::vector<std::string> payloads = {"alpha", "", "a longer third payload"};
  std::string stream;
  for (const std::string& p : payloads) stream += EncodeFrame(p);

  FrameReassembler frames;
  std::vector<std::string> got;
  for (char c : stream) {
    ASSERT_TRUE(frames.Feed(std::string_view(&c, 1)));
    while (std::optional<std::string> payload = frames.Next()) {
      got.push_back(*payload);
    }
  }
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(frames.buffered_bytes(), 0u);
  EXPECT_FALSE(frames.poisoned());
}

TEST(FrameReassembler, SplitInsideTheLengthPrefix) {
  std::string frame = EncodeFrame("payload");
  FrameReassembler frames;
  // Two bytes of the u32 prefix only: no frame, no poisoning.
  ASSERT_TRUE(frames.Feed(std::string_view(frame.data(), 2)));
  EXPECT_FALSE(frames.Next().has_value());
  ASSERT_TRUE(frames.Feed(std::string_view(frame.data() + 2,
                                           frame.size() - 2)));
  std::optional<std::string> payload = frames.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload");
}

TEST(FrameReassembler, ManyFramesInOneFeed) {
  std::string stream = EncodeFrame("a") + EncodeFrame("bb") + EncodeFrame("c");
  FrameReassembler frames;
  ASSERT_TRUE(frames.Feed(stream));
  EXPECT_EQ(frames.Next().value_or("?"), "a");
  EXPECT_EQ(frames.Next().value_or("?"), "bb");
  EXPECT_EQ(frames.Next().value_or("?"), "c");
  EXPECT_FALSE(frames.Next().has_value());
}

TEST(FrameReassembler, OversizedPrefixPoisonsImmediately) {
  FrameReassembler frames(/*max_frame_bytes=*/1024);
  std::string huge = EncodeFrame(std::string(2048, 'x'));
  // The poisonous prefix is rejected as soon as it is complete — the
  // reassembler never buffers toward an impossible frame.
  EXPECT_FALSE(frames.Feed(std::string_view(huge.data(), 8)));
  EXPECT_TRUE(frames.poisoned());
  EXPECT_FALSE(frames.Next().has_value());
  EXPECT_FALSE(frames.Feed("more"));  // poisoned is permanent
  EXPECT_EQ(frames.buffered_bytes(), 0u);
}

TEST(FrameReassembler, OversizedPrefixBehindValidFrameStillPoisons) {
  FrameReassembler frames(/*max_frame_bytes=*/1024);
  std::string stream = EncodeFrame("ok") + EncodeFrame(std::string(4096, 'y'));
  frames.Feed(stream);  // returns false once the bad prefix is seen
  // The valid frame parsed before the violation is still delivered...
  std::optional<std::string> first = frames.Next();
  if (first.has_value()) {
    EXPECT_EQ(*first, "ok");
  }
  // ...but the stream is dead afterwards.
  EXPECT_TRUE(frames.poisoned());
  EXPECT_FALSE(frames.Next().has_value());
}

// ---- server fixtures -----------------------------------------------------

search::SearchContext BuildDblpContext(const datasets::Dblp& d,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return search::SearchContext::Build(d.db, backend, std::move(subjects));
}

serve::ServiceOptions SmallService() {
  serve::ServiceOptions o;
  o.num_threads = 3;
  return o;
}

/// Delegating back end whose join calls can be parked on a gate — the
/// lever that keeps a request deterministically in flight while Shutdown
/// runs (same idiom as serve_service_test).
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

/// Delegating back end that counts join calls — the witness that shed
/// requests cost zero backend I/O.
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

/// Delegating back end that takes a caller-supplied reading at every join
/// call and keeps the latest — how a test captures a server counter at
/// the moment a particular request is being computed.
class ProbeBackend : public core::OsBackend {
 public:
  explicit ProbeBackend(core::OsBackend* inner)
      : OsBackend(inner->db(), inner->links()), inner_(inner) {}

  const char* name() const override { return "probe"; }

  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override {
    last_.store(probe_());
    inner_->Fetch(link, dir, parent_tuple, out);
  }
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override {
    last_.store(probe_());
    inner_->FetchTop(link, dir, parent_tuple, limit, min_importance, out);
  }

  /// Set before the threads that compute queries exist or are handed
  /// work; until then every reading is 0.
  void SetProbe(std::function<uint64_t()> probe) { probe_ = std::move(probe); }
  uint64_t last_reading() const { return last_.load(); }

 private:
  core::OsBackend* inner_;
  std::function<uint64_t()> probe_ = [] { return uint64_t{0}; };
  std::atomic<uint64_t> last_{0};
};

/// A bare kernel-level listener that never speaks the protocol — the prop
/// for the client-hang regression tests. The kernel completes handshakes
/// into the accept queue, so a Client can connect (and fill socket
/// buffers) without this listener ever reading or writing.
struct RawListener {
  int fd = -1;
  uint16_t port = 0;

  explicit RawListener(int backlog = 4) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
      ::close(fd);
      fd = -1;
      return;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
  int Accept() { return ::accept(fd, nullptr, nullptr); }
};

/// One small DBLP database + search context + service + running server.
struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {},
                         core::OsBackend* backend_override = nullptr)
      : dblp(SmallDblpConfig()),
        context(BuildDblpContext(
            dblp.d, backend_override != nullptr ? backend_override
                                                : &dblp.backend)),
        service(context, SmallService()),
        server(&service, options) {
    api::Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  Client Connect() {
    api::StatusOr<Client> client =
        Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/30'000);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  ScoredDblp dblp;
  search::SearchContext context;
  serve::QueryService service;
  Server server;
};

api::QueryRequest SmallRequest(const std::string& keywords) {
  return api::QueryRequest(keywords).WithL(8).WithMaxResults(2);
}

// ---- server end-to-end ---------------------------------------------------

TEST(NetServer, RoundTripMatchesInProcessExecute) {
  ServerFixture fx;
  Client client = fx.Connect();

  api::QueryRequest request = SmallRequest("faloutsos");
  ASSERT_TRUE(client.Send(request).ok());
  api::StatusOr<api::QueryResponse> response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok()) << response->status.ToString();
  // The socket adds transport, not semantics: byte-identical to the
  // in-process answer (stats excluded — DeterministicResponseText ignores
  // them by design).
  EXPECT_EQ(DeterministicResponseText(*response),
            DeterministicResponseText(fx.service.Execute(request)));

  ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.frames_in, 1u);
  EXPECT_EQ(stats.responses_out, 1u);
  EXPECT_EQ(stats.connections_accepted, 1u);
}

TEST(NetServer, PipelinedResponsesArriveInRequestOrder) {
  ServerFixture fx;
  Client client = fx.Connect();

  // A pipelined burst: two distinct queries, one invalid request (empty
  // keyword set) wedged between them, then a repeat of the first (a cache
  // hit answered inline while the misses may still be computing).
  std::vector<api::QueryRequest> requests = {
      SmallRequest("faloutsos"), api::QueryRequest(""),
      SmallRequest("databases"), SmallRequest("faloutsos")};
  for (const api::QueryRequest& r : requests) {
    ASSERT_TRUE(client.Send(r).ok());
  }

  std::vector<api::QueryResponse> responses;
  for (size_t i = 0; i < requests.size(); ++i) {
    api::StatusOr<api::QueryResponse> r = client.Receive();
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    responses.push_back(*std::move(r));
  }
  // Order is the request order, whatever order the pool finished in.
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].ok());
  EXPECT_TRUE(responses[3].ok());
  EXPECT_EQ(DeterministicResponseText(responses[0]),
            DeterministicResponseText(responses[3]));
  EXPECT_NE(DeterministicResponseText(responses[0]),
            DeterministicResponseText(responses[2]));
  EXPECT_EQ(fx.server.stats().frames_in, 4u);
  EXPECT_EQ(fx.server.stats().responses_out, 4u);
}

TEST(NetServer, MalformedPayloadIsAnsweredInBandAndStreamSurvives) {
  ServerFixture fx;
  Client client = fx.Connect();

  // Well-framed garbage: framing stays in sync, so the server answers
  // kCodecError in-band instead of dropping the connection.
  ASSERT_TRUE(client.SendPayload("this is not a codec document").ok());
  api::StatusOr<api::QueryResponse> rejected = client.Receive();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status.code(), api::StatusCode::kCodecError);
  EXPECT_TRUE(rejected->result_list().empty());

  // The same connection still serves real queries afterwards.
  ASSERT_TRUE(client.Send(SmallRequest("faloutsos")).ok());
  api::StatusOr<api::QueryResponse> served = client.Receive();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->ok());

  ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.malformed_frames, 1u);
  EXPECT_EQ(stats.framing_violations, 0u);
  EXPECT_EQ(stats.frames_in, 2u);
}

TEST(NetServer, OversizedFramePrefixDropsTheConnection) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  ServerFixture fx(options);
  Client client = fx.Connect();

  // A prefix announcing 2 MiB on a 1 KiB server: resynchronization is
  // impossible, the only safe move is dropping the connection. Only the
  // u32 LE prefix is sent: the server rejects on it alone and closes, so
  // a body sent behind it could fail with EPIPE/ECONNRESET.
  const uint32_t announced = 2 * 1024 * 1024;
  std::string prefix(4, '\0');
  for (size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<char>((announced >> (8 * i)) & 0xFF);
  }
  ASSERT_TRUE(client.SendBytes(prefix).ok());
  api::StatusOr<api::QueryResponse> response = client.Receive();
  EXPECT_FALSE(response.ok());

  // The server counts the framing violation before it closes the
  // connection, so wait on the later of the two counters.
  for (int i = 0; i < 200 && fx.server.stats().connections_closed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.framing_violations, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.responses_out, 0u);
}

TEST(NetServer, SlowReaderIsBackpressuredNotBufferedWithoutBound) {
  ServerOptions options;
  options.outbound_high_watermark = 2 * 1024;  // pause reads almost at once
  options.outbound_hard_cap = 256u << 20;      // but never disconnect
  ServerFixture fx(options);
  Client client = fx.Connect();

  // Responses must dwarf what the kernel socket buffers can absorb or the
  // server never sees EAGAIN and never needs to pause reads. A duplicated
  // keyword canonicalizes to the same cache key as the single keyword —
  // fat ~2 KiB request frames, one computed response served from cache —
  // and l=40 with several results makes that one response heavyweight.
  api::QueryRequest request("faloutsos");
  request.WithL(40).WithMaxResults(8);
  std::string fat_keywords;
  for (int i = 0; i < 200; ++i) fat_keywords += "faloutsos ";
  api::QueryRequest fat_request = request;
  fat_request.WithKeywords(fat_keywords);
  ASSERT_EQ(fat_request.CacheKey(), request.CacheKey());

  const size_t response_bytes =
      api::EncodeResponse(fx.service.Execute(request)).size();
  ASSERT_GE(response_bytes, 256u) << "fixture response too small to "
                                     "overwhelm kernel buffering";
  // Enough pipelined copies that the response stream is ~32 MiB.
  const uint64_t kRequests =
      std::max<uint64_t>(2000, (32u << 20) / response_bytes);

  // Sent by a thread that never reads: once the server pauses reads, TCP
  // flow control backs the sender up and Send() itself blocks.
  std::thread sender([&client, &fat_request, kRequests] {
    for (uint64_t i = 0; i < kRequests; ++i) {
      if (!client.Send(fat_request).ok()) return;
    }
  });

  // Wait until the server's intake stalls: reads paused, queue bounded.
  uint64_t last = 0;
  int stable = 0;
  for (int i = 0; i < 600 && stable < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    uint64_t now = fx.server.stats().frames_in;
    stable = (now > 0 && now == last) ? stable + 1 : 0;
    last = now;
  }
  ServerStats stalled = fx.server.stats();
  EXPECT_GT(stalled.frames_in, 0u);
  EXPECT_LT(stalled.frames_in, kRequests)
      << "backpressure never paused reads";
  EXPECT_EQ(stalled.backpressure_closes, 0u);
  EXPECT_LE(stalled.max_queued_bytes, options.outbound_hard_cap);

  // Start draining: every request is eventually answered, none dropped.
  for (uint64_t i = 0; i < kRequests; ++i) {
    api::StatusOr<api::QueryResponse> response = client.Receive();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status().ToString();
    EXPECT_TRUE(response->ok());
  }
  sender.join();
  ServerStats final_stats = fx.server.stats();
  EXPECT_EQ(final_stats.frames_in, kRequests);
  EXPECT_EQ(final_stats.responses_out, kRequests);
  EXPECT_EQ(final_stats.dropped_responses, 0u);
  EXPECT_EQ(final_stats.backpressure_closes, 0u);
  EXPECT_LE(final_stats.max_queued_bytes, options.outbound_hard_cap);
}

TEST(NetServer, GracefulShutdownDrainsInFlightRequests) {
  ScoredDblp dblp(SmallDblpConfig());
  GatedBackend gated(&dblp.backend);
  search::SearchContext context = BuildDblpContext(dblp.d, &gated);
  serve::QueryService service(context, SmallService());
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  api::StatusOr<Client> client =
      Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/60'000);
  ASSERT_TRUE(client.ok());

  // Park a miss on the gate, then shut down while it is in flight.
  gated.CloseGate();
  api::QueryRequest request = SmallRequest("faloutsos");
  ASSERT_TRUE(client->Send(request).ok());
  gated.WaitUntilBlocked();

  std::atomic<bool> shutdown_done{false};
  bool drained = false;
  std::thread shutter([&] {
    drained = server.Shutdown();
    shutdown_done.store(true);
  });
  // Drain must wait for the in-flight answer, not abandon it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(shutdown_done.load());

  gated.OpenGate();
  // The response was computed, flushed and delivered before the close.
  api::StatusOr<api::QueryResponse> response = client->Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok());
  shutter.join();
  EXPECT_TRUE(drained);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses_out, 1u);
  EXPECT_EQ(stats.dropped_responses, 0u);

  // The listener is gone: new connections are refused.
  EXPECT_FALSE(Client::Connect("127.0.0.1", server.port(),
                               /*timeout_ms=*/1000).ok());
}

TEST(NetServer, ShutdownIsIdempotentAndIdleShutdownIsFast) {
  ServerFixture fx;
  Client client = fx.Connect();  // an idle connection must not stall drain
  EXPECT_TRUE(fx.server.Shutdown());
  EXPECT_TRUE(fx.server.Shutdown());  // second call: remembered verdict
}

TEST(NetServer, StartupErrorsAreReportedNotFatal) {
  ScoredDblp dblp(SmallDblpConfig());
  search::SearchContext context = BuildDblpContext(dblp.d, &dblp.backend);
  serve::QueryService service(context, SmallService());
  ServerOptions options;
  options.bind_address = "not an address";
  Server server(&service, options);
  EXPECT_FALSE(server.Start().ok());
  // Destroying a never-started server is a no-op, not a hang.
}

// ---- per-connection fairness ---------------------------------------------

// A pipelining firehose must not starve an interactive connection: with
// round-robin dispatch and a bounded inflight window, the slow client's
// single miss is answered after a handful of firehose computes, not after
// the firehose's entire backlog. (Under the old drain-to-exhaustion
// dispatch the firehose's whole burst entered the pool queue first and
// this assertion fails by two orders of magnitude.)
//
// The interactive request's position is read inside its own compute,
// when its answer is produced: read after Receive, it would also count
// the firehose requests served while the client thread was waking up.
TEST(NetFairness, FirehoseCannotStarveTheInteractiveConnection) {
  ScoredDblp dblp(SmallDblpConfig());
  GatedBackend gated(&dblp.backend);
  ProbeBackend probe(&gated);
  search::SearchContext context = BuildDblpContext(dblp.d, &probe);
  // Memoize every "faloutsos" OS tree at l = 8, so that the flood's
  // computes make no join calls past its first (gated, l = 9) request,
  // and the probe's last reading comes from the interactive compute.
  api::QueryOptions warm;
  warm.l = 8;
  warm.max_results = 1000;
  ASSERT_FALSE(context.Query("faloutsos", warm).empty());
  serve::ServiceOptions so;
  so.num_threads = 1;  // serial computes make "how many ran first" exact
  serve::QueryService service(context, so);
  ServerOptions options;
  options.max_inflight_requests = 4;
  Server server(&service, options);
  probe.SetProbe([&server] { return server.stats().responses_out; });
  ASSERT_TRUE(server.Start().ok());
  auto connect = [&] {
    api::StatusOr<Client> c =
        Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/60'000);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  };
  Client firehose = connect();
  Client interactive = connect();

  // Park the pool, then flood: every firehose request is a distinct-key
  // miss (same keywords, different max_results), so nothing coalesces.
  // Only the first one has no memoized tree, and it holds the gate.
  constexpr uint64_t kFlood = 200;
  gated.CloseGate();
  for (uint64_t i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(firehose
                    .Send(api::QueryRequest("faloutsos")
                              .WithL(i == 0 ? 9 : 8)
                              .WithMaxResults(1 + i))
                    .ok());
  }
  // Wait until the flood is on the server (window-many dispatched, the
  // rest queued in the reassembler) before the interactive request shows
  // up — the worst case for the slow client.
  for (int i = 0; i < 600 && server.stats().frames_in < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server.stats().frames_in, 4u);
  ASSERT_TRUE(interactive
                  .Send(api::QueryRequest("databases").WithL(8).WithMaxResults(
                      1000))
                  .ok());
  gated.OpenGate();

  api::StatusOr<api::QueryResponse> answer = interactive.Receive();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->ok()) << answer->status.ToString();
  // The interactive answer was produced while the firehose backlog was
  // still mostly unserved: it waited for at most a window's worth of
  // computes plus a couple of round-robin turns, not for kFlood of them.
  // It is dispatched only once a window slot frees, so at least one
  // response precedes it.
  uint64_t served_first = probe.last_reading();
  EXPECT_GE(served_first, 1u) << "the probe missed the interactive compute";
  EXPECT_LT(served_first, 32u)
      << "interactive request waited behind the firehose backlog";

  // Nothing is lost for the firehose either — every flooded request is
  // eventually answered, in order.
  for (uint64_t i = 0; i < kFlood; ++i) {
    api::StatusOr<api::QueryResponse> r = firehose.Receive();
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_TRUE(r->ok());
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, kFlood + 1);
  EXPECT_EQ(stats.responses_out, kFlood + 1);
  EXPECT_EQ(stats.dropped_responses, 0u);
}

// ---- overload end to end -------------------------------------------------

// The acceptance scenario: a firehose pipelines misses with tight
// deadlines while a well-behaved client uses a generous one. The tight
// budgets burn out while queued behind a parked pool; when the pool
// resumes, the expired requests are answered kDeadlineExceeded WITHOUT
// backend compute (pinned by backend I/O counters against a twin context)
// and the well-behaved request is answered normally. Every counter
// reconciles. Deadlines ride the v2 wire revision end to end.
TEST(NetOverload, TightDeadlinesShedWithoutComputeGenerousOnesSucceed) {
  ScoredDblp dblp(SmallDblpConfig());
  CountingBackend counting(&dblp.backend);
  GatedBackend gated(&counting);
  search::SearchContext context = BuildDblpContext(dblp.d, &gated);
  auto clock = std::make_shared<serve::FakeClock>();
  serve::ServiceOptions so;
  so.num_threads = 1;
  so.clock = clock;
  serve::QueryService service(context, so);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto connect = [&] {
    api::StatusOr<Client> c =
        Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/60'000);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  };
  Client firehose = connect();
  Client behaved = connect();

  // Park the single worker on a deadline-less blocker.
  gated.CloseGate();
  ASSERT_TRUE(firehose.Send(SmallRequest("faloutsos")).ok());
  gated.WaitUntilBlocked();
  uint64_t fetches_before = counting.fetches();

  // The firehose pipelines tight-deadline misses (distinct keys); they
  // must all be dispatched — deadline stamped against the fake clock —
  // before the budget burns.
  constexpr uint64_t kTight = 20;
  for (uint64_t i = 0; i < kTight; ++i) {
    ASSERT_TRUE(firehose
                    .Send(api::QueryRequest("databases")
                              .WithL(8)
                              .WithMaxResults(1 + i)
                              .WithDeadlineMicros(1'000))
                    .ok());
  }
  for (int i = 0; i < 1200 && server.stats().frames_in < kTight + 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().frames_in, kTight + 1);
  // The well-behaved client's budget is generous enough to survive the
  // clock jump below.
  ASSERT_TRUE(behaved
                  .Send(api::QueryRequest("mining").WithL(8).WithMaxResults(
                      2).WithDeadlineMicros(60'000'000))
                  .ok());
  for (int i = 0; i < 1200 && server.stats().frames_in < kTight + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().frames_in, kTight + 2);

  // Burn the tight budgets while everything is queued, then resume.
  clock->AdvanceMicros(5'000);
  gated.OpenGate();

  api::StatusOr<api::QueryResponse> blocker = firehose.Receive();
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  EXPECT_TRUE(blocker->ok());
  for (uint64_t i = 0; i < kTight; ++i) {
    api::StatusOr<api::QueryResponse> r = firehose.Receive();
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_EQ(r->status.code(), api::StatusCode::kDeadlineExceeded) << i;
    EXPECT_TRUE(r->result_list().empty());
  }
  api::StatusOr<api::QueryResponse> ok = behaved.Receive();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->ok()) << ok->status.ToString();

  // Backend I/O pinned: the blocker and the well-behaved request are the
  // only computes — a twin context priced both; the shed requests added
  // nothing.
  CountingBackend twin_counter(&dblp.backend);
  search::SearchContext twin = BuildDblpContext(dblp.d, &twin_counter);
  uint64_t twin_before = twin_counter.fetches();
  api::QueryOptions blocker_options;
  blocker_options.l = 8;
  blocker_options.max_results = 2;
  (void)twin.Query("faloutsos", blocker_options);
  (void)twin.Query("mining", blocker_options);
  EXPECT_EQ(counting.fetches() - fetches_before,
            twin_counter.fetches() - twin_before);

  // Every ledger reconciles: server, service, and the wire agree.
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, kTight + 2);
  EXPECT_EQ(stats.responses_out, kTight + 2);
  EXPECT_EQ(stats.responses_deadline_exceeded, kTight);
  EXPECT_EQ(stats.dropped_responses, 0u);
  serve::Metrics m = service.metrics();
  EXPECT_EQ(m.sheds_at_dequeue, kTight);
  EXPECT_EQ(m.sheds_at_admission, 0u);
  EXPECT_EQ(m.pending_misses, 0u);
}

// A wire budget too large to add to the clock saturates at the far future
// instead of wrapping around into the past: the request is served, not
// shed as "deadline expired at admission".
TEST(NetOverload, HugeDeadlineBudgetSaturatesInsteadOfExpiring) {
  ScoredDblp dblp(SmallDblpConfig());
  search::SearchContext context = BuildDblpContext(dblp.d, &dblp.backend);
  auto clock = std::make_shared<serve::FakeClock>();
  clock->AdvanceSeconds(60);  // any nonzero now overflows now + UINT64_MAX
  serve::ServiceOptions so = SmallService();
  so.clock = clock;
  serve::QueryService service(context, so);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  api::StatusOr<Client> client =
      Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/30'000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (uint64_t budget : {UINT64_MAX - 5, UINT64_MAX}) {
    ASSERT_TRUE(
        client->Send(SmallRequest("faloutsos").WithDeadlineMicros(budget))
            .ok());
    api::StatusOr<api::QueryResponse> response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status.code(), api::StatusCode::kOk)
        << budget << ": " << response->status.ToString();
    EXPECT_FALSE(response->result_list().empty()) << budget;
  }
  EXPECT_EQ(server.stats().responses_deadline_exceeded, 0u);
  EXPECT_EQ(service.metrics().sheds_at_admission, 0u);
}

// ---- half-close ----------------------------------------------------------

// CloseWrite racing in-flight pooled misses: the client pipelines a burst
// and half-closes before anything is answered. peer_closed_read is
// observed while most of the burst is still undispatched (tiny inflight
// window), and the server must answer every accepted request before it
// hangs up — closing on half-close with complete frames still queued in
// the reassembler would silently drop them.
TEST(NetServer, CloseWriteRacingInFlightMissesLosesNothing) {
  ScoredDblp dblp(SmallDblpConfig());
  GatedBackend gated(&dblp.backend);
  search::SearchContext context = BuildDblpContext(dblp.d, &gated);
  serve::ServiceOptions so;
  so.num_threads = 1;
  serve::QueryService service(context, so);
  ServerOptions options;
  options.max_inflight_requests = 2;  // most of the burst stays undispatched
  Server server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  api::StatusOr<Client> client =
      Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/60'000);
  ASSERT_TRUE(client.ok());

  constexpr uint64_t kBurst = 50;
  gated.CloseGate();
  for (uint64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client
                    ->Send(api::QueryRequest("faloutsos").WithL(8).WithMaxResults(
                        1 + i))
                    .ok());
  }
  client->CloseWrite();  // races the dispatch of the whole burst
  gated.WaitUntilBlocked();
  gated.OpenGate();

  for (uint64_t i = 0; i < kBurst; ++i) {
    api::StatusOr<api::QueryResponse> r = client->Receive();
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_TRUE(r->ok()) << i;
  }
  // After the last answer the server closes its side.
  api::StatusOr<api::QueryResponse> eof = client->Receive();
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), api::StatusCode::kBackendError);

  for (int i = 0; i < 600 && server.stats().connections_closed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, kBurst);
  EXPECT_EQ(stats.responses_out, kBurst);
  EXPECT_EQ(stats.dropped_responses, 0u);
  EXPECT_EQ(stats.connections_closed, 1u);
}

// ---- client timeout regressions ------------------------------------------

// Connecting to a peer that never completes the handshake must fail
// within the caller's timeout, not block on the kernel's minutes-long SYN
// retry schedule. A full accept queue reproduces this deterministically
// on loopback: with backlog 1 and an application that never accepts, the
// kernel drops further SYNs and the connecting side just retries — the
// old blocking connect() hung here until the retry schedule gave up.
TEST(NetClient, ConnectTimesOutWhenTheHandshakeNeverCompletes) {
  RawListener listener(/*backlog=*/1);
  ASSERT_GE(listener.fd, 0);
  std::vector<Client> parked;  // hold the accept-queue slots open
  api::Status last;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 32; ++i) {
    api::StatusOr<Client> client =
        Client::Connect("127.0.0.1", listener.port, /*timeout_ms=*/300);
    if (!client.ok()) {
      last = client.status();
      break;
    }
    parked.push_back(std::move(client).value());
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(last.code(), api::StatusCode::kDeadlineExceeded)
      << last.ToString();
  EXPECT_LT(elapsed.count(), 30'000) << "connect ignored its timeout";
}

// A server that accepts but never reads: once the kernel buffers fill,
// send() must time out (SO_SNDTIMEO) and surface kDeadlineExceeded — the
// old client never set a send timeout and hung here forever.
TEST(NetClient, SendToNonDrainingServerTimesOutInsteadOfHanging) {
  RawListener listener;
  ASSERT_GE(listener.fd, 0);
  api::StatusOr<Client> client =
      Client::Connect("127.0.0.1", listener.port, /*timeout_ms=*/300);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Flood until the socket buffers (client send + server receive) fill
  // and the timeout fires. A bounded number of 1 MiB writes is far more
  // than any default buffer pair holds.
  std::string chunk(1 << 20, 'x');
  api::Status status;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1024; ++i) {
    status = client->SendBytes(chunk);
    if (!status.ok()) break;
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(status.code(), api::StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_LT(elapsed.count(), 30'000) << "send ignored its timeout";
}

// The receive-side distinction: a mute server is a TIMEOUT
// (kDeadlineExceeded — the budget ran out, the server may still be
// working), a closed connection is a FAILURE (kBackendError). The old
// client reported both as kBackendError, making "retry elsewhere" and
// "give up" indistinguishable.
TEST(NetClient, ReceiveTimeoutAndServerCloseAreDistinctStatuses) {
  RawListener listener;
  ASSERT_GE(listener.fd, 0);
  api::StatusOr<Client> mute =
      Client::Connect("127.0.0.1", listener.port, /*timeout_ms=*/300);
  ASSERT_TRUE(mute.ok()) << mute.status().ToString();
  api::StatusOr<api::QueryResponse> timed_out = mute->Receive();
  EXPECT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), api::StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();

  RawListener second;  // fresh accept queue: its first connection is ours
  ASSERT_GE(second.fd, 0);
  api::StatusOr<Client> dropped =
      Client::Connect("127.0.0.1", second.port, /*timeout_ms=*/2'000);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  int peer = second.Accept();
  ASSERT_GE(peer, 0);
  ::close(peer);  // server-side close, not a timeout
  api::StatusOr<api::QueryResponse> closed = dropped->Receive();
  EXPECT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), api::StatusCode::kBackendError)
      << closed.status().ToString();
}

}  // namespace
}  // namespace osum::net
