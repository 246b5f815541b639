// The TCP front end: a non-blocking epoll server speaking length-prefixed
// api::codec binary-v1 frames, multiplexing pipelined requests onto
// serve::QueryService.
//
// Protocol. Each inbound frame (net/frame.h) carries one encoded
// QueryRequest; each outbound frame carries one encoded QueryResponse.
// Clients may pipeline: responses come back in request order per
// connection, whatever order the pool finishes them in. A well-framed
// payload that fails to decode is answered in-band with kCodecError (the
// stream stays in sync); a framing violation (length prefix over
// max_frame_bytes) closes the connection — there is no way to find the
// next frame boundary after one.
//
// Threading. One event-loop thread owns every connection object;
// QueryService workers compute responses and hand the encoded bytes back
// via EventLoop::Post through a mutex-guarded mailbox that Shutdown
// disconnects first, so a worker can never touch a dying loop.
//
// Backpressure. Responses queue per connection in request order. Once the
// queued bytes pass outbound_high_watermark the server stops reading that
// connection (pipelined requests stay in the kernel buffer and, via TCP
// flow control, at the sender) and resumes below half the watermark; a
// reader so slow the queue would pass outbound_hard_cap is disconnected
// instead of growing the heap without bound.
//
// Fairness. Decoded requests are dispatched round-robin across ready
// connections, one frame per connection per turn, with at most
// max_inflight_requests outstanding in the service at once. A pipelining
// firehose therefore queues in its own reassembler (and, via TCP, at the
// sender) while an interactive connection's single request goes straight
// through — one connection cannot monopolize the pool. Deadlines are
// stamped at dispatch (request.deadline_micros relative to the service
// clock, saturating at UINT64_MAX): a request's wait in its reassembler
// for its round-robin turn is not charged to the budget, time queued
// behind the pool is, and expired work is shed (kDeadlineExceeded)
// without compute.
//
// Shutdown. Graceful drain: stop accepting, stop reading, then wait
// until every accepted request — dispatched, or complete in a
// reassembler awaiting its round-robin turn — has been answered AND its
// response bytes fully written, and only then stop the loop. Requests
// still half-buffered in a reassembler are abandoned by design ("drain"
// means finish what was accepted, not read more). A peer that refuses to
// drain its socket forfeits after drain_timeout_ms and its undelivered
// responses are counted, not silently lost.
#ifndef OSUM_NET_SERVER_H_
#define OSUM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/status.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "serve/query_service.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace osum::net {

struct ServerOptions {
  /// IPv4 dotted-quad to bind ("127.0.0.1" keeps the bench/test server
  /// off external interfaces; "0.0.0.0" serves them all).
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port().
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Framing violation threshold (see net/frame.h).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Queued-response bytes per connection above which reads pause.
  size_t outbound_high_watermark = 1 << 20;
  /// Queued-response bytes per connection above which the peer is
  /// declared too slow and disconnected (the OOM guard).
  size_t outbound_hard_cap = 32u << 20;
  /// Graceful-drain budget for Shutdown(); afterwards remaining
  /// connections are closed and their undelivered responses counted.
  int drain_timeout_ms = 30'000;
  /// Server-wide cap on requests dispatched into the service but not yet
  /// answered. Beyond it, decoded-but-undispatched frames wait in their
  /// connection's reassembler and the round-robin resumes as responses
  /// complete — the window that makes per-connection fairness real
  /// (without it, one firehose could still fill the pool's queue).
  size_t max_inflight_requests = 256;
};

/// Monotonic server counters (a snapshot; see Server::stats).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  /// Complete frames received (whether or not their payload decoded).
  uint64_t frames_in = 0;
  /// Responses queued for delivery (every frame_in gets exactly one,
  /// unless its connection died first).
  uint64_t responses_out = 0;
  /// Well-framed payloads that failed DecodeRequest (answered in-band
  /// with kCodecError).
  uint64_t malformed_frames = 0;
  /// Connections dropped for an impossible length prefix.
  uint64_t framing_violations = 0;
  /// Connections dropped for passing outbound_hard_cap.
  uint64_t backpressure_closes = 0;
  /// Responses that could not be delivered (peer disconnected with work
  /// in flight, or forfeited at drain timeout). Includes complete frames
  /// never dispatched because their connection died first.
  uint64_t dropped_responses = 0;
  /// Responses whose status was kDeadlineExceeded — requests shed by the
  /// service (at admission or dequeue) because their budget expired.
  uint64_t responses_deadline_exceeded = 0;
  /// High-water mark of per-connection queued response bytes — the
  /// observable the backpressure tests bound.
  uint64_t max_queued_bytes = 0;
};

class Server {
 public:
  /// `service` must outlive the server. Call Start() to serve.
  explicit Server(serve::QueryService* service, ServerOptions options = {});
  ~Server();  // Shutdown() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the event-loop thread. Non-OK when the
  /// socket cannot be set up (address in use, bad bind address, ...).
  api::Status Start();

  /// The bound port (resolves option port 0 to the kernel's pick).
  /// Locked: port_ is written by Start() on whatever thread calls it, and
  /// read here possibly from another — the annotation pass surfaced this
  /// as an unguarded cross-thread read.
  uint16_t port() const {
    util::MutexLock lock(lifecycle_mu_);
    return port_;
  }

  /// Graceful drain then stop; idempotent. Returns true when every
  /// in-flight request drained within drain_timeout_ms, false when
  /// remaining connections were forcibly closed.
  bool Shutdown();

  ServerStats stats() const;

 private:
  /// One queued response slot, in request order; bytes arrive when the
  /// service answers.
  struct Slot {
    bool ready = false;
    std::string bytes;  // already framed
  };

  /// Per-connection state; loop thread only.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    FrameReassembler frames;
    /// Responses in request order; front is next on the wire.
    std::deque<Slot> slots;
    uint64_t first_slot_seq = 0;  // sequence number of slots.front()
    uint64_t next_slot_seq = 0;
    std::string outbound;  // framed bytes being written
    size_t outbound_offset = 0;
    /// Sum of undelivered response bytes (ready slots + outbound) — the
    /// quantity backpressure bounds.
    size_t queued_bytes = 0;
    uint32_t armed_events = 0;
    bool reads_paused = false;
    bool peer_closed_read = false;
    /// Whether this connection is queued in ready_ (avoids duplicates).
    bool in_ready = false;

    explicit Connection(size_t max_frame_bytes) : frames(max_frame_bytes) {}
  };

  /// The cross-thread hand-off point between pool workers and the loop.
  /// Workers Post() through it under its mutex; Shutdown nulls `loop`
  /// under the same mutex before stopping the loop, so a late completion
  /// can never touch a dying loop (its response is simply abandoned — the
  /// connection it was for is being force-closed anyway, which is where
  /// the drop is counted).
  struct Mailbox {
    util::Mutex mu;
    EventLoop* loop GUARDED_BY(mu) = nullptr;
  };

  /// Every method below marked REQUIRES(loop_role_) is "loop thread
  /// only": callable from loop callbacks (which assert the role on
  /// entry), from Start() before the loop thread exists, or from
  /// Shutdown() after joining it — the role rebinds at exactly those
  /// handoff points.
  void OnAccept() REQUIRES(loop_role_);
  void OnConnectionEvent(uint64_t id, uint32_t events)
      REQUIRES(loop_role_);
  void OnReadable(Connection* conn) REQUIRES(loop_role_);
  /// Queues `conn` at the back of the round-robin if it has a complete
  /// frame and is not queued already.
  void EnqueueReady(Connection* conn) REQUIRES(loop_role_);
  /// The fairness scheduler: takes ONE frame from each ready connection
  /// in turn, decoding and dispatching it into the service, until the
  /// inflight window fills, the ready queue empties, or the per-pump
  /// budget is spent (then it re-posts itself so socket events
  /// interleave).
  void PumpScheduler() REQUIRES(loop_role_);
  /// Posts a PumpScheduler continuation if one is not already pending.
  void SchedulePump() REQUIRES(loop_role_);
  /// Decodes and dispatches one frame payload for `conn`: malformed
  /// payloads are answered in-band immediately; valid requests get their
  /// deadline stamped against the service clock and enter the service
  /// through QueryService::Submit, counting against the inflight window.
  void DispatchFrame(Connection* conn, const std::string& payload)
      REQUIRES(loop_role_);
  void OnResponseReady(uint64_t id, uint64_t seq, std::string framed)
      REQUIRES(loop_role_);
  /// Fills the slot `seq` with its framed response bytes (idempotent;
  /// ignores sequences already delivered or never parsed).
  void DeliverResponse(Connection* conn, uint64_t seq, std::string framed)
      REQUIRES(loop_role_);
  /// Moves ready front slots into the write buffer, writes until EAGAIN,
  /// arms/disarms EPOLLOUT, applies backpressure. May close `conn`;
  /// returns false when it did.
  bool FlushConnection(Connection* conn) REQUIRES(loop_role_);
  /// Recomputes and applies the connection's epoll interest set.
  void UpdateInterest(Connection* conn) REQUIRES(loop_role_);
  void CloseConnection(uint64_t id) REQUIRES(loop_role_);
  /// Adds to stats_.dropped_responses every response a dying `conn` will
  /// never deliver: complete frames never dispatched (drained from its
  /// reassembler here), unanswered or unwritten slots, and a partly
  /// written response.
  void CountLostResponses(Connection* conn) REQUIRES(loop_role_);
  void BeginDrain() REQUIRES(loop_role_);
  /// Signals Shutdown once draining and no connection holds undelivered
  /// work.
  void MaybeFinishDrain() REQUIRES(loop_role_) EXCLUDES(drain_mu_);
  bool HasPendingWork() const REQUIRES(loop_role_);

  serve::QueryService* const service_;
  const ServerOptions options_;

  /// "One loop thread owns every connection object", as a capability:
  /// held by the constructing thread, handed to the loop thread at the
  /// top of Start()'s spawn lambda, and reclaimed by Shutdown() right
  /// after joining it (each handoff sits on a real synchronization
  /// point). Server models its own role rather than borrowing
  /// EventLoop's so the REQUIRES expressions stay within this class.
  util::ThreadRole loop_role_;

  EventLoop loop_;
  std::thread loop_thread_;
  int listen_fd_ GUARDED_BY(loop_role_) = -1;
  uint16_t port_ GUARDED_BY(lifecycle_mu_) = 0;
  bool started_ GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ GUARDED_BY(lifecycle_mu_) = false;
  bool drain_ok_ GUARDED_BY(lifecycle_mu_) = true;
  /// Serializes Start/Shutdown/destructor; mutable so port() can lock it.
  mutable util::Mutex lifecycle_mu_;

  std::shared_ptr<Mailbox> mailbox_ = std::make_shared<Mailbox>();

  // Loop-thread-only connection table.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_
      GUARDED_BY(loop_role_);
  uint64_t next_connection_id_ GUARDED_BY(loop_role_) = 1;

  // Fairness state; loop thread only. ready_ holds ids (not pointers) so
  // a connection closed while queued is skipped harmlessly.
  std::deque<uint64_t> ready_ GUARDED_BY(loop_role_);
  size_t inflight_requests_ GUARDED_BY(loop_role_) = 0;
  bool pump_scheduled_ GUARDED_BY(loop_role_) = false;

  std::atomic<bool> draining_{false};
  util::Mutex drain_mu_;
  util::CondVar drain_cv_;
  bool drain_idle_ GUARDED_BY(drain_mu_) = false;

  // Counters live as atomics so stats() needs no lock against the loop.
  struct {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> frames_in{0};
    std::atomic<uint64_t> responses_out{0};
    std::atomic<uint64_t> malformed_frames{0};
    std::atomic<uint64_t> framing_violations{0};
    std::atomic<uint64_t> backpressure_closes{0};
    std::atomic<uint64_t> dropped_responses{0};
    std::atomic<uint64_t> responses_deadline_exceeded{0};
    std::atomic<uint64_t> max_queued_bytes{0};
  } stats_;
};

}  // namespace osum::net

#endif  // OSUM_NET_SERVER_H_
