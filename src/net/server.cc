#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "api/codec.h"

namespace osum::net {
namespace {

api::Status Errno(const char* what) {
  return api::Status::Internal(std::string(what) + ": " +
                               std::strerror(errno));
}

}  // namespace

Server::Server(serve::QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

api::Status Server::Start() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (started_) return api::Status::Internal("server already started");
  if (!loop_.ok()) return api::Status::Internal("event loop setup failed");
  // No loop thread exists yet (started_ was false, lifecycle_mu_ held):
  // the caller takes the loop role for the setup phase and hands it to
  // the loop thread at spawn below.
  loop_role_.BindToCurrentThread();
  loop_role_.AssertHeld();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return api::Status::Internal("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    api::Status status = Errno("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    api::Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);

  if (!loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) {
        loop_role_.AssertHeld();  // loop callbacks run on the loop thread
        OnAccept();
      })) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return api::Status::Internal("epoll registration failed");
  }
  {
    util::MutexLock lock(mailbox_->mu);
    mailbox_->loop = &loop_;
  }
  loop_thread_ = std::thread([this] {
    // Role handoff: the spawned thread IS the loop thread from here until
    // Run() returns (std::thread construction synchronizes-with this).
    loop_role_.BindToCurrentThread();
    loop_.Run();
  });
  started_ = true;
  return {};
}

bool Server::Shutdown() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (!started_ || stopped_) return drain_ok_;
  draining_.store(true, std::memory_order_release);
  loop_.Post([this] {
    loop_role_.AssertHeld();  // posted tasks run on the loop thread
    BeginDrain();
  });
  {
    // Explicit deadline loop (the predicate overload would hide the
    // guarded drain_idle_ read inside an unannotated lambda). WaitUntil
    // returning false = deadline passed; re-check the predicate once more
    // either way, per the usual condvar contract.
    util::MutexLock lock(drain_mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.drain_timeout_ms);
    while (!drain_idle_) {
      if (!drain_cv_.WaitUntil(drain_mu_, deadline)) break;
    }
    drain_ok_ = drain_idle_;
  }
  // Detach late pool completions from the loop before stopping it: any
  // worker inside the mailbox right now finishes its Post first (mutex),
  // any worker arriving later sees loop == nullptr and abandons the
  // response — for a connection this shutdown is about to force-close.
  {
    util::MutexLock lock(mailbox_->mu);
    mailbox_->loop = nullptr;
  }
  loop_.Stop();
  loop_thread_.join();
  // The loop thread is gone (join synchronizes-with its exit); reclaim
  // the loop role — its state is ours to finalize.
  loop_role_.BindToCurrentThread();
  loop_role_.AssertHeld();
  for (auto& [id, conn] : connections_) {
    CountLostResponses(conn.get());
    ::close(conn->fd);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  stopped_ = true;
  return drain_ok_;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      stats_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_closed =
      stats_.connections_closed.load(std::memory_order_relaxed);
  s.frames_in = stats_.frames_in.load(std::memory_order_relaxed);
  s.responses_out = stats_.responses_out.load(std::memory_order_relaxed);
  s.malformed_frames =
      stats_.malformed_frames.load(std::memory_order_relaxed);
  s.framing_violations =
      stats_.framing_violations.load(std::memory_order_relaxed);
  s.backpressure_closes =
      stats_.backpressure_closes.load(std::memory_order_relaxed);
  s.dropped_responses =
      stats_.dropped_responses.load(std::memory_order_relaxed);
  s.responses_deadline_exceeded =
      stats_.responses_deadline_exceeded.load(std::memory_order_relaxed);
  s.max_queued_bytes =
      stats_.max_queued_bytes.load(std::memory_order_relaxed);
  return s;
}

void Server::OnAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept error: wait for the next event
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);  // raced BeginDrain; refuse new work
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_connection_id_++;
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->id = id;
    conn->fd = fd;
    conn->armed_events = EPOLLIN;
    if (!loop_.Add(fd, EPOLLIN,
                   [this, id](uint32_t events) {
                     loop_role_.AssertHeld();
                     OnConnectionEvent(id, events);
                   })) {
      ::close(fd);
      continue;
    }
    connections_[id] = std::move(conn);
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::OnConnectionEvent(uint64_t id, uint32_t events) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConnection(id);
    return;
  }
  if (events & EPOLLIN) {
    OnReadable(conn);
    // OnReadable may have closed the connection (framing violation, read
    // error); EPOLLOUT for a dead connection is stale.
    it = connections_.find(id);
    if (it == connections_.end()) return;
    conn = it->second.get();
  }
  if (events & EPOLLOUT) FlushConnection(conn);
}

void Server::OnReadable(Connection* conn) {
  const uint64_t id = conn->id;
  // Bounded per event: level-triggered epoll re-delivers EPOLLIN while
  // bytes remain, so a firehose connection cannot starve the others.
  char buf[64 * 1024];
  for (int chunk = 0; chunk < 4; ++chunk) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (!conn->frames.Feed(
              std::string_view(buf, static_cast<size_t>(n)))) {
        stats_.framing_violations.fetch_add(1, std::memory_order_relaxed);
        CloseConnection(id);
        return;
      }
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {  // peer finished sending; answer what we have, then close
      conn->peer_closed_read = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(id);
    return;
  }

  // Frames stay queued in the reassembler; the scheduler takes one per
  // connection per turn so a firehose cannot buy the whole pool with one
  // read event.
  EnqueueReady(conn);
  PumpScheduler();
  // PumpScheduler may have closed this connection (framing violation
  // surfaced by Next, or a flush failure).
  auto it = connections_.find(id);
  if (it != connections_.end()) FlushConnection(it->second.get());
}

void Server::EnqueueReady(Connection* conn) {
  if (conn->in_ready || !conn->frames.HasCompleteFrame()) return;
  conn->in_ready = true;
  ready_.push_back(conn->id);
}

void Server::SchedulePump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  loop_.Post([this] {
    loop_role_.AssertHeld();
    pump_scheduled_ = false;
    PumpScheduler();
  });
}

void Server::PumpScheduler() {
  // Per-call budget: yield back to the loop between bursts so reads and
  // writes interleave with dispatch even under a standing backlog.
  constexpr int kPumpBudget = 64;
  int budget = kPumpBudget;
  while (budget > 0 && !ready_.empty() &&
         inflight_requests_ < options_.max_inflight_requests) {
    uint64_t id = ready_.front();
    ready_.pop_front();
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;  // closed while queued
    Connection* conn = it->second.get();
    conn->in_ready = false;
    std::optional<std::string> payload = conn->frames.Next();
    if (conn->frames.poisoned()) {
      // A poisonous prefix queued behind valid frames surfaces here.
      stats_.framing_violations.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(id);
      continue;
    }
    if (!payload) continue;
    --budget;
    DispatchFrame(conn, *payload);
    // DispatchFrame answers hits/malformed inline (via the mailbox or
    // directly), which never erases the connection — but flushing might.
    EnqueueReady(conn);
    FlushConnection(conn);
  }
  if (!ready_.empty() &&
      inflight_requests_ < options_.max_inflight_requests) {
    SchedulePump();  // budget spent with runnable work left
  }
}

void Server::DispatchFrame(Connection* conn, const std::string& payload) {
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
  uint64_t seq = conn->next_slot_seq++;
  conn->slots.emplace_back();
  api::StatusOr<api::QueryRequest> decoded = api::DecodeRequest(payload);
  if (!decoded.ok()) {
    // Framing is intact, so the stream stays in sync: answer in-band.
    stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    DeliverResponse(conn, seq,
                    EncodeFrame(api::EncodeResponse(
                        api::QueryResponse::Failure(decoded.status(),
                                                    api::QueryStats()))));
    return;
  }
  // The deadline becomes absolute here, at dispatch, on the service
  // clock: the wait for this round-robin turn is not charged to the
  // budget, but time queued behind the pool is. A budget too large to add
  // saturates rather than wrapping into the past.
  uint64_t deadline = 0;
  if (const uint64_t budget = decoded->deadline_micros(); budget != 0) {
    const uint64_t now = service_->clock()->NowMicros();
    deadline = budget > UINT64_MAX - now ? UINT64_MAX : now + budget;
  }
  ++inflight_requests_;
  const uint64_t id = conn->id;
  // Hits answer inline on this (loop) thread, misses on the pool; every
  // answer funnels through the mailbox back to the loop, which alone
  // touches the connection.
  std::shared_ptr<Mailbox> mailbox = mailbox_;
  service_->Submit(
      *std::move(decoded), deadline,
      [this, id, seq, mailbox](api::QueryResponse response) {
        if (response.status.code() == api::StatusCode::kDeadlineExceeded) {
          stats_.responses_deadline_exceeded.fetch_add(
              1, std::memory_order_relaxed);
        }
        // Encoding happens here — on a worker for misses — keeping the
        // loop thread out of the expensive part.
        std::string framed = EncodeFrame(api::EncodeResponse(response));
        util::MutexLock lock(mailbox->mu);
        if (mailbox->loop == nullptr) return;  // shutdown won the race
        mailbox->loop->Post(
            [this, id, seq, framed = std::move(framed)]() mutable {
              loop_role_.AssertHeld();
              OnResponseReady(id, seq, std::move(framed));
            });
      });
}

void Server::OnResponseReady(uint64_t id, uint64_t seq, std::string framed) {
  // The window slot frees whether or not the connection survived — the
  // request it covered is answered either way.
  if (inflight_requests_ > 0) --inflight_requests_;
  auto it = connections_.find(id);
  if (it != connections_.end()) {
    Connection* conn = it->second.get();
    DeliverResponse(conn, seq, std::move(framed));
    FlushConnection(conn);
  }  // else: peer left; drop counted at close
  PumpScheduler();  // a slot opened; resume the round-robin
}

void Server::DeliverResponse(Connection* conn, uint64_t seq,
                             std::string framed) {
  if (seq < conn->first_slot_seq) return;
  size_t index = static_cast<size_t>(seq - conn->first_slot_seq);
  if (index >= conn->slots.size()) return;
  Slot& slot = conn->slots[index];
  if (slot.ready) return;
  slot.ready = true;
  slot.bytes = std::move(framed);
  conn->queued_bytes += slot.bytes.size();
  stats_.responses_out.fetch_add(1, std::memory_order_relaxed);
  uint64_t queued = conn->queued_bytes;
  uint64_t seen = stats_.max_queued_bytes.load(std::memory_order_relaxed);
  while (queued > seen && !stats_.max_queued_bytes.compare_exchange_weak(
                              seen, queued, std::memory_order_relaxed)) {
  }
}

bool Server::FlushConnection(Connection* conn) {
  for (;;) {
    if (conn->outbound_offset >= conn->outbound.size()) {
      conn->outbound.clear();
      conn->outbound_offset = 0;
      // One response in the write buffer at a time keeps "undelivered
      // responses" countable when a connection dies mid-flush.
      if (!conn->slots.empty() && conn->slots.front().ready) {
        conn->outbound = std::move(conn->slots.front().bytes);
        conn->slots.pop_front();
        ++conn->first_slot_seq;
      } else {
        break;
      }
    }
    ssize_t n = ::write(conn->fd, conn->outbound.data() + conn->outbound_offset,
                        conn->outbound.size() - conn->outbound_offset);
    if (n > 0) {
      conn->outbound_offset += static_cast<size_t>(n);
      conn->queued_bytes -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(conn->id);  // EPIPE, ECONNRESET, ...
    return false;
  }

  if (conn->queued_bytes > options_.outbound_hard_cap) {
    // The peer is not draining its socket and responses keep landing:
    // disconnecting is the only bound on memory.
    stats_.backpressure_closes.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(conn->id);
    return false;
  }
  if (!conn->reads_paused &&
      conn->queued_bytes > options_.outbound_high_watermark) {
    conn->reads_paused = true;  // stop parsing new requests; TCP pushes back
  } else if (conn->reads_paused &&
             conn->queued_bytes < options_.outbound_high_watermark / 2) {
    conn->reads_paused = false;
  }
  if (conn->peer_closed_read && conn->slots.empty() &&
      !conn->frames.HasCompleteFrame() &&
      conn->outbound_offset >= conn->outbound.size()) {
    // Peer done sending, we are done answering — and nothing complete is
    // still waiting for its round-robin turn (a half-closed peer may have
    // pipelined its whole burst before CloseWrite; each of those frames
    // is an accepted request that must be answered before we hang up).
    CloseConnection(conn->id);
    return false;
  }
  UpdateInterest(conn);
  MaybeFinishDrain();
  return true;
}

void Server::UpdateInterest(Connection* conn) {
  uint32_t want = 0;
  if (!conn->reads_paused && !conn->peer_closed_read &&
      !draining_.load(std::memory_order_acquire)) {
    want |= EPOLLIN;
  }
  if (conn->outbound_offset < conn->outbound.size()) want |= EPOLLOUT;
  if (want != conn->armed_events && loop_.Modify(conn->fd, want)) {
    conn->armed_events = want;
  }
}

void Server::CloseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  CountLostResponses(conn);
  loop_.Remove(conn->fd);
  loop_.DeferClose(conn->fd);
  connections_.erase(it);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  MaybeFinishDrain();
}

void Server::CountLostResponses(Connection* conn) {
  // Complete frames never dispatched die with the connection; drain them
  // into the drop count so frames_in-level accounting still reconciles
  // (they were never frames_in, but they were accepted bytes).
  uint64_t undispatched = 0;
  while (conn->frames.HasCompleteFrame() && conn->frames.Next()) {
    ++undispatched;
  }
  stats_.dropped_responses.fetch_add(
      undispatched + conn->slots.size() +
          (conn->outbound_offset < conn->outbound.size() ? 1 : 0),
      std::memory_order_relaxed);
}

void Server::BeginDrain() {
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    loop_.DeferClose(listen_fd_);
    listen_fd_ = -1;
  }
  // draining_ is already set, so UpdateInterest drops every EPOLLIN:
  // nothing new is read, in-flight answers keep flushing. Complete frames
  // already received still get dispatched — they were accepted.
  for (auto& [id, conn] : connections_) {
    UpdateInterest(conn.get());
    EnqueueReady(conn.get());
  }
  PumpScheduler();
  MaybeFinishDrain();
}

bool Server::HasPendingWork() const {
  for (const auto& [id, conn] : connections_) {
    if (!conn->slots.empty()) return true;
    if (conn->outbound_offset < conn->outbound.size()) return true;
    if (conn->frames.HasCompleteFrame()) return true;
  }
  return false;
}

void Server::MaybeFinishDrain() {
  if (!draining_.load(std::memory_order_acquire)) return;
  if (HasPendingWork()) return;
  {
    util::MutexLock lock(drain_mu_);
    drain_idle_ = true;
  }
  drain_cv_.NotifyAll();
}

}  // namespace osum::net
