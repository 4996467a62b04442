#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <tuple>
#include <type_traits>

#include "common/status_macros.h"

namespace labflow::net {

using labbase::LabBase;

namespace {

/// Connection-scope requests execute under this pseudo-session key: they
/// need no lease, but still flow through the per-key FIFO so one
/// connection's control traffic stays ordered.
constexpr uint64_t kControlSession = 0;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

/// One live session behind the wire: its pool lease plus the FIFO of
/// frames waiting to execute on it. For kControlSession `lease` is empty.
struct Server::SessionState {
  LabBase::SessionPool::Lease lease;
  std::deque<PendingFrame> pending;
  /// True while a worker owns this session's FIFO (it drains one frame at
  /// a time, re-enqueueing itself while pending is non-empty).
  bool running = false;
};

struct Server::Connection {
  explicit Connection(int fd_in, uint32_t max_frame)
      : fd(fd_in), reader(max_frame) {}

  const int fd;
  /// Loop-thread only.
  FrameReader reader;            // NOLINT(guarded-by-coverage): loop thread
  bool reads_paused = false;     // NOLINT(guarded-by-coverage): loop thread
  bool want_write = false;       // NOLINT(guarded-by-coverage): loop thread
  /// Rank kNetConnection — the outermost lock in the tree: workers take
  /// the work queue under it (requeue/finish), and a session-close erases
  /// the lease under it, returning the (already aborted, so storage-idle)
  /// session to the pool. Nothing may take a connection mutex while
  /// holding any other ranked lock.
  Mutex mu{LockRank::kNetConnection, "net.server.conn"};
  std::string out LABFLOW_GUARDED_BY(mu);
  bool dead LABFLOW_GUARDED_BY(mu) = false;
  uint64_t next_session_id LABFLOW_GUARDED_BY(mu) = 1;
  std::unordered_map<uint64_t, std::unique_ptr<SessionState>> sessions
      LABFLOW_GUARDED_BY(mu);
};

Server::Server(labbase::LabBase* db, storage::StorageManager* mgr,
               ServerConfig config)
    : db_(db), mgr_(mgr), config_(std::move(config)), pool_(db) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  started_ = true;
  int workers = config_.worker_threads < 1 ? 1 : config_.worker_threads;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  // Phase 1: stop accepting and reading. The loop observes `stopping_`,
  // closes the listen socket and unsubscribes every connection from
  // EPOLLIN — the request set is now frozen.
  {
    MutexLock l(queue_mu_);
    stopping_ = true;
  }
  WakeLoop();

  // Phase 2: drain. Every frame already received either executes and its
  // response is appended, or is dropped with its connection.
  {
    MutexLock l(queue_mu_);
    drain_cv_.Wait(queue_mu_, [this]() LABFLOW_REQUIRES(queue_mu_) {
      return inflight_ == 0 && queue_.empty();
    });
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // Phase 3: final flush and teardown. With workers gone no more bytes can
  // appear; the loop pushes out what's buffered, then closes every
  // connection — releasing session leases (open transactions abort) while
  // the pool is still alive.
  WakeLoop();
  loop_thread_.join();

  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

// Lock-order audit of the loop/worker seam (see docs/STORAGE.md): the epoll
// loop thread only ever takes connection mutexes, queue_mu_ and dirty_mu_ —
// all ranked below every session/storage lock — and never blocks on a lock a
// worker holds across storage work, because workers drop all storage locks
// inside HandleFrame before touching any net-layer mutex. The eventfd wakeup
// below is rankless by construction: a plain fd write with no mutex held
// (callers enqueue first, release, then wake), so it needs no rank and can
// be called from any context.
void Server::WakeLoop() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::EnqueueWork(const std::shared_ptr<Connection>& conn,
                         uint64_t session_key) {
  {
    MutexLock l(queue_mu_);
    queue_.push_back(Work{conn, session_key});
  }
  queue_cv_.NotifyOne();
}

// ---- Event loop -------------------------------------------------------------

void Server::LoopMain() {
  bool listen_open = true;
  std::vector<epoll_event> events(64);
  while (true) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (listen_open) AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (mask & EPOLLOUT) {
        if (!FlushConnection(conn)) continue;  // closed on write error
      }
      if (mask & EPOLLIN) ReadReady(conn);
    }

    // Worker-completed responses: flush each touched connection and
    // re-evaluate its backpressure state.
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      MutexLock l(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (const std::shared_ptr<Connection>& conn : dirty) {
      if (conns_.count(conn->fd) == 0) continue;
      FlushConnection(conn);
    }

    bool stopping;
    {
      MutexLock l(queue_mu_);
      stopping = stopping_;
    }
    if (stopping && listen_open) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      listen_open = false;
      for (auto& [fd, conn] : conns_) {
        conn->reads_paused = true;
        UpdateInterest(conn);
      }
    }
    if (stopping) {
      // Drop connections whose output is fully flushed; once the drain
      // completes (workers joined) and every buffer is empty, exit.
      bool workers_done;
      {
        MutexLock l(queue_mu_);
        workers_done = stop_workers_;
      }
      if (workers_done) {
        std::vector<std::shared_ptr<Connection>> all;
        all.reserve(conns_.size());
        for (auto& [fd, conn] : conns_) all.push_back(conn);
        bool pending_output = false;
        for (const std::shared_ptr<Connection>& conn : all) {
          if (!FlushConnection(conn)) continue;
          MutexLock l(conn->mu);
          if (!conn->out.empty()) pending_output = true;
        }
        if (!pending_output) break;
      }
    }
  }

  // Teardown on the loop thread: every connection closes here, which
  // destroys its SessionStates and returns their leases to pool_ — before
  // ~Server destroys the pool.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : remaining) {
    CloseConnection(conn);
  }
  if (listen_open && listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error; LT retries
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd, config_.max_frame_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  epoll_event ev{};
  ev.events = (conn->reads_paused ? 0u : EPOLLIN) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::ReadReady(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  while (!conn->reads_paused) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->reader.Append(std::string_view(buf, static_cast<size_t>(n)));
      std::string frame;
      while (true) {
        Result<bool> got = conn->reader.Next(&frame);
        if (!got.ok()) {
          // Desynchronized stream: no frame boundary to answer on. Close.
          CloseConnection(conn);
          return;
        }
        if (!got.value()) break;
        RouteFrame(conn, std::move(frame));
      }
      // Backpressure: a pipelining client can queue enough responses to
      // hit the high watermark without the socket ever blocking.
      size_t buffered;
      {
        MutexLock l(conn->mu);
        buffered = conn->out.size();
      }
      if (buffered > config_.write_high_watermark) {
        conn->reads_paused = true;
        UpdateInterest(conn);
      }
      if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      CloseConnection(conn);
    }
    return;
  }
}

void Server::RouteFrame(const std::shared_ptr<Connection>& conn,
                        std::string frame) {
  Decoder d(frame);
  Result<RequestHeader> header = DecodeRequestHeader(&d);
  if (!header.ok()) {
    // A frame whose header does not parse has no request id to answer on:
    // the stream is garbage, not a request. Close.
    CloseConnection(conn);
    return;
  }

  const uint64_t key = InfoOf(header->op).scope == OpScope::kControl
                           ? kControlSession
                           : header->session_id;

  // Count the frame in-flight BEFORE publishing it to a session FIFO: a
  // worker already draining that FIFO may execute and count it down
  // immediately, and the counter must never dip negative.
  {
    MutexLock l(queue_mu_);
    ++inflight_;
  }
  bool start_worker = false;
  bool consumed = false;
  bool direct_reply = false;
  {
    MutexLock l(conn->mu);
    if (!conn->dead) {
      auto it = conn->sessions.find(key);
      if (key == kControlSession && it == conn->sessions.end()) {
        it = conn->sessions.emplace(key, std::make_unique<SessionState>())
                 .first;
      }
      if (it == conn->sessions.end()) {
        // Unknown session: answer directly, no worker required.
        Encoder e;
        EncodeResponseHeader(
            &e, header->request_id,
            Status::NotFound("unknown session " +
                             std::to_string(header->session_id)));
        AppendFrame(&conn->out, e.buffer());
        direct_reply = true;
      } else {
        const size_t body_at = frame.size() - d.remaining();
        it->second->pending.push_back(
            PendingFrame{*header, std::move(frame), body_at});
        consumed = true;
        if (!it->second->running) {
          it->second->running = true;
          start_worker = true;
        }
      }
    }
  }
  if (!consumed) {
    MutexLock l(queue_mu_);
    --inflight_;
    if (inflight_ == 0 && queue_.empty()) drain_cv_.NotifyAll();
  }
  if (direct_reply) {
    // RouteFrame runs on the loop thread; the dirty list is drained at the
    // end of this same loop iteration, which flushes the reply.
    MutexLock l(dirty_mu_);
    dirty_.push_back(conn);
  }
  if (start_worker) EnqueueWork(conn, key);
}

bool Server::FlushConnection(const std::shared_ptr<Connection>& conn) {
  while (true) {
    std::string chunk;
    {
      MutexLock l(conn->mu);
      if (conn->dead) return false;
      if (conn->out.empty()) break;
      // Swap out up to 256 KiB per round so the lock is never held across
      // send().
      size_t take = conn->out.size() < (256u << 10) ? conn->out.size()
                                                    : (256u << 10);
      chunk = conn->out.substr(0, take);
    }
    ssize_t n = ::send(conn->fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      MutexLock l(conn->mu);
      conn->out.erase(0, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < chunk.size()) {
        conn->want_write = true;
        UpdateInterest(conn);
        return true;
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn->want_write = true;
      UpdateInterest(conn);
      return true;
    }
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return false;
  }
  // Fully flushed: disarm EPOLLOUT, resume reads below the low watermark.
  bool changed = false;
  if (conn->want_write) {
    conn->want_write = false;
    changed = true;
  }
  bool stopping;
  {
    MutexLock l(queue_mu_);
    stopping = stopping_;
  }
  if (conn->reads_paused && !stopping) {
    size_t buffered;
    {
      MutexLock l(conn->mu);
      buffered = conn->out.size();
    }
    if (buffered < config_.write_low_watermark) {
      conn->reads_paused = false;
      changed = true;
    }
  }
  if (changed) UpdateInterest(conn);
  return true;
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  size_t dropped = 0;
  {
    MutexLock l(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    // Pending frames of idle sessions die here; a running session's FIFO
    // is drained (and counted down) by its worker when it observes `dead`.
    for (auto& [key, state] : conn->sessions) {
      if (!state->running) {
        dropped += state->pending.size();
        state->pending.clear();
      }
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  if (dropped > 0) {
    MutexLock l(queue_mu_);
    inflight_ -= dropped;
    if (inflight_ == 0 && queue_.empty()) drain_cv_.NotifyAll();
  }
  // Leases return to the pool when the last shared_ptr drops (usually
  // right here, on the loop thread).
}

// ---- Workers ----------------------------------------------------------------

void Server::WorkerMain() {
  while (true) {
    Work work;
    {
      MutexLock l(queue_mu_);
      queue_cv_.Wait(queue_mu_, [this]() LABFLOW_REQUIRES(queue_mu_) {
        return stop_workers_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_workers_ and drained
      work = std::move(queue_.front());
      queue_.pop_front();
    }

    // Drain this session's FIFO one frame at a time. Between frames the
    // lock is dropped, so responses interleave fairly across sessions.
    while (true) {
      PendingFrame frame;
      bool have_frame = false;
      {
        MutexLock l(work.conn->mu);
        auto it = work.conn->sessions.find(work.session_key);
        if (it == work.conn->sessions.end() || it->second->pending.empty()) {
          if (it != work.conn->sessions.end()) it->second->running = false;
        } else if (work.conn->dead) {
          // Count down the frames we are about to drop.
          size_t dropped = it->second->pending.size();
          it->second->pending.clear();
          it->second->running = false;
          MutexLock ql(queue_mu_);
          inflight_ -= dropped;
          if (inflight_ == 0 && queue_.empty()) drain_cv_.NotifyAll();
        } else {
          frame = std::move(it->second->pending.front());
          it->second->pending.pop_front();
          have_frame = true;
        }
      }
      if (!have_frame) break;

      std::string response = HandleFrame(work.conn, work.session_key, frame);

      {
        MutexLock l(work.conn->mu);
        if (!work.conn->dead) AppendFrame(&work.conn->out, response);
      }
      {
        MutexLock l(dirty_mu_);
        dirty_.push_back(work.conn);
      }
      WakeLoop();
      {
        MutexLock l(queue_mu_);
        --inflight_;
        if (inflight_ == 0 && queue_.empty()) drain_cv_.NotifyAll();
      }
    }
  }
}

// ---- Request dispatch -------------------------------------------------------

namespace {

/// Encodes `st` (and on OK, the body built by `body`) into a response.
template <typename BodyFn>
std::string Respond(uint64_t request_id, const Status& st, BodyFn body) {
  Encoder e;
  EncodeResponseHeader(&e, request_id, st);
  if (st.ok()) body(&e);
  return e.Release();
}

std::string RespondStatus(uint64_t request_id, const Status& st) {
  return Respond(request_id, st, [](Encoder*) {});
}

}  // namespace

/// One request on its way through a handler. `session` is resolved for
/// session-scope ops only.
struct Server::Request {
  const std::shared_ptr<Connection>& conn;
  uint64_t session_key;
  uint64_t id;
  Decoder body;
  labbase::SessionIface* session = nullptr;
};

namespace {

/// The wire types of a SessionIface method's parameters, as a tuple the
/// request body decodes into.
template <typename M>
struct MethodTraits;
template <typename R, typename... P>
struct MethodTraits<R (labbase::SessionIface::*)(P...)> {
  using Args = std::tuple<WireType<P>...>;
};

template <typename T>
Status Assign(Result<T> r, T* out) {
  if (!r.ok()) return r.status();
  *out = std::move(r).value();
  return Status::OK();
}

/// Decodes the request arguments in order, stopping at the first error.
template <typename... T>
Status DecodeArgs(Decoder* d, std::tuple<T...>* args) {
  Status st;
  std::apply(
      [&](T&... arg) {
        ((st.ok() ? void(st = Assign(Wire<T>::Get(d), &arg)) : void()), ...);
      },
      *args);
  return st;
}

}  // namespace

std::string Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                                uint64_t session_key,
                                const PendingFrame& frame) {
#define LABFLOW_HAND_HANDLER(Name, code, scope) &Server::Handle##Name,
#define LABFLOW_CALL_HANDLER(Name, code, Method, kind, tally, Ret, params, \
                             args)                                        \
  &Server::HandleCall<OpKind::kind,                                       \
                      static_cast<Ret(labbase::SessionIface::*) params>(  \
                          &labbase::SessionIface::Method)>,
  static constexpr std::string (Server::*kHandlers[])(Request&) = {
      LABFLOW_WIRE_OPS(LABFLOW_HAND_HANDLER, LABFLOW_CALL_HANDLER)};
#undef LABFLOW_HAND_HANDLER
#undef LABFLOW_CALL_HANDLER
  // Every row expands to a handler that must compile: a HAND row without
  // its Server::Handle<Name>, or a CALL row whose SessionIface method does
  // not match, fails the build here.
  static_assert(std::size(kHandlers) == kOpCount,
                "every wire op needs a server handler");

  const RequestHeader& h = frame.header;
  Request r{conn, session_key, h.request_id,
            Decoder(std::string_view(frame.bytes).substr(frame.body_at))};
  if (InfoOf(h.op).scope == OpScope::kSession) {
    // Resolve the lease. The running flag guarantees this worker is the
    // only thread touching the session, so the pointer stays valid outside
    // the map lock.
    {
      MutexLock l(conn->mu);
      auto it = conn->sessions.find(session_key);
      if (it != conn->sessions.end() && it->second->lease.valid()) {
        r.session = it->second->lease.get();
      }
    }
    if (r.session == nullptr) {
      return RespondStatus(r.id, Status::NotFound("unknown session " +
                                                  std::to_string(h.session_id)));
    }
  }
  return (this->*kHandlers[static_cast<uint8_t>(h.op) - kMinOp])(r);
}

template <OpKind kKind, auto kMethod>
std::string Server::HandleCall(Request& r) {
  typename MethodTraits<decltype(kMethod)>::Args args;
  if (Status st = DecodeArgs(&r.body, &args); !st.ok()) {
    return RespondStatus(r.id, st);
  }
  auto result = std::apply(
      [&](auto&... arg) { return (r.session->*kMethod)(arg...); }, args);
  if constexpr (std::is_same_v<decltype(result), Status>) {
    return RespondStatus(r.id, result);
  } else {
    if (!result.ok()) return RespondStatus(r.id, result.status());
    using T = std::remove_cvref_t<decltype(result.value())>;
    return Respond(r.id, Status::OK(), [&](Encoder* e) {
      Wire<T>::Put(e, result.value());
      if constexpr (kKind == OpKind::kDefine) {
        e->PutString(r.session->schema().Encode());
      }
    });
  }
}

std::string Server::HandlePing(Request& r) {
  return Respond(r.id, Status::OK(),
                 [](Encoder* e) { e->PutU32(kProtocolVersion); });
}

std::string Server::HandleServerStats(Request& r) {
  WireServerStats s;
  if (mgr_ != nullptr) {
    storage::StorageStats st = mgr_->stats();
    s.disk_reads = st.disk_reads;
    s.disk_writes = st.disk_writes;
    s.cache_hits = st.cache_hits;
    s.txn_commits = st.txn_commits;
    s.db_size_bytes = st.db_size_bytes;
    s.wal_bytes = st.wal_bytes;
    s.lsm_memtable_bytes = st.lsm_memtable_bytes;
    s.lsm_level_files = st.lsm_level_files;
    s.lsm_compaction_bytes_read = st.lsm_compaction_bytes_read;
    s.lsm_compaction_bytes_written = st.lsm_compaction_bytes_written;
    s.lsm_bloom_checks = st.lsm_bloom_checks;
    s.lsm_bloom_hits = st.lsm_bloom_hits;
    s.lsm_write_throttles = st.lsm_write_throttles;
  }
  return Respond(r.id, Status::OK(),
                 [&s](Encoder* e) { EncodeServerStats(e, s); });
}

std::string Server::HandleSessionOpen(Request& r) {
  Result<uint32_t> ver = r.body.GetU32();
  if (!ver.ok()) return RespondStatus(r.id, ver.status());
  if (ver.value() != kProtocolVersion) {
    return RespondStatus(
        r.id, Status::InvalidArgument("protocol version mismatch: client " +
                                      std::to_string(ver.value()) +
                                      ", server " +
                                      std::to_string(kProtocolVersion)));
  }
  LabBase::SessionPool::Lease lease = pool_.Acquire();
  if (!lease.valid()) {
    return RespondStatus(r.id, Status::Unavailable("session pool closed"));
  }
  std::string schema_blob = lease->schema().Encode();
  uint64_t session_id;
  {
    MutexLock l(r.conn->mu);
    if (r.conn->dead) {
      // Lease dtor returns it to the pool.
      return RespondStatus(r.id, Status::Unavailable("connection closed"));
    }
    session_id = r.conn->next_session_id++;
    auto state = std::make_unique<SessionState>();
    state->lease = std::move(lease);
    r.conn->sessions.emplace(session_id, std::move(state));
  }
  return Respond(r.id, Status::OK(), [&](Encoder* e) {
    e->PutU64(session_id);
    e->PutString(schema_blob);
  });
}

std::string Server::HandleSessionClose(Request& r) {
  // Abort an open transaction explicitly (releasing mid-txn would discard
  // the pooled session; an explicit abort lets it be reused).
  if (r.session->in_transaction()) {
    LABFLOW_IGNORE_STATUS(r.session->Abort(),
                          "closing session; abort failure changes nothing");
  }
  {
    MutexLock l(r.conn->mu);
    auto it = r.conn->sessions.find(r.session_key);
    if (it != r.conn->sessions.end()) {
      // Frames pipelined behind a close are dropped; their responses would
      // name a session that no longer exists.
      size_t dropped = it->second->pending.size();
      r.conn->sessions.erase(it);
      if (dropped > 0) {
        MutexLock ql(queue_mu_);
        inflight_ -= dropped;
        if (inflight_ == 0 && queue_.empty()) drain_cv_.NotifyAll();
      }
    }
  }
  return RespondStatus(r.id, Status::OK());
}

std::string Server::HandleGetSchema(Request& r) {
  std::string blob = r.session->schema().Encode();
  return Respond(r.id, Status::OK(), [&](Encoder* e) { e->PutString(blob); });
}

}  // namespace labflow::net
