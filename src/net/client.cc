#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <type_traits>

#include "common/rng.h"
#include "common/status_macros.h"

namespace labflow::net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Splits a response frame into (header, body-decoder) and lifts the wire
/// status: non-OK responses become the operation's Status.
Result<std::string> LiftResponse(std::string frame) {
  Decoder d(frame);
  LABFLOW_ASSIGN_OR_RETURN(ResponseHeader h, DecodeResponseHeader(&d));
  LABFLOW_RETURN_IF_ERROR(h.status);
  return std::string(frame.substr(frame.size() - d.remaining()));
}

template <typename R>
struct ResultValue;
template <typename T>
struct ResultValue<Result<T>> {
  using type = T;
};

}  // namespace

// ---- Connection -------------------------------------------------------------

Result<std::unique_ptr<Connection>> Connection::Dial(const std::string& host,
                                                     uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Errno("connect");
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

Result<uint64_t> Connection::Send(Op op, uint64_t session_id,
                                  std::string_view body) {
  uint64_t id;
  {
    MutexLock l(mu_);
    if (!broken_.ok()) return broken_;
    id = next_request_id_++;
  }
  Encoder e;
  RequestHeader h;
  h.request_id = id;
  h.op = op;
  h.session_id = session_id;
  EncodeRequestHeader(&e, h);
  std::string payload = e.Release();
  payload.append(body.data(), body.size());
  std::string wire;
  AppendFrame(&wire, payload);

  {
    MutexLock l(write_mu_);
    size_t off = 0;
    while (off < wire.size()) {
      ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        Status st = Errno("send");
        MutexLock ml(mu_);
        if (broken_.ok()) broken_ = st;
        cv_.NotifyAll();
        return broken_;
      }
      off += static_cast<size_t>(n);
    }
  }
  return id;
}

Status Connection::ReadUntil(uint64_t request_id) {
  // Caller holds mu_ and has claimed the reader role.
  while (true) {
    // Drain already-buffered frames first.
    while (true) {
      std::string frame;
      Result<bool> got = reader_.Next(&frame);
      if (!got.ok()) return got.status();
      if (!got.value()) break;
      Decoder d(frame);
      Result<ResponseHeader> h = DecodeResponseHeader(&d);
      if (!h.ok()) return h.status();
      uint64_t rid = h->request_id;
      completed_.emplace(rid, std::move(frame));
      if (rid != request_id) cv_.NotifyAll();
      if (completed_.count(request_id) != 0) return Status::OK();
    }
    // Blocking socket read with the lock dropped.
    char buf[64 * 1024];
    mu_.Unlock();
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    mu_.Lock();
    if (n > 0) {
      reader_.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::Unavailable("server closed connection");
    return Errno("read");
  }
}

Result<std::string> Connection::Await(uint64_t request_id) {
  MutexLock l(mu_);
  while (true) {
    auto it = completed_.find(request_id);
    if (it != completed_.end()) {
      std::string frame = std::move(it->second);
      completed_.erase(it);
      return LiftResponse(std::move(frame));
    }
    if (!broken_.ok()) return broken_;
    if (!reader_active_) {
      reader_active_ = true;
      Status st = ReadUntil(request_id);
      reader_active_ = false;
      if (!st.ok() && broken_.ok()) broken_ = st;
      // Wake parked waiters: either their response was filed, or the
      // connection just died and they must observe broken_.
      cv_.NotifyAll();
      continue;
    }
    cv_.Wait(mu_);
  }
}

Result<std::string> Connection::Call(Op op, uint64_t session_id,
                                     std::string_view body) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t id, Send(op, session_id, body));
  return Await(id);
}

Status Connection::Ping() {
  LABFLOW_ASSIGN_OR_RETURN(std::string body, Call(Op::kPing, 0, {}));
  Decoder d(body);
  LABFLOW_ASSIGN_OR_RETURN(uint32_t version, d.GetU32());
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("server protocol version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

Result<WireServerStats> Connection::ServerStats() {
  LABFLOW_ASSIGN_OR_RETURN(std::string body, Call(Op::kServerStats, 0, {}));
  Decoder d(body);
  return DecodeServerStats(&d);
}

// ---- RemoteSession ----------------------------------------------------------

Result<std::unique_ptr<RemoteSession>> RemoteSession::Open(Connection* conn) {
  Encoder e;
  e.PutU32(kProtocolVersion);
  LABFLOW_ASSIGN_OR_RETURN(std::string body,
                           conn->Call(Op::kSessionOpen, 0, e.buffer()));
  Decoder d(body);
  LABFLOW_ASSIGN_OR_RETURN(uint64_t session_id, d.GetU64());
  LABFLOW_ASSIGN_OR_RETURN(std::string blob, d.GetString());
  LABFLOW_ASSIGN_OR_RETURN(labbase::Schema schema,
                           labbase::Schema::Decode(blob));
  auto session =
      std::unique_ptr<RemoteSession>(new RemoteSession(conn, session_id));
  session->schema_ = std::move(schema);
  return session;
}

RemoteSession::~RemoteSession() {
  auto closed = conn_->Call(Op::kSessionClose, session_id_, {});
  (void)closed;  // best-effort: the server reaps the lease on disconnect too
}

Status RemoteSession::RunTransaction(const std::function<Status()>& body) {
  if (in_txn_) {
    return Status::InvalidArgument(
        "RunTransaction inside an active transaction");
  }
  // Mirrors LabBase::Session::RunTransaction: retry deadlock aborts with
  // decorrelated exponential backoff. The retry budget matches the
  // in-process defaults; the jitter stream seeds from the session id.
  constexpr int kMaxRetries = 10;
  int64_t backoff_us = 100;
  Rng rng(session_id_ * 0x9E3779B97F4A7C15ull + 1);
  for (int attempt = 0;; ++attempt) {
    LABFLOW_RETURN_IF_ERROR(Begin());
    Status st = body();
    if (st.ok()) {
      st = Commit();
      if (st.ok()) return st;
    } else {
      LABFLOW_IGNORE_STATUS(Abort(),
                            "surfacing the body's error; rollback of an "
                            "aborting transaction is best-effort");
    }
    if (!st.IsAborted() || attempt >= kMaxRetries) return st;
    ++stats_.txn_retries;
    int64_t sleep_us =
        backoff_us / 2 +
        static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(backoff_us / 2 + 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    backoff_us = std::min<int64_t>(backoff_us * 2, 10000);
  }
}

template <typename Ret, Op kOp, OpKind kKind, const Tally& kTally,
          typename... A>
Ret RemoteSession::Invoke(const A&... args) {
  if constexpr (kTally.counter != nullptr && !kTally.on_success) {
    ++(stats_.*kTally.counter);
  }
  Encoder e;
  (Wire<WireType<A>>::Put(&e, args), ...);
  Result<std::string> body = conn_->Call(kOp, session_id_, e.buffer());
  // Commit and Abort end the transaction whether they succeed or return an
  // abort verdict; only a transport failure leaves the state unknown (and
  // then the connection is poisoned anyway).
  if constexpr (kKind == OpKind::kEndTxn) in_txn_ = false;
  if (!body.ok()) return body.status();
  if constexpr (kKind == OpKind::kBeginTxn) in_txn_ = true;
  if constexpr (kTally.counter != nullptr && kTally.on_success) {
    ++(stats_.*kTally.counter);
  }
  if constexpr (std::is_same_v<Ret, Status>) {
    return Status::OK();
  } else {
    using T = typename ResultValue<Ret>::type;
    Decoder d(body.value());
    if constexpr (kKind == OpKind::kDefine) {
      LABFLOW_ASSIGN_OR_RETURN(T id, Wire<T>::Get(&d));
      LABFLOW_ASSIGN_OR_RETURN(std::string blob, d.GetString());
      LABFLOW_ASSIGN_OR_RETURN(schema_, labbase::Schema::Decode(blob));
      return id;
    } else {
      return Wire<T>::Get(&d);
    }
  }
}

#define LABFLOW_REMOTE_STUB(Name, code, Method, kind, tally, Ret, params, \
                            args)                                        \
  Ret RemoteSession::Method params {                                     \
    return Invoke<Ret, Op::k##Name, OpKind::kind, tally> args;           \
  }
LABFLOW_WIRE_OPS(LABFLOW_WIRE_SKIP, LABFLOW_REMOTE_STUB)
#undef LABFLOW_REMOTE_STUB

}  // namespace labflow::net
