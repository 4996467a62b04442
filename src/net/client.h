#ifndef LABFLOW_NET_CLIENT_H_
#define LABFLOW_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "labbase/session_iface.h"
#include "net/wire.h"

namespace labflow::net {

/// A client connection to labflowd. Thread-safe and *pipelined*: any number
/// of threads may Send() concurrently and Await() their own responses;
/// responses complete in whatever order the server finishes them, matched
/// by request id.
///
/// There is no reader thread. Awaiting threads share the socket
/// cooperatively: one of them (whichever gets there first) becomes the
/// reader, pulls frames off the socket, and files completions for everyone;
/// the rest park on a condvar. When the reader's own response arrives it
/// hands the reader role to another waiter. This keeps a closed-loop
/// client's hot path syscall-minimal — no cross-thread handoff when a
/// single thread ping-pongs requests.
///
/// Pipelining discipline: the server stops reading a connection whose
/// response backlog passes its write high-watermark, so a client that
/// sends unboundedly without awaiting can wedge itself (its Send blocks,
/// its responses sit unread). Bound in-flight requests per connection —
/// a few hundred is plenty (see bench_fig_server's open-loop window).
class Connection {
 public:
  /// Connects to host:port (blocking socket, TCP_NODELAY).
  static Result<std::unique_ptr<Connection>> Dial(const std::string& host,
                                                  uint16_t port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request frame; returns its request id for Await().
  [[nodiscard]] Result<uint64_t> Send(Op op, uint64_t session_id,
                                      std::string_view body);

  /// Blocks until the response for `request_id` arrives. Returns its body
  /// on OK, the decoded wire Status otherwise. A socket failure poisons
  /// the connection: every pending and future Await returns the error.
  [[nodiscard]] Result<std::string> Await(uint64_t request_id);

  /// Send + Await: the synchronous call every RemoteSession method uses.
  [[nodiscard]] Result<std::string> Call(Op op, uint64_t session_id,
                                         std::string_view body);

  [[nodiscard]] Status Ping();
  [[nodiscard]] Result<WireServerStats> ServerStats();

 private:
  explicit Connection(int fd) : fd_(fd) {}

  /// Reads frames until `request_id` completes or the socket dies. Caller
  /// holds mu_; the socket read itself drops the lock.
  Status ReadUntil(uint64_t request_id) LABFLOW_REQUIRES(mu_);

  const int fd_;

  /// Serializes writes so concurrent Sends interleave at frame boundaries.
  /// Acquired before mu_ (Send takes mu_ inside its write_mu_ hold to
  /// record a send failure) — the one same-class ordered pair Clang's beta
  /// lock-order analysis can check directly; the ranks mirror it.
  Mutex write_mu_ LABFLOW_ACQUIRED_BEFORE(mu_){LockRank::kNetClientWrite,
                                               "net.client.write"};

  Mutex mu_ LABFLOW_ACQUIRED_AFTER(write_mu_){LockRank::kNetClientState,
                                              "net.client.state"};
  CondVar cv_;
  uint64_t next_request_id_ LABFLOW_GUARDED_BY(mu_) = 1;
  bool reader_active_ LABFLOW_GUARDED_BY(mu_) = false;
  Status broken_ LABFLOW_GUARDED_BY(mu_);
  /// Completed responses not yet claimed by their Await-er (raw frames).
  std::unordered_map<uint64_t, std::string> completed_ LABFLOW_GUARDED_BY(mu_);
  FrameReader reader_ LABFLOW_GUARDED_BY(mu_);
};

/// labbase session semantics over a Connection: the remote half of the
/// labbase::SessionIface seam. Single-threaded like every session; many
/// RemoteSessions may share one Connection (the server executes them
/// concurrently, which is what pipelining buys).
///
/// The schema is cached client-side: fetched at Open, refreshed from the
/// response of every DDL call (DDL is single-session by LabBase contract,
/// so this session's cache cannot go stale underneath its own writer).
/// Stats are counted client-side, mirroring LabBase::Session's accounting.
class RemoteSession : public labbase::SessionIface {
 public:
  /// Opens a server-side session (acquires a pool lease there) and primes
  /// the schema cache. `conn` must outlive the returned session.
  static Result<std::unique_ptr<RemoteSession>> Open(Connection* conn);

  /// Best-effort kSessionClose so the server can recycle the lease.
  ~RemoteSession() override;

#define LABFLOW_REMOTE_STUB(Name, code, Method, kind, tally, Ret, params, \
                            args)                                        \
  Ret Method params override;
  LABFLOW_WIRE_OPS(LABFLOW_WIRE_SKIP, LABFLOW_REMOTE_STUB)
#undef LABFLOW_REMOTE_STUB

  bool in_transaction() const override { return in_txn_; }
  Status RunTransaction(const std::function<Status()>& body) override;
  const labbase::Schema& schema() const override { return schema_; }
  const labbase::LabBaseStats& stats() const override { return stats_; }

  uint64_t session_id() const { return session_id_; }

 private:
  RemoteSession(Connection* conn, uint64_t session_id)
      : conn_(conn), session_id_(session_id) {}

  /// The body of every generated stub: encodes `args`, calls `kOp`, and
  /// decodes the OK body as Ret (see LABFLOW_WIRE_OPS for kKind, kTally).
  template <typename Ret, Op kOp, OpKind kKind, const Tally& kTally,
            typename... A>
  Ret Invoke(const A&... args);

  Connection* const conn_;
  const uint64_t session_id_;
  labbase::Schema schema_;
  labbase::LabBaseStats stats_;
  bool in_txn_ = false;
};

}  // namespace labflow::net

#endif  // LABFLOW_NET_CLIENT_H_
