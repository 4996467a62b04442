#ifndef LABFLOW_NET_SERVER_H_
#define LABFLOW_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "labbase/labbase.h"
#include "net/wire.h"
#include "storage/storage_manager.h"

namespace labflow::net {

struct ServerConfig {
  /// Listen address. Only loopback is expected in this repo's harnesses,
  /// but any local address works.
  std::string host = "127.0.0.1";
  /// Port to bind; 0 asks the kernel for an ephemeral port (read it back
  /// from port() after Start()).
  uint16_t port = 0;
  /// Worker threads executing requests against SessionPool leases. The
  /// event loop itself never touches storage.
  int worker_threads = 4;
  /// Per-connection write-buffer backpressure: above `high` the server
  /// stops *reading* from that connection (a slow reader throttles its own
  /// pipeline instead of ballooning server memory); reads resume once the
  /// buffer drains below `low`.
  size_t write_high_watermark = 4u << 20;
  size_t write_low_watermark = 512u << 10;
  /// Frame-size ceiling applied to inbound requests.
  uint32_t max_frame_bytes = kMaxFrameBytes;
};

/// labflowd's engine: a level-triggered epoll event loop over non-blocking
/// sockets, plus a small worker pool that executes decoded requests against
/// labbase::LabBase::SessionPool leases.
///
/// Concurrency model:
///   - One event-loop thread owns every socket: all read(), write() and
///     epoll bookkeeping happen there. Workers never touch fds.
///   - Workers pull (connection, session) work items off a queue. Per
///     session, frames execute strictly FIFO (a session is single-threaded
///     by LabBase contract); different sessions — on one connection or
///     many — execute concurrently, which is what makes client pipelining
///     pay.
///   - Workers hand finished responses back by appending to the
///     connection's write buffer and waking the loop via eventfd.
///
/// Shutdown() drains gracefully: stop accepting, stop reading, let every
/// already-received request finish and its response flush, then release
/// all session leases (open transactions abort — the client sees a closed
/// socket, exactly as it would on a crash) before the pool is destroyed.
class Server {
 public:
  /// `db` must outlive the server. `mgr` (nullable) only feeds the
  /// kServerStats op.
  Server(labbase::LabBase* db, storage::StorageManager* mgr,
         ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the loop + workers. Call once.
  [[nodiscard]] Status Start();

  /// Graceful drain; blocks until the server is fully stopped. Idempotent.
  void Shutdown();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

 private:
  struct SessionState;
  struct Connection;
  struct Request;
  /// A received request: its header, parsed once by RouteFrame, and the
  /// frame bytes, of which the body starts at `body_at`.
  struct PendingFrame {
    RequestHeader header;
    std::string bytes;
    size_t body_at = 0;
  };
  struct Work {
    std::shared_ptr<Connection> conn;
    uint64_t session_key = 0;
  };

  void LoopMain();
  void WorkerMain();

  void AcceptReady();
  void ReadReady(const std::shared_ptr<Connection>& conn);
  bool FlushConnection(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void RouteFrame(const std::shared_ptr<Connection>& conn, std::string frame);

  /// Executes one request; returns the full response payload.
  std::string HandleFrame(const std::shared_ptr<Connection>& conn,
                          uint64_t session_key, const PendingFrame& frame);

  // One handler per wire op (see LABFLOW_WIRE_OPS): the HAND rows below,
  // and HandleCall, instantiated for every CALL row.
  std::string HandlePing(Request& r);
  std::string HandleSessionOpen(Request& r);
  std::string HandleSessionClose(Request& r);
  std::string HandleGetSchema(Request& r);
  std::string HandleServerStats(Request& r);
  template <OpKind kKind, auto kMethod>
  std::string HandleCall(Request& r);

  void EnqueueWork(const std::shared_ptr<Connection>& conn,
                   uint64_t session_key);
  void WakeLoop();

  labbase::LabBase* const db_;
  storage::StorageManager* const mgr_;
  const ServerConfig config_;

  // Internally synchronized (its own kSessionPool mutex).
  labbase::LabBase::SessionPool pool_;  // NOLINT(guarded-by-coverage)

  // Written once in Start() before any thread launches, closed in Stop()
  // after every thread joined; const in between.
  int listen_fd_ = -1;  // NOLINT(guarded-by-coverage): Start/Stop thread
  int epoll_fd_ = -1;   // NOLINT(guarded-by-coverage): Start/Stop thread
  int wake_fd_ = -1;    // NOLINT(guarded-by-coverage): Start/Stop thread
  uint16_t port_ = 0;   // NOLINT(guarded-by-coverage): Start/Stop thread

  std::thread loop_thread_;          // NOLINT(guarded-by-coverage): Start/Stop
  std::vector<std::thread> workers_;  // NOLINT(guarded-by-coverage): Start/Stop

  /// Rank kNetWorkQueue: taken by workers while still holding a
  /// connection's mutex (requeue/finish paths), never while holding any
  /// session or storage lock. Declared acquired-before dirty_mu_: the two
  /// are not nested today, but if they ever are, this is the order.
  Mutex queue_mu_ LABFLOW_ACQUIRED_BEFORE(dirty_mu_){LockRank::kNetWorkQueue,
                                                     "net.server.queue"};
  CondVar queue_cv_;
  CondVar drain_cv_;
  std::deque<Work> queue_ LABFLOW_GUARDED_BY(queue_mu_);
  /// Frames received and not yet answered or dropped; Shutdown waits for 0.
  size_t inflight_ LABFLOW_GUARDED_BY(queue_mu_) = 0;
  bool stop_workers_ LABFLOW_GUARDED_BY(queue_mu_) = false;
  bool stopping_ LABFLOW_GUARDED_BY(queue_mu_) = false;
  bool started_ = false;    // NOLINT(guarded-by-coverage): Start/Stop thread
  bool shut_down_ = false;  // NOLINT(guarded-by-coverage): Start/Stop thread

  /// Loop-thread only: fd -> connection.
  std::unordered_map<int, std::shared_ptr<Connection>>
      conns_;  // NOLINT(guarded-by-coverage): loop-thread only

  /// Connections whose write buffer a worker touched; the loop drains this
  /// on each eventfd wake. Rank kNetDirtyList: never nested with anything
  /// (workers enqueue after releasing the connection mutex; the loop
  /// swaps the vector out under it and flushes off-lock).
  Mutex dirty_mu_{LockRank::kNetDirtyList, "net.server.dirty"};
  std::vector<std::shared_ptr<Connection>> dirty_ LABFLOW_GUARDED_BY(dirty_mu_);
};

}  // namespace labflow::net

#endif  // LABFLOW_NET_SERVER_H_
