/// Golden wire frames: the exact request and OK-response bytes of every
/// labflowd op, recorded by a byte-level proxy between a RemoteSession and
/// a live server. The frames pin the protocol: a change to any op's
/// encoding, argument order or response layout fails here, whichever side
/// (client stub or server dispatch) it was made on.
///
/// The same recorded requests drive the adversarial-body sweep: every
/// request body cut at every byte offset must come back as Corruption on a
/// connection that stays up.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "labbase/labbase.h"
#include "mm/mm_manager.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace labflow::net {
namespace {

using labbase::LabBase;

struct GoldenFrame {
  const char* op;
  const char* request;   // frame payload, hex
  const char* response;  // frame payload, hex
};

// Captured from the script in RunScript() against an empty main-memory
// database. kServerStats runs with no storage manager attached, so its
// counters are all zero.
constexpr GoldenFrame kGolden[] = {
    {"Ping", "010100", "01000002"},
    {"ServerStats", "021f00", "02000000000000000000000000000000"},
    {"SessionOpen", "03020002", "0300000103000000"},
    {"GetSchema", "040a01", "04000003000000"},
    {"Begin", "050401", "050000"},
    {"DefineMaterialClass", "06070105636c6f6e65", "060000000b0105636c6f6e6500000000"},
    {"DefineStepClass", "070801076d65617375726502066c656e677468077175616c697479", "07000001280205636c6f6e650000076d65617375726501010002000102066c656e677468077175616c69747900"},
    {"DefineState", "080901056672657368", "080000002e0205636c6f6e650000076d65617375726501010002000102066c656e677468077175616c69747901056672657368"},
    {"DefineState", "09090104646f6e65", "09000001330205636c6f6e650000076d65617375726501010002000102066c656e677468077175616c6974790205667265736804646f6e65"},
    {"CreateMaterial", "0a0b010007636c6f6e652d3100c801", "0a000002"},
    {"RecordStep", "0b0c01019003010201020002540103000000000000e03f", "0b000003"},
    {"MostRecent", "0c0d010200", "0c00000254"},
    {"MostRecentByName", "0d0e0102077175616c697479", "0d000003000000000000e03f"},
    {"ValueAsOf", "0e0f010200f403", "0e00000254"},
    {"History", "0f10010200", "0f0000019003025403"},
    {"HistoryBetween", "101101020100d00f", "10000001900303000000000000e03f03"},
    {"GetMaterial", "11120102", "110000020007636c6f6e652d3101c801020001"},
    {"GetStep", "12130103", "1200000301009003010201020002540103000000000000e03f"},
    {"FindMaterialByName", "13140107636c6f6e652d31", "13000002"},
    {"CurrentState", "14150102", "14000001"},
    {"MaterialsInState", "15160101", "1500000102"},
    {"CountInState", "16170101", "16000002"},
    {"MaterialsOfClass", "17180100", "1700000102"},
    {"ListSteps", "182101", "1800000103"},
    {"CreateSet", "191901056261746368", "19000004"},
    {"AddToSet", "1a1a010402", "1a0000"},
    {"SetMembers", "1b1c0104", "1b00000102"},
    {"FindSetByName", "1c1d01056261746368", "1c000004"},
    {"RemoveFromSet", "1d1b010402", "1d0000"},
    {"Commit", "1e0501", "1e0000"},
    {"BeginReadOnly", "1f2001", "1f0000"},
    {"Abort", "200601", "200000"},
    {"Checkpoint", "211e01", "210000"},
    {"SessionClose", "220301", "220000"},
};

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// A one-connection TCP proxy on loopback that forwards bytes both ways
/// and records each direction verbatim.
class RecordingProxy {
 public:
  explicit RecordingProxy(uint16_t upstream_port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, upstream_port] { Run(upstream_port); });
  }

  ~RecordingProxy() {
    Join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  /// Waits for the client to hang up; afterwards the recordings are
  /// complete.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  const std::string& client_bytes() const { return to_server_; }
  const std::string& server_bytes() const { return to_client_; }

 private:
  void Run(uint16_t upstream_port) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    int server = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(upstream_port);
    if (client < 0 || ::connect(server, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr)) != 0) {
      if (client >= 0) ::close(client);
      ::close(server);
      return;
    }
    pollfd fds[2] = {{client, POLLIN, 0}, {server, POLLIN, 0}};
    char buf[64 * 1024];
    bool open = true;
    while (open && ::poll(fds, 2, -1) > 0) {
      for (int i = 0; i < 2 && open; ++i) {
        if (fds[i].revents == 0) continue;
        ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
        if (n <= 0) {
          open = false;
          break;
        }
        (i == 0 ? to_server_ : to_client_).append(buf, n);
        int peer = fds[1 - i].fd;
        for (ssize_t off = 0; off < n;) {
          ssize_t w = ::write(peer, buf + off, n - off);
          if (w <= 0) {
            open = false;
            break;
          }
          off += w;
        }
      }
    }
    ::close(client);
    ::close(server);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::string to_server_;
  std::string to_client_;
};

std::vector<std::string> SplitFrames(const std::string& stream) {
  FrameReader reader;
  reader.Append(stream);
  std::vector<std::string> frames;
  std::string frame;
  while (true) {
    Result<bool> got = reader.Next(&frame);
    EXPECT_TRUE(got.ok());
    if (!got.ok() || !got.value()) break;
    frames.push_back(frame);
  }
  return frames;
}

/// labflowd over loopback on an empty main-memory store.
class GoldenServer {
 public:
  GoldenServer() : mgr_("golden") {
    db_ = std::move(LabBase::Open(&mgr_, {}).value());
    server_ = std::make_unique<Server>(db_.get(), /*mgr=*/nullptr,
                                       ServerConfig{});
    Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~GoldenServer() {
    server_->Shutdown();
    server_.reset();
    db_.reset();
  }
  uint16_t port() const { return server_->port(); }

 private:
  mm::MmManager mgr_;
  std::unique_ptr<LabBase> db_;
  std::unique_ptr<Server> server_;
};

/// Exercises every op once or more, synchronously, in a fixed order. Each
/// call must succeed: the recorded responses are the OK-path bytes.
void RunScript(Connection* conn) {
  ASSERT_TRUE(conn->Ping().ok());
  ASSERT_TRUE(conn->ServerStats().ok());
  auto opened = RemoteSession::Open(conn);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RemoteSession& s = *opened.value();
  ASSERT_TRUE(conn->Call(Op::kGetSchema, s.session_id(), {}).ok());

  ASSERT_TRUE(s.Begin().ok());
  auto cls = s.DefineMaterialClass("clone");
  ASSERT_TRUE(cls.ok());
  auto step_cls = s.DefineStepClass("measure", {"length", "quality"});
  ASSERT_TRUE(step_cls.ok());
  auto fresh = s.DefineState("fresh");
  ASSERT_TRUE(fresh.ok());
  auto done = s.DefineState("done");
  ASSERT_TRUE(done.ok());
  auto length = s.schema().AttributeByName("length");
  auto quality = s.schema().AttributeByName("quality");
  ASSERT_TRUE(length.ok() && quality.ok());

  auto m = s.CreateMaterial(*cls, "clone-1", *fresh, Timestamp(100));
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  labbase::StepEffect eff;
  eff.material = *m;
  eff.tags.push_back({*length, Value::Int(42)});
  eff.tags.push_back({*quality, Value::Real(0.5)});
  eff.new_state = *done;
  auto step = s.RecordStep(*step_cls, Timestamp(200), {eff});
  ASSERT_TRUE(step.ok()) << step.status().ToString();

  ASSERT_TRUE(s.MostRecent(*m, *length).ok());
  ASSERT_TRUE(s.MostRecent(*m, "quality").ok());
  ASSERT_TRUE(s.ValueAsOf(*m, *length, Timestamp(250)).ok());
  ASSERT_TRUE(s.History(*m, *length).ok());
  ASSERT_TRUE(s.HistoryBetween(*m, *quality, Timestamp(0), Timestamp(1000))
                  .ok());
  ASSERT_TRUE(s.GetMaterial(*m).ok());
  ASSERT_TRUE(s.GetStep(*step).ok());
  ASSERT_TRUE(s.FindMaterialByName("clone-1").ok());
  ASSERT_TRUE(s.CurrentState(*m).ok());
  ASSERT_TRUE(s.MaterialsInState(*done).ok());
  ASSERT_TRUE(s.CountInState(*done).ok());
  ASSERT_TRUE(s.MaterialsOfClass(*cls).ok());
  ASSERT_TRUE(s.ListSteps().ok());

  auto set = s.CreateSet("batch");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(s.AddToSet(*set, *m).ok());
  ASSERT_TRUE(s.SetMembers(*set).ok());
  ASSERT_TRUE(s.FindSetByName("batch").ok());
  ASSERT_TRUE(s.RemoveFromSet(*set, *m).ok());
  ASSERT_TRUE(s.Commit().ok());

  ASSERT_TRUE(s.BeginReadOnly().ok());
  ASSERT_TRUE(s.Abort().ok());
  ASSERT_TRUE(s.Checkpoint().ok());
  // ~RemoteSession sends kSessionClose.
}

struct Recorded {
  std::vector<std::string> requests;
  std::vector<std::string> responses;
};

Recorded Record() {
  GoldenServer server;
  RecordingProxy proxy(server.port());
  {
    auto conn = Connection::Dial("127.0.0.1", proxy.port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    if (conn.ok()) RunScript(conn.value().get());
  }
  proxy.Join();
  return {SplitFrames(proxy.client_bytes()),
          SplitFrames(proxy.server_bytes())};
}

std::string OpNameOf(const std::string& request) {
  Decoder d(request);
  Result<RequestHeader> h = DecodeRequestHeader(&d);
  return h.ok() ? std::string(OpName(h->op)) : "?";
}

/// On mismatch, the test prints the recorded table in source form.
std::string AsSource(const Recorded& rec) {
  std::string out;
  for (size_t i = 0; i < rec.requests.size(); ++i) {
    out += "    {\"" + OpNameOf(rec.requests[i]) + "\", \"" +
           Hex(rec.requests[i]) + "\", \"" +
           (i < rec.responses.size() ? Hex(rec.responses[i]) : "") + "\"},\n";
  }
  return out;
}

TEST(WireGoldenTest, EveryOpMatchesGoldenBytes) {
  Recorded rec = Record();
  ASSERT_EQ(rec.requests.size(), rec.responses.size()) << AsSource(rec);
  ASSERT_EQ(rec.requests.size(), std::size(kGolden)) << AsSource(rec);
  for (size_t i = 0; i < rec.requests.size(); ++i) {
    SCOPED_TRACE(kGolden[i].op);
    EXPECT_EQ(OpNameOf(rec.requests[i]), kGolden[i].op);
    EXPECT_EQ(Hex(rec.requests[i]), kGolden[i].request) << AsSource(rec);
    EXPECT_EQ(Hex(rec.responses[i]), kGolden[i].response) << AsSource(rec);
  }
}

TEST(WireGoldenTest, GoldenFramesCoverEveryOp) {
  for (int code = kMinOp; code <= kMaxOp; ++code) {
    std::string_view name = OpName(static_cast<Op>(code));
    bool found = false;
    for (const GoldenFrame& g : kGolden) found = found || name == g.op;
    EXPECT_TRUE(found) << "no golden frame for op " << name;
  }
}

// Every golden request body, cut at every byte offset, must be rejected
// as Corruption by the server's decoder — never executed, never a crash,
// never a dropped connection.
TEST(WireGoldenTest, TruncatedBodiesAreCorruptionAndConnectionSurvives) {
  GoldenServer server;
  auto conn_or = Connection::Dial("127.0.0.1", server.port());
  ASSERT_TRUE(conn_or.ok());
  Connection* conn = conn_or.value().get();
  auto session = RemoteSession::Open(conn);
  ASSERT_TRUE(session.ok());
  const uint64_t sid = session.value()->session_id();
  ASSERT_TRUE(session.value()->Begin().ok());

  for (const GoldenFrame& g : kGolden) {
    std::string request = Unhex(g.request);
    Decoder d(request);
    Result<RequestHeader> h = DecodeRequestHeader(&d);
    ASSERT_TRUE(h.ok()) << g.op;
    std::string body = request.substr(request.size() - d.remaining());
    uint64_t target = h->session_id == 0 ? 0 : sid;
    for (size_t cut = 0; cut < body.size(); ++cut) {
      Result<std::string> r =
          conn->Call(h->op, target, std::string_view(body).substr(0, cut));
      EXPECT_TRUE(r.status().IsCorruption())
          << g.op << " cut at " << cut << " of " << body.size() << ": "
          << r.status().ToString();
    }
    ASSERT_TRUE(conn->Ping().ok()) << "connection lost after " << g.op;
  }
}

}  // namespace
}  // namespace labflow::net
