// remote-oltp: labflowd's server (net::Server, in this process) on OStore
// over loopback. Four clients, each with its own connection and session,
// send auto-commit point reads and history reads and one-step write
// transactions in a closed loop; every answer is checked, and the same op
// sequence is then replayed through in-process sessions, which must give
// the same answers. The traced run adds a ladder of fixed offered rates,
// open loop.
//
// Materials [0, kShared) are read by every client and written by none; the
// rest are split into one partition per client (index mod kClients), which
// only that client writes and reads. No read therefore meets another
// session's rewrite of the same material record: OStore's auto-commit reads
// take no page locks and can then fail with "unknown record tag".
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/codec.h"
#include "common/rng.h"
#include "common/status_macros.h"
#include "labbase/labbase.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "trace.h"
#include "workloads.h"

namespace labflow::lfbench {

namespace {

constexpr int kClients = 4;
/// Preloaded materials (far more than clients), each with kAttrs
/// attributes written by kSteps steps; the first kShared are never written.
constexpr int kMaterials = 12000;
constexpr int kShared = 6000;
constexpr int kOwn = (kMaterials - kShared) / kClients;
constexpr int kAttrs = 3;
constexpr int kSteps = 3;
/// 32 MiB of buffer pool: the preloaded database fits.
constexpr size_t kPoolPages = 4096;
/// Op mix in percent: point reads, history reads, one-step write
/// transactions, reads of the client's own written attribute.
constexpr int kPointPct = 50, kHistoryPct = 20, kWritePct = 20;
/// Share of writes, in percent, that are late entries: their valid time
/// precedes the client's latest write on that material.
constexpr int kLatePct = 25;
/// Open-loop ladder (requests/s) and its latency limit on p99.
constexpr double kRates[] = {4000, 32000, 128000};
constexpr double kSloUs = 2000;
constexpr size_t kWindow = 256;
/// Closed-loop ops per second of the phase's share of --seconds, over all
/// clients. The loop runs a fixed number of ops, so that the database and
/// the memory it leaves do not depend on how fast it went; at most
/// kMaxStretch times the phase's share of --seconds.
constexpr double kOpsPerSecond = 16000;
constexpr double kMaxStretch = 4;
/// Set-ups per run (the reported set-up time is their median) and the
/// slices of the closed loop whose medians are the reported figures.
constexpr int kSetups = 7;
constexpr int kSlices = 40;

enum class OpKind { kPoint, kHistory, kWrite, kOwnRead };

struct Op {
  OpKind kind;
  size_t material;
  int attr;
  bool late;
};

/// The `j`-th material of `client`'s partition.
size_t OwnMaterial(int client, uint64_t j) {
  return static_cast<size_t>(kShared + client) + kClients * j;
}

/// The ops of one client in one phase; the same seed gives the same ops.
class OpStream {
 public:
  OpStream(uint64_t seed, int phase, int client)
      : rng_(seed * 1000003 + static_cast<uint64_t>(phase) * 97 +
             static_cast<uint64_t>(client)),
        client_(client) {}

  Op Next() {
    Op op;
    uint64_t r = rng_.NextBelow(100);
    op.kind = r < kPointPct                             ? OpKind::kPoint
              : r < kPointPct + kHistoryPct             ? OpKind::kHistory
              : r < kPointPct + kHistoryPct + kWritePct ? OpKind::kWrite
                                                        : OpKind::kOwnRead;
    if (op.kind == OpKind::kPoint || op.kind == OpKind::kHistory) {
      // Any material that no other client writes.
      uint64_t j = rng_.NextBelow(kShared + kOwn);
      op.material = j < kShared ? static_cast<size_t>(j)
                                : OwnMaterial(client_, j - kShared);
    } else {
      op.material = OwnMaterial(client_, rng_.NextBelow(kOwn));
    }
    op.attr = static_cast<int>(rng_.NextBelow(kAttrs));
    op.late = rng_.NextBelow(100) < kLatePct;
    return op;
  }

 private:
  Rng rng_;
  int client_;
};

/// One client's view of what it wrote (its partition only). Writes in
/// time order are kTimeStep apart; a late entry on a material takes a time
/// just below the material's latest one, distinct from every other.
struct ClientModel {
  static constexpr int64_t kTimeStep = 1000;
  struct Written {
    int64_t time;   // latest valid time
    int64_t value;  // the value written at `time`
    int64_t late;   // late entries so far
  };
  std::unordered_map<size_t, Written> latest;
  int64_t next_value = 1;
  int64_t next_time = 1'000'000'000;

  /// Valid time of the write `op`.
  int64_t TimeOf(const Op& op) const {
    auto it = latest.find(op.material);
    if (op.late && it != latest.end() && it->second.late + 1 < kTimeStep) {
      return it->second.time - 1 - it->second.late;
    }
    return next_time + kTimeStep;
  }
  /// Records a committed write of `value` at `time` (from TimeOf).
  void Wrote(size_t material, int64_t time, int64_t value) {
    Written& w = latest.try_emplace(material, Written{0, 0, 0}).first->second;
    if (time > w.time) {
      w.time = time;
      w.value = value;
      next_time = time;
    } else {
      ++w.late;
    }
  }
  /// Digest of the expected most-recent value of the written attribute.
  uint64_t Expect(size_t material) const {
    auto it = latest.find(material);
    return it == latest.end() ? kNotFoundDigest
                              : HashValue(Value::Int(it->second.value));
  }
};

struct Fixture {
  std::unique_ptr<TracedEnv> env;
  std::unique_ptr<storage::StorageManager> mgr;
  std::unique_ptr<labbase::LabBase> db;
  std::unique_ptr<net::Server> server;
  std::vector<Oid> mats;
  std::array<labbase::AttrId, kAttrs> attrs{};
  labbase::AttrId w_remote = 0, w_replay = 0;
  labbase::ClassId write_class = 0;
  /// Expected digests of the preloaded attributes.
  std::vector<std::array<uint64_t, kAttrs>> most_recent, history;
};

/// One completed op of a closed loop.
struct OpRecord {
  uint64_t end_ns;
  uint64_t dur_ns;
  bool write;
};

struct PhaseResult {
  Latencies all;
  std::vector<OpRecord> records;
  int64_t ops = 0;
  uint64_t fold = kFnvOffset;
  double client_cpu_s = 0;
  int64_t retries = 0;
  RunResult checks;  // failures of this client
};

std::string Tagged(char prefix, uint64_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

Status Preload(Fixture* f, uint64_t seed) {
  std::unique_ptr<labbase::LabBase::Session> s = f->db->OpenSession();
  LABFLOW_ASSIGN_OR_RETURN(labbase::ClassId cls,
                           s->DefineMaterialClass("sample"));
  LABFLOW_ASSIGN_OR_RETURN(labbase::StateId state, s->DefineState("active"));
  LABFLOW_ASSIGN_OR_RETURN(labbase::ClassId assay,
                           s->DefineStepClass("assay", {"p0", "p1", "p2"}));
  LABFLOW_ASSIGN_OR_RETURN(f->write_class,
                           s->DefineStepClass("oltp_write",
                                              {"w_remote", "w_replay"}));
  for (int k = 0; k < kAttrs; ++k) {
    LABFLOW_ASSIGN_OR_RETURN(f->attrs[k], s->schema().AttributeByName(
                                              "p" + std::to_string(k)));
  }
  LABFLOW_ASSIGN_OR_RETURN(f->w_remote, s->schema().AttributeByName("w_remote"));
  LABFLOW_ASSIGN_OR_RETURN(f->w_replay, s->schema().AttributeByName("w_replay"));

  Rng rng(seed);
  f->mats.resize(kMaterials);
  f->most_recent.resize(kMaterials);
  f->history.resize(kMaterials);
  constexpr int kBatch = 50;
  int64_t retries = 0;
  for (int base = 0; base < kMaterials; base += kBatch) {
    LABFLOW_RETURN_IF_ERROR(RunTxn(
        s.get(),
        [&]() -> Status {
          for (int i = base; i < std::min(base + kBatch, kMaterials); ++i) {
            const int64_t t0 = 1000 * static_cast<int64_t>(i);
            LABFLOW_ASSIGN_OR_RETURN(
                f->mats[i], s->CreateMaterial(cls, Tagged('m', i), state,
                                              Timestamp(t0)));
            HistoryDigest hist[kAttrs];
            Value last[kAttrs];
            for (int step = 0; step < kSteps; ++step) {
              const Timestamp t(t0 + 1 + step);
              labbase::StepEffect effect;
              effect.material = f->mats[i];
              std::array<Value, kAttrs> values = {
                  Value::Int(static_cast<int64_t>(rng.NextBelow(1000000))),
                  Value::String(Tagged('s', rng.NextBelow(100000))),
                  Value::Real(static_cast<double>(rng.NextBelow(1000)) / 8)};
              for (int k = 0; k < kAttrs; ++k) {
                effect.tags.push_back({f->attrs[k], values[k]});
                hist[k].Add(t.micros, values[k]);
                last[k] = values[k];
              }
              LABFLOW_RETURN_IF_ERROR(
                  s->RecordStep(assay, t, {effect}).status());
            }
            for (int k = 0; k < kAttrs; ++k) {
              f->most_recent[i][k] = HashValue(last[k]);
              f->history[i][k] = hist[k].Final();
            }
          }
          return Status::OK();
        },
        &retries));
  }
  return Status::OK();
}

/// Runs one op through `s` and checks its answer; returns whether it was a
/// write. Reads are auto-commit, writes one transaction each.
bool RunOp(labbase::SessionIface* s, const Fixture& f, const Op& op,
           labbase::AttrId w_attr, ClientModel* model, PhaseResult* out) {
  const Oid mat = f.mats[op.material];
  uint64_t got = 0, expected = 0;
  Status st;
  bool write = false;
  switch (op.kind) {
    case OpKind::kPoint: {
      expected = f.most_recent[op.material][op.attr];
      Result<Value> v = s->MostRecent(mat, f.attrs[op.attr]);
      st = v.status();
      if (v.ok()) got = HashValue(v.value());
      break;
    }
    case OpKind::kHistory: {
      expected = f.history[op.material][op.attr];
      Result<std::vector<labbase::HistoryEntry>> h =
          s->History(mat, f.attrs[op.attr]);
      st = h.status();
      if (h.ok()) {
        HistoryDigest d;
        for (const labbase::HistoryEntry& e : h.value()) {
          d.Add(e.time.micros, e.value);
        }
        got = d.Final();
      }
      break;
    }
    case OpKind::kWrite: {
      write = true;
      const int64_t value = model->next_value++;
      const int64_t time = model->TimeOf(op);
      labbase::StepEffect effect;
      effect.material = mat;
      effect.tags.push_back({w_attr, Value::Int(value)});
      st = RunTxn(
          s,
          [&] {
            return s->RecordStep(f.write_class, Timestamp(time), {effect})
                .status();
          },
          &out->retries);
      if (st.ok()) model->Wrote(op.material, time, value);
      break;
    }
    case OpKind::kOwnRead: {
      expected = model->Expect(op.material);
      Result<Value> v = s->MostRecent(mat, w_attr);
      if (v.ok()) {
        got = HashValue(v.value());
      } else if (v.status().IsNotFound()) {
        got = kNotFoundDigest;
      } else {
        st = v.status();
      }
      break;
    }
  }
  ++out->checks.attempted;
  if (!st.ok()) {
    out->checks.Fail("op on m" + std::to_string(op.material) + ": " +
                     st.ToString());
  } else if (got != expected) {
    out->checks.Fail("answer on m" + std::to_string(op.material) +
                     " differs from the model");
  }
  Fold(&out->fold, got);
  return write;
}

/// One client's closed loop: `op_limit` ops, or fewer if `deadline_ns`
/// (0: none) passes first.
void ClientLoop(labbase::SessionIface* s, const Fixture& f, OpStream ops,
                labbase::AttrId w_attr, ClientModel* model, uint64_t deadline_ns,
                int64_t op_limit, int64_t event_base, PhaseResult* out) {
  out->records.reserve(static_cast<size_t>(op_limit));
  out->all.ns.reserve(static_cast<size_t>(op_limit));
  const double cpu0 = ThreadCpuSeconds();
  while (out->ops < op_limit && (deadline_ns == 0 || NowNs() < deadline_ns)) {
    Op op = ops.Next();
    Tracer::SetEvent(event_base + out->ops);
    uint64_t t0 = NowNs();
    bool write = RunOp(s, f, op, w_attr, model, out);
    uint64_t t1 = NowNs();
    out->records.push_back({t1, t1 - t0, write});
    out->all.Add(t1 - t0);
    ++out->ops;
  }
  Tracer::SetEvent(-1);
  out->client_cpu_s = ThreadCpuSeconds() - cpu0;
}

struct Phase {
  std::array<PhaseResult, kClients> clients;
  uint64_t start_ns = 0;
  double wall_s = 0;
  double process_cpu_s = 0;
  int64_t ctx_switches = 0;
  storage::StorageStats before, after;
  TraceSnapshot trace;

  int64_t ops() const {
    int64_t n = 0;
    for (const PhaseResult& c : clients) n += c.ops;
    return n;
  }
  double client_cpu_s() const {
    double s = 0;
    for (const PhaseResult& c : clients) s += c.client_cpu_s;
    return s;
  }
  Latencies MergeAll() const {
    Latencies out;
    for (const PhaseResult& c : clients) {
      out.ns.insert(out.ns.end(), c.all.ns.begin(), c.all.ns.end());
    }
    return out;
  }
};

/// Closed-loop figures as medians over kSlices equal slices of the phase
/// (by completion time): a millisecond-long stall of a virtual CPU lands in
/// a minority of slices and does not move them. `updates` and `queries` are
/// the samples in one slice.
struct Slices {
  double ops_per_s = 0, update_p50 = 0, update_p99 = 0, query_p50 = 0,
         query_p99 = 0;
  int64_t updates = 0, queries = 0;
};

Slices SliceMedians(const Phase& phase) {
  std::array<Latencies, kSlices> up, q;
  const double slice_ns = phase.wall_s * 1e9 / kSlices;
  for (const PhaseResult& c : phase.clients) {
    for (const OpRecord& r : c.records) {
      size_t i = std::min<size_t>(
          kSlices - 1,
          static_cast<size_t>(static_cast<double>(r.end_ns - phase.start_ns) /
                              slice_ns));
      (r.write ? up[i] : q[i]).Add(r.dur_ns);
    }
  }
  std::vector<double> rate, u50, u99, q50, q99;
  Slices out;
  for (int i = 0; i < kSlices; ++i) {
    rate.push_back(static_cast<double>(up[i].count() + q[i].count()) /
                   (slice_ns / 1e9));
    out.updates = static_cast<int64_t>(up[i].count());
    out.queries = static_cast<int64_t>(q[i].count());
    u50.push_back(up[i].PercentileUs(0.50));
    u99.push_back(up[i].PercentileUs(0.99));
    q50.push_back(q[i].PercentileUs(0.50));
    q99.push_back(q[i].PercentileUs(0.99));
  }
  out.ops_per_s = Median(rate);
  out.update_p50 = Median(u50);
  out.update_p99 = Median(u99);
  out.query_p50 = Median(q50);
  out.query_p99 = Median(q99);
  return out;
}

class RemoteRunner {
 public:
  RemoteRunner(const RunArgs& args, RunResult* out) : args_(args), out_(out) {}

  Status Run();

 private:
  /// A closed loop over the wire of `seconds` * kOpsPerSecond ops, traced
  /// or not.
  Status RemotePhase(int phase, double seconds, bool traced, Phase* out);
  /// The same ops, in-process (writes go to w_replay).
  Status ReplayPhase(int phase, const Phase& remote, bool traced, Phase* out);
  Status OpenLoop(double rate, double seconds, double* p50_us, double* p99_us,
                  double* achieved, double* late_p99_us, int64_t* samples);
  Status ReopenCheck();
  Status SetUp();
  Status TearDown();
  void Absorb(Phase* phase);

  const RunArgs& args_;
  RunResult* out_;
  Fixture f_;
  std::array<ClientModel, kClients> remote_model_, replay_model_;
  std::vector<std::unique_ptr<net::Connection>> conns_;
  std::vector<std::unique_ptr<net::RemoteSession>> sessions_;
};

Status RemoteRunner::RemotePhase(int phase, double seconds, bool traced,
                                 Phase* out) {
  std::vector<std::unique_ptr<TracedSession>> wrapped;
  for (auto& s : sessions_) {
    wrapped.push_back(std::make_unique<TracedSession>(s.get(), Layer::kNet));
  }
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable(traced);
  out->before = f_.mgr->stats();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t cs0 = ContextSwitches();
  const uint64_t t0 = NowNs();
  out->start_ns = t0;
  const uint64_t deadline =
      t0 + static_cast<uint64_t>(kMaxStretch * seconds * 1e9);
  const int64_t op_limit = std::llround(seconds * kOpsPerSecond / kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    labbase::SessionIface* s =
        traced ? static_cast<labbase::SessionIface*>(wrapped[c].get())
               : sessions_[c].get();
    threads.emplace_back(ClientLoop, s, std::cref(f_),
                         OpStream(args_.seed, phase, c), f_.w_remote,
                         &remote_model_[c], deadline, op_limit,
                         int64_t{c} << 40, &out->clients[c]);
  }
  for (std::thread& t : threads) t.join();
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->process_cpu_s = ProcessCpuSeconds() - cpu0;
  out->ctx_switches = ContextSwitches() - cs0;
  out->after = f_.mgr->stats();
  if (traced) out->trace = tracer.Snapshot();
  tracer.Enable(false);
  Absorb(out);
  return Status::OK();
}

Status RemoteRunner::ReplayPhase(int phase, const Phase& remote, bool traced,
                                 Phase* out) {
  std::vector<std::unique_ptr<labbase::LabBase::Session>> raw;
  std::vector<std::unique_ptr<TracedSession>> wrapped;
  for (int c = 0; c < kClients; ++c) {
    raw.push_back(f_.db->OpenSession());
    wrapped.push_back(
        std::make_unique<TracedSession>(raw.back().get(), Layer::kLabbase));
  }
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable(traced);
  out->before = f_.mgr->stats();
  const uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    labbase::SessionIface* s =
        traced ? static_cast<labbase::SessionIface*>(wrapped[c].get())
               : raw[c].get();
    threads.emplace_back(ClientLoop, s, std::cref(f_),
                         OpStream(args_.seed, phase, c), f_.w_replay,
                         &replay_model_[c], uint64_t{0},
                         remote.clients[c].ops, int64_t{c} << 40,
                         &out->clients[c]);
  }
  for (std::thread& t : threads) t.join();
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->after = f_.mgr->stats();
  if (traced) out->trace = tracer.Snapshot();
  tracer.Enable(false);
  Absorb(out);
  for (int c = 0; c < kClients; ++c) {
    ++out_->attempted;
    if (out->clients[c].fold != remote.clients[c].fold) {
      out_->Fail("client " + std::to_string(c) + " phase " +
                 std::to_string(phase) +
                 ": in-process answers differ from the remote ones");
    }
  }
  return Status::OK();
}

void RemoteRunner::Absorb(Phase* phase) {
  for (PhaseResult& c : phase->clients) {
    out_->attempted += c.checks.attempted;
    out_->failed += c.checks.failed;
    if (!c.checks.correct) out_->correct = false;
    for (const std::string& e : c.checks.errors) {
      if (out_->errors.size() < 10) out_->errors.push_back(e);
    }
  }
}

Status RemoteRunner::OpenLoop(double rate, double seconds, double* p50_us,
                              double* p99_us, double* achieved,
                              double* late_p99_us, int64_t* samples) {
  net::Connection* conn = conns_[0].get();
  struct Pending {
    uint64_t rid;
    uint64_t sched_ns;
    uint64_t expected;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done = false;
  Latencies latency, late;
  Status await_status;
  int64_t completed = 0;
  uint64_t last_completion = 0;
  PhaseResult checks;

  const uint64_t start = NowNs();
  std::thread awaiter([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> l(mu);
        cv.wait(l, [&] { return !pending.empty() || done; });
        if (pending.empty()) return;
        p = pending.front();
        pending.pop_front();
        cv.notify_all();
      }
      Result<std::string> body = conn->Await(p.rid);
      uint64_t now = NowNs();
      ++checks.checks.attempted;
      if (!body.ok()) {
        checks.checks.Fail("open-loop read: " + body.status().ToString());
        await_status = body.status();
        return;
      }
      latency.Add(now - p.sched_ns);
      last_completion = now;
      ++completed;
      Decoder d(body.value());
      Result<Value> v = d.GetValue();
      if (!v.ok() || HashValue(v.value()) != p.expected) {
        checks.checks.Fail("open-loop read differs from the model");
      }
    }
  });

  Rng rng(args_.seed * 31 + static_cast<uint64_t>(rate));
  const int64_t total = static_cast<int64_t>(rate * seconds);
  Status submit_status;
  for (int64_t i = 0; i < total; ++i) {
    const uint64_t sched =
        start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate);
    uint64_t now = NowNs();
    if (now < sched) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sched - now));
    }
    {
      std::unique_lock<std::mutex> l(mu);
      cv.wait(l, [&] { return pending.size() < kWindow; });
    }
    size_t m = rng.NextBelow(kMaterials);
    int k = static_cast<int>(rng.NextBelow(kAttrs));
    Encoder e;
    net::EncodeOid(&e, f_.mats[m]);
    e.PutU32(f_.attrs[k]);
    late.Add(NowNs() - sched);
    Result<uint64_t> rid =
        conn->Send(net::Op::kMostRecent,
                   sessions_[static_cast<size_t>(i) % kClients]->session_id(),
                   e.buffer());
    if (!rid.ok()) {
      submit_status = rid.status();
      break;
    }
    std::lock_guard<std::mutex> l(mu);
    pending.push_back({rid.value(), sched, f_.most_recent[m][k]});
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> l(mu);
    done = true;
    cv.notify_all();
  }
  awaiter.join();
  Phase absorb;
  absorb.clients[0] = std::move(checks);
  Absorb(&absorb);
  LABFLOW_RETURN_IF_ERROR(submit_status);
  LABFLOW_RETURN_IF_ERROR(await_status);
  *samples = static_cast<int64_t>(latency.count());
  *p50_us = latency.PercentileUs(0.50);
  *p99_us = latency.PercentileUs(0.99);
  *late_p99_us = late.PercentileUs(0.99);
  double span_s = static_cast<double>(last_completion - start) / 1e9;
  *achieved = span_s > 0 ? static_cast<double>(completed) / span_s : 0;
  return Status::OK();
}

Status RemoteRunner::ReopenCheck() {
  LABFLOW_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::StorageManager> mgr,
      OpenStore(bench::ServerVersion::kOstore, StorePath(args_.out_dir + "/store"),
                kPoolPages, nullptr, false));
  LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<labbase::LabBase> db,
                           labbase::LabBase::Open(mgr.get(), labbase::LabBaseOptions()));
  {
    std::unique_ptr<labbase::LabBase::Session> s = db->OpenSession();
    for (size_t i = 0; i < kMaterials; i += 7) {
      const Oid mat = f_.mats[i];
      for (int k = 0; k < kAttrs; ++k) {
        ++out_->attempted;
        Result<Value> v = s->MostRecent(mat, f_.attrs[k]);
        if (!v.ok() || HashValue(v.value()) != f_.most_recent[i][k]) {
          out_->Fail("reopened: m" + std::to_string(i) + ".p" +
                     std::to_string(k) + " differs from the model");
        }
      }
      if (i < static_cast<size_t>(kShared)) continue;
      const size_t owner = (i - kShared) % kClients;
      const ClientModel* models[] = {&remote_model_[owner],
                                     &replay_model_[owner]};
      const labbase::AttrId w[] = {f_.w_remote, f_.w_replay};
      for (int j = 0; j < 2; ++j) {
        ++out_->attempted;
        const uint64_t expected = models[j]->Expect(i);
        Result<Value> v = s->MostRecent(mat, w[j]);
        uint64_t got = v.ok() ? HashValue(v.value())
                       : v.status().IsNotFound() ? kNotFoundDigest
                                                 : 0;
        if (got != expected) {
          out_->Fail("reopened: m" + std::to_string(i) +
                     " written attribute differs from the model");
        }
      }
    }
  }
  db.reset();
  return mgr->Close();
}

Status RemoteRunner::SetUp() {
  f_ = Fixture();
  if (args_.trace) f_.env = std::make_unique<TracedEnv>(storage::Env::Default());
  LABFLOW_ASSIGN_OR_RETURN(
      f_.mgr, OpenStore(bench::ServerVersion::kOstore, StorePath(args_.out_dir + "/store"),
                        kPoolPages, f_.env.get(), true));
  if (args_.trace) f_.mgr = std::make_unique<TracedStorage>(std::move(f_.mgr));
  LABFLOW_ASSIGN_OR_RETURN(
      f_.db, labbase::LabBase::Open(f_.mgr.get(), labbase::LabBaseOptions()));
  LABFLOW_RETURN_IF_ERROR(Preload(&f_, args_.seed));
  f_.server = std::make_unique<net::Server>(f_.db.get(), f_.mgr.get(),
                                            net::ServerConfig{});
  LABFLOW_RETURN_IF_ERROR(f_.server->Start());
  for (int c = 0; c < kClients; ++c) {
    LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<net::Connection> conn,
                             net::Connection::Dial("127.0.0.1",
                                                   f_.server->port()));
    LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<net::RemoteSession> session,
                             net::RemoteSession::Open(conn.get()));
    conns_.push_back(std::move(conn));
    sessions_.push_back(std::move(session));
  }
  return Status::OK();
}

Status RemoteRunner::TearDown() {
  sessions_.clear();
  conns_.clear();
  f_.server->Shutdown();
  f_.server.reset();
  f_.db.reset();
  Status st = f_.mgr->Close();
  f_.mgr.reset();
  return st;
}

Status RemoteRunner::Run() {
  // Clients, server loop, workers and WAL share one CPU for the set-ups and
  // the closed loops. On a virtual machine a wakeup sent to another vCPU
  // waits whenever the host has taken that vCPU away: spread over four
  // vCPUs, the closed loop's p99 moved tenfold with the host's steal time;
  // on one it holds. The open-loop ladder gets every CPU back, since on one
  // its generator ran milliseconds late.
  cpu_set_t all_cpus, one_cpu;
  LABFLOW_RETURN_IF_ERROR(AllowedCpus(&all_cpus, &one_cpu));
  LABFLOW_RETURN_IF_ERROR(SetProcessCpus(one_cpu));
  const uint64_t rss_base = BaselineRssBytes();

  // ---- Set-up (store, wrapper, schema, preload, server, connections),
  // kSetups times; the last one serves the run.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    LABFLOW_RETURN_IF_ERROR(ClearStore(args_.out_dir + "/store"));
    const uint64_t t0 = NowNs();
    LABFLOW_RETURN_IF_ERROR(SetUp());
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i + 1 < kSetups) LABFLOW_RETURN_IF_ERROR(TearDown());
  }
  const double setup_s = Median(setups);

  Metrics& m = out_->metrics;
  const double closed_s = args_.seconds * (args_.trace ? 0.3 : 0.8);
  Phase remote, replay;
  LABFLOW_RETURN_IF_ERROR(RemotePhase(0, closed_s, false, &remote));
  const uint64_t mem = PeakRssBytes() - rss_base;
  LABFLOW_RETURN_IF_ERROR(ReplayPhase(0, remote, false, &replay));
  const double ops = static_cast<double>(remote.ops());
  const double ops_per_s = ops / remote.wall_s;
  const double server_cpu_s = remote.process_cpu_s - remote.client_cpu_s();

  if (!args_.trace) {
    Slices sl = SliceMedians(remote);
    m.Set("setup_s", setup_s, "s", kSetups);
    m.Set("ops_per_s", sl.ops_per_s, "ops/s", kSlices);
    m.Set("update_p50_us", sl.update_p50, "us", sl.updates);
    m.Set("update_p99_us", sl.update_p99, "us", sl.updates);
    m.Set("query_p50_us", sl.query_p50, "us", sl.queries);
    m.Set("query_p99_us", sl.query_p99, "us", sl.queries);
    m.Set("db_bytes", static_cast<double>(remote.after.db_size_bytes), "bytes");
    m.Set("cpu_us_per_op", server_cpu_s * 1e6 / ops, "us");
    m.Set("mem_bytes", static_cast<double>(mem), "bytes");
  } else {
    Phase traced, traced_replay;
    LABFLOW_RETURN_IF_ERROR(RemotePhase(1, closed_s, true, &traced));
    LABFLOW_RETURN_IF_ERROR(ReplayPhase(1, traced, true, &traced_replay));

    Latencies remote_all = remote.MergeAll();
    Latencies local_all = replay.MergeAll();
    m.Set("net.overhead_us",
          remote_all.PercentileUs(0.5) - local_all.PercentileUs(0.5), "us");
    m.Set("net.server_cpu_us_per_req", server_cpu_s * 1e6 / ops, "us");
    m.Set("net.client_cpu_us_per_req", remote.client_cpu_s() * 1e6 / ops,
          "us");
    m.Set("net.ctx_switches_per_req",
          static_cast<double>(remote.ctx_switches) / ops, "count");
    m.Set("net.inproc_ops_per_s",
          static_cast<double>(replay.ops()) / replay.wall_s, "ops/s");

    // Open-loop ladder, untraced, on every CPU.
    LABFLOW_RETURN_IF_ERROR(SetProcessCpus(all_cpus));
    double rate_at_slo = 0, low_p50 = 0, low_p99 = 0, late_p99 = 0;
    int64_t low_n = 0;
    const double rung_s = args_.seconds * 0.08;
    for (double rate : kRates) {
      double p50 = 0, p99 = 0, achieved = 0, late = 0;
      int64_t n = 0;
      LABFLOW_RETURN_IF_ERROR(
          OpenLoop(rate, rung_s, &p50, &p99, &achieved, &late, &n));
      if (rate == kRates[0]) {
        low_p50 = p50;
        low_p99 = p99;
        low_n = n;
        late_p99 = late;
      }
      if (p99 <= kSloUs && achieved >= 0.95 * rate) rate_at_slo = achieved;
    }
    m.Set("net.open_p50_us", low_p50, "us", low_n);
    m.Set("net.open_p99_us", low_p99, "us", low_n);
    m.Set("net.rate_at_slo", rate_at_slo, "req/s");
    m.Set("net.generator_late_p99_us", late_p99, "us", low_n);

    // Layers on the traced phases: storage, file and ostore counters on
    // the server side of the traced remote phase; labbase on its
    // in-process replay.
    auto put = [&](const std::string& name, const std::string& unit,
                   double v) { m.Set(name, v, unit); };
    LayerMetrics(&traced_replay.trace, &traced.trace, traced.before,
                 traced.after, static_cast<double>(traced.ops()), false, put);
    int64_t retries = 0;
    for (const PhaseResult& c : traced.clients) retries += c.retries;
    m.Set("ostore.txn_retries", static_cast<double>(retries), "count");
    // The share of the clients' timed time spent inside net calls.
    double client_busy_s = 0;
    for (const PhaseResult& c : traced.clients) {
      for (uint64_t ns : c.all.ns) client_busy_s += static_cast<double>(ns) / 1e9;
    }
    m.Set("labflow.attributed_ratio",
          Ratio(traced.trace.busy_ns[static_cast<int>(Layer::kNet)] / 1e9,
                client_busy_s),
          "ratio");
    m.Set("labflow.trace_overhead",
          Ratio(static_cast<double>(traced.ops()) / traced.wall_s, ops_per_s),
          "ratio");
    Tracer::Get().WriteSpans(args_.out_dir + "/spans-" + args_.workload +
                             ".jsonl");
  }

  // ---- Shut down and read back from the reopened store.
  LABFLOW_RETURN_IF_ERROR(TearDown());
  return ReopenCheck();
}

}  // namespace

Status RunRemoteOltp(const RunArgs& args, RunResult* out) {
  RemoteRunner runner(args, out);
  return runner.Run();
}

}  // namespace labflow::lfbench
