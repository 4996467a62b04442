// The three LabFlow-1 stream workloads: the generated event stream, one
// transaction per event, through one in-process session.
#include <algorithm>
#include <cstdio>

#include "common/status_macros.h"
#include "labbase/labbase.h"
#include "labflow/apply.h"
#include "labflow/generator.h"
#include "model.h"
#include "trace.h"
#include "workloads.h"

namespace labflow::lfbench {

using bench::Event;
using bench::ServerVersion;

namespace {

struct StreamSpec {
  const char* name;
  ServerVersion version;
  /// Clones entering the laboratory (WorkloadParams::base_clones at 1X).
  int clones;
  /// Buffer-pool pages (8 KiB each), or the LSM block cache of equal bytes.
  size_t pool_pages;
  bool queries;
};

// Scales are chosen so that one round (a fresh database, the whole stream,
// the final checkpoint) takes a few seconds on a 4-core machine, several
// rounds fit in a run, and the final database is several times larger
// than the pool.
/// Set-ups measured before each round, in a directory of their own; the
/// reported set-up time is their median. A round's own set-up is not among
/// them: it follows the deletion of the previous round's database, whose
/// file-system work (discards, write-back) lands in it: it took up to twice
/// as long and varied far more.
constexpr int kSetupsPerRound = 12;

constexpr StreamSpec kSpecs[] = {
    {"stream-ostore", ServerVersion::kOstore, 150, 128, true},
    {"stream-lsm", ServerVersion::kLsm, 150, 128, true},
    {"load-texastc", ServerVersion::kTexasTC, 300, 128, false},
};

/// Raw answer of one event, folded into a digest after the clock stops.
struct Answer {
  Oid oid;
  bool not_found = false;
  Value value;
  std::vector<labbase::HistoryEntry> history;
  std::vector<Oid> oids;
  std::vector<std::string> names;
  int64_t count = 0;
  labbase::MaterialInfo info;
};

struct WorkQueueCounts {
  int64_t calls = 0;
  int64_t rows_returned = 0;
  int64_t rows_read = 0;
};

Status FindMaterial(labbase::SessionIface* db, const std::string& name,
                    Answer* a) {
  LABFLOW_ASSIGN_OR_RETURN(a->oid, db->FindMaterialByName(name));
  return Status::OK();
}

Status Execute(labbase::SessionIface* db, const Event& ev, Answer* a,
               WorkQueueCounts* wq) {
  const labbase::Schema& schema = db->schema();
  switch (ev.type) {
    case Event::Type::kCreateMaterial: {
      LABFLOW_ASSIGN_OR_RETURN(labbase::ClassId cls,
                               schema.MaterialClassByName(ev.material_class));
      LABFLOW_ASSIGN_OR_RETURN(labbase::StateId state,
                               schema.StateByName(ev.state));
      LABFLOW_ASSIGN_OR_RETURN(a->oid,
                               db->CreateMaterial(cls, ev.name, state, ev.time));
      return Status::OK();
    }
    case Event::Type::kRecordStep:
    case Event::Type::kCreateSet:
    case Event::Type::kAddSetMembers:
    case Event::Type::kEvolveStepClass:
      return bench::ApplyUpdate(db, ev);
    case Event::Type::kQueryMostRecent: {
      LABFLOW_RETURN_IF_ERROR(FindMaterial(db, ev.name, a));
      Result<Value> v = db->MostRecent(a->oid, ev.attr);
      if (v.ok()) {
        a->value = std::move(v).value();
      } else if (v.status().IsNotFound()) {
        a->not_found = true;
      } else {
        return v.status();
      }
      return Status::OK();
    }
    case Event::Type::kQueryHistory: {
      LABFLOW_RETURN_IF_ERROR(FindMaterial(db, ev.name, a));
      LABFLOW_ASSIGN_OR_RETURN(labbase::AttrId attr,
                               schema.AttributeByName(ev.attr));
      LABFLOW_ASSIGN_OR_RETURN(a->history, db->History(a->oid, attr));
      return Status::OK();
    }
    case Event::Type::kQueryWorkQueue: {
      LABFLOW_ASSIGN_OR_RETURN(labbase::StateId state,
                               schema.StateByName(ev.state));
      LABFLOW_ASSIGN_OR_RETURN(a->oids, db->MaterialsInState(state));
      size_t head = std::min(a->oids.size(), kWorkQueueHead);
      for (size_t i = 0; i < head; ++i) {
        LABFLOW_ASSIGN_OR_RETURN(labbase::MaterialInfo info,
                                 db->GetMaterial(a->oids[i]));
        a->names.push_back(std::move(info.name));
      }
      ++wq->calls;
      wq->rows_returned += static_cast<int64_t>(a->oids.size());
      wq->rows_read += static_cast<int64_t>(head);
      return Status::OK();
    }
    case Event::Type::kQueryCountState: {
      LABFLOW_ASSIGN_OR_RETURN(labbase::StateId state,
                               schema.StateByName(ev.state));
      LABFLOW_ASSIGN_OR_RETURN(a->count, db->CountInState(state));
      return Status::OK();
    }
    case Event::Type::kQuerySetMembers: {
      Result<Oid> set = db->FindSetByName(ev.name);
      if (!set.ok()) {
        if (!set.status().IsNotFound()) return set.status();
        a->not_found = true;
        return Status::OK();
      }
      LABFLOW_ASSIGN_OR_RETURN(a->oids, db->SetMembers(set.value()));
      return Status::OK();
    }
    case Event::Type::kQueryMaterialByName: {
      LABFLOW_RETURN_IF_ERROR(FindMaterial(db, ev.name, a));
      LABFLOW_ASSIGN_OR_RETURN(a->info, db->GetMaterial(a->oid));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown event type");
}

uint64_t MaterialAnswerDigest(const Answer& a) {
  uint64_t attr_sum = 0;
  for (labbase::AttrId id : a.info.attrs_present) attr_sum += id;
  return MaterialDigest(a.oid, a.info.name, a.info.class_id, a.info.state,
                        a.info.created.micros, a.info.attrs_present.size(),
                        attr_sum);
}

uint64_t Digest(const Event& ev, const Answer& a) {
  uint64_t h = kFnvOffset;
  switch (ev.type) {
    case Event::Type::kQueryMostRecent:
      Fold(&h, a.oid.raw);
      Fold(&h, a.not_found ? kNotFoundDigest : HashValue(a.value));
      return h;
    case Event::Type::kQueryHistory: {
      Fold(&h, a.oid.raw);
      HistoryDigest d;
      for (const labbase::HistoryEntry& e : a.history) {
        d.Add(e.time.micros, e.value);
      }
      Fold(&h, d.Final());
      return h;
    }
    case Event::Type::kQueryWorkQueue:
      Fold(&h, a.oids.size());
      for (Oid oid : a.oids) Fold(&h, oid.raw);
      for (const std::string& name : a.names) Fold(&h, HashBytes(name));
      return h;
    case Event::Type::kQueryCountState:
      Fold(&h, static_cast<uint64_t>(a.count));
      return h;
    case Event::Type::kQuerySetMembers:
      if (a.not_found) return kNotFoundDigest;
      Fold(&h, a.oids.size());
      for (Oid oid : a.oids) Fold(&h, oid.raw);
      return h;
    case Event::Type::kQueryMaterialByName:
      return MaterialAnswerDigest(a);
    default:
      return 0;
  }
}

/// What one event left behind for the post-round check.
struct Outcome {
  bool ok = false;
  Oid created;
  uint64_t digest = 0;
};

struct Round {
  bool traced = false;
  double timed_s = 0;  // event transactions plus the final checkpoint
  double checkpoint_s = 0;
  int64_t events = 0;
  Latencies update, query;
  double cpu_s = 0;
  uint64_t db_bytes = 0;
  int64_t retries = 0;
  WorkQueueCounts wq;
  storage::StorageStats before, after;
  TraceSnapshot trace;
};

/// Read-back of the final state: for a fixed sample of materials, the
/// material lookup and every attribute's most-recent value and history;
/// then every state count, every set and the step-class versions. Each
/// question is one transaction, timed into `latency` when given.
void ReadBack(labbase::SessionIface* db, const Model& model, size_t sample,
              Latencies* latency, RunResult* out, const char* where) {
  const std::vector<std::string>& names = model.material_names();
  const size_t stride = std::max<size_t>(1, names.size() / sample);
  const labbase::Schema& schema = db->schema();
  int64_t retries = 0;
  auto ask = [&](const char* what, const std::string& subject,
                 uint64_t expected, const std::function<Status(uint64_t*)>& q) {
    ++out->attempted;
    uint64_t got = 0;
    uint64_t t0 = NowNs();
    Status st = RunTxn(db, [&] { return q(&got); }, &retries);
    if (latency != nullptr) latency->Add(NowNs() - t0);
    if (!st.ok()) {
      out->Fail(std::string(where) + ": " + what + " " + subject + ": " +
                st.ToString());
    } else if (got != expected) {
      out->Fail(std::string(where) + ": " + what + " " + subject +
                " differs from the model");
    }
  };
  // A stream query, asked again and compared with the model's answer.
  auto ask_event = [&](const char* what, const std::string& subject,
                       const Event& ev) {
    ask(what, subject, model.Expect(ev, schema), [&](uint64_t* d) {
      Answer a;
      WorkQueueCounts unused;
      LABFLOW_RETURN_IF_ERROR(Execute(db, ev, &a, &unused));
      *d = Digest(ev, a);
      return Status::OK();
    });
  };
  for (size_t i = 0; i < names.size(); i += stride) {
    const std::string& name = names[i];
    Event ev;
    ev.type = Event::Type::kQueryMaterialByName;
    ev.name = name;
    ask_event("material", name, ev);
    for (const std::string& attr : model.AttrsOf(name)) {
      ev.attr = attr;
      for (Event::Type type :
           {Event::Type::kQueryMostRecent, Event::Type::kQueryHistory}) {
        ev.type = type;
        ask_event("attribute", name + "." + attr, ev);
      }
    }
  }
  if (latency != nullptr) return;
  for (const std::string& state : model.states()) {
    Event ev;
    ev.type = Event::Type::kQueryCountState;
    ev.state = state;
    ask_event("count", state, ev);
  }
  for (const auto& [set, members] : model.sets()) {
    Event ev;
    ev.type = Event::Type::kQuerySetMembers;
    ev.name = set;
    ask_event("set", set, ev);
  }
  ++out->attempted;
  std::string evolution = model.CheckEvolution(schema);
  if (!evolution.empty()) out->Fail(std::string(where) + ": " + evolution);
}

class StreamRunner {
 public:
  StreamRunner(const StreamSpec& spec, const RunArgs& args, RunResult* out)
      : spec_(spec), args_(args), out_(out) {}

  Status Run();

 private:
  Status RunRound(Round* round);
  /// One set-up alone (open the store, LabBase and a session; install the
  /// schema), timed into setups_.
  Status TimeSetUp();
  /// TimeSetUp's timed work, with the store in `dir`.
  Status SetUpOnce(const std::string& dir);
  std::string DbDir() const { return args_.out_dir + "/store"; }
  std::string DbPath() const { return StorePath(DbDir()); }
  /// Replays the model over the stream and compares every query answer.
  void CheckAgainstModel(const std::vector<Outcome>& outcomes,
                         const labbase::Schema& schema, Model* model);
  void Report(std::vector<Round>& rounds);

  const StreamSpec& spec_;
  const RunArgs& args_;
  RunResult* out_;
  workflow::WorkflowGraph graph_;
  std::vector<Event> events_;
  uint64_t rss_base_ = 0;
  uint64_t mem_bytes_ = 0;
  Latencies readback_;
  std::vector<double> setups_;
  /// The model at the end of the latest round.
  std::unique_ptr<Model> model_;
};

Status StreamRunner::Run() {
  bench::WorkloadParams params;
  params.seed = args_.seed;
  params.base_clones = spec_.clones;
  params.intvl = 1.0;
  {
    bench::WorkloadGenerator generator(params);
    graph_ = generator.graph();
    Event ev;
    while (generator.Next(&ev)) {
      if (spec_.queries || ev.IsUpdate()) events_.push_back(std::move(ev));
      ev = Event();
    }
  }
  rss_base_ = BaselineRssBytes();

  std::vector<Round> rounds;
  const uint64_t start = NowNs();
  // In a traced run rounds alternate untraced / traced, and both kinds
  // must be present.
  const size_t min_rounds = args_.trace ? 2 : 1;
  while (rounds.size() < min_rounds ||
         static_cast<double>(NowNs() - start) / 1e9 < args_.seconds) {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      LABFLOW_RETURN_IF_ERROR(TimeSetUp());
    }
    rounds.emplace_back();
    rounds.back().traced = args_.trace && rounds.size() % 2 == 0;
    LABFLOW_RETURN_IF_ERROR(RunRound(&rounds.back()));
  }

  // The last round's database, closed, reopened and read back.
  LABFLOW_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::StorageManager> mgr,
      OpenStore(spec_.version, DbPath(), spec_.pool_pages, nullptr, false));
  LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<labbase::LabBase> db,
                           labbase::LabBase::Open(mgr.get(), labbase::LabBaseOptions()));
  {
    std::unique_ptr<labbase::LabBase::Session> session = db->OpenSession();
    ReadBack(session.get(), *model_, 300, nullptr, out_, "reopened");
  }
  db.reset();
  LABFLOW_RETURN_IF_ERROR(mgr->Close());
  Report(rounds);
  return Status::OK();
}

Status StreamRunner::TimeSetUp() {
  const std::string dir = args_.out_dir + "/setup";
  LABFLOW_RETURN_IF_ERROR(ClearStore(dir));
  // On one CPU, like remote-oltp's set-ups. A set-up starts and joins the
  // store's threads; over four vCPUs such a wakeup waits whenever the host
  // has taken a vCPU away, and the median stream-lsm set-up went from 2.3
  // to 5.0 ms in a period of 7 % steal time.
  cpu_set_t all_cpus, one_cpu;
  LABFLOW_RETURN_IF_ERROR(AllowedCpus(&all_cpus, &one_cpu));
  LABFLOW_RETURN_IF_ERROR(SetProcessCpus(one_cpu));
  Status st = SetUpOnce(dir);
  LABFLOW_RETURN_IF_ERROR(SetProcessCpus(all_cpus));
  return st;
}

Status StreamRunner::SetUpOnce(const std::string& dir) {
  const uint64_t t0 = NowNs();
  LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<storage::StorageManager> mgr,
                           OpenStore(spec_.version, StorePath(dir),
                                     spec_.pool_pages, nullptr, true));
  LABFLOW_ASSIGN_OR_RETURN(
      std::unique_ptr<labbase::LabBase> db,
      labbase::LabBase::Open(mgr.get(), labbase::LabBaseOptions()));
  std::unique_ptr<labbase::LabBase::Session> session = db->OpenSession();
  LABFLOW_RETURN_IF_ERROR(graph_.InstallSchema(session.get()));
  setups_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  session.reset();
  db.reset();
  return mgr->Close();
}

Status StreamRunner::RunRound(Round* round) {
  const bool traced = round->traced;
  const std::string path = DbPath();
  std::unique_ptr<TracedEnv> env;
  if (traced) env = std::make_unique<TracedEnv>(storage::Env::Default());
  // ---- Set-up: open the store, the wrapper and a session; install the
  // workflow schema.
  LABFLOW_RETURN_IF_ERROR(ClearStore(DbDir()));
  LABFLOW_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::StorageManager> mgr,
      OpenStore(spec_.version, path, spec_.pool_pages, env.get(), true));
  if (traced) mgr = std::make_unique<TracedStorage>(std::move(mgr));
  LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<labbase::LabBase> db,
                           labbase::LabBase::Open(mgr.get(), labbase::LabBaseOptions()));
  std::unique_ptr<labbase::LabBase::Session> raw = db->OpenSession();
  std::unique_ptr<TracedSession> wrapped;
  labbase::SessionIface* session = raw.get();
  if (traced) {
    wrapped = std::make_unique<TracedSession>(raw.get(), Layer::kLabbase);
    session = wrapped.get();
  }
  LABFLOW_RETURN_IF_ERROR(graph_.InstallSchema(session));

  // ---- Timed phase: every event as one transaction, then the checkpoint.
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable(traced);
  std::vector<Outcome> outcomes(events_.size());
  round->before = mgr->stats();
  const double cpu0 = ProcessCpuSeconds();
  uint64_t timed_ns = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    Tracer::SetEvent(static_cast<int64_t>(i));
    Answer answer;
    uint64_t e0 = NowNs();
    Status st = RunTxn(
        session,
        [&] {
          answer = Answer();
          return Execute(session, ev, &answer, &round->wq);
        },
        &round->retries);
    uint64_t dt = NowNs() - e0;
    timed_ns += dt;
    (ev.IsUpdate() ? round->update : round->query).Add(dt);
    Outcome& o = outcomes[i];
    o.ok = st.ok();
    if (!st.ok()) {
      out_->Fail("event " + std::to_string(i) + ": " + st.ToString());
      continue;
    }
    o.created = answer.oid;
    if (!ev.IsUpdate()) o.digest = Digest(ev, answer);
  }
  Tracer::SetEvent(-1);
  uint64_t c0 = NowNs();
  Status cp = session->Checkpoint();
  uint64_t cdt = NowNs() - c0;
  timed_ns += cdt;
  round->cpu_s = ProcessCpuSeconds() - cpu0;
  LABFLOW_RETURN_IF_ERROR(cp);
  round->checkpoint_s = static_cast<double>(cdt) / 1e9;
  round->timed_s = static_cast<double>(timed_ns) / 1e9;
  round->events = static_cast<int64_t>(events_.size());
  out_->attempted += round->events;
  round->after = mgr->stats();
  round->db_bytes = round->after.db_size_bytes;
  if (mem_bytes_ == 0) mem_bytes_ = PeakRssBytes() - rss_base_;
  tracer.Enable(false);
  if (traced) {
    round->trace = tracer.Snapshot();
    tracer.WriteSpans(args_.out_dir + "/spans-" + args_.workload + ".jsonl");
  }

  // ---- Checks: the model over the whole stream, and for the write-only
  // workload a timed read-back on the live store.
  model_ = std::make_unique<Model>(graph_);
  CheckAgainstModel(outcomes, session->schema(), model_.get());
  if (!spec_.queries) {
    ReadBack(session, *model_, 400, &readback_, out_, "read-back");
  }
  wrapped.reset();
  raw.reset();
  db.reset();
  return mgr->Close();
}

void StreamRunner::CheckAgainstModel(const std::vector<Outcome>& outcomes,
                                     const labbase::Schema& schema,
                                     Model* model) {
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    const Outcome& o = outcomes[i];
    if (!o.ok) continue;  // already counted as failed
    if (ev.IsUpdate()) {
      model->Apply(ev, o.created);
    } else if (o.digest != model->Expect(ev, schema)) {
      out_->Fail("event " + std::to_string(i) + " (query on " + ev.name +
                 ev.state + ") differs from the model");
    }
  }
}


void StreamRunner::Report(std::vector<Round>& rounds) {
  Metrics& m = out_->metrics;
  std::vector<double> ops, cpu, dbb, up50, up99, q50, q99;
  std::vector<double> ops_untraced, ops_traced;
  int64_t up_n = 0, q_n = 0;
  for (Round& r : rounds) {
    double rate = r.events / r.timed_s;
    std::fprintf(stderr, "round%s: %.1f ops/s, %.2f us cpu/op\n",
                 r.traced ? " (traced)" : "", rate,
                 r.cpu_s * 1e6 / static_cast<double>(r.events));
    (r.traced ? ops_traced : ops_untraced).push_back(rate);
    if (r.traced) continue;
    ops.push_back(rate);
    cpu.push_back(r.cpu_s * 1e6 / static_cast<double>(r.events));
    dbb.push_back(static_cast<double>(r.db_bytes));
    up_n = static_cast<int64_t>(r.update.count());
    up50.push_back(r.update.PercentileUs(0.50));
    up99.push_back(r.update.PercentileUs(0.99));
    if (spec_.queries) {
      q_n = static_cast<int64_t>(r.query.count());
      q50.push_back(r.query.PercentileUs(0.50));
      q99.push_back(r.query.PercentileUs(0.99));
    }
  }
  if (!spec_.queries) {
    q_n = static_cast<int64_t>(readback_.count());
    q50.push_back(readback_.PercentileUs(0.50));
    q99.push_back(readback_.PercentileUs(0.99));
  }
  if (!args_.trace) {
    m.Set("setup_s", Median(setups_), "s", static_cast<int64_t>(setups_.size()));
    m.Set("ops_per_s", Median(ops), "ops/s", static_cast<int64_t>(ops.size()));
    m.Set("update_p50_us", Median(up50), "us", up_n);
    m.Set("update_p99_us", Median(up99), "us", up_n);
    m.Set("query_p50_us", Median(q50), "us", q_n);
    m.Set("query_p99_us", Median(q99), "us", q_n);
    m.Set("db_bytes", Median(dbb), "bytes");
    m.Set("cpu_us_per_op", Median(cpu), "us");
    m.Set("mem_bytes", static_cast<double>(mem_bytes_), "bytes");
    return;
  }

  // Per-layer metrics: the median over the traced rounds of each value.
  std::map<std::string, std::pair<std::string, std::vector<double>>> vals;
  auto put = [&](const std::string& name, const std::string& unit, double v) {
    auto& slot = vals[name];
    slot.first = unit;
    slot.second.push_back(v);
  };
  for (Round& r : rounds) {
    if (!r.traced) continue;
    LayerMetrics(&r.trace, &r.trace, r.before, r.after,
                 static_cast<double>(r.events),
                 spec_.version == ServerVersion::kLsm, put);
    put("labbase.materials_in_state_rows_per_call", "rows",
        Ratio(r.wq.rows_returned, r.wq.calls));
    put("labbase.work_queue_used_ratio", "ratio",
        Ratio(r.wq.rows_read, r.wq.rows_returned));
    put("storage.checkpoint_s", "s", r.checkpoint_s);
    put("ostore.txn_retries", "count", static_cast<double>(r.retries));
    put("labflow.attributed_ratio", "ratio",
        Ratio(r.trace.busy_ns[static_cast<int>(Layer::kLabbase)] / 1e9,
              r.timed_s));
  }
  for (auto& [name, slot] : vals) m.Set(name, Median(slot.second), slot.first);
  m.Set("labflow.trace_overhead",
        Ratio(Median(ops_traced), Median(ops_untraced)), "ratio");
}

}  // namespace

Status RunStreamWorkload(const RunArgs& args, RunResult* out) {
  for (const StreamSpec& spec : kSpecs) {
    if (args.workload == spec.name) {
      StreamRunner runner(spec, args, out);
      return runner.Run();
    }
  }
  return Status::InvalidArgument("unknown workload " + args.workload);
}

}  // namespace labflow::lfbench
