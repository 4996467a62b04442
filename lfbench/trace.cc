#include "trace.h"

#include <chrono>
#include <fstream>
#include <limits>

#include "common/status_macros.h"

namespace labflow::lfbench {

namespace {

constexpr const char* kSessionOpNames[kSessionOpCount] = {
    "begin", "commit", "abort", "run_transaction", "define_material_class",
    "define_step_class", "define_state", "create_material", "record_step",
    "most_recent", "history", "value_as_of", "history_between",
    "get_material", "get_step", "find_material_by_name", "current_state",
    "materials_in_state", "count_in_state", "materials_of_class",
    "list_steps", "create_set", "add_to_set", "remove_from_set",
    "set_members", "find_set_by_name", "checkpoint", "begin_read_only"};
constexpr const char* kStorageOpNames[kStorageOpCount] = {
    "begin", "commit", "abort", "allocate", "read", "update", "free",
    "scan_all", "create_segment", "set_root", "get_root", "checkpoint",
    "close"};
constexpr const char* kFileOpNames[kFileOpCount] = {"read", "write", "append",
                                                    "sync"};

/// Spans of the first kSampleHead events, and of every kSampleEvery-th
/// event after them, are kept in full, up to kMaxSpans records.
constexpr int64_t kSampleHead = 200;
constexpr int64_t kSampleEvery = 500;
constexpr size_t kMaxSpans = 50000;

struct Frame {
  Layer layer;
  uint16_t op;
  uint64_t start;
  uint64_t child_ns;
  int32_t sample;
};

thread_local std::vector<Frame> tl_stack;
thread_local int64_t tl_event = -1;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* OpName(Layer layer, uint16_t op) {
  switch (layer) {
    case Layer::kLabbase:
    case Layer::kNet:
      return kSessionOpNames[op];
    case Layer::kStorage:
      return kStorageOpNames[op];
    case Layer::kFile:
      return kFileOpNames[op];
  }
  return "?";
}

int OpCount(Layer layer) {
  switch (layer) {
    case Layer::kLabbase:
    case Layer::kNet:
      return kSessionOpCount;
    case Layer::kStorage:
      return kStorageOpCount;
    case Layer::kFile:
      return kFileOpCount;
  }
  return 0;
}

// ---- Tracer -----------------------------------------------------------------

struct Tracer::ThreadAgg {
  std::mutex mu;
  TraceSnapshot data;

  ThreadAgg() { Clear(); }
  void Clear() {
    data = TraceSnapshot();
    for (int l = 0; l < kLayerCount; ++l) {
      data.ops[l].resize(OpCount(static_cast<Layer>(l)));
    }
  }
};

namespace {
thread_local Tracer::ThreadAgg* tl_agg = nullptr;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadAgg* Tracer::Local() {
  if (tl_agg == nullptr) {
    auto agg = std::make_unique<ThreadAgg>();
    tl_agg = agg.get();
    std::lock_guard<std::mutex> g(mu_);
    threads_.push_back(std::move(agg));
  }
  return tl_agg;
}

void Tracer::SetEvent(int64_t event) { tl_event = event; }

void Tracer::Reset() {
  {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& agg : threads_) {
      std::lock_guard<std::mutex> ga(agg->mu);
      agg->Clear();
    }
  }
  std::lock_guard<std::mutex> g(spans_mu_);
  spans_.clear();
}

TraceSnapshot Tracer::Snapshot() {
  TraceSnapshot out;
  for (int l = 0; l < kLayerCount; ++l) {
    out.ops[l].resize(OpCount(static_cast<Layer>(l)));
  }
  auto add_file = [](FileStats* to, const FileStats& from) {
    to->reads += from.reads;
    to->read_bytes += from.read_bytes;
    to->read_ns += from.read_ns;
    to->writes += from.writes;
    to->write_bytes += from.write_bytes;
    to->write_ns += from.write_ns;
    to->syncs += from.syncs;
    to->sync_ns += from.sync_ns;
  };
  std::lock_guard<std::mutex> g(mu_);
  for (auto& agg : threads_) {
    std::lock_guard<std::mutex> ga(agg->mu);
    const TraceSnapshot& d = agg->data;
    for (int l = 0; l < kLayerCount; ++l) {
      out.busy_ns[l] += d.busy_ns[l];
      out.self_ns[l] += d.self_ns[l];
      for (size_t o = 0; o < d.ops[l].size(); ++o) {
        OpStats& to = out.ops[l][o];
        const OpStats& from = d.ops[l][o];
        to.calls += from.calls;
        to.total_ns += from.total_ns;
        to.self_ns += from.self_ns;
        to.file_reads += from.file_reads;
        to.samples_ns.insert(to.samples_ns.end(), from.samples_ns.begin(),
                             from.samples_ns.end());
      }
    }
    add_file(&out.fg, d.fg);
    add_file(&out.bg, d.bg);
    out.wal_bytes_written += d.wal_bytes_written;
    out.all_bytes_written += d.all_bytes_written;
  }
  return out;
}

int32_t Tracer::BeginSample(Layer layer, uint16_t op, int32_t parent,
                            uint64_t start) {
  std::lock_guard<std::mutex> g(spans_mu_);
  if (spans_.size() >= kMaxSpans) return -1;
  SpanRecord rec;
  rec.event = tl_event;
  rec.layer = layer;
  rec.op = op;
  rec.parent = parent;
  rec.start_ns = start;
  spans_.push_back(rec);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::EndSample(int32_t index, uint64_t dur) {
  std::lock_guard<std::mutex> g(spans_mu_);
  spans_[static_cast<size_t>(index)].dur_ns = dur;
}

bool Tracer::WriteSpans(const std::string& path) {
  static constexpr const char* kLayerNames[kLayerCount] = {"labbase", "net",
                                                           "storage", "file"};
  std::ofstream out(path);
  std::lock_guard<std::mutex> g(spans_mu_);
  uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"event\":" << s.event << ",\"parent\":"
        << s.parent << ",\"layer\":\""
        << kLayerNames[static_cast<int>(s.layer)] << "\",\"op\":\""
        << OpName(s.layer, s.op) << "\",\"start_ns\":"
        << (s.start_ns - base) << ",\"dur_ns\":" << s.dur_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- Span -------------------------------------------------------------------

Span::Span(Layer layer, uint16_t op) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  uint64_t start = NowNs();
  int32_t sample = -1;
  if (tl_event >= 0 &&
      (tl_event < kSampleHead || tl_event % kSampleEvery == 0)) {
    int32_t parent = tl_stack.empty() ? -1 : tl_stack.back().sample;
    sample = tracer.BeginSample(layer, op, parent, start);
  }
  tl_stack.push_back(Frame{layer, op, start, 0, sample});
}

Span::~Span() {
  if (!active_) return;
  uint64_t end = NowNs();
  Frame f = tl_stack.back();
  tl_stack.pop_back();
  uint64_t dur = end - f.start;
  uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  bool outermost = true;
  if (!tl_stack.empty()) {
    tl_stack.back().child_ns += dur;
    outermost = tl_stack.back().layer != f.layer;
  }
  Tracer& tracer = Tracer::Get();
  Tracer::ThreadAgg* agg = tracer.Local();
  {
    std::lock_guard<std::mutex> g(agg->mu);
    const int l = static_cast<int>(f.layer);
    OpStats& s = agg->data.ops[l][f.op];
    ++s.calls;
    s.total_ns += dur;
    s.self_ns += self;
    s.samples_ns.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(dur, std::numeric_limits<uint32_t>::max())));
    if (outermost) agg->data.busy_ns[l] += dur;
    agg->data.self_ns[l] += self;
  }
  if (f.sample >= 0) tracer.EndSample(f.sample, dur);
}

// ---- TracedSession ----------------------------------------------------------

#define LFB_SPAN(op) Span span_(layer_, op)

Status TracedSession::Begin() {
  LFB_SPAN(kBegin);
  return inner_->Begin();
}
Status TracedSession::BeginReadOnly() {
  LFB_SPAN(kBeginReadOnly);
  return inner_->BeginReadOnly();
}
Status TracedSession::Commit() {
  LFB_SPAN(kCommit);
  return inner_->Commit();
}
Status TracedSession::Abort() {
  LFB_SPAN(kAbort);
  return inner_->Abort();
}
Status TracedSession::RunTransaction(const std::function<Status()>& body) {
  LFB_SPAN(kRunTransaction);
  return inner_->RunTransaction(body);
}
Result<labbase::ClassId> TracedSession::DefineMaterialClass(
    std::string_view name) {
  LFB_SPAN(kDefineMaterialClass);
  return inner_->DefineMaterialClass(name);
}
Result<labbase::ClassId> TracedSession::DefineStepClass(
    std::string_view name, const std::vector<std::string>& attr_names) {
  LFB_SPAN(kDefineStepClass);
  return inner_->DefineStepClass(name, attr_names);
}
Result<labbase::StateId> TracedSession::DefineState(std::string_view name) {
  LFB_SPAN(kDefineState);
  return inner_->DefineState(name);
}
Result<Oid> TracedSession::CreateMaterial(labbase::ClassId material_class,
                                          std::string_view name,
                                          labbase::StateId initial_state,
                                          Timestamp created) {
  LFB_SPAN(kCreateMaterial);
  return inner_->CreateMaterial(material_class, name, initial_state, created);
}
Result<Oid> TracedSession::RecordStep(
    labbase::ClassId step_class, Timestamp time,
    const std::vector<labbase::StepEffect>& effects) {
  LFB_SPAN(kRecordStep);
  return inner_->RecordStep(step_class, time, effects);
}
Result<Value> TracedSession::MostRecent(Oid material, labbase::AttrId attr) {
  LFB_SPAN(kMostRecent);
  return inner_->MostRecent(material, attr);
}
Result<Value> TracedSession::MostRecent(Oid material,
                                        std::string_view attr_name) {
  LFB_SPAN(kMostRecent);
  return inner_->MostRecent(material, attr_name);
}
Result<std::vector<labbase::HistoryEntry>> TracedSession::History(
    Oid material, labbase::AttrId attr) {
  LFB_SPAN(kHistory);
  return inner_->History(material, attr);
}
Result<Value> TracedSession::ValueAsOf(Oid material, labbase::AttrId attr,
                                       Timestamp at) {
  LFB_SPAN(kValueAsOf);
  return inner_->ValueAsOf(material, attr, at);
}
Result<std::vector<labbase::HistoryEntry>> TracedSession::HistoryBetween(
    Oid material, labbase::AttrId attr, Timestamp from, Timestamp to) {
  LFB_SPAN(kHistoryBetween);
  return inner_->HistoryBetween(material, attr, from, to);
}
Result<labbase::MaterialInfo> TracedSession::GetMaterial(Oid material) {
  LFB_SPAN(kGetMaterial);
  return inner_->GetMaterial(material);
}
Result<labbase::StepInfo> TracedSession::GetStep(Oid step) {
  LFB_SPAN(kGetStep);
  return inner_->GetStep(step);
}
Result<Oid> TracedSession::FindMaterialByName(std::string_view name) {
  LFB_SPAN(kFindMaterialByName);
  return inner_->FindMaterialByName(name);
}
Result<labbase::StateId> TracedSession::CurrentState(Oid material) {
  LFB_SPAN(kCurrentState);
  return inner_->CurrentState(material);
}
Result<std::vector<Oid>> TracedSession::MaterialsInState(
    labbase::StateId state) {
  LFB_SPAN(kMaterialsInState);
  return inner_->MaterialsInState(state);
}
Result<int64_t> TracedSession::CountInState(labbase::StateId state) {
  LFB_SPAN(kCountInState);
  return inner_->CountInState(state);
}
Result<std::vector<Oid>> TracedSession::MaterialsOfClass(
    labbase::ClassId material_class) {
  LFB_SPAN(kMaterialsOfClass);
  return inner_->MaterialsOfClass(material_class);
}
Result<std::vector<Oid>> TracedSession::ListSteps() {
  LFB_SPAN(kListSteps);
  return inner_->ListSteps();
}
Result<Oid> TracedSession::CreateSet(std::string_view name) {
  LFB_SPAN(kCreateSet);
  return inner_->CreateSet(name);
}
Status TracedSession::AddToSet(Oid set, Oid material) {
  LFB_SPAN(kAddToSet);
  return inner_->AddToSet(set, material);
}
Status TracedSession::RemoveFromSet(Oid set, Oid material) {
  LFB_SPAN(kRemoveFromSet);
  return inner_->RemoveFromSet(set, material);
}
Result<std::vector<Oid>> TracedSession::SetMembers(Oid set) {
  LFB_SPAN(kSetMembers);
  return inner_->SetMembers(set);
}
Result<Oid> TracedSession::FindSetByName(std::string_view name) {
  LFB_SPAN(kFindSetByName);
  return inner_->FindSetByName(name);
}
Status TracedSession::Checkpoint() {
  LFB_SPAN(kSessionCheckpoint);
  return inner_->Checkpoint();
}

#undef LFB_SPAN

// ---- TracedStorage ----------------------------------------------------------

namespace {

class TracedTxn : public storage::Txn {
 public:
  TracedTxn(storage::StorageManager* owner, uint64_t id) : Txn(owner, id) {}

  storage::Txn* inner = nullptr;
  Status begin_status;
};

}  // namespace

std::unique_ptr<storage::Txn> TracedStorage::CreateTxn(uint64_t id) {
  auto txn = std::make_unique<TracedTxn>(this, id);
  Span span(Layer::kStorage, kSmBegin);
  Result<storage::Txn*> inner = inner_->Begin();
  if (inner.ok()) {
    txn->inner = inner.value();
  } else {
    txn->begin_status = inner.status();
  }
  return txn;
}

Result<storage::Txn*> TracedStorage::Inner(storage::Txn* txn) {
  if (txn == nullptr) return static_cast<storage::Txn*>(nullptr);
  auto* t = static_cast<TracedTxn*>(txn);
  if (t->inner == nullptr) return t->begin_status;
  return t->inner;
}

Status TracedStorage::CommitTxn(storage::Txn* txn) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmCommit);
  return inner_->Commit(inner);
}

Status TracedStorage::AbortTxn(storage::Txn* txn) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmAbort);
  return inner_->Abort(inner);
}

void TracedStorage::OnTxnDrop(storage::Txn* txn) {
  auto* t = static_cast<TracedTxn*>(txn);
  if (t->inner != nullptr) {
    LABFLOW_IGNORE_STATUS(inner_->Abort(t->inner),
                          "dropping a transaction at close; the inner "
                          "manager discards it either way");
  }
}

Result<storage::ObjectId> TracedStorage::DoAllocate(
    storage::Txn* txn, std::string_view data,
    const storage::AllocHint& hint) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmAllocate);
  return inner_->Allocate(inner, data, hint);
}

Result<std::string> TracedStorage::DoRead(storage::Txn* txn,
                                          storage::ObjectId id) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmRead);
  return inner_->Read(inner, id);
}

Status TracedStorage::DoUpdate(storage::Txn* txn, storage::ObjectId id,
                               std::string_view data) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmUpdate);
  return inner_->Update(inner, id, data);
}

Status TracedStorage::DoFree(storage::Txn* txn, storage::ObjectId id) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmFree);
  return inner_->Free(inner, id);
}

Status TracedStorage::DoScanAll(
    storage::Txn* txn,
    const std::function<Status(storage::ObjectId, std::string_view)>& fn) {
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn * inner, Inner(txn));
  Span span(Layer::kStorage, kSmScanAll);
  return inner_->ScanAll(inner, fn);
}

Result<uint16_t> TracedStorage::CreateSegment(std::string_view name) {
  Span span(Layer::kStorage, kSmCreateSegment);
  return inner_->CreateSegment(name);
}

Status TracedStorage::SetRoot(storage::ObjectId root) {
  Span span(Layer::kStorage, kSmSetRoot);
  return inner_->SetRoot(root);
}

Result<storage::ObjectId> TracedStorage::GetRoot() {
  Span span(Layer::kStorage, kSmGetRoot);
  return inner_->GetRoot();
}

Status TracedStorage::Checkpoint() {
  Span span(Layer::kStorage, kSmCheckpoint);
  return inner_->Checkpoint();
}

Status TracedStorage::Close() {
  DropActiveTxns();
  Span span(Layer::kStorage, kSmClose);
  return inner_->Close();
}

// ---- TracedEnv ----------------------------------------------------------------

class TracedFile : public storage::File {
 public:
  TracedFile(std::unique_ptr<storage::File> inner, bool is_wal)
      : inner_(std::move(inner)), is_wal_(is_wal) {}

  Status Read(uint64_t offset, size_t n, char* buf) override {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return inner_->Read(offset, n, buf);
    // A read charges the innermost storage call that caused it.
    int storage_op = -1;
    for (auto it = tl_stack.rbegin(); it != tl_stack.rend(); ++it) {
      if (it->layer == Layer::kStorage) {
        storage_op = it->op;
        break;
      }
    }
    const bool fg = !tl_stack.empty();
    uint64_t t0 = NowNs();
    Status st;
    {
      Span span(Layer::kFile, kFileRead);
      st = inner_->Read(offset, n, buf);
    }
    uint64_t dur = NowNs() - t0;
    Tracer::ThreadAgg* agg = tracer.Local();
    std::lock_guard<std::mutex> g(agg->mu);
    FileStats& fs = fg ? agg->data.fg : agg->data.bg;
    ++fs.reads;
    fs.read_bytes += n;
    fs.read_ns += dur;
    if (storage_op >= 0) {
      ++agg->data.ops[static_cast<int>(Layer::kStorage)][storage_op]
            .file_reads;
    }
    return st;
  }

  Status Write(uint64_t offset, std::string_view data) override {
    return Written(kFileWrite, data.size(),
                   [&] { return inner_->Write(offset, data); });
  }
  Status Append(std::string_view data) override {
    return Written(kFileAppend, data.size(),
                   [&] { return inner_->Append(data); });
  }

  Status Sync() override {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return inner_->Sync();
    const bool fg = !tl_stack.empty();
    uint64_t t0 = NowNs();
    Status st;
    {
      Span span(Layer::kFile, kFileSync);
      st = inner_->Sync();
    }
    uint64_t dur = NowNs() - t0;
    Tracer::ThreadAgg* agg = tracer.Local();
    std::lock_guard<std::mutex> g(agg->mu);
    FileStats& fs = fg ? agg->data.fg : agg->data.bg;
    ++fs.syncs;
    fs.sync_ns += dur;
    return st;
  }

  Result<uint64_t> Size() const override { return inner_->Size(); }
  Status Close() override { return inner_->Close(); }

 private:
  template <typename F>
  Status Written(FileOp op, size_t bytes, F&& write) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return write();
    const bool fg = !tl_stack.empty();
    uint64_t t0 = NowNs();
    Status st;
    {
      Span span(Layer::kFile, op);
      st = write();
    }
    uint64_t dur = NowNs() - t0;
    Tracer::ThreadAgg* agg = tracer.Local();
    std::lock_guard<std::mutex> g(agg->mu);
    FileStats& fs = fg ? agg->data.fg : agg->data.bg;
    ++fs.writes;
    fs.write_bytes += bytes;
    fs.write_ns += dur;
    agg->data.all_bytes_written += bytes;
    if (is_wal_) agg->data.wal_bytes_written += bytes;
    return st;
  }

  std::unique_ptr<storage::File> inner_;
  const bool is_wal_;
};

Result<std::unique_ptr<storage::File>> TracedEnv::OpenFile(
    const std::string& path, bool truncate) {
  LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                           inner_->OpenFile(path, truncate));
  std::string base = path.substr(path.find_last_of('/') + 1);
  bool is_wal = base.find("wal") != std::string::npos;
  return std::unique_ptr<storage::File>(
      std::make_unique<TracedFile>(std::move(file), is_wal));
}

}  // namespace labflow::lfbench
