// Out-of-program tracing for the LabFlow-1 benchmark: decorators that time
// every call crossing a layer seam (labbase::SessionIface, the
// storage::StorageManager data path and storage::Env file I/O), nest the
// spans on a thread-local stack, and aggregate them per layer and op.
#ifndef LFBENCH_TRACE_H_
#define LFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "labbase/session_iface.h"
#include "storage/env.h"
#include "storage/storage_manager.h"

namespace labflow::lfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

enum class Layer : uint8_t { kLabbase, kNet, kStorage, kFile };
inline constexpr int kLayerCount = 4;

/// Op names per seam. kSessionOps index the SessionIface methods (used by
/// both the labbase and the net layer), kStorageOps the StorageManager
/// calls, kFileOps the Env/File calls.
enum SessionOp : uint16_t {
  kBegin, kCommit, kAbort, kRunTransaction, kDefineMaterialClass,
  kDefineStepClass, kDefineState, kCreateMaterial, kRecordStep, kMostRecent,
  kHistory, kValueAsOf, kHistoryBetween, kGetMaterial, kGetStep,
  kFindMaterialByName, kCurrentState, kMaterialsInState, kCountInState,
  kMaterialsOfClass, kListSteps, kCreateSet, kAddToSet, kRemoveFromSet,
  kSetMembers, kFindSetByName, kSessionCheckpoint, kBeginReadOnly,
  kSessionOpCount
};
enum StorageOp : uint16_t {
  kSmBegin, kSmCommit, kSmAbort, kSmAllocate, kSmRead, kSmUpdate, kSmFree,
  kSmScanAll, kSmCreateSegment, kSmSetRoot, kSmGetRoot, kSmCheckpoint,
  kSmClose, kStorageOpCount
};
enum FileOp : uint16_t { kFileRead, kFileWrite, kFileAppend, kFileSync,
                         kFileOpCount };

const char* OpName(Layer layer, uint16_t op);
int OpCount(Layer layer);

/// Aggregate of every span of one (layer, op).
struct OpStats {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  /// File reads issued while this op was the innermost storage span (a
  /// buffer-pool or block-cache miss reads through the Env).
  uint64_t file_reads = 0;
  std::vector<uint32_t> samples_ns;
};

/// File I/O split by whether a traced call was on the issuing thread's
/// stack (foreground) or not (background flush and compaction threads).
struct FileStats {
  uint64_t reads = 0, read_bytes = 0, read_ns = 0;
  uint64_t writes = 0, write_bytes = 0, write_ns = 0;
  uint64_t syncs = 0, sync_ns = 0;
};

struct TraceSnapshot {
  std::vector<OpStats> ops[kLayerCount];
  /// Time inside spans of the layer that are not nested in a span of the
  /// same layer, and that time minus every nested span of another layer.
  uint64_t busy_ns[kLayerCount] = {};
  uint64_t self_ns[kLayerCount] = {};
  FileStats fg, bg;
  uint64_t wal_bytes_written = 0;
  uint64_t all_bytes_written = 0;

  const OpStats& op(Layer layer, uint16_t op) const {
    return ops[static_cast<int>(layer)][op];
  }
};

/// One recorded span of a sampled event, written out at the end of a run.
struct SpanRecord {
  int64_t event = -1;
  Layer layer = Layer::kLabbase;
  uint16_t op = 0;
  int32_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// Process-wide span collector. Spans are recorded only while enabled;
/// Snapshot() and Reset() must run while no traced call is in flight.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reset();
  TraceSnapshot Snapshot();

  /// Marks the calling thread's current event (-1 = none). Spans of events
  /// chosen by the sampling rule are kept in full.
  static void SetEvent(int64_t event);

  bool WriteSpans(const std::string& path);

  /// Per-thread aggregate; merged by Snapshot().
  struct ThreadAgg;

 private:
  friend class Span;
  friend class TracedFile;

  ThreadAgg* Local();
  int32_t BeginSample(Layer layer, uint16_t op, int32_t parent,
                      uint64_t start);
  void EndSample(int32_t index, uint64_t dur);

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadAgg>> threads_;
  std::mutex spans_mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer. A no-op while tracing is off.
class Span {
 public:
  Span(Layer layer, uint16_t op);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// SessionIface decorator: times every call as a span of `layer`
/// (kLabbase around an in-process session, kNet around a RemoteSession).
class TracedSession : public labbase::SessionIface {
 public:
  TracedSession(labbase::SessionIface* inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  Status Begin() override;
  Status BeginReadOnly() override;
  Status Commit() override;
  Status Abort() override;
  bool in_transaction() const override { return inner_->in_transaction(); }
  Status RunTransaction(const std::function<Status()>& body) override;

  Result<labbase::ClassId> DefineMaterialClass(std::string_view name) override;
  Result<labbase::ClassId> DefineStepClass(
      std::string_view name,
      const std::vector<std::string>& attr_names) override;
  Result<labbase::StateId> DefineState(std::string_view name) override;
  const labbase::Schema& schema() const override { return inner_->schema(); }

  Result<Oid> CreateMaterial(labbase::ClassId material_class,
                             std::string_view name,
                             labbase::StateId initial_state,
                             Timestamp created) override;
  Result<Oid> RecordStep(
      labbase::ClassId step_class, Timestamp time,
      const std::vector<labbase::StepEffect>& effects) override;

  Result<Value> MostRecent(Oid material, labbase::AttrId attr) override;
  Result<Value> MostRecent(Oid material, std::string_view attr_name) override;
  Result<std::vector<labbase::HistoryEntry>> History(
      Oid material, labbase::AttrId attr) override;
  Result<Value> ValueAsOf(Oid material, labbase::AttrId attr,
                          Timestamp at) override;
  Result<std::vector<labbase::HistoryEntry>> HistoryBetween(
      Oid material, labbase::AttrId attr, Timestamp from,
      Timestamp to) override;
  Result<labbase::MaterialInfo> GetMaterial(Oid material) override;
  Result<labbase::StepInfo> GetStep(Oid step) override;
  Result<Oid> FindMaterialByName(std::string_view name) override;
  Result<labbase::StateId> CurrentState(Oid material) override;
  Result<std::vector<Oid>> MaterialsInState(labbase::StateId state) override;
  Result<int64_t> CountInState(labbase::StateId state) override;
  Result<std::vector<Oid>> MaterialsOfClass(
      labbase::ClassId material_class) override;
  Result<std::vector<Oid>> ListSteps() override;

  Result<Oid> CreateSet(std::string_view name) override;
  Status AddToSet(Oid set, Oid material) override;
  Status RemoveFromSet(Oid set, Oid material) override;
  Result<std::vector<Oid>> SetMembers(Oid set) override;
  Result<Oid> FindSetByName(std::string_view name) override;

  Status Checkpoint() override;
  const labbase::LabBaseStats& stats() const override {
    return inner_->stats();
  }

 private:
  labbase::SessionIface* const inner_;
  const Layer layer_;
};

/// StorageManager decorator: every data operation and lifecycle call is a
/// kStorage span forwarded to `inner`, with a transaction of its own on
/// `inner` behind each handle this manager hands out. Snapshot
/// transactions degrade to plain ones (no workload uses them).
class TracedStorage : public storage::StorageManager {
 public:
  explicit TracedStorage(std::unique_ptr<storage::StorageManager> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  Result<uint16_t> CreateSegment(std::string_view name) override;
  Status SetRoot(storage::ObjectId root) override;
  Result<storage::ObjectId> GetRoot() override;
  Status Checkpoint() override;
  Status Close() override;
  storage::StorageStats stats() const override { return inner_->stats(); }

 protected:
  std::unique_ptr<storage::Txn> CreateTxn(uint64_t id) override;
  Status CommitTxn(storage::Txn* txn) override;
  Status AbortTxn(storage::Txn* txn) override;
  void OnTxnDrop(storage::Txn* txn) override;

  Result<storage::ObjectId> DoAllocate(storage::Txn* txn,
                                       std::string_view data,
                                       const storage::AllocHint& hint) override;
  Result<std::string> DoRead(storage::Txn* txn, storage::ObjectId id) override;
  Status DoUpdate(storage::Txn* txn, storage::ObjectId id,
                  std::string_view data) override;
  Status DoFree(storage::Txn* txn, storage::ObjectId id) override;
  Status DoScanAll(storage::Txn* txn,
                   const std::function<Status(storage::ObjectId,
                                              std::string_view)>& fn) override;

 private:
  /// The inner transaction behind `txn` (nullptr for auto-commit), or the
  /// error its Begin returned.
  Result<storage::Txn*> Inner(storage::Txn* txn);

  std::unique_ptr<storage::StorageManager> inner_;
};

/// Env decorator: file reads, writes and syncs become kFile spans and feed
/// the foreground/background FileStats.
class TracedEnv : public storage::Env {
 public:
  explicit TracedEnv(storage::Env* inner) : inner_(inner) {}

  Result<std::unique_ptr<storage::File>> OpenFile(const std::string& path,
                                                  bool truncate) override;
  Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }

 private:
  storage::Env* const inner_;
};

}  // namespace labflow::lfbench

#endif  // LFBENCH_TRACE_H_
