#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/status_macros.h"
#include "lsm/lsm_manager.h"
#include "ostore/ostore_manager.h"
#include "storage/page.h"
#include "texas/texas_manager.h"
#include "workloads.h"

namespace labflow::lfbench {

std::string StorePath(const std::string& dir) { return dir + "/db"; }

Status ClearStore(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!ec) std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("clearing " + dir + ": " + ec.message());
  return Status::OK();
}

Status AllowedCpus(cpu_set_t* all, cpu_set_t* one) {
  CPU_ZERO(all);
  if (sched_getaffinity(0, sizeof(*all), all) != 0) {
    return Status::IOError("sched_getaffinity failed");
  }
  CPU_ZERO(one);
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, all)) {
      CPU_SET(c, one);
      break;
    }
  }
  return Status::OK();
}

Status SetProcessCpus(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (sched_setaffinity(tid, sizeof(set), &set) != 0) {
      return Status::IOError("sched_setaffinity failed");
    }
  }
  if (ec) return Status::IOError("listing /proc/self/task: " + ec.message());
  return Status::OK();
}

Result<std::unique_ptr<storage::StorageManager>> OpenStore(
    bench::ServerVersion version, const std::string& path, size_t pool_pages,
    storage::Env* env, bool truncate) {
  storage::PagedManagerOptions base;
  base.path = path;
  base.buffer_pool_pages = pool_pages;
  base.truncate = truncate;
  base.env = env;
  switch (version) {
    case bench::ServerVersion::kOstore: {
      ostore::OstoreOptions opts;
      opts.base = base;
      LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<ostore::OstoreManager> mgr,
                               ostore::OstoreManager::Open(opts));
      return std::unique_ptr<storage::StorageManager>(std::move(mgr));
    }
    case bench::ServerVersion::kTexasTC: {
      texas::TexasOptions opts;
      opts.base = base;
      opts.client_clustering = true;
      LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<texas::TexasManager> mgr,
                               texas::TexasManager::Open(opts));
      return std::unique_ptr<storage::StorageManager>(std::move(mgr));
    }
    case bench::ServerVersion::kLsm: {
      lsm::LsmOptions opts;
      opts.path = path;
      opts.env = env;
      opts.truncate = truncate;
      opts.block_cache_bytes = pool_pages * storage::kPageSize;
      LABFLOW_ASSIGN_OR_RETURN(std::unique_ptr<lsm::LsmManager> mgr,
                               lsm::LsmManager::Open(opts));
      return std::unique_ptr<storage::StorageManager>(std::move(mgr));
    }
    default:
      return Status::InvalidArgument("no workload runs this server version");
  }
}

Status RunTxn(labbase::SessionIface* session,
              const std::function<Status()>& body, int64_t* retries) {
  // Deadlock victims are re-run until they commit. The backoff is drawn at
  // random below a cap that doubles per attempt: with a fixed backoff, two
  // clients that deadlocked together retry in step and can deadlock again.
  constexpr int kMaxRetries = 100;
  constexpr int64_t kMaxBackoffUs = 2000;
  static std::atomic<uint64_t> next_stream{1};
  thread_local Rng rng(next_stream.fetch_add(1));
  for (int attempt = 0;; ++attempt) {
    LABFLOW_RETURN_IF_ERROR(session->Begin());
    Status st = body();
    if (st.ok()) {
      st = session->Commit();
      if (st.ok()) return st;
    } else {
      LABFLOW_IGNORE_STATUS(session->Abort(),
                            "the body's error is the one to report");
    }
    if (!st.IsAborted()) return st;
    if (attempt >= kMaxRetries) {
      return Status::Aborted("gave up after " + std::to_string(kMaxRetries) +
                             " retries: " + st.ToString());
    }
    ++*retries;
    const int64_t cap =
        std::min<int64_t>(kMaxBackoffUs, int64_t{100} << std::min(attempt, 5));
    std::this_thread::sleep_for(std::chrono::microseconds(
        1 + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(cap)))));
  }
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {
uint64_t StatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size())) * 1024;  // kB
    }
  }
  return 0;
}
}  // namespace

uint64_t BaselineRssBytes() {
  malloc_trim(0);
  return StatusField("VmRSS:");
}
uint64_t PeakRssBytes() { return StatusField("VmHWM:"); }

void LayerMetrics(TraceSnapshot* session_trace, TraceSnapshot* storage_trace,
                  const storage::StorageStats& before,
                  const storage::StorageStats& after, double events, bool lsm,
                  const PutMetric& put) {
  auto p50_us = [](TraceSnapshot* t, Layer layer, uint16_t op) {
    std::vector<uint32_t>& s = t->ops[static_cast<int>(layer)][op].samples_ns;
    return static_cast<double>(Percentile(&s, 0.5)) / 1000.0;
  };
  auto delta = [](uint64_t b, uint64_t a) { return static_cast<double>(b - a); };
  const storage::StorageStats& a = before;
  const storage::StorageStats& b = after;
  const TraceSnapshot& t = *storage_trace;

  for (auto [op, name] :
       std::initializer_list<std::pair<SessionOp, const char*>>{
           {kRecordStep, "record_step"}, {kCreateMaterial, "create_material"},
           {kAddToSet, "add_to_set"}, {kCommit, "commit"},
           {kMostRecent, "most_recent"}, {kGetMaterial, "get_material"},
           {kFindMaterialByName, "find_material_by_name"},
           {kCountInState, "count_in_state"}, {kSetMembers, "set_members"},
           {kHistory, "history"}, {kMaterialsInState, "materials_in_state"}}) {
    put(std::string("labbase.") + name + "_us", "us",
        p50_us(session_trace, Layer::kLabbase, op));
  }
  const int lb = static_cast<int>(Layer::kLabbase);
  put("labbase.busy_s", "s", session_trace->busy_ns[lb] / 1e9);
  put("labbase.self_s", "s", session_trace->self_ns[lb] / 1e9);

  const OpStats& rd = t.op(Layer::kStorage, kSmRead);
  const OpStats& al = t.op(Layer::kStorage, kSmAllocate);
  const OpStats& up = t.op(Layer::kStorage, kSmUpdate);
  put("storage.read_calls_per_event", "calls", Ratio(rd.calls, events));
  put("storage.allocate_calls_per_event", "calls", Ratio(al.calls, events));
  put("storage.update_calls_per_event", "calls", Ratio(up.calls, events));
  put("storage.read_us", "us", p50_us(storage_trace, Layer::kStorage, kSmRead));
  put("storage.allocate_us", "us",
      p50_us(storage_trace, Layer::kStorage, kSmAllocate));
  put("storage.update_us", "us",
      p50_us(storage_trace, Layer::kStorage, kSmUpdate));
  put("storage.self_s", "s",
      t.self_ns[static_cast<int>(Layer::kStorage)] / 1e9);
  const double hits = delta(b.cache_hits, a.cache_hits);
  const double misses = delta(b.disk_reads, a.disk_reads);
  put("storage.pool_hit_ratio", "ratio", Ratio(hits, hits + misses));
  put("storage.pool_misses_per_event", "misses", Ratio(misses, events));
  put("storage.evictions", "count", delta(b.evictions, a.evictions));
  put("storage.pool_misses_per_allocate", "misses",
      Ratio(static_cast<double>(al.file_reads), static_cast<double>(al.calls)));
  for (auto [fs, tag] : {std::pair<const FileStats*, const char*>{&t.fg, "fg"},
                         {&t.bg, "bg"}}) {
    const std::string sfx = std::string("_") + tag;
    put("storage.file_reads" + sfx, "count", static_cast<double>(fs->reads));
    put("storage.file_read_s" + sfx, "s", fs->read_ns / 1e9);
    put("storage.file_bytes_written_per_event" + sfx, "bytes",
        Ratio(static_cast<double>(fs->write_bytes), events));
    put("storage.file_write_s" + sfx, "s", fs->write_ns / 1e9);
    put("storage.file_syncs" + sfx, "count", static_cast<double>(fs->syncs));
    put("storage.file_sync_s" + sfx, "s", fs->sync_ns / 1e9);
  }

  put("ostore.wal_bytes_per_event", "bytes",
      Ratio(static_cast<double>(t.wal_bytes_written), events));
  put("ostore.wal_frames_per_write", "frames",
      Ratio(delta(b.wal_frames, a.wal_frames),
            delta(b.wal_group_writes, a.wal_group_writes)));
  put("ostore.lock_waits", "count", delta(b.lock_waits, a.lock_waits));
  put("ostore.deadlocks", "count", delta(b.deadlocks, a.deadlocks));

  put("lsm.bloom_useful_ratio", "ratio",
      Ratio(delta(b.lsm_bloom_hits, a.lsm_bloom_hits),
            delta(b.lsm_bloom_checks, a.lsm_bloom_checks)));
  put("lsm.block_cache_hit_ratio", "ratio",
      lsm ? Ratio(hits, hits + misses) : 0);
  uint64_t files = 0;
  for (uint64_t n : b.lsm_level_files) files += n;
  put("lsm.level_files", "count", static_cast<double>(files));
  put("lsm.compaction_bytes_read", "bytes",
      delta(b.lsm_compaction_bytes_read, a.lsm_compaction_bytes_read));
  put("lsm.compaction_bytes_written", "bytes",
      delta(b.lsm_compaction_bytes_written, a.lsm_compaction_bytes_written));
  put("lsm.write_amp", "ratio",
      lsm ? Ratio(static_cast<double>(t.all_bytes_written),
                  static_cast<double>(t.wal_bytes_written))
          : 0);
  put("lsm.background_io_s", "s",
      lsm ? (t.bg.read_ns + t.bg.write_ns + t.bg.sync_ns) / 1e9 : 0);
  put("lsm.write_throttles", "count",
      delta(b.lsm_write_throttles, a.lsm_write_throttles));
}

int64_t ContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

}  // namespace labflow::lfbench
