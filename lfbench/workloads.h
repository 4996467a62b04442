// The benchmark's workloads and the helpers they share.
#ifndef LFBENCH_WORKLOADS_H_
#define LFBENCH_WORKLOADS_H_

#include <sched.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/result.h"
#include "labbase/session_iface.h"
#include "labflow/server_version.h"
#include "storage/env.h"
#include "storage/storage_manager.h"
#include "trace.h"

namespace labflow::lfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for databases and span files (inside the checkout).
  std::string out_dir;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  /// First few mismatch descriptions, printed for diagnosis.
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (errors.size() < 10) errors.push_back(what);
  }
};

/// Opens a storage manager of `version` on `path` with `env` for its file
/// I/O (nullptr = the real filesystem). A buffer pool of `pool_pages`
/// pages, or an LSM block cache of the same bytes.
Result<std::unique_ptr<storage::StorageManager>> OpenStore(
    bench::ServerVersion version, const std::string& path, size_t pool_pages,
    storage::Env* env, bool truncate);

/// The path of the database kept in directory `dir`.
std::string StorePath(const std::string& dir);
/// Deletes directory `dir` and makes it again, empty. Called before a
/// timed set-up, so that every set-up creates its store from nothing and
/// none times the removal of the previous one.
Status ClearStore(const std::string& dir);

/// The CPUs the calling thread may run on (`all`), and the last of them
/// alone (`one`).
Status AllowedCpus(cpu_set_t* all, cpu_set_t* one);
/// Sets the CPUs that every thread of the process, and every thread it
/// starts from now on, may run on.
Status SetProcessCpus(const cpu_set_t& set);

/// Begin, body, Commit on `session`, re-running the body after a deadlock
/// abort (counted in `*retries`) like SessionIface::RunTransaction, but
/// with Begin and Commit as calls of their own so that they are timed.
Status RunTxn(labbase::SessionIface* session,
              const std::function<Status()>& body, int64_t* retries);

/// User plus system CPU of the process, in seconds.
double ProcessCpuSeconds();
/// CPU of the calling thread, in seconds.
double ThreadCpuSeconds();
/// Resident set size, in bytes (/proc/self/status), after returning freed
/// heap memory to the system, so that later growth is not hidden by reuse
/// of memory the input generator freed.
uint64_t BaselineRssBytes();
/// Peak resident set size so far, in bytes.
uint64_t PeakRssBytes();
/// Voluntary plus involuntary context switches of the process.
int64_t ContextSwitches();

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

using PutMetric = std::function<void(const std::string& name,
                                     const std::string& unit, double value)>;

/// The per-layer metrics every workload shares, for one traced phase of
/// `events` operations: labbase call latencies from `session_trace`;
/// storage, file, ostore and lsm figures from `storage_trace` and the
/// manager's counters `before` and `after` the phase (`lsm`: the manager is
/// LsmStore). Each metric goes to `put`.
void LayerMetrics(TraceSnapshot* session_trace, TraceSnapshot* storage_trace,
                  const storage::StorageStats& before,
                  const storage::StorageStats& after, double events, bool lsm,
                  const PutMetric& put);

Status RunStreamWorkload(const RunArgs& args, RunResult* out);
Status RunRemoteOltp(const RunArgs& args, RunResult* out);

}  // namespace labflow::lfbench

#endif  // LFBENCH_WORKLOADS_H_
