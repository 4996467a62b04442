// lfbench: runs one LabFlow-1 benchmark workload and prints every metric it
// measured as one JSON object on the last line of standard output.
//
//   lfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Workloads: stream-ostore, stream-lsm, load-texastc (stream.cc) and
// remote-oltp (remote.cc). With --trace 0 it reports the end-to-end
// metrics of untraced runs; with --trace 1 the per-layer metrics of traced
// runs. Databases and span files go under --out.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "workloads.h"

namespace labflow::lfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Print(const RunResult& r) {
  for (const Metrics::Row& row : r.metrics.rows()) {
    std::printf("%-44s %16.6g %-8s", row.name.c_str(), row.value,
                row.unit.c_str());
    if (row.samples >= 0) std::printf("  (n=%lld)", static_cast<long long>(row.samples));
    std::printf("\n");
  }
  for (const std::string& e : r.errors) std::printf("check failed: %s\n", e.c_str());
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Row& row : r.metrics.rows()) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(row.value) ? row.value : 0.0);
    json += std::string(first ? "" : ", ") + JsonString(row.name) +
            ": {\"value\": " + num + ", \"unit\": " + JsonString(row.unit) +
            ", \"samples\": " + std::to_string(row.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunArgs args;
  args.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  mkdir(args.out_dir.c_str(), 0755);
  RunResult result;
  Status st = args.workload == "remote-oltp" ? RunRemoteOltp(args, &result)
                                             : RunStreamWorkload(args, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "lfbench %s: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  Print(result);
  return 0;
}

}  // namespace
}  // namespace labflow::lfbench

int main(int argc, char** argv) { return labflow::lfbench::Main(argc, argv); }
