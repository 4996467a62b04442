#!/usr/bin/env bash
# Tier-1 check, in six named phases:
#
#   fast  — normal build + every test not labelled `slow`, including
#           wire_golden_test (the exact bytes of every wire op)
#   slow  — the exhaustive sweeps (fault-injection truncation sweep,
#           recovery property seeds), same build
#   fault — storage fault-tolerance suite with a widened seed sweep
#           (LABFLOW_FAULT_SEEDS=48), same build
#   tsan  — ThreadSanitizer build, concurrency-focused tests, including
#           the MVCC snapshot-isolation checker with a widened seed sweep
#           (LABFLOW_SNAPSHOT_SEEDS=8; default 4)
#   asan  — Address+UndefinedBehaviorSanitizer build, every fast test
#   lint  — scripts/lint.py project rules (findings written to
#           lint-findings.txt for CI artifacts), plus clang-tidy over the
#           compilation database when clang-tidy is installed
#   lock-order — Debug build (runtime lock-rank validator compiled in):
#           the deliberate-inversion death tests plus the concurrency,
#           network and LSM suites, which drive the real lock graph through
#           the validator. When clang++ is installed, also a full
#           -Werror=thread-safety(-beta) build of the capability
#           annotations (see common/lock_rank.h)
#   bench-smoke — one short deterministic bench run, twice with different
#           buffer pool sizes (and therefore shard counts): validates the
#           cross-version result checksum, that it is identical across pool
#           configurations, and that the --json output parses
#   server — end-to-end labflowd: start the daemon on loopback (ephemeral
#           port), run the network bench against it remotely and once
#           in-process, assert the result checksums are identical (the wire
#           changes no answers), then SIGTERM the daemon and require a
#           graceful drain (exit 0)
#
# Usage: scripts/check.sh [jobs]           (all phases)
#        scripts/check.sh <phase> [jobs]   (one of the names above)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

only=""
if [[ $# -ge 1 && "$1" =~ ^(fast|slow|fault|tsan|asan|lint|lock-order|bench-smoke|server)$ ]]; then
  only="$1"
  shift
fi
jobs="${1:-$(nproc)}"

declare -A phase_result

run_phase() {
  local name="$1"
  shift
  echo
  echo "== phase: $name =="
  if "$@"; then
    phase_result[$name]="ok"
  else
    phase_result[$name]="FAIL"
    return 1
  fi
}

fast() {
  cmake -B "$root/build" -S "$root" >/dev/null
  cmake --build "$root/build" -j "$jobs"
  ctest --test-dir "$root/build" --output-on-failure -j "$jobs" -LE slow
}

slow() {
  ctest --test-dir "$root/build" --output-on-failure -j "$jobs" -L slow
}

fault() {
  # The fast phase already ran the default 16-seed sweep; here the WAL
  # fault sweep (paged heaps and the LSM history store) gets 48 seeds to
  # dig deeper into the fault space.
  if [[ ! -d "$root/build" ]]; then
    cmake -B "$root/build" -S "$root" >/dev/null
    cmake --build "$root/build" -j "$jobs" --target storage_fault_test \
      lsm_fault_test
  fi
  LABFLOW_FAULT_SEEDS=48 ctest --test-dir "$root/build" \
    --output-on-failure -j "$jobs" -R 'storage_fault_test|lsm_fault_test'
}

tsan() {
  cmake -B "$root/build-tsan" -S "$root" -DLABFLOW_SANITIZE=thread >/dev/null
  cmake --build "$root/build-tsan" -j "$jobs" --target \
    concurrency_test buffer_pool_concurrency_test ostore_test \
    storage_manager_test wal_fault_test storage_fault_test net_test \
    snapshot_isolation_test lsm_test
  # The snapshot checker's seed sweep widens here (default 4): its read
  # path is lock-free by design, which is exactly what TSan should watch.
  # lsm_test rides along for its compaction-under-load stress: committers
  # vs background flush/compaction vs lock-free version-snapshot readers.
  LABFLOW_SNAPSHOT_SEEDS=8 \
    ctest --test-dir "$root/build-tsan" --output-on-failure -j "$jobs" \
    -R 'concurrency_test|buffer_pool_concurrency_test|ostore_test|storage_manager_test|wal_fault_test|storage_fault_test|net_test|snapshot_isolation_test|lsm_test'
}

asan() {
  cmake -B "$root/build-asan" -S "$root" \
    -DLABFLOW_SANITIZE=address,undefined >/dev/null
  cmake --build "$root/build-asan" -j "$jobs"
  ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs" -LE slow
}

bench-smoke() {
  cmake -B "$root/build" -S "$root" >/dev/null
  cmake --build "$root/build" -j "$jobs" --target bench_table2_main
  local out
  out="$(mktemp -d)"
  # Same workload against a small and a large pool: different shard counts,
  # different eviction pressure, same answers. bench_table2_main itself
  # gates on cross-version checksum consistency (exit 1 on mismatch).
  "$root/build/bench/bench_table2_main" --clones=40 --intvl=0.5 \
    --pool=512 --json="$out/small.json" >/dev/null
  "$root/build/bench/bench_table2_main" --clones=40 --intvl=0.5 \
    --pool=4096 --json="$out/large.json" >/dev/null
  python3 - "$out/small.json" "$out/large.json" <<'EOF'
import json, sys
runs = [json.load(open(p)) for p in sys.argv[1:]]
sums = [{r["result_checksum"] for r in run["rows"]} for run in runs]
for s, run in zip(sums, runs):
    assert len(run["rows"]) > 0, "bench produced no rows"
    assert len(s) == 1, f"checksum varies across versions: {s}"
assert sums[0] == sums[1], f"checksum varies with pool size: {sums}"
print(f"bench-smoke: checksum {sums[0].pop()} consistent across "
      f"versions and pool sizes; JSON ok")
EOF
  rm -rf "$out"
}

server() {
  cmake -B "$root/build" -S "$root" >/dev/null
  cmake --build "$root/build" -j "$jobs" --target labflowd bench_fig_server
  local out
  out="$(mktemp -d)"
  # Start labflowd on a durable (OStore) database, ephemeral port; the port
  # file doubles as the readiness signal.
  "$root/build/src/net/labflowd" --db="$out/server.db" --port=0 \
    --port_file="$out/port" >"$out/labflowd.log" 2>&1 &
  local srv_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    if [[ -s "$out/port" ]]; then port="$(cat "$out/port")" && break; fi
    if ! kill -0 "$srv_pid" 2>/dev/null; then
      echo "labflowd died during startup:" >&2
      cat "$out/labflowd.log" >&2
      rm -rf "$out"
      return 1
    fi
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "labflowd never published its port" >&2
    kill "$srv_pid" 2>/dev/null || true
    rm -rf "$out"
    return 1
  fi
  # Same workload twice: remotely against the disk-backed daemon, then
  # in-process on a main-memory store (which also runs its internal
  # remote-vs-local parity gate). The folds are backend-neutral, so every
  # checksum must agree across the two runs.
  local bench_flags=(--queries=400 --materials=64 --open_reqs=1500)
  local rc=0
  "$root/build/bench/bench_fig_server" "${bench_flags[@]}" \
    --connect="127.0.0.1:$port" --json="$out/remote.json" || rc=1
  "$root/build/bench/bench_fig_server" "${bench_flags[@]}" \
    --json="$out/local.json" || rc=1
  if [[ $rc -eq 0 ]]; then
    python3 - "$out/remote.json" "$out/local.json" <<'EOF' || rc=1
import json, sys
remote, local = [json.load(open(p)) for p in sys.argv[1:]]
def sums(run, regime, key):
    return {r[key]: r["checksum"] for r in run["rows"] if r["regime"] == regime}
for regime, key in [("closed_remote", "clients"), ("open_remote", "load_fraction")]:
    a, b = sums(remote, regime, key), sums(local, regime, key)
    assert a and a == b, f"{regime} checksums diverge: daemon={a} in-process={b}"
print("server: remote labflowd checksum-identical to in-process; JSON ok")
EOF
  fi
  # Graceful drain: SIGTERM must produce a clean exit.
  kill -TERM "$srv_pid"
  if ! wait "$srv_pid"; then
    echo "labflowd did not shut down cleanly:" >&2
    cat "$out/labflowd.log" >&2
    rc=1
  fi
  rm -rf "$out"
  return $rc
}

lock-order() {
  # Debug defines LABFLOW_LOCK_RANK_CHECKS (see CMakeLists.txt), so the
  # runtime rank validator is live: lock_rank_test proves an inversion
  # aborts with both acquisition stacks, and the concurrency/network suites
  # drive the real lock graph through the validator — any rank inversion in
  # the tree is a test failure here before it is a deadlock anywhere.
  cmake -B "$root/build-lockorder" -S "$root" \
    -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build "$root/build-lockorder" -j "$jobs" --target \
    lock_rank_test concurrency_test buffer_pool_concurrency_test \
    snapshot_isolation_test net_test lsm_test
  # lsm_test drives the four LSM ranks (commit -> WAL hand-off, background
  # flush/compaction, the cache leaves) under the validator.
  ctest --test-dir "$root/build-lockorder" --output-on-failure -j "$jobs" \
    -R 'lock_rank_test|concurrency_test|buffer_pool_concurrency_test|snapshot_isolation_test|net_test|lsm_test'
  # The static half: Clang's -Werror=thread-safety(-beta) pass over the
  # capability and acquired_before/after annotations. GCC ignores them, so
  # this only runs where clang++ exists (CI's lock-order job installs it).
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B "$root/build-clang" -S "$root" \
      -DCMAKE_CXX_COMPILER=clang++ >/dev/null
    cmake --build "$root/build-clang" -j "$jobs"
  else
    echo "clang++ not installed; skipped the thread-safety analysis build"
  fi
}

lint() {
  python3 "$root/scripts/lint.py" --output="$root/lint-findings.txt"
  python3 "$root/scripts/lint.py" --self-test
  if command -v clang-tidy >/dev/null 2>&1; then
    # The fast phase (or any configure of build/) exports the database.
    if [[ ! -f "$root/build/compile_commands.json" ]]; then
      cmake -B "$root/build" -S "$root" >/dev/null
    fi
    find "$root/src" -name '*.cc' -print0 |
      xargs -0 clang-tidy -p "$root/build" --quiet
  else
    echo "clang-tidy not installed; ran scripts/lint.py only"
  fi
}

phases=(fast slow fault tsan asan lint lock-order bench-smoke server)
if [[ -n "$only" ]]; then
  phases=("$only")
fi

status=0
for phase in "${phases[@]}"; do
  if [[ ("$phase" == slow || "$phase" == fault) &&
        "${phase_result[fast]:-}" == "FAIL" ]]; then
    phase_result[$phase]="skipped"
    continue
  fi
  run_phase "$phase" "$phase" || status=1
done

echo
summary="check.sh summary:"
for phase in "${phases[@]}"; do
  summary+=" $phase=${phase_result[$phase]:-FAIL}"
done
echo "$summary"
exit $status
