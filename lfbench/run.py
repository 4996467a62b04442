#!/usr/bin/env python3
"""LabFlow-1 benchmark: build, run one workload, print its metrics.

Run from the repository root:

  python3 lfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the program's libraries and the lfbench binary from source (into
$CARGO_TARGET_DIR/lfbench, default .bench_build/lfbench), runs the workload
once and prints the metrics BENCHMARK.json lists, as a JSON object on the
last line of standard output. With --trace 0 these are the end-to-end
metrics, with --trace 1 the per-layer ones.

  python3 lfbench/run.py --repeat 10 --workload <name> [--seconds s]
                         [--trace 0|1] [--seed n]

runs the workload once per seed (seed, seed + 1, ...) and
prints, for every metric, the median, the quartiles and the spread
(interquartile range over the median) next to the metric's bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the lfbench binary; returns its path or None."""
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "CMakeLists.txt")):
        log("lfbench: the program's sources (src/) are missing")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "lfbench")
    cmds = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "-j4"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("lfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "lfbench")


def load_spec():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs the lfbench binary once; returns (result dict, report lines) or None."""
    out_dir = os.path.abspath(os.path.join(
        ".bench_out", "%s-%d-%d" % (workload, seed, os.getpid())))
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("lfbench: %s timed out" % workload)
        return None
    finally:
        spans = [f for f in os.listdir(out_dir) if f.startswith("spans-")]
        for f in spans:
            shutil.copy(os.path.join(out_dir, f),
                        os.path.join(".bench_out", f))
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("lfbench: %s exited with %d" % (workload, proc.returncode))
        return None
    measured = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured["metrics"].get(m["name"])
        if got is None:
            if not trace:
                log("lfbench: %s did not report %s" % (workload, m["name"]))
                return None
            # A layer the workload does not run reads zero.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("lfbench: %s: unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": measured["correct"],
              "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    return result, lines[:-1]


def repeat(binary, spec, args):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    shares = set()
    for i in range(args.repeat):
        seed = args.seed + i
        got = run_once(binary, spec, args.workload, seed, args.seconds,
                       args.trace)
        if got is None:
            return 1
        result, report = got
        for line in report:
            if line.startswith("check failed"):
                log("seed %d: %s" % (seed, line))
        shares.add((result["failed"], result["attempted"]) if
                   result["failed"] else 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})))
    print("%-44s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "FAIL" if spread > bound else (
                "ok" if spread < bound / 3 else "wide")
        print("%-44s %14.6g %14.6g %14.6g %8.4f %6s %s" %
              (name, med, q1, q3, spread,
               "" if bound is None else bound, flag))
    print("failed shares: %s" % sorted(map(str, shares)))
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("lfbench: unknown workload %s" % args.workload)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.repeat:
        return repeat(binary, spec, args)
    got = run_once(binary, spec, args.workload, args.seed, args.seconds,
                   args.trace)
    if got is None:
        return 1
    result, report = got
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
