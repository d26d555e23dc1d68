#!/usr/bin/env python3
"""Builds the Clio benchmark from source and runs it. See README.md.

One measured run (as BENCHMARK.json's "command" runs it):
  python3 perfbench/run.py --workload commit --seed 1 --seconds 10 --trace 0
Every workload, untraced then traced, with all metrics printed:
  python3 perfbench/run.py --all [--seed N] [--seconds S]
A few-second tiny run of everything that checks names, units and checks:
  python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR, else
.bench_build/, next to perfbench/. The last stdout line of a measured run is
one JSON object: correct, attempted, failed, and the metrics BENCHMARK.json
names (end_to_end with --trace 0, per_layer with --trace 1). Exit status is
0 only when the run finished and every output and bypass check held.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Every workload and every metric it defines, with its unit. The self-test
# and --all run all of them; BENCHMARK.json gates a subset (README.md). Layer metrics are printed on every
# workload (0 where the layer is idle).
END_TO_END = {
    "commit": {"setup_s": "s", "commit_mean_us": "us",
               "commit_p50_us": "us", "commit_p95_us": "us",
               "commit_p99_us": "us",
               "commit_samples": "count", "commits_per_s": "1/s",
               "recover_ms": "ms", "recover_call_ms": "ms", "bytes_per_user_byte": "ratio",
               "error_rate": "ratio", "rss_mb": "MiB"},
    "scan": {"setup_s": "s", "query_mean_us": "us",
             "query_p50_us": "us", "query_p95_us": "us",
             "query_p99_us": "us",
             "query_samples": "count", "read_entries_per_s": "1/s",
             "recover_ms": "ms", "recover_call_ms": "ms", "error_rate": "ratio", "rss_mb": "MiB"},
    "mixed": {"setup_s": "s", "commit_mean_us": "us",
              "commit_p50_us": "us", "commit_p95_us": "us",
              "commit_p99_us": "us",
              "commit_samples": "count", "commits_per_s": "1/s",
              "read_entries_per_s": "1/s", "recover_ms": "ms", "recover_call_ms": "ms",
              "bytes_per_user_byte": "ratio", "error_rate": "ratio",
              "rss_mb": "MiB"},
}
LAYER = {
    **{f"net.client_call_us_p50.{op}": "us"
       for op in ("append", "open", "seek", "read_batch", "close")},
    "net.client_retries": "count", "net.batch_entries_mean": "count",
    "net.batch_dwell_us_p50": "us", "net.batch_dwell_us_p99": "us",
    "net.batch_commit_us_p50": "us", "net.batch_commit_us_p99": "us",
    "net.queue_us_p50": "us", "net.queue_us_p99": "us",
    "net.handle_us_p50": "us", "net.handle_us_p99": "us",
    "net.flush_us_p50": "us", "net.wakeups_per_frame": "ratio",
    "net.zerocopy_frac": "ratio", "net.bytes_out_per_entry": "B",
    "clio.force_us_p50": "us", "clio.force_us_p99": "us",
    "clio.forces_per_commit": "ratio", "clio.append_us_p50": "us",
    "clio.blocks_burned_per_commit": "ratio",
    "clio.entrymap_nodes_per_kblock": "ratio",
    "index.hit_ratio": "ratio", "index.checkpoints_restored": "count",
    "index.rebuilds": "count", "index.rebuild_readahead_blocks": "count",
    "cache.hit_ratio": "ratio", "cache.evictions_per_query": "ratio",
    "cache.readahead_blocks_per_query": "ratio",
    "device.burn_us_p50": "us", "device.burns_per_commit": "ratio",
    "device.read_passes_per_query": "ratio",
    "device.blocks_read_per_entry": "ratio", "device.busy_frac": "ratio",
    "device.overshoot_us_p99": "us",
    "scrub.blocks_scanned_per_s": "1/s", "scrub.passes": "count",
    "obs.telemetry_samples": "count",
    "obs.telemetry_append_failures": "count",
    "loadgen.late_us_p99": "us", "loadgen.offered_per_s": "1/s",
    "host.steal_frac": "ratio",
}
LEDGER_OPS = {"commit": ["append"], "scan": ["query"],
              "mixed": ["append", "read_batch"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "clio_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "clio_perfbench")


def source_rev():
    """The git revision when there is one, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def run_binary(binary, workload, seed, seconds, trace, tiny=False,
               echo=True):
    """Runs one workload; returns (exit code, result dict or None, stamp)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--source-rev", source_rev()]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 2, None, {}
    lines = done.stdout.rstrip("\n").split("\n")
    stamp = next((json.loads(line[len("stamp "):]) for line in lines
                  if line.startswith("stamp ")), {})
    if echo:
        for line in lines[:-1]:
            print(line)
    if done.stderr:
        log(done.stderr.rstrip())
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no result line (exit {done.returncode})")
        return 2, None, stamp
    return done.returncode, result, stamp


def measured_run(args):
    spec = load_benchmark_json()
    names = [m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]]
    code, result, _ = run_binary(build(), args.workload, args.seed,
                                 args.seconds, args.trace)
    if result is None:
        return 2
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"metrics missing from the run: {missing}")
        return 2
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def run_all(args):
    binary = build()
    ok = True
    for workload in END_TO_END:
        for trace in (False, True):
            print(f"== {workload} trace={int(trace)}")
            code, result, _ = run_binary(binary, workload, args.seed,
                                         args.seconds, trace)
            ok &= code == 0 and result is not None and result["correct"]
    print("all checks held" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def self_test(_args):
    binary = build()
    spec = load_benchmark_json()
    problems = []
    for workload in END_TO_END:
        for trace in (False, True):
            code, result, _ = run_binary(binary, workload, 1, 1, trace,
                                         tiny=True, echo=False)
            where = f"{workload} trace={int(trace)}"
            if result is None or code != 0 or not result["correct"]:
                problems.append(f"{where}: run failed or a check did not hold")
                continue
            metrics = result["metrics"]
            want = dict(END_TO_END[workload])
            if trace:
                want.update(LAYER)
                want["trace.spans_dropped"] = "count"
                for op in LEDGER_OPS[workload]:
                    for key in ("residual_frac", "overhead_frac"):
                        want[f"trace.{op}.{key}"] = "ratio"
                    for stage in ("dispatch", "reply_write"):
                        want[f"trace.{op}.{stage}.self_us_mean"] = "us"
                        want[f"trace.{op}.{stage}.self_us_p99"] = "us"
                    if metrics.get(f"trace.{op}.ops_traced",
                                   {}).get("value", 0) < 1:
                        problems.append(f"{where}: no traced {op} ops")
            section = "per_layer" if trace else "end_to_end"
            for m in spec[section]:
                want[m["name"]] = m["unit"]
            for name, unit in want.items():
                got = metrics.get(name)
                if got is None:
                    problems.append(f"{where}: {name} not emitted")
                elif got["unit"] != unit:
                    problems.append(f"{where}: {name} in {got['unit']}, "
                                    f"expected {unit}")
    for problem in problems:
        print("self-test FAILED:", problem)
    print("self-test passed" if not problems else
          f"self-test: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        return self_test(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload, --all or --self-test is required")
    return measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
