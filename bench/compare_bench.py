#!/usr/bin/env python3
"""Compare BENCH_*.json records against a checked-in baseline.

Usage:
    compare_bench.py --baseline bench/baseline.json BENCH_*.json
    compare_bench.py --baseline bench/baseline.json --threshold 0.25 DIR
    compare_bench.py --baseline ... \
        --floor net_throughput/partition_summary/scaling_4x=2.5 DIR

Each BENCH_<name>.json (written by bench::BenchReport, see
bench/bench_util.h) holds per-op records with time metrics (us_per_op,
p50_us, p90_us, p95_us, p99_us, max_us — regressions go UP) and derived
counters (appends_per_sec, mean_batch, ... — regressions go DOWN). A
counter the run's op lists under "lower_is_better" (restart_passes,
index_bytes_per_block, ...) regresses when it goes UP instead.

The baseline file maps bench name -> the same "ops" shape. Only ops
present in BOTH the baseline and the run are compared; anything else is
reported but never fails the job, so a fast-mode CI run can be compared
against a fast-mode baseline while full local runs carry extra cells.

--floor BENCH/op/counter=value asserts an ABSOLUTE minimum on a run
counter, independent of the baseline — for acceptance-style gates (e.g.
the partition scaling factor) that must hold outright, not merely avoid
regressing. A floor whose bench/op/counter is absent from the run fails
(a silently vanished gate is itself a regression).

--ceiling BENCH/op/metric=value is the mirror image: an ABSOLUTE
maximum. `metric` may be a time key (p50_us, p99_us, us_per_op, ...) or
a counter — latency gates ("soak p99 must stay under 10ms outright") and
ratio gates ("idle connections may tax hot p99 by at most 1.5x") both
use it. Like floors, a ceiling whose metric is missing from the run
fails.

Exit status: 0 when no metric regressed past the threshold, 1 otherwise.
To refresh the baseline after an intentional perf change, run the benches
with CLIO_BENCH_FAST=1 and rebuild baseline.json with --emit-baseline
(see README "Benchmark pipeline").
"""

import argparse
import glob
import json
import os
import sys

# Per-op keys compared against the baseline. Time metrics regress when
# they increase; counters regress when they decrease, unless the run lists
# them as lower-is-better.
TIME_KEYS = ("us_per_op", "p50_us", "p90_us", "p99_us", "p999_us")
# Metrics below this many microseconds are pure noise at CI resolution
# (e.g. the ~5 ns timestamp cost) and are skipped.
MIN_COMPARABLE_US = 1.0
# Counters smaller than this are skipped for the same reason.
MIN_COMPARABLE_COUNTER = 1.0


def load_run_files(paths):
    """Expand files/dirs/globs into {bench_name: record} from BENCH_*.json."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "BENCH_*.json"))))
        else:
            files.append(path)
    if not files:
        sys.exit("compare_bench: no BENCH_*.json inputs found")
    runs = {}
    for path in files:
        with open(path) as f:
            record = json.load(f)
        name = record.get("bench")
        if not name or "ops" not in record:
            sys.exit(f"compare_bench: {path} is not a BenchReport record")
        runs[name] = record
    return runs


def compare_op(bench, op, base_op, run_op, threshold, failures, notes):
    for key in TIME_KEYS:
        # A key the baseline has never seen (e.g. a metric added after the
        # baseline was frozen) is warned about and skipped, never failed —
        # refresh the baseline with --emit-baseline to start gating it.
        if key in run_op and key not in base_op:
            notes.append(f"{bench}/{op} {key}: not in baseline (skipped)")
            continue
        base = float(base_op.get(key, 0.0))
        new = float(run_op.get(key, 0.0))
        if base < MIN_COMPARABLE_US or new <= 0.0:
            continue
        ratio = new / base
        line = (f"{bench}/{op} {key}: baseline {base:.2f}us "
                f"-> {new:.2f}us ({ratio:.2f}x baseline)")
        if ratio > 1.0 + threshold:
            failures.append(line)
        else:
            notes.append(line)
    base_counters = base_op.get("counters", {})
    run_counters = run_op.get("counters", {})
    lower_is_better = set(run_op.get("lower_is_better", ()))
    for key in sorted(set(run_counters) - set(base_counters)):
        notes.append(f"{bench}/{op} {key}: not in baseline (skipped)")
    for key in sorted(set(base_counters) & set(run_counters)):
        base = float(base_counters[key])
        new = float(run_counters[key])
        if base < MIN_COMPARABLE_COUNTER:
            continue
        ratio = new / base
        line = (f"{bench}/{op} {key}: baseline {base:.1f} "
                f"-> {new:.1f} ({ratio:.2f}x baseline)")
        if key in lower_is_better:
            regressed = ratio > 1.0 + threshold
        else:
            regressed = ratio < 1.0 - threshold
        if regressed:
            failures.append(line)
        else:
            notes.append(line)


def parse_bound(spec, flag):
    """'BENCH/op/metric=value' -> (bench, op, metric, float(value))."""
    try:
        path, value = spec.split("=", 1)
        bench, op, metric = path.split("/")
        return bench, op, metric, float(value)
    except ValueError:
        sys.exit(f"compare_bench: bad {flag} spec {spec!r} "
                 "(want BENCH/op/metric=value)")


def lookup_metric(runs, bench, op, metric):
    """Run value for a bound's metric: op-level time key, else counter."""
    op_record = runs.get(bench, {}).get("ops", {}).get(op, {})
    if metric in op_record:
        return op_record[metric]
    return op_record.get("counters", {}).get(metric)


def check_floors(runs, floors, failures, notes):
    for bench, op, metric, minimum in floors:
        value = lookup_metric(runs, bench, op, metric)
        if value is None:
            failures.append(f"{bench}/{op} {metric}: floor {minimum:g} "
                            "but metric missing from run")
            continue
        value = float(value)
        line = f"{bench}/{op} {metric}: {value:.3f} (floor {minimum:g})"
        if value < minimum:
            failures.append(line)
        else:
            notes.append(line)


def check_ceilings(runs, ceilings, failures, notes):
    for bench, op, metric, maximum in ceilings:
        value = lookup_metric(runs, bench, op, metric)
        if value is None:
            failures.append(f"{bench}/{op} {metric}: ceiling {maximum:g} "
                            "but metric missing from run")
            continue
        value = float(value)
        line = f"{bench}/{op} {metric}: {value:.3f} (ceiling {maximum:g})"
        if value > maximum:
            failures.append(line)
        else:
            notes.append(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="path to bench/baseline.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="BENCH/op/metric=value",
                        help="absolute minimum for a run metric "
                             "(repeatable); fails if below or missing")
    parser.add_argument("--ceiling", action="append", default=[],
                        metavar="BENCH/op/metric=value",
                        help="absolute maximum for a run metric "
                             "(repeatable); fails if above or missing")
    parser.add_argument("--emit-baseline", metavar="OUT",
                        help="write the run's records as a new baseline "
                             "instead of comparing")
    parser.add_argument("inputs", nargs="+",
                        help="BENCH_*.json files or a directory of them")
    args = parser.parse_args()

    runs = load_run_files(args.inputs)

    if args.emit_baseline:
        baseline = {name: {"ops": record["ops"]}
                    for name, record in sorted(runs.items())}
        with open(args.emit_baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"compare_bench: wrote baseline {args.emit_baseline} "
              f"({len(baseline)} benches)")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)

    failures, notes = [], []
    for bench, record in sorted(runs.items()):
        base_bench = baseline.get(bench)
        if base_bench is None:
            notes.append(f"{bench}: not in baseline (skipped)")
            continue
        base_ops = base_bench.get("ops", {})
        run_ops = record.get("ops", {})
        for op in sorted(run_ops):
            if op not in base_ops:
                notes.append(f"{bench}/{op}: not in baseline (skipped)")
                continue
            compare_op(bench, op, base_ops[op], run_ops[op],
                       args.threshold, failures, notes)
        for op in sorted(set(base_ops) - set(run_ops)):
            notes.append(f"{bench}/{op}: in baseline but not in run (skipped)")

    check_floors(runs, [parse_bound(s, "--floor") for s in args.floor],
                 failures, notes)
    check_ceilings(runs, [parse_bound(s, "--ceiling") for s in args.ceiling],
                   failures, notes)

    for line in notes:
        print(f"  ok   {line}")
    for line in failures:
        print(f"  FAIL {line}", file=sys.stderr)
    if failures:
        print(f"compare_bench: {len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"compare_bench: no regressions beyond {args.threshold:.0%} "
          f"({len(notes)} comparisons/skips)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
