// Shared scaffolding for the paper-reproduction benches. Each bench binary
// regenerates one table or figure from the paper (see DESIGN.md §4) and
// prints it in the paper's row/series layout. Alongside the table, a bench
// can record its measurements into a BenchReport, which writes a
// machine-readable BENCH_<name>.json the CI regression comparator
// (bench/compare_bench.py) consumes — see README "Benchmark pipeline".
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/clio/log_service.h"
#include "src/device/memory_worm_device.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace clio {
namespace bench {

#define BENCH_CHECK_OK(expr)                                        \
  do {                                                              \
    auto _st = (expr);                                              \
    if (!_st.ok()) {                                                \
      std::fprintf(stderr, "BENCH FATAL at %s:%d: %s\n", __FILE__,  \
                   __LINE__, _st.ToString().c_str());               \
      std::abort();                                                 \
    }                                                               \
  } while (0)

inline double UsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct BenchService {
  std::unique_ptr<SimulatedClock> clock;
  std::unique_ptr<LogService> service;

  static BenchService Make(uint32_t block_size, uint64_t capacity_blocks,
                           uint16_t degree, size_t cache_blocks) {
    LogServiceOptions options;
    options.entrymap_degree = degree;
    options.cache_blocks = cache_blocks;
    return Make(block_size, capacity_blocks, options);
  }

  // Full-options variant for cells that toggle extent-index/checkpoint/
  // NVRAM behavior rather than just degree and cache size.
  static BenchService Make(uint32_t block_size, uint64_t capacity_blocks,
                           LogServiceOptions options) {
    BenchService b;
    b.clock = std::make_unique<SimulatedClock>(1'000'000, 11);
    MemoryWormOptions dev;
    dev.block_size = block_size;
    dev.capacity_blocks = capacity_blocks;
    options.sequence_id = 0xBE7C4;
    auto service = LogService::Create(
        std::make_unique<MemoryWormDevice>(dev), b.clock.get(), options);
    BENCH_CHECK_OK(service.status());
    b.service = std::move(service).value();
    b.service->set_volume_factory(
        [dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
          return std::unique_ptr<WormDevice>(
              std::make_unique<MemoryWormDevice>(dev));
        });
    return b;
  }
};

inline Bytes FillPayload(Rng* rng, size_t size) {
  Bytes out(size);
  for (auto& b : out) {
    b = static_cast<std::byte>('a' + rng->Below(26));
  }
  return out;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n  (reproduces %s)\n", title, paper_ref);
  std::printf("==========================================================\n");
}

// True when the bench should run a reduced workload suitable for a CI
// smoke job (fewer iterations / cells, same code paths). Set by the
// bench-smoke CI job; the regression comparator only compares ops present
// in both baseline and run, so fast-mode and full-mode records coexist.
inline bool FastMode() {
  const char* v = std::getenv("CLIO_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Exact percentile over raw per-op samples (sorts a copy; fine at bench
// sizes). Benches that keep raw latencies use this; benches that only
// have aggregate rates record those as derived counters instead.
inline double SamplePercentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = p * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// Accumulates one bench binary's measurements and writes them as
// BENCH_<name>.json for bench/compare_bench.py. Shape:
//
//   {"bench":"write_latency","fast":true,
//    "ops":{"<op>":{"n":2000,"us_per_op":12.4,
//                   "p50_us":11.0,"p90_us":17.5,"p95_us":19.2,
//                   "p99_us":30.1,"max_us":88.0,
//                   "counters":{"appends_per_sec":52000.0,"passes":4.0},
//                   "lower_is_better":["passes"]}}}
//
// Time metrics (us_per_op, p50/p90/p95/p99/max) regress when they go UP.
// "counters" holds derived values that regress when they go DOWN, except
// those the op lists in "lower_is_better" (pass counts, bytes per block),
// which regress when they go UP. An op without such counters has no
// "lower_is_better" key.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  // Record an op measured via raw per-op latency samples (microseconds).
  void AddSamples(const std::string& op, const std::vector<double>& us) {
    Op& o = ops_[op];
    o.n = us.size();
    double total = 0;
    for (double v : us) {
      total += v;
    }
    o.us_per_op = us.empty() ? 0.0 : total / static_cast<double>(us.size());
    o.p50_us = SamplePercentile(us, 0.50);
    o.p90_us = SamplePercentile(us, 0.90);
    o.p95_us = SamplePercentile(us, 0.95);
    o.p99_us = SamplePercentile(us, 0.99);
    o.p999_us = SamplePercentile(us, 0.999);
    o.max_us = us.empty() ? 0.0 : *std::max_element(us.begin(), us.end());
  }

  // Record an op where only the mean latency is known.
  void AddMean(const std::string& op, size_t n, double us_per_op) {
    Op& o = ops_[op];
    o.n = n;
    o.us_per_op = us_per_op;
  }

  // Attach percentiles the bench computed itself (it kept aggregate
  // latencies rather than raw samples). p999_us is optional: when the
  // bench did not measure that deep a tail (0), p99 stands in as the
  // conservative lower bound.
  void AddPercentiles(const std::string& op, double p50_us, double p99_us,
                      double p999_us = 0.0) {
    Op& o = ops_[op];
    o.p50_us = p50_us;
    o.p90_us = std::max(o.p90_us, p50_us);
    o.p95_us = std::max(o.p95_us, p50_us);
    o.p99_us = p99_us;
    o.p999_us = std::max(p999_us, p99_us);
    o.max_us = std::max(o.max_us, std::max(p99_us, p999_us));
  }

  // Which way a derived counter improves.
  enum class Better { kHigher, kLower };

  // Attach a derived counter (throughput, batch size, pass count, ...) to
  // an op. The comparator flags a higher-is-better counter that falls and
  // a lower-is-better one that rises.
  void AddCounter(const std::string& op, const std::string& key,
                  double value, Better better = Better::kHigher) {
    Op& o = ops_[op];
    o.counters[key] = value;
    if (better == Better::kLower) {
      o.lower_is_better.insert(key);
    }
  }

  // Writes BENCH_<name>.json into $CLIO_BENCH_JSON_DIR (or the cwd) and
  // reports the path on stdout. Returns false (after printing to stderr)
  // if the file cannot be written — benches treat that as fatal in CI.
  bool Write() const {
    std::string dir = ".";
    if (const char* env = std::getenv("CLIO_BENCH_JSON_DIR")) {
      if (env[0] != '\0') {
        dir = env;
      }
    }
    std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BENCH: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"fast\":%s,\"ops\":{",
                 bench_name_.c_str(), FastMode() ? "true" : "false");
    bool first_op = true;
    for (const auto& [name, op] : ops_) {
      if (!first_op) {
        std::fprintf(f, ",");
      }
      first_op = false;
      std::fprintf(f,
                   "\"%s\":{\"n\":%zu,\"us_per_op\":%.3f,\"p50_us\":%.3f,"
                   "\"p90_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f,"
                   "\"p999_us\":%.3f,\"max_us\":%.3f,\"counters\":{",
                   name.c_str(), op.n, op.us_per_op, op.p50_us, op.p90_us,
                   op.p95_us, op.p99_us, op.p999_us, op.max_us);
      bool first_counter = true;
      for (const auto& [key, value] : op.counters) {
        if (!first_counter) {
          std::fprintf(f, ",");
        }
        first_counter = false;
        std::fprintf(f, "\"%s\":%.3f", key.c_str(), value);
      }
      std::fprintf(f, "}");
      if (!op.lower_is_better.empty()) {
        std::fprintf(f, ",\"lower_is_better\":[");
        bool first_key = true;
        for (const std::string& key : op.lower_is_better) {
          std::fprintf(f, "%s\"%s\"", first_key ? "" : ",", key.c_str());
          first_key = false;
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::printf("\nBENCH JSON: %s\n", path.c_str());
    return true;
  }

 private:
  struct Op {
    size_t n = 0;
    double us_per_op = 0.0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    double max_us = 0.0;
    std::map<std::string, double> counters;
    std::set<std::string> lower_is_better;
  };

  std::string bench_name_;
  std::map<std::string, Op> ops_;
};

}  // namespace bench
}  // namespace clio

#endif  // BENCH_BENCH_UTIL_H_
