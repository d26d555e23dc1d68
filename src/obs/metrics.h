// Process-wide observability: counters, gauges, and latency histograms.
//
// The ROADMAP's north star is a service that is "as fast as the hardware
// allows"; this subsystem is how we know. Every hot path (device burns,
// volume appends and forces, cache lookups, group-commit batches, wire
// requests) records into a MetricsRegistry, and the registry can be read
// three ways:
//
//  - in process, via Snapshot() / individual metric accessors;
//  - over the wire, via the kStats op (src/ipc/codec.*) whose reply body
//    is the versioned encoding produced by EncodeStatsSnapshot();
//  - as text, via StatsSnapshot::ToJson() — the same shape the bench
//    pipeline's BENCH_*.json records embed.
//
// Cost model: a counter increment is one relaxed atomic add; a histogram
// record is two relaxed adds plus a short CAS loop for the max. Stages
// are timed by StageTimer (src/obs/trace.h), which reads the clock once
// at each end. Metric pointers are resolved once per call site
// (function-local static) or per owning object, so the name->metric map
// is off the hot path entirely.
//
// Per-partition lanes: a metric a partition records is recorded ONCE, into
// "<name>.p<i>" on partition i (LaneMetricName) or into "<name>" on a
// standalone service. Snapshot() derives each bare name as its direct
// value plus the sum of its lanes — counters and gauges summed, histograms
// merged bucket by bucket — so readers of the aggregate never see lanes.
// A gauge kept per lane must therefore be additive.
//
// Thread safety: registration takes a mutex; Counter / Gauge / Histogram
// operations are lock-free atomics. Snapshots are taken without stopping
// writers, so they are only per-atomic consistent — except that a
// histogram's count is DEFINED as the sum of its bucket counts at read
// time, so `count == sum(buckets)` holds in every snapshot by
// construction (tests rely on this).
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (queue depth, open sessions, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram for microsecond latencies and small sizes.
//
// Bucket i spans (UpperBound(i-1), UpperBound(i)] with UpperBound(i) =
// 2^i; the last bucket is open-ended. 28 power-of-two buckets cover
// 1 us .. ~134 s, plenty for any latency this system produces, and the
// same layout works for batch sizes and byte counts.
class Histogram {
 public:
  static constexpr size_t kBucketCount = 28;

  static constexpr uint64_t UpperBound(size_t bucket) {
    return uint64_t{1} << bucket;
  }
  static constexpr size_t BucketFor(uint64_t value) {
    if (value <= 1) {
      return 0;
    }
    size_t b = static_cast<size_t>(std::bit_width(value - 1));
    return b < kBucketCount ? b : kBucketCount - 1;
  }

  void Record(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> buckets_[kBucketCount] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// Point-in-time copy of one histogram, with percentile extraction.
struct HistogramSnapshot {
  uint64_t buckets[Histogram::kBucketCount] = {};
  uint64_t count = 0;  // always == sum of buckets (see header comment)
  uint64_t sum = 0;
  uint64_t max = 0;

  // Value at percentile p (0 < p <= 1), linearly interpolated within the
  // bucket that holds the target rank and clamped to the observed max.
  double Percentile(double p) const;
  double p50() const { return Percentile(0.50); }
  double p90() const { return Percentile(0.90); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }
  double p999() const { return Percentile(0.999); }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Point-in-time copy of a whole registry. Also the decoded form of a
// kStats wire reply.
struct StatsSnapshot {
  static constexpr uint16_t kVersion = 1;

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // 0 / nullopt when the metric was never registered.
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  std::optional<HistogramSnapshot> histogram(std::string_view name) const;

  // One-line machine-readable export:
  //   {"version":1,"counters":{...},"gauges":{...},
  //    "histograms":{name:{"count":..,"sum":..,"max":..,
  //                        "p50":..,"p90":..,"p95":..,"p99":..,"p999":..,
  //                        "buckets":[..]}}}
  std::string ToJson() const;
};

// Name -> metric registry. Metrics live as long as the registry; returned
// pointers are stable (storage is node-based), so call sites cache them:
//
//   static Counter* hits = ObsRegistry().counter("clio.cache.hits");
//   hits->Increment();
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; never returns null.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  // Every registered metric, plus each lane's fold into its bare name
  // (see the header comment).
  StatsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

  // Zeroes every registered metric in place (pointers stay valid). For
  // tests and bench warmup boundaries, not production paths.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// The process-wide registry every built-in instrumentation site records
// into (and the one the kStats wire op serves).
MetricsRegistry& ObsRegistry();

// The lane naming rule: `name` + ".p<lane>" for a partition, `name` itself
// for a standalone service (no lane).
std::string LaneMetricName(std::string_view name,
                           std::optional<uint32_t> lane);

// Inverse of LaneMetricName: splits "<base>.p<digits>" into its base and
// lane; nullopt for a name without a lane suffix.
struct MetricLane {
  std::string_view base;
  uint32_t lane = 0;
};
std::optional<MetricLane> ParseLaneMetricName(std::string_view name);

// -- Wire form (the kStats reply payload; see src/ipc/codec.h). --
//
// Layout, little-endian: u16 version, then three sections each prefixed
// with a u32 element count: counters {string name, u64}, gauges
// {string name, i64}, histograms {string name, u64 sum, u64 max,
// u16 n_buckets, n_buckets x u64}. Decoders accept any n_buckets and
// fold overflow into the last local bucket, so the bucket count can grow
// without a version bump.
Bytes EncodeStatsSnapshot(const StatsSnapshot& snapshot);
Result<StatsSnapshot> DecodeStatsSnapshot(std::span<const std::byte> payload);

}  // namespace clio

#endif  // SRC_OBS_METRICS_H_
