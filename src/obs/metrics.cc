#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace clio {
namespace {

// Appends `"name":` to out (metric names are controlled identifiers —
// dots, slashes, alphanumerics — so no JSON escaping is needed).
void AppendKey(std::string* out, const std::string& name) {
  out->append("\"");
  out->append(name);
  out->append("\":");
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendI64(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

void AddInto(uint64_t* into, uint64_t value) { *into += value; }
void AddInto(int64_t* into, int64_t value) { *into += value; }
void AddInto(HistogramSnapshot* into, const HistogramSnapshot& h) {
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    into->buckets[i] += h.buckets[i];
  }
  into->count += h.count;
  into->sum += h.sum;
  into->max = std::max(into->max, h.max);
}

// Adds `value` under `name` and, when `name` is a lane, folds it into the
// bare name as well (which may also hold a direct value).
template <typename T>
void AddFolded(std::map<std::string, T>* out, const std::string& name,
               const T& value) {
  AddInto(&(*out)[name], value);
  if (std::optional<MetricLane> lane = ParseLaneMetricName(name)) {
    AddInto(&(*out)[std::string(lane->base)], value);
  }
}

}  // namespace

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    if (cumulative + buckets[i] >= rank) {
      // Interpolate within the bucket, clamped to the observed max so the
      // open-ended last bucket cannot report beyond real data.
      double lower = i == 0 ? 0.0
                            : static_cast<double>(Histogram::UpperBound(i - 1));
      double upper = static_cast<double>(Histogram::UpperBound(i));
      double fraction = static_cast<double>(rank - cumulative) /
                        static_cast<double>(buckets[i]);
      double value = lower + (upper - lower) * fraction;
      return std::min(value, static_cast<double>(max));
    }
    cumulative += buckets[i];
  }
  return static_cast<double>(max);
}

uint64_t StatsSnapshot::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

int64_t StatsSnapshot::gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

std::optional<HistogramSnapshot> StatsSnapshot::histogram(
    std::string_view name) const {
  auto it = histograms.find(std::string(name));
  if (it == histograms.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{\"version\":";
  AppendU64(&out, kVersion);
  out.append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out.append(",");
    }
    first = false;
    AppendKey(&out, name);
    AppendU64(&out, value);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) {
      out.append(",");
    }
    first = false;
    AppendKey(&out, name);
    AppendI64(&out, value);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) {
      out.append(",");
    }
    first = false;
    AppendKey(&out, name);
    out.append("{\"count\":");
    AppendU64(&out, hist.count);
    out.append(",\"sum\":");
    AppendU64(&out, hist.sum);
    out.append(",\"max\":");
    AppendU64(&out, hist.max);
    out.append(",\"p50\":");
    AppendDouble(&out, hist.p50());
    out.append(",\"p90\":");
    AppendDouble(&out, hist.p90());
    out.append(",\"p95\":");
    AppendDouble(&out, hist.p95());
    out.append(",\"p99\":");
    AppendDouble(&out, hist.p99());
    out.append(",\"p999\":");
    AppendDouble(&out, hist.p999());
    out.append(",\"buckets\":[");
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (i > 0) {
        out.append(",");
      }
      AppendU64(&out, hist.buckets[i]);
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

StatsSnapshot MetricsRegistry::Snapshot() const {
  StatsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    AddFolded(&snapshot.counters, name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    AddFolded(&snapshot.gauges, name, gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      h.buckets[i] = hist->buckets_[i].load(std::memory_order_relaxed);
      h.count += h.buckets[i];  // by construction: count == sum of buckets
    }
    h.sum = hist->sum();
    h.max = hist->max();
    AddFolded(&snapshot.histograms, name, h);
  }
  return snapshot;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, hist] : histograms_) {
    for (auto& bucket : hist->buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    hist->sum_.store(0, std::memory_order_relaxed);
    hist->max_.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& ObsRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string LaneMetricName(std::string_view name,
                           std::optional<uint32_t> lane) {
  std::string out(name);
  if (lane.has_value()) {
    out += ".p" + std::to_string(*lane);
  }
  return out;
}

std::optional<MetricLane> ParseLaneMetricName(std::string_view name) {
  const size_t dot = name.rfind(".p");
  if (dot == std::string_view::npos || dot == 0 || dot + 2 == name.size()) {
    return std::nullopt;
  }
  MetricLane out{name.substr(0, dot), 0};
  for (char c : name.substr(dot + 2)) {
    if (c < '0' || c > '9' || out.lane > (UINT32_MAX - 9) / 10) {
      return std::nullopt;
    }
    out.lane = out.lane * 10 + static_cast<uint32_t>(c - '0');
  }
  return out;
}

Bytes EncodeStatsSnapshot(const StatsSnapshot& snapshot) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU16(StatsSnapshot::kVersion);
  w.PutU32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    w.PutString(name);
    w.PutU64(value);
  }
  w.PutU32(static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    w.PutString(name);
    w.PutI64(value);
  }
  w.PutU32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const auto& [name, hist] : snapshot.histograms) {
    w.PutString(name);
    w.PutU64(hist.sum);
    w.PutU64(hist.max);
    w.PutU16(static_cast<uint16_t>(Histogram::kBucketCount));
    for (uint64_t bucket : hist.buckets) {
      w.PutU64(bucket);
    }
  }
  return out;
}

Result<StatsSnapshot> DecodeStatsSnapshot(std::span<const std::byte> payload) {
  ByteReader r(payload);
  uint16_t version = r.GetU16();
  if (r.failed() || version == 0 || version > StatsSnapshot::kVersion) {
    return Corrupt("unsupported stats snapshot version");
  }
  StatsSnapshot snapshot;
  uint32_t n_counters = r.GetU32();
  for (uint32_t i = 0; i < n_counters && !r.failed(); ++i) {
    std::string name = r.GetString();
    snapshot.counters[std::move(name)] = r.GetU64();
  }
  uint32_t n_gauges = r.GetU32();
  for (uint32_t i = 0; i < n_gauges && !r.failed(); ++i) {
    std::string name = r.GetString();
    snapshot.gauges[std::move(name)] = r.GetI64();
  }
  uint32_t n_histograms = r.GetU32();
  for (uint32_t i = 0; i < n_histograms && !r.failed(); ++i) {
    std::string name = r.GetString();
    HistogramSnapshot h;
    h.sum = r.GetU64();
    h.max = r.GetU64();
    uint16_t n_buckets = r.GetU16();
    uint64_t total = 0;
    for (uint16_t b = 0; b < n_buckets && !r.failed(); ++b) {
      uint64_t v = r.GetU64();
      // A future sender with more buckets folds into our last one.
      size_t local = std::min<size_t>(b, Histogram::kBucketCount - 1);
      h.buckets[local] += v;
      total += v;
    }
    h.count = total;
    snapshot.histograms[std::move(name)] = h;
  }
  if (r.failed()) {
    return Corrupt("malformed stats snapshot");
  }
  return snapshot;
}

}  // namespace clio
