#include "src/obs/telemetry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <random>

#include "src/obs/trace.h"

#ifdef __linux__
#include <dirent.h>
#include <unistd.h>
#endif

namespace clio {
namespace {

// Decoded-collection size caps: a corrupt length prefix must not turn
// into a multi-gigabyte allocation.
constexpr uint64_t kMaxSectionEntries = 1u << 20;
constexpr uint64_t kMaxBucketEntries = 1u << 16;

// -- LEB128 varints + zigzag ------------------------------------------------

void PutVar(ByteWriter& w, uint64_t v) {
  while (v >= 0x80) {
    w.PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.PutU8(static_cast<uint8_t>(v));
}

uint64_t GetVar(ByteReader& r) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t b = r.GetU8();
    if (r.failed()) {
      return 0;
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
  }
  // A tenth byte still carried the continuation bit: malformed. Poison
  // the reader (an oversized read is the only way to set its fail bit).
  r.GetBytes(r.remaining() + 1);
  return 0;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// -- Small JSON emit helpers (same conventions as metrics.cc: metric
// names and rule ids are controlled identifiers, no escaping needed) ----

void AppendKey(std::string* out, std::string_view name) {
  out->append("\"").append(name).append("\":");
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

void AppendQuoted(std::string* out, std::string_view s) {
  out->append("\"").append(s).append("\"");
}

}  // namespace

// ---------------------------------------------------------------------------
// Reserved namespace.

bool IsReservedSystemPath(std::string_view path) {
  if (path == kReservedSystemRoot) {
    return true;
  }
  return path.size() > kReservedSystemRoot.size() &&
         path.substr(0, kReservedSystemRoot.size()) == kReservedSystemRoot &&
         path[kReservedSystemRoot.size()] == '/';
}

// ---------------------------------------------------------------------------
// Record codec.

Bytes EncodeTelemetryRecord(const TelemetryRecord& record) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU16(TelemetryRecord::kVersion);
  w.PutU8(0);  // flags, reserved
  w.PutU64(record.boot_id);
  PutVar(w, record.sequence);
  PutVar(w, record.sampled_at_us);
  PutVar(w, record.window_us);
  PutVar(w, record.dictionary.size());
  for (const auto& [id, name] : record.dictionary) {
    PutVar(w, id);
    w.PutString(name);
  }
  PutVar(w, record.counter_deltas.size());
  for (const auto& [id, delta] : record.counter_deltas) {
    PutVar(w, id);
    PutVar(w, delta);
  }
  PutVar(w, record.gauges.size());
  for (const auto& [id, value] : record.gauges) {
    PutVar(w, id);
    PutVar(w, ZigZag(value));
  }
  PutVar(w, record.histograms.size());
  for (const auto& [id, h] : record.histograms) {
    PutVar(w, id);
    PutVar(w, h.count_delta);
    PutVar(w, h.sum_delta);
    PutVar(w, h.max);
    PutVar(w, h.bucket_deltas.size());
    for (const auto& [bucket, delta] : h.bucket_deltas) {
      PutVar(w, bucket);
      PutVar(w, delta);
    }
  }
  return out;
}

Result<TelemetryRecord> DecodeTelemetryRecord(
    std::span<const std::byte> raw) {
  ByteReader r(raw);
  const uint16_t version = r.GetU16();
  if (r.failed()) {
    return Corrupt("telemetry record shorter than its version field");
  }
  if (version == 0 || version > TelemetryRecord::kVersion) {
    return FailedPrecondition("telemetry record version " +
                              std::to_string(version) +
                              " is not understood by this build");
  }
  r.GetU8();  // flags, ignored
  TelemetryRecord record;
  record.boot_id = r.GetU64();
  record.sequence = static_cast<uint32_t>(GetVar(r));
  record.sampled_at_us = GetVar(r);
  record.window_us = GetVar(r);
  const uint64_t n_dict = GetVar(r);
  if (r.failed() || n_dict > kMaxSectionEntries) {
    return Corrupt("telemetry record dictionary is truncated or oversized");
  }
  for (uint64_t i = 0; i < n_dict && !r.failed(); ++i) {
    const uint32_t id = static_cast<uint32_t>(GetVar(r));
    record.dictionary[id] = r.GetString();
  }
  const uint64_t n_counters = GetVar(r);
  if (r.failed() || n_counters > kMaxSectionEntries) {
    return Corrupt("telemetry record counters are truncated or oversized");
  }
  for (uint64_t i = 0; i < n_counters && !r.failed(); ++i) {
    const uint32_t id = static_cast<uint32_t>(GetVar(r));
    record.counter_deltas[id] = GetVar(r);
  }
  const uint64_t n_gauges = GetVar(r);
  if (r.failed() || n_gauges > kMaxSectionEntries) {
    return Corrupt("telemetry record gauges are truncated or oversized");
  }
  for (uint64_t i = 0; i < n_gauges && !r.failed(); ++i) {
    const uint32_t id = static_cast<uint32_t>(GetVar(r));
    record.gauges[id] = UnZigZag(GetVar(r));
  }
  const uint64_t n_hist = GetVar(r);
  if (r.failed() || n_hist > kMaxSectionEntries) {
    return Corrupt("telemetry record histograms are truncated or oversized");
  }
  for (uint64_t i = 0; i < n_hist && !r.failed(); ++i) {
    const uint32_t id = static_cast<uint32_t>(GetVar(r));
    TelemetryRecord::HistogramDelta h;
    h.count_delta = GetVar(r);
    h.sum_delta = GetVar(r);
    h.max = GetVar(r);
    const uint64_t n_buckets = GetVar(r);
    if (r.failed() || n_buckets > kMaxBucketEntries) {
      return Corrupt("telemetry histogram buckets truncated or oversized");
    }
    for (uint64_t b = 0; b < n_buckets && !r.failed(); ++b) {
      const uint32_t bucket = static_cast<uint32_t>(GetVar(r));
      h.bucket_deltas[bucket] = GetVar(r);
    }
    record.histograms[id] = std::move(h);
  }
  if (r.failed()) {
    return Corrupt("telemetry record is truncated");
  }
  return record;
}

// ---------------------------------------------------------------------------
// Snapshot diffing.

namespace {

uint32_t InternName(const std::string& name,
                    std::map<std::string, uint32_t>* ids, uint32_t* next_id,
                    std::map<uint32_t, std::string>* dictionary) {
  auto it = ids->find(name);
  if (it != ids->end()) {
    return it->second;
  }
  const uint32_t id = (*next_id)++;
  ids->emplace(name, id);
  (*dictionary)[id] = name;
  return id;
}

}  // namespace

TelemetryRecord DiffSnapshots(const StatsSnapshot& current,
                              const StatsSnapshot* previous,
                              std::map<std::string, uint32_t>* ids,
                              uint32_t* next_id) {
  TelemetryRecord record;
  for (const auto& [name, value] : current.counters) {
    uint64_t prev = 0;
    if (previous != nullptr) {
      auto it = previous->counters.find(name);
      if (it != previous->counters.end()) {
        prev = it->second;
      }
    }
    // A counter that went backwards means the source reset (e.g. the
    // registry was cleared); restart the delta from the new absolute.
    const uint64_t delta = value >= prev ? value - prev : value;
    if (delta == 0) {
      continue;
    }
    record.counter_deltas[InternName(name, ids, next_id,
                                     &record.dictionary)] = delta;
  }
  // Gauges are levels, not rates: every sample carries the absolute value
  // so a replay that skipped records still lands on the right level.
  for (const auto& [name, value] : current.gauges) {
    record.gauges[InternName(name, ids, next_id, &record.dictionary)] =
        value;
  }
  for (const auto& [name, hist] : current.histograms) {
    const HistogramSnapshot* prev = nullptr;
    if (previous != nullptr) {
      auto it = previous->histograms.find(name);
      if (it != previous->histograms.end()) {
        prev = &it->second;
      }
    }
    TelemetryRecord::HistogramDelta delta;
    delta.max = hist.max;
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      const uint64_t prev_bucket = prev != nullptr ? prev->buckets[b] : 0;
      const uint64_t cur_bucket = hist.buckets[b];
      const uint64_t d =
          cur_bucket >= prev_bucket ? cur_bucket - prev_bucket : cur_bucket;
      if (d != 0) {
        delta.bucket_deltas[static_cast<uint32_t>(b)] = d;
        delta.count_delta += d;
      }
    }
    const uint64_t prev_sum = prev != nullptr ? prev->sum : 0;
    delta.sum_delta = hist.sum >= prev_sum ? hist.sum - prev_sum : hist.sum;
    if (delta.count_delta == 0) {
      continue;
    }
    record.histograms[InternName(name, ids, next_id, &record.dictionary)] =
        std::move(delta);
  }
  return record;
}

// ---------------------------------------------------------------------------
// Replay.

void TelemetryReplay::Feed(uint64_t entry_timestamp,
                           std::span<const std::byte> payload) {
  auto decoded = DecodeTelemetryRecord(payload);
  if (!decoded.ok()) {
    ++records_skipped_;
    annotations_.push_back(
        {points_.size(), "skipped_record", decoded.status().ToString()});
    return;
  }
  TelemetryRecord record = std::move(decoded).value();
  if (record.boot_id != current_boot_) {
    if (current_boot_ != 0) {
      std::string detail = "boot ";
      AppendU64(&detail, current_boot_);
      detail += " -> ";
      AppendU64(&detail, record.boot_id);
      annotations_.push_back({points_.size(), "restart", std::move(detail)});
    }
    current_boot_ = record.boot_id;
    dictionary_.clear();
    last_sequence_ = 0;
  }
  const uint32_t expected = last_sequence_ + 1;
  if (record.sequence != expected) {
    std::string detail = "expected sample ";
    AppendU64(&detail, expected);
    detail += ", got ";
    AppendU64(&detail, record.sequence);
    annotations_.push_back({points_.size(), "gap", std::move(detail)});
  }
  last_sequence_ = record.sequence;
  for (auto& [id, name] : record.dictionary) {
    dictionary_[id] = std::move(name);
  }
  auto resolve = [this](uint32_t id) -> std::string {
    auto it = dictionary_.find(id);
    if (it != dictionary_.end()) {
      return it->second;
    }
    std::string name = "metric#";
    AppendU64(&name, id);
    return name;
  };
  TelemetryPoint point;
  point.entry_timestamp = entry_timestamp;
  point.boot_id = record.boot_id;
  point.sequence = record.sequence;
  point.sampled_at_us = record.sampled_at_us;
  point.window_us = record.window_us;
  for (const auto& [id, delta] : record.counter_deltas) {
    std::string name = resolve(id);
    if (record.window_us > 0) {
      point.rates[name] = static_cast<double>(delta) * 1e6 /
                          static_cast<double>(record.window_us);
    }
    point.counter_deltas[std::move(name)] = delta;
  }
  for (const auto& [id, value] : record.gauges) {
    point.gauges[resolve(id)] = value;
  }
  points_.push_back(std::move(point));
}

std::vector<std::string> TelemetryReplay::MetricNames() const {
  std::map<std::string, bool> seen;
  for (const auto& p : points_) {
    for (const auto& [name, _] : p.counter_deltas) {
      seen[name] = true;
    }
    for (const auto& [name, _] : p.gauges) {
      seen[name] = true;
    }
  }
  std::vector<std::string> names;
  names.reserve(seen.size());
  for (const auto& [name, _] : seen) {
    names.push_back(name);
  }
  return names;
}

std::string TelemetryReplay::ToJson() const {
  std::string out = "{\"points\":[";
  bool first_point = true;
  for (const auto& p : points_) {
    if (!first_point) {
      out += ",";
    }
    first_point = false;
    out += "{";
    AppendKey(&out, "entry_timestamp");
    AppendU64(&out, p.entry_timestamp);
    out += ",";
    AppendKey(&out, "boot_id");
    AppendU64(&out, p.boot_id);
    out += ",";
    AppendKey(&out, "sequence");
    AppendU64(&out, p.sequence);
    out += ",";
    AppendKey(&out, "sampled_at_us");
    AppendU64(&out, p.sampled_at_us);
    out += ",";
    AppendKey(&out, "window_us");
    AppendU64(&out, p.window_us);
    out += ",";
    AppendKey(&out, "rates");
    out += "{";
    bool first = true;
    for (const auto& [name, rate] : p.rates) {
      if (!first) {
        out += ",";
      }
      first = false;
      AppendKey(&out, name);
      AppendDouble(&out, rate);
    }
    out += "},";
    AppendKey(&out, "counter_deltas");
    out += "{";
    first = true;
    for (const auto& [name, delta] : p.counter_deltas) {
      if (!first) {
        out += ",";
      }
      first = false;
      AppendKey(&out, name);
      AppendU64(&out, delta);
    }
    out += "},";
    AppendKey(&out, "gauges");
    out += "{";
    first = true;
    for (const auto& [name, value] : p.gauges) {
      if (!first) {
        out += ",";
      }
      first = false;
      AppendKey(&out, name);
      AppendI64(&out, value);
    }
    out += "}}";
  }
  out += "],\"annotations\":[";
  bool first = true;
  for (const auto& a : annotations_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{";
    AppendKey(&out, "point_index");
    AppendU64(&out, a.point_index);
    out += ",";
    AppendKey(&out, "kind");
    AppendQuoted(&out, a.kind);
    out += ",";
    AppendKey(&out, "detail");
    AppendQuoted(&out, a.detail);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "records_skipped");
  AppendU64(&out, records_skipped_);
  out += "}";
  return out;
}

std::string TelemetryReplay::ToCsv(
    const std::vector<std::string>& metrics) const {
  const std::vector<std::string> columns =
      metrics.empty() ? MetricNames() : metrics;
  std::string out = "entry_timestamp,boot_id,sequence,window_us";
  for (const auto& name : columns) {
    out += ",";
    out += name;
  }
  out += "\n";
  for (const auto& p : points_) {
    AppendU64(&out, p.entry_timestamp);
    out += ",";
    AppendU64(&out, p.boot_id);
    out += ",";
    AppendU64(&out, p.sequence);
    out += ",";
    AppendU64(&out, p.window_us);
    for (const auto& name : columns) {
      out += ",";
      if (auto it = p.rates.find(name); it != p.rates.end()) {
        AppendDouble(&out, it->second);
      } else if (auto g = p.gauges.find(name); g != p.gauges.end()) {
        AppendI64(&out, g->second);
      } else if (auto c = p.counter_deltas.find(name);
                 c != p.counter_deltas.end()) {
        AppendU64(&out, c->second);
      }
    }
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sampler.

TelemetrySampler::TelemetrySampler(TelemetryAppendFn append,
                                   TelemetrySamplerOptions options)
    : append_(std::move(append)), options_(std::move(options)) {
  boot_id_ = options_.boot_id;
  if (boot_id_ == 0) {
    std::random_device rd;
    boot_id_ = (static_cast<uint64_t>(rd()) << 32) ^ rd() ^ TraceNowUs();
    boot_id_ |= 1;  // 0 is the replayer's "no boot yet" sentinel
  }
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::set_pre_sample_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  pre_sample_hook_ = std::move(hook);
}

uint64_t TelemetrySampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_taken_;
}

std::optional<StatsSnapshot> TelemetrySampler::LastSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return previous_;
}

uint64_t TelemetrySampler::LastWindowUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_window_us_;
}

Result<TelemetryRecord> TelemetrySampler::SampleOnce() {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = pre_sample_hook_;
  }
  if (hook) {
    hook();
  }
  UpdateProcessGauges(options_.registry);
  MetricsRegistry& registry =
      options_.registry != nullptr ? *options_.registry : ObsRegistry();
  StatsSnapshot snapshot = registry.Snapshot();
  const uint64_t now = TraceNowUs();
  Bytes encoded;
  TelemetryRecord record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const StatsSnapshot* prev = previous_ ? &*previous_ : nullptr;
    record = DiffSnapshots(snapshot, prev, &ids_, &next_id_);
    record.boot_id = boot_id_;
    record.sequence = ++sequence_;
    record.sampled_at_us = now;
    record.window_us = prev != nullptr ? now - previous_at_us_ : 0;
    // Dictionary entries ride along until a record carrying them lands:
    // if the append below fails, the name->id binding would otherwise be
    // lost with it and every later use of the id would be unresolvable.
    unacked_dictionary_.insert(record.dictionary.begin(),
                               record.dictionary.end());
    record.dictionary = unacked_dictionary_;
    encoded = EncodeTelemetryRecord(record);
    // The window advances whether or not the append lands: a failed
    // append is a lost sample, which replay reports as a sequence gap.
    previous_ = std::move(snapshot);
    previous_at_us_ = now;
    last_window_us_ = record.window_us;
    ++samples_taken_;
  }
  static Counter* samples = ObsRegistry().counter("clio.telemetry.samples");
  static Counter* bytes =
      ObsRegistry().counter("clio.telemetry.journal_bytes");
  static Counter* failures =
      ObsRegistry().counter("clio.telemetry.append_failures");
  Status appended = append_(encoded);
  if (!appended.ok()) {
    failures->Increment();
    return appended;
  }
  samples->Increment();
  bytes->Increment(encoded.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, name] : record.dictionary) {
      unacked_dictionary_.erase(id);
    }
  }
  return record;
}

void TelemetrySampler::Start() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (running_) {
      return;
    }
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { ThreadMain(); });
}

void TelemetrySampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    running_ = false;
  }
  // Flush the final window so shutdown never silently discards the tail
  // of the process's history; a failure here is just a sequence gap.
  (void)SampleOnce();
}

void TelemetrySampler::ThreadMain() {
  // An immediate first sample seeds the delta baseline.
  (void)SampleOnce();
  for (;;) {
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.sample_interval_ms),
                      [this] { return stop_requested_; });
    if (stop_requested_) {
      return;
    }
    lock.unlock();
    (void)SampleOnce();
  }
}

// ---------------------------------------------------------------------------
// Process gauges.

void UpdateProcessGauges(MetricsRegistry* registry) {
  MetricsRegistry& reg = registry != nullptr ? *registry : ObsRegistry();
  const uint64_t now_us = TraceNowUs();
  reg.gauge("clio.process.uptime_seconds")
      ->Set(static_cast<int64_t>(now_us / 1'000'000));
  reg.gauge("clio.process.sampled_at_us")->Set(static_cast<int64_t>(now_us));
#ifdef __linux__
  if (FILE* statm = std::fopen("/proc/self/statm", "r")) {
    long total_pages = 0;
    long rss_pages = 0;
    if (std::fscanf(statm, "%ld %ld", &total_pages, &rss_pages) == 2) {
      reg.gauge("clio.process.rss_bytes")
          ->Set(static_cast<int64_t>(rss_pages) * sysconf(_SC_PAGESIZE));
    }
    std::fclose(statm);
  }
  if (DIR* fds = opendir("/proc/self/fd")) {
    int64_t count = 0;
    while (readdir(fds) != nullptr) {
      ++count;
    }
    closedir(fds);
    // Minus ".", "..", and the directory stream's own descriptor.
    reg.gauge("clio.process.open_fds")->Set(count > 3 ? count - 3 : 0);
  }
#endif
}

// ---------------------------------------------------------------------------
// Health plane.

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

SloRules SloRules::Defaults() {
  SloRules slo;
  slo.rules = {
      {SloRule::Kind::kHistogramP99CeilingUs, "clio.rpc.append_us", 50'000,
       500'000, "append-p99"},
      {SloRule::Kind::kHistogramP99CeilingUs, "clio.rpc.read_us", 20'000,
       200'000, "read-p99"},
      {SloRule::Kind::kGaugeCeiling, "clio.net.loop.queue_depth", 128, 1024,
       "worker-queue-depth"},
      // Any quarantined block at all means the media lost data; that is
      // DEGRADED (reads around it still work), never UNHEALTHY by itself.
      {SloRule::Kind::kGaugeCeiling, "clio.scrub.degraded", 0, -1,
       "scrub-quarantine"},
      {SloRule::Kind::kCounterDeltaCeiling, "clio.device.faults.*", 0, -1,
       "device-faults"},
      {SloRule::Kind::kGaugeCeiling, "clio.index.checkpoint_age_blocks",
       2048, -1, "checkpoint-age"},
  };
  return slo;
}

namespace {

// A rule written against the base metric also matches its per-partition
// `.p<i>` lanes (ParseLaneMetricName), so one rule rolls lane breaches up
// with the lane named in the reason. Rules ending ".*" are plain prefix
// matches.
bool RuleMatchesMetric(const std::string& rule_metric,
                       const std::string& name) {
  if (rule_metric.size() >= 2 &&
      rule_metric.compare(rule_metric.size() - 2, 2, ".*") == 0) {
    const std::string_view prefix =
        std::string_view(rule_metric).substr(0, rule_metric.size() - 1);
    return name.size() > prefix.size() &&
           std::string_view(name).substr(0, prefix.size()) == prefix;
  }
  if (name == rule_metric) {
    return true;
  }
  const std::optional<MetricLane> lane = ParseLaneMetricName(name);
  return lane.has_value() && lane->base == rule_metric;
}

// Per-window histogram: current minus previous, bucket by bucket. `max`
// cannot be windowed, so the cumulative max stands in (Percentile clamps
// against it; the estimate errs high, which is the safe direction for a
// ceiling rule).
HistogramSnapshot WindowedHistogram(const HistogramSnapshot& current,
                                    const HistogramSnapshot* previous) {
  if (previous == nullptr) {
    return current;
  }
  HistogramSnapshot delta;
  delta.max = current.max;
  for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
    const uint64_t prev = previous->buckets[b];
    const uint64_t cur = current.buckets[b];
    delta.buckets[b] = cur >= prev ? cur - prev : cur;
    delta.count += delta.buckets[b];
  }
  delta.sum = current.sum >= previous->sum ? current.sum - previous->sum
                                           : current.sum;
  return delta;
}

void ApplyRule(const SloRule& rule, const std::string& metric, double value,
               HealthReport* report) {
  HealthState severity = HealthState::kOk;
  double bound = 0;
  if (rule.unhealthy_above >= 0 && value > rule.unhealthy_above) {
    severity = HealthState::kUnhealthy;
    bound = rule.unhealthy_above;
  } else if (rule.degraded_above >= 0 && value > rule.degraded_above) {
    severity = HealthState::kDegraded;
    bound = rule.degraded_above;
  } else {
    return;
  }
  report->reasons.push_back({rule.id, metric, severity, value, bound});
  if (static_cast<uint8_t>(severity) > static_cast<uint8_t>(report->state)) {
    report->state = severity;
  }
}

}  // namespace

HealthReport EvaluateHealth(const StatsSnapshot& current,
                            const StatsSnapshot* previous, uint64_t window_us,
                            const SloRules& rules) {
  HealthReport report;
  report.evaluated_at_us = TraceNowUs();
  for (const SloRule& rule : rules.rules) {
    switch (rule.kind) {
      case SloRule::Kind::kHistogramP99CeilingUs:
        for (const auto& [name, hist] : current.histograms) {
          if (!RuleMatchesMetric(rule.metric, name)) {
            continue;
          }
          const HistogramSnapshot* prev_hist = nullptr;
          if (previous != nullptr) {
            auto it = previous->histograms.find(name);
            if (it != previous->histograms.end()) {
              prev_hist = &it->second;
            }
          }
          const HistogramSnapshot windowed =
              WindowedHistogram(hist, prev_hist);
          if (windowed.count == 0) {
            continue;  // no traffic in the window: nothing to breach
          }
          ApplyRule(rule, name, windowed.p99(), &report);
        }
        break;
      case SloRule::Kind::kGaugeCeiling:
        for (const auto& [name, value] : current.gauges) {
          if (!RuleMatchesMetric(rule.metric, name)) {
            continue;
          }
          ApplyRule(rule, name, static_cast<double>(value), &report);
        }
        break;
      case SloRule::Kind::kCounterDeltaCeiling:
        for (const auto& [name, value] : current.counters) {
          if (!RuleMatchesMetric(rule.metric, name)) {
            continue;
          }
          uint64_t prev = 0;
          if (previous != nullptr) {
            auto it = previous->counters.find(name);
            if (it != previous->counters.end()) {
              prev = it->second;
            }
          }
          const uint64_t delta = value >= prev ? value - prev : value;
          (void)window_us;  // deltas are already per-window quantities
          ApplyRule(rule, name, static_cast<double>(delta), &report);
        }
        break;
    }
  }
  return report;
}

std::string HealthReport::ToJson() const {
  std::string out = "{";
  AppendKey(&out, "state");
  AppendQuoted(&out, HealthStateName(state));
  out += ",";
  AppendKey(&out, "evaluated_at_us");
  AppendU64(&out, evaluated_at_us);
  out += ",";
  AppendKey(&out, "reasons");
  out += "[";
  bool first = true;
  for (const auto& r : reasons) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{";
    AppendKey(&out, "rule");
    AppendQuoted(&out, r.rule);
    out += ",";
    AppendKey(&out, "metric");
    AppendQuoted(&out, r.metric);
    out += ",";
    AppendKey(&out, "severity");
    AppendQuoted(&out, HealthStateName(r.severity));
    out += ",";
    AppendKey(&out, "value");
    AppendDouble(&out, r.value);
    out += ",";
    AppendKey(&out, "bound");
    AppendDouble(&out, r.bound);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "exemplars");
  out += "[";
  first = true;
  for (const auto& e : exemplars) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{";
    AppendKey(&out, "trace_id");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", e.trace_id);
    out += buf;
    out += ",";
    AppendKey(&out, "op");
    AppendQuoted(&out, e.op);
    out += ",";
    AppendKey(&out, "total_us");
    AppendU64(&out, e.total_us);
    out += ",";
    AppendKey(&out, "recorded_at_us");
    AppendU64(&out, e.recorded_at_us);
    out += "}";
  }
  out += "]}";
  return out;
}

Bytes EncodeHealthReport(const HealthReport& report) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU16(HealthReport::kVersion);
  w.PutU8(static_cast<uint8_t>(report.state));
  w.PutU64(report.evaluated_at_us);
  w.PutU16(static_cast<uint16_t>(
      std::min<size_t>(report.reasons.size(), 0xFFFF)));
  for (const auto& r : report.reasons) {
    w.PutString(r.rule);
    w.PutString(r.metric);
    w.PutU8(static_cast<uint8_t>(r.severity));
    w.PutU64(std::bit_cast<uint64_t>(r.value));
    w.PutU64(std::bit_cast<uint64_t>(r.bound));
  }
  w.PutU16(static_cast<uint16_t>(
      std::min<size_t>(report.exemplars.size(), 0xFFFF)));
  for (const auto& e : report.exemplars) {
    w.PutU64(e.trace_id);
    w.PutString(e.op);
    w.PutU64(e.total_us);
    w.PutU64(e.recorded_at_us);
  }
  return out;
}

Result<HealthReport> DecodeHealthReport(std::span<const std::byte> raw) {
  ByteReader r(raw);
  const uint16_t version = r.GetU16();
  if (r.failed() || version != HealthReport::kVersion) {
    return Corrupt("health report version mismatch");
  }
  HealthReport report;
  const uint8_t state = r.GetU8();
  if (state > static_cast<uint8_t>(HealthState::kUnhealthy)) {
    return Corrupt("health report carries an unknown state");
  }
  report.state = static_cast<HealthState>(state);
  report.evaluated_at_us = r.GetU64();
  const uint16_t n_reasons = r.GetU16();
  for (uint16_t i = 0; i < n_reasons && !r.failed(); ++i) {
    HealthReason reason;
    reason.rule = r.GetString();
    reason.metric = r.GetString();
    const uint8_t severity = r.GetU8();
    reason.severity = severity > static_cast<uint8_t>(HealthState::kUnhealthy)
                          ? HealthState::kDegraded
                          : static_cast<HealthState>(severity);
    reason.value = std::bit_cast<double>(r.GetU64());
    reason.bound = std::bit_cast<double>(r.GetU64());
    report.reasons.push_back(std::move(reason));
  }
  const uint16_t n_exemplars = r.GetU16();
  for (uint16_t i = 0; i < n_exemplars && !r.failed(); ++i) {
    SlowRequest e;
    e.trace_id = r.GetU64();
    e.op = r.GetString();
    e.total_us = r.GetU64();
    e.recorded_at_us = r.GetU64();
    report.exemplars.push_back(std::move(e));
  }
  if (r.failed()) {
    return Corrupt("health report is truncated");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Slow-request ring.

SlowRequestRing& SlowRequestRing::Instance() {
  static SlowRequestRing* ring = new SlowRequestRing();
  return *ring;
}

void SlowRequestRing::ConfigureThreshold(RpcClass cls, uint64_t threshold_us) {
  thresholds_[static_cast<size_t>(cls)].store(threshold_us,
                                              std::memory_order_relaxed);
}

uint64_t SlowRequestRing::threshold(RpcClass cls) const {
  return thresholds_[static_cast<size_t>(cls)].load(
      std::memory_order_relaxed);
}

void SlowRequestRing::Observe(RpcClass cls, std::string_view op,
                              uint64_t trace_id, uint64_t total_us) {
  const uint64_t threshold =
      thresholds_[static_cast<size_t>(cls)].load(std::memory_order_relaxed);
  if (threshold == 0 || total_us < threshold || trace_id == 0) {
    return;
  }
  SlowRequest entry{trace_id, std::string(op), total_us, TraceNowUs()};
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(entry));
    next_ = ring_.size() % kCapacity;
  } else {
    ring_[next_] = std::move(entry);
    next_ = (next_ + 1) % kCapacity;
  }
}

std::vector<SlowRequest> SlowRequestRing::Snapshot(size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlowRequest> out;
  const size_t size = ring_.size();
  const size_t n = std::min(limit, size);
  out.reserve(n);
  // Walk backwards from the most recent insertion (next_ - 1).
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(next_ + 2 * size - 1 - i) % size]);
  }
  return out;
}

void SlowRequestRing::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

void ConfigureSlowRequestThresholds(const SloRules& rules) {
  auto& ring = SlowRequestRing::Instance();
  for (const SloRule& rule : rules.rules) {
    if (rule.kind != SloRule::Kind::kHistogramP99CeilingUs ||
        rule.degraded_above < 0) {
      continue;
    }
    const uint64_t threshold =
        std::max<uint64_t>(1, static_cast<uint64_t>(rule.degraded_above));
    if (rule.metric == "clio.rpc.append_us") {
      ring.ConfigureThreshold(RpcClass::kAppend, threshold);
    } else if (rule.metric == "clio.rpc.read_us") {
      ring.ConfigureThreshold(RpcClass::kRead, threshold);
    } else if (rule.metric == "clio.rpc.request_us") {
      ring.ConfigureThreshold(RpcClass::kOther, threshold);
    }
  }
}

}  // namespace clio
