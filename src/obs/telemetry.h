// Self-hosted telemetry: the server's own metrics history, stored as an
// ordinary log file.
//
// The paper's thesis — append-only, timestamp-indexed log files are the
// right primitive for history-shaped data — applies to the server's own
// metrics. A background TelemetrySampler snapshots the registry every
// sample_interval, diffs it against the previous snapshot, and appends a
// compact binary record to the reserved journal `/.sys/telemetry`
// (created through the normal write path, so it is durable across
// restarts, timestamp-searchable through the entrymap/index, and
// tamper-evident through the v2 hash chain like any client log file).
//
// On top of the same snapshots sits the health plane: declarative SLO
// rules (EvaluateHealth) mapping registry state to OK/DEGRADED/UNHEALTHY
// with machine-readable reasons, and a bounded slow-request ring whose
// trace-id exemplars bridge metrics back to the flight recorder.
//
// Layering: this file lives in clio_obs and must not depend on the clio
// or net layers. The sampler therefore appends through an injected
// closure; the server wires it to its append lane, tests wire it
// straight to a LogService.
#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

// ---------------------------------------------------------------------------
// Reserved system namespace.

// Log files under this root belong to the service itself (the telemetry
// journal today; future system logs later). Wire-facing CreateLogFile and
// Append reject these paths; the server creates and writes them
// internally through the same volume machinery, so offline tools and
// VerifyVolume see perfectly ordinary entries.
inline constexpr std::string_view kReservedSystemRoot = "/.sys";
inline constexpr std::string_view kTelemetryJournalPath = "/.sys/telemetry";

// True for "/.sys" itself and anything below it.
bool IsReservedSystemPath(std::string_view path);

// ---------------------------------------------------------------------------
// Telemetry journal records.

// One sampler tick, encoded as deltas against the previous tick.
//
// Metric names are interned into a per-boot dictionary: the first record
// that mentions a metric carries (id, name); later records carry only the
// varint id. A fresh process restarts the dictionary (new boot_id), so a
// replayer keyed on boot_id can always resolve ids without external
// state.
struct TelemetryRecord {
  static constexpr uint16_t kVersion = 1;

  uint64_t boot_id = 0;       // random per process; detects restarts
  uint32_t sequence = 0;      // 1-based per boot; gaps mean lost samples
  uint64_t sampled_at_us = 0; // monotonic stamp (TraceNowUs clock)
  uint64_t window_us = 0;     // span since previous sample; 0 on the first

  struct HistogramDelta {
    uint64_t count_delta = 0;
    uint64_t sum_delta = 0;
    uint64_t max = 0;  // absolute (max cannot be windowed)
    // Sparse bucket deltas: index -> new observations in that bucket.
    std::map<uint32_t, uint64_t> bucket_deltas;

    bool operator==(const HistogramDelta&) const = default;
  };

  std::map<uint32_t, std::string> dictionary;  // ids first used here
  std::map<uint32_t, uint64_t> counter_deltas; // zero deltas omitted
  std::map<uint32_t, int64_t> gauges;          // absolute values
  std::map<uint32_t, HistogramDelta> histograms;

  bool operator==(const TelemetryRecord&) const = default;
};

// Wire format (little-endian, varint = LEB128, zigzag for signed):
//   u16 version | u8 flags | u64 boot_id | varint sequence |
//   varint sampled_at_us | varint window_us |
//   varint n_dict  { varint id | u16-len string }...
//   varint n_ctr   { varint id | varint delta }...
//   varint n_gauge { varint id | zigzag value }...
//   varint n_hist  { varint id | varint count_delta | varint sum_delta |
//                    varint max | varint n_buckets
//                    { varint bucket | varint delta }... }...
Bytes EncodeTelemetryRecord(const TelemetryRecord& record);

// Fails with kCorrupt on truncated/garbled bytes and with
// kFailedPrecondition on a version this build does not understand;
// replayers treat both as an advisory skip, never a hard stop.
Result<TelemetryRecord> DecodeTelemetryRecord(std::span<const std::byte> raw);

// ---------------------------------------------------------------------------
// Journal replay -> time series.

// One decoded sample, resolved back to metric names.
struct TelemetryPoint {
  uint64_t entry_timestamp = 0;  // journal entry timestamp (service clock)
  uint64_t boot_id = 0;
  uint32_t sequence = 0;
  uint64_t sampled_at_us = 0;
  uint64_t window_us = 0;
  std::map<std::string, uint64_t> counter_deltas;
  std::map<std::string, double> rates;  // delta / window, per second
  std::map<std::string, int64_t> gauges;
};

// Out-of-band events discovered while replaying: restarts, sequence
// gaps, and records that had to be skipped.
struct TelemetryAnnotation {
  size_t point_index = 0;  // index into points() the event precedes
  std::string kind;        // "restart" | "gap" | "skipped_record"
  std::string detail;
};

// Feeds journal entries in append order and accumulates a gap-annotated
// time series. Corrupt or future-version records are counted and
// annotated, never fatal — history with holes beats no history.
class TelemetryReplay {
 public:
  void Feed(uint64_t entry_timestamp, std::span<const std::byte> payload);

  const std::vector<TelemetryPoint>& points() const { return points_; }
  const std::vector<TelemetryAnnotation>& annotations() const {
    return annotations_;
  }
  size_t records_skipped() const { return records_skipped_; }

  // Every metric name seen across the series, for CSV column discovery.
  std::vector<std::string> MetricNames() const;

  // {"points":[...],"annotations":[...],"records_skipped":N}
  std::string ToJson() const;
  // Header row then one row per point; counters exported as rates.
  std::string ToCsv(const std::vector<std::string>& metrics) const;

 private:
  std::vector<TelemetryPoint> points_;
  std::vector<TelemetryAnnotation> annotations_;
  size_t records_skipped_ = 0;
  uint64_t current_boot_ = 0;
  uint32_t last_sequence_ = 0;
  std::map<uint32_t, std::string> dictionary_;  // per-boot id -> name
};

// ---------------------------------------------------------------------------
// The sampler.

using TelemetryAppendFn = std::function<Status(std::span<const std::byte>)>;

struct TelemetrySamplerOptions {
  uint64_t sample_interval_ms = 1000;
  // 0 derives a random boot id at construction.
  uint64_t boot_id = 0;
  // Journal path the owner appends to; the sampler itself never touches
  // paths (the append closure does), this just keeps the config together.
  std::string journal_path = std::string(kTelemetryJournalPath);
  // Registry to sample; null means the process-wide ObsRegistry().
  MetricsRegistry* registry = nullptr;
};

// Background thread in the Scrubber's mold: Start() spawns it, Stop()
// joins it, SampleOnce() runs a single tick synchronously (tests, and the
// final flush on Stop).
class TelemetrySampler {
 public:
  TelemetrySampler(TelemetryAppendFn append, TelemetrySamplerOptions options);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void Start();
  void Stop();

  // Snapshots the registry, encodes the delta record, appends it. The
  // returned record is what went to the journal (tests assert on it).
  Result<TelemetryRecord> SampleOnce();

  // Called before each snapshot; owners refresh externally-computed
  // gauges here (process stats, lane rollups).
  void set_pre_sample_hook(std::function<void()> hook);

  uint64_t boot_id() const { return boot_id_; }
  uint64_t samples_taken() const;

  // The previous snapshot and the window it opened, for windowed health
  // evaluation. Empty until the first sample lands.
  std::optional<StatsSnapshot> LastSnapshot() const;
  uint64_t LastWindowUs() const;

 private:
  void ThreadMain();

  const TelemetryAppendFn append_;
  const TelemetrySamplerOptions options_;
  uint64_t boot_id_ = 0;

  mutable std::mutex mu_;  // guards everything below
  std::function<void()> pre_sample_hook_;
  std::map<std::string, uint32_t> ids_;  // name -> dictionary id
  // Dictionary entries not yet carried by a successfully appended record;
  // re-emitted every tick until one lands (a lost record must not lose
  // the binding for the rest of the boot).
  std::map<uint32_t, std::string> unacked_dictionary_;
  uint32_t next_id_ = 1;
  uint32_t sequence_ = 0;
  std::optional<StatsSnapshot> previous_;
  uint64_t previous_at_us_ = 0;
  uint64_t last_window_us_ = 0;
  uint64_t samples_taken_ = 0;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

// Builds the delta record `current - previous` using the caller's
// dictionary (names absent from `ids` are assigned starting at
// *next_id and emitted in record.dictionary). Counter resets (current <
// previous) clamp the delta to the current value. Exposed for the
// windowed-rate tests; the sampler calls it internally.
TelemetryRecord DiffSnapshots(const StatsSnapshot& current,
                              const StatsSnapshot* previous,
                              std::map<std::string, uint32_t>* ids,
                              uint32_t* next_id);

// Refreshes clio.process.uptime_seconds / rss_bytes / open_fds and the
// monotonic clio.process.sampled_at_us stamp in the given registry
// (ObsRegistry() when null). Called by the sampler each tick and by the
// STATS handler so every snapshot a client sees carries a fresh stamp.
void UpdateProcessGauges(MetricsRegistry* registry = nullptr);

// ---------------------------------------------------------------------------
// Health plane: declarative SLO rules over registry snapshots.

enum class HealthState : uint8_t {
  kOk = 0,
  kDegraded = 1,
  kUnhealthy = 2,
};

std::string_view HealthStateName(HealthState state);

// One rule; bounds are "breach when value > bound", a negative bound
// disables that severity tier. `metric` may end in ".*" to match every
// metric with that prefix, and every rule also matches the per-partition
// `.p<i>` lanes of its metric so lane breaches roll up with the lane
// named in the reason.
struct SloRule {
  enum class Kind : uint8_t {
    kHistogramP99CeilingUs = 0,  // windowed p99 of a latency histogram
    kGaugeCeiling = 1,           // instantaneous gauge value
    kCounterDeltaCeiling = 2,    // windowed counter delta (absolute value
                                 // when no previous snapshot is supplied)
  };

  Kind kind = Kind::kGaugeCeiling;
  std::string metric;
  double degraded_above = -1.0;
  double unhealthy_above = -1.0;
  std::string id;  // machine-readable reason tag, e.g. "append-p99"
};

struct SloRules {
  std::vector<SloRule> rules;

  // The shipped SLO: append/read p99 ceilings, worker-queue depth, the
  // scrub degraded gauge, device fault counters, checkpoint age.
  static SloRules Defaults();
};

struct HealthReason {
  std::string rule;    // SloRule::id
  std::string metric;  // the concrete metric that breached (incl. lane)
  HealthState severity = HealthState::kDegraded;
  double value = 0.0;
  double bound = 0.0;
};

// An over-SLO request captured by the slow-request ring; the trace id
// keys straight into TRACE_DUMP / the flight recorder.
struct SlowRequest {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t total_us = 0;
  uint64_t recorded_at_us = 0;
};

struct HealthReport {
  static constexpr uint16_t kVersion = 1;

  HealthState state = HealthState::kOk;
  uint64_t evaluated_at_us = 0;
  std::vector<HealthReason> reasons;
  std::vector<SlowRequest> exemplars;

  std::string ToJson() const;
};

// Evaluates the rules against `current` (windowed against `previous`
// over `window_us` when supplied; histograms and counter deltas fall
// back to process-lifetime values otherwise). Does not touch the
// slow-request ring — callers attach exemplars.
HealthReport EvaluateHealth(const StatsSnapshot& current,
                            const StatsSnapshot* previous, uint64_t window_us,
                            const SloRules& rules);

Bytes EncodeHealthReport(const HealthReport& report);
Result<HealthReport> DecodeHealthReport(std::span<const std::byte> raw);

// ---------------------------------------------------------------------------
// Slow-request ring: the metrics -> trace bridge.

// Coarse request classes for threshold lookup; the dispatcher maps ops.
enum class RpcClass : uint8_t { kAppend = 0, kRead = 1, kOther = 2 };

// Process-global bounded ring of over-SLO requests. Observe() is a
// relaxed atomic threshold check on the hot path; only actual breaches
// take the mutex.
class SlowRequestRing {
 public:
  static constexpr size_t kCapacity = 64;

  static SlowRequestRing& Instance();

  // threshold_us == 0 disables capture for that class.
  void ConfigureThreshold(RpcClass cls, uint64_t threshold_us);
  uint64_t threshold(RpcClass cls) const;

  void Observe(RpcClass cls, std::string_view op, uint64_t trace_id,
               uint64_t total_us);

  // Newest first, at most `limit`.
  std::vector<SlowRequest> Snapshot(size_t limit = kCapacity) const;

  void ResetForTest();

 private:
  std::atomic<uint64_t> thresholds_[3] = {};
  mutable std::mutex mu_;
  std::vector<SlowRequest> ring_;  // circular once kCapacity reached
  size_t next_ = 0;
};

// Derives ring thresholds from the rules' p99 ceilings
// (clio.rpc.append_us -> kAppend, clio.rpc.read_us -> kRead,
// clio.rpc.request_us -> kOther): a request slower than the degraded
// ceiling for its class is exemplar-worthy.
void ConfigureSlowRequestThresholds(const SloRules& rules);

}  // namespace clio

#endif  // SRC_OBS_TELEMETRY_H_
