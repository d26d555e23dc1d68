// cliotrace: inspect a log server's flight recorder, metrics, health,
// and self-hosted telemetry journal.
//
// Four ways in:
//  - trace dump (default): kTraceDump, slowest requests with per-stage
//    latency breakdown; --json exports Chrome trace_event JSON.
//  - --stats / --top: one metrics snapshot, or a live dashboard polling
//    STATS and computing windowed rates from counter deltas (the
//    clio.process.sampled_at_us stamp supplies the window, so rates are
//    skew-free), with per-partition `.p<i>` append lanes broken out.
//  - --health: the kHealth op — OK/DEGRADED/UNHEALTHY from the server's
//    SLO rules, with machine-readable reasons and slow-request trace-id
//    exemplars. The exit code mirrors the state (0/1/2; errors exit 3),
//    so it drops straight into a monitoring probe.
//  - --history PATH: replay the telemetry journal into a gap-annotated
//    time series. With --port, PATH is the journal's log-file path on the
//    mounted (running) server, read over the wire; without, each PATH is
//    an offline volume device file, recovered and chain-verified
//    (VerifyVolume) before replay. --json/--csv export the series.
//
//   cliotrace --port 9000                     # top 10 slowest requests
//   cliotrace --port 9000 --min-total-us 5000 # only requests >= 5ms
//   cliotrace --port 9000 --json trace.json   # export for chrome://tracing
//   cliotrace --port 9000 --stats             # metrics incl. per-partition
//   cliotrace --port 9000 --top               # live dashboard (ctrl-C ends)
//   cliotrace --port 9000 --health            # SLO health, exit 0/1/2
//   cliotrace --port 9000 --history /.sys/telemetry --csv -
//   cliotrace --history vol0.dev --history vol1.dev --json series.json
//   cliotrace --port 9000 --verify /adm/audit --timestamp 42
//                                             # prove one entry against the
//                                             # volume hash chain
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/file_worm_device.h"
#include "src/net/net_client.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/util/time.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port PORT] MODE [options]\n"
      "\n"
      "modes (default: slowest-request dump via TRACE_DUMP)\n"
      "  --stats             one metrics snapshot, with a per-partition\n"
      "                      append-lane breakdown on a partitioned server\n"
      "  --top               live dashboard: polls STATS, prints windowed\n"
      "                      rates from counter deltas and per-lane "
      "activity\n"
      "  --health            SLO health (OK/DEGRADED/UNHEALTHY) with "
      "reasons\n"
      "                      and slow-request exemplars; exit code 0/1/2\n"
      "                      mirrors the state, errors exit 3\n"
      "  --history PATH      replay the telemetry journal as a time "
      "series.\n"
      "                      With --port PATH is the journal log file on "
      "the\n"
      "                      running server (e.g. /.sys/telemetry); "
      "without,\n"
      "                      each --history PATH is an offline volume "
      "device\n"
      "                      file (chain-verified before replay)\n"
      "  --verify PATH       fetch an inclusion proof for PATH's entry at\n"
      "                      --timestamp and check it against the volume\n"
      "                      hash chain (DESIGN.md section 15)\n"
      "\n"
      "options\n"
      "  --port PORT         server port (required except offline "
      "--history)\n"
      "  --min-total-us N    only requests at least N us end to end\n"
      "  --limit N           requests to print (default 10)\n"
      "  --max-spans N       span budget for the dump (0 = server default)\n"
      "  --json FILE         trace dump: Chrome trace_event JSON;\n"
      "                      --history: the replayed series ('-' = stdout)\n"
      "  --csv FILE          --history: counters-as-rates CSV ('-' = "
      "stdout)\n"
      "  --metric NAME       --history CSV column (repeatable; default "
      "all)\n"
      "  --interval-ms N     --top poll interval (default 1000)\n"
      "  --iterations N      --top refresh count (default 0 = forever)\n"
      "  --block-size N      offline --history device geometry (1024)\n"
      "  --capacity-blocks N offline --history device geometry (65536)\n"
      "  --timestamp T       the entry to prove (with --verify)\n",
      argv0);
}

// The partitions a snapshot carries metric lanes for: every ".p<i>"
// counter names one (LaneMetricName; DESIGN.md §11).
std::set<uint32_t> MetricLanes(const clio::StatsSnapshot& stats) {
  std::set<uint32_t> lanes;
  for (const auto& [name, value] : stats.counters) {
    if (auto lane = clio::ParseLaneMetricName(name)) {
      lanes.insert(lane->lane);
    }
  }
  return lanes;
}

// Aggregates, then the per-partition breakdown of the metric lanes every
// server's partitions record into (the aggregates are their fold).
void PrintStats(const clio::StatsSnapshot& stats) {
  std::printf("server metrics snapshot: %zu counters, %zu histograms\n",
              stats.counters.size(), stats.histograms.size());
  std::printf("  process: up %" PRId64 " s  rss %" PRId64 " MiB  fds %" PRId64
              "\n",
              stats.gauge("clio.process.uptime_seconds"),
              stats.gauge("clio.process.rss_bytes") / (1 << 20),
              stats.gauge("clio.process.open_fds"));
  std::printf("  appends committed %" PRIu64 "  batches %" PRIu64
              "  dedup replays %" PRIu64 "\n",
              stats.counter("clio.net.batch.appends"),
              stats.counter("clio.net.batch.batches"),
              stats.counter("clio.net.dedup.replays"));
  std::printf("  scrub: passes %" PRIu64 "  blocks %" PRIu64
              "  corrupt %" PRIu64 "  chain mismatches %" PRIu64
              "  quarantined %" PRIu64 "  degraded %s\n",
              stats.counter("clio.scrub.passes"),
              stats.counter("clio.scrub.blocks_scanned"),
              stats.counter("clio.scrub.corrupt_blocks"),
              stats.counter("clio.scrub.chain_mismatches"),
              stats.counter("clio.scrub.quarantined_blocks"),
              stats.gauge("clio.scrub.degraded") > 0 ? "yes" : "no");
  std::printf("  index: hits %" PRIu64 "  misses %" PRIu64
              "  rebuilds %" PRIu64 "  readahead blocks %" PRIu64 "\n",
              stats.counter("clio.index.hits"),
              stats.counter("clio.index.misses"),
              stats.counter("clio.index.rebuilds"),
              stats.counter("clio.index.rebuild_readahead_blocks"));
  // The restart step ledger: mean microseconds per restart.
  auto step_mean = [&](const char* name) {
    return stats.histogram(name).value_or(clio::HistogramSnapshot{}).Mean();
  };
  std::printf("  recovery: device passes %" PRIu64
              "  decode %.0f us  open delay %.0f us  decode wait %.0f us"
              "  locate %.0f us  replay %.0f us\n",
              stats.counter("clio.recovery.device_passes"),
              step_mean("clio.recovery.decode_us"),
              step_mean("clio.recovery.open_delay_us"),
              step_mean("clio.recovery.decode_wait_us"),
              step_mean("clio.recovery.locate_us"),
              step_mean("clio.recovery.replay_us"));
  const auto wait = stats.histogram("clio.device.queue_wait_us")
                        .value_or(clio::HistogramSnapshot{});
  std::printf("  device queue wait: calls %" PRIu64
              "  mean %.1f us  p99 %.0f us\n",
              wait.count, wait.Mean(), wait.p99());
  std::printf("  checkpoints: written %" PRIu64 "  restored %" PRIu64
              "  bytes %" PRIu64 "  age %" PRId64 " blocks\n",
              stats.counter("clio.index.checkpoints_written"),
              stats.counter("clio.index.checkpoints_restored"),
              stats.counter("clio.index.checkpoint_bytes"),
              stats.gauge("clio.index.checkpoint_age_blocks"));

  const std::set<uint32_t> partitions = MetricLanes(stats);
  if (partitions.empty()) {
    std::printf("  no per-partition metrics (single write head)\n");
    return;
  }
  std::printf("per-partition append lanes:\n");
  std::printf("  %4s  %10s  %8s  %10s  %9s  %9s  %12s  %12s\n", "part",
              "appends", "batches", "vol blocks", "idx hits", "idx miss",
              "commit p99", "append p99");
  for (uint32_t p : partitions) {
    auto lane = [p](const char* name) {
      return clio::LaneMetricName(name, p);
    };
    auto commit_us = stats.histogram(lane("clio.net.batch.commit_us"));
    auto append_us = stats.histogram(lane("clio.volume.append_us"));
    std::printf("  %4u  %10" PRIu64 "  %8" PRIu64 "  %10" PRIu64
                "  %9" PRIu64 "  %9" PRIu64 "  %9.0f us  %9.0f us\n",
                p, stats.counter(lane("clio.net.batch.appends")),
                stats.counter(lane("clio.net.batch.batches")),
                stats.counter(lane("clio.volume.appends")),
                stats.counter(lane("clio.index.hits")),
                stats.counter(lane("clio.index.misses")),
                commit_us ? commit_us->p99() : 0.0,
                append_us ? append_us->p99() : 0.0);
  }
}

// ---------------------------------------------------------------------------
// --health

int RunHealth(clio::NetLogClient* client) {
  auto report = client->GetHealth();
  if (!report.ok()) {
    std::fprintf(stderr, "health fetch failed: %s\n",
                 report.status().message().c_str());
    return 3;
  }
  std::printf("health: %s (%zu reasons, %zu slow-request exemplars)\n",
              std::string(clio::HealthStateName(report->state)).c_str(),
              report->reasons.size(), report->exemplars.size());
  for (const auto& r : report->reasons) {
    std::printf("  [%s] %s: %s = %.1f > %.1f\n",
                std::string(clio::HealthStateName(r.severity)).c_str(),
                r.rule.c_str(), r.metric.c_str(), r.value, r.bound);
  }
  for (const auto& e : report->exemplars) {
    std::printf("  slow %-12s trace 0x%016" PRIx64 "  %8" PRIu64 " us\n",
                e.op.c_str(), e.trace_id, e.total_us);
  }
  return static_cast<int>(report->state);
}

// ---------------------------------------------------------------------------
// --top: live dashboard over repeated STATS snapshots.

// Windowed percentile: rebuild a snapshot from the bucket deltas between
// two polls, so the tail reflects this window, not process lifetime.
double WindowedPercentile(const clio::HistogramSnapshot& now,
                          const clio::HistogramSnapshot* prev, double p) {
  if (prev == nullptr) {
    return now.Percentile(p);
  }
  clio::HistogramSnapshot delta;
  for (size_t i = 0; i < clio::Histogram::kBucketCount; ++i) {
    delta.buckets[i] =
        now.buckets[i] >= prev->buckets[i] ? now.buckets[i] - prev->buckets[i]
                                           : now.buckets[i];
  }
  delta.count = now.count >= prev->count ? now.count - prev->count : now.count;
  delta.sum = now.sum >= prev->sum ? now.sum - prev->sum : now.sum;
  delta.max = now.max;  // max cannot be windowed; absolute stands in
  return delta.count == 0 ? 0.0 : delta.Percentile(p);
}

double Rate(const clio::StatsSnapshot& now, const clio::StatsSnapshot* prev,
            const std::string& name, double window_s) {
  if (prev == nullptr || window_s <= 0.0) {
    return 0.0;
  }
  const uint64_t cur = now.counter(name);
  const uint64_t old = prev->counter(name);
  const uint64_t delta = cur >= old ? cur - old : cur;
  return static_cast<double>(delta) / window_s;
}

void PrintDashboard(const clio::StatsSnapshot& now,
                    const clio::StatsSnapshot* prev,
                    const clio::HealthReport* health) {
  // The server-side monotonic stamp makes the window immune to client
  // clock skew; first frame has no window, so rates print as 0.
  const double window_s =
      prev == nullptr
          ? 0.0
          : static_cast<double>(now.gauge("clio.process.sampled_at_us") -
                                prev->gauge("clio.process.sampled_at_us")) /
                1e6;
  std::printf("clio live  up %" PRId64 " s  rss %" PRId64 " MiB  fds %" PRId64
              "  window %.1fs\n",
              now.gauge("clio.process.uptime_seconds"),
              now.gauge("clio.process.rss_bytes") / (1 << 20),
              now.gauge("clio.process.open_fds"), window_s);
  if (health != nullptr) {
    std::printf("health: %s",
                std::string(clio::HealthStateName(health->state)).c_str());
    for (const auto& r : health->reasons) {
      std::printf("  [%s %s]", r.rule.c_str(), r.metric.c_str());
    }
    std::printf("\n");
  }
  std::printf("  %-10s %10s %10s %10s %10s\n", "op", "rate/s", "p50 us",
              "p99 us", "p99.9 us");
  for (const char* op : {"append", "read"}) {
    const std::string hist_name = std::string("clio.rpc.") + op + "_us";
    auto hist = now.histogram(hist_name);
    std::optional<clio::HistogramSnapshot> prev_hist;
    if (prev != nullptr) {
      prev_hist = prev->histogram(hist_name);
    }
    const clio::HistogramSnapshot* ph =
        prev_hist.has_value() ? &*prev_hist : nullptr;
    std::printf("  %-10s %10.1f %10.0f %10.0f %10.0f\n", op,
                Rate(now, prev, std::string("clio.rpc.requests.") + op,
                     window_s),
                hist ? WindowedPercentile(*hist, ph, 0.50) : 0.0,
                hist ? WindowedPercentile(*hist, ph, 0.99) : 0.0,
                hist ? WindowedPercentile(*hist, ph, 0.999) : 0.0);
  }
  std::printf("  batches/s %.1f  forces/s %.1f  dedup replays/s %.1f  "
              "scrub degraded %s\n",
              Rate(now, prev, "clio.net.batch.batches", window_s),
              Rate(now, prev, "clio.volume.forces", window_s),
              Rate(now, prev, "clio.net.dedup.replays", window_s),
              now.gauge("clio.scrub.degraded") > 0 ? "YES" : "no");

  const std::set<uint32_t> lanes = MetricLanes(now);
  if (!lanes.empty()) {
    std::printf("  %-6s %12s %12s %12s\n", "lane", "appends/s", "batches/s",
                "append p99");
    for (uint32_t p : lanes) {
      auto lane = [p](const char* name) {
        return clio::LaneMetricName(name, p);
      };
      auto lane_hist = now.histogram(lane("clio.volume.append_us"));
      std::optional<clio::HistogramSnapshot> lane_prev;
      if (prev != nullptr) {
        lane_prev = prev->histogram(lane("clio.volume.append_us"));
      }
      std::printf("  p%-5u %12.1f %12.1f %9.0f us\n", p,
                  Rate(now, prev, lane("clio.net.batch.appends"), window_s),
                  Rate(now, prev, lane("clio.net.batch.batches"), window_s),
                  lane_hist
                      ? WindowedPercentile(
                            *lane_hist,
                            lane_prev.has_value() ? &*lane_prev : nullptr,
                            0.99)
                      : 0.0);
    }
  }
  std::fflush(stdout);
}

int RunTop(clio::NetLogClient* client, uint64_t interval_ms,
           uint64_t iterations) {
  const bool tty = isatty(STDOUT_FILENO) != 0;
  std::optional<clio::StatsSnapshot> prev;
  for (uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    auto stats = client->GetStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats fetch failed: %s\n",
                   stats.status().message().c_str());
      return 1;
    }
    auto health = client->GetHealth();
    if (tty) {
      std::printf("\x1b[H\x1b[2J");
    }
    PrintDashboard(*stats, prev.has_value() ? &*prev : nullptr,
                   health.ok() ? &*health : nullptr);
    prev = std::move(*stats);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --history: replay the telemetry journal into a time series.

int WriteSeries(const clio::TelemetryReplay& replay, const char* json_path,
                const char* csv_path,
                const std::vector<std::string>& metrics) {
  auto emit = [](const char* path, const std::string& body,
                 const char* what) -> int {
    if (std::strcmp(path, "-") == 0) {
      std::fwrite(body.data(), 1, body.size(), stdout);
      return 0;
    }
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 3;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %zu bytes of %s to %s\n", body.size(), what, path);
    return 0;
  };
  if (json_path != nullptr) {
    if (int rc = emit(json_path, replay.ToJson(), "telemetry JSON")) {
      return rc;
    }
  }
  if (csv_path != nullptr) {
    const std::vector<std::string>& columns =
        metrics.empty() ? replay.MetricNames() : metrics;
    if (int rc = emit(csv_path, replay.ToCsv(columns), "telemetry CSV")) {
      return rc;
    }
  }
  return 0;
}

void PrintSeriesSummary(const clio::TelemetryReplay& replay) {
  std::map<uint64_t, size_t> boots;
  for (const auto& point : replay.points()) {
    ++boots[point.boot_id];
  }
  std::printf("telemetry series: %zu points across %zu boot(s), "
              "%zu annotation(s), %zu record(s) skipped\n",
              replay.points().size(), boots.size(),
              replay.annotations().size(), replay.records_skipped());
  for (const auto& a : replay.annotations()) {
    std::printf("  @%zu %s: %s\n", a.point_index, a.kind.c_str(),
                a.detail.c_str());
  }
  if (!replay.points().empty()) {
    const auto& first = replay.points().front();
    const auto& last = replay.points().back();
    std::printf("  span: entry timestamps %" PRIu64 " .. %" PRIu64
                ", %zu metric(s)\n",
                first.entry_timestamp, last.entry_timestamp,
                replay.MetricNames().size());
  }
}

int RunHistoryOnline(clio::NetLogClient* client, const std::string& path,
                     const char* json_path, const char* csv_path,
                     const std::vector<std::string>& metrics) {
  auto handle = client->OpenReader(path);
  if (!handle.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 handle.status().message().c_str());
    return 3;
  }
  clio::TelemetryReplay replay;
  for (;;) {
    auto batch = client->ReadNextBatch(*handle, 256);
    if (!batch.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   batch.status().message().c_str());
      return 3;
    }
    for (const auto& entry : batch->entries) {
      replay.Feed(static_cast<uint64_t>(entry.timestamp), entry.payload);
    }
    if (batch->at_end || batch->entries.empty()) {
      break;
    }
  }
  (void)client->CloseReader(*handle);
  PrintSeriesSummary(replay);
  return WriteSeries(replay, json_path, csv_path, metrics);
}

int RunHistoryOffline(const std::vector<std::string>& device_paths,
                      uint32_t block_size, uint64_t capacity_blocks,
                      const char* json_path, const char* csv_path,
                      const std::vector<std::string>& metrics) {
  clio::FileWormOptions geometry;
  geometry.block_size = block_size;
  geometry.capacity_blocks = capacity_blocks;
  std::vector<std::unique_ptr<clio::WormDevice>> devices;
  for (const std::string& path : device_paths) {
    auto device = clio::FileWormDevice::Open(path, geometry);
    if (!device.ok()) {
      std::fprintf(stderr, "cannot open device %s: %s\n", path.c_str(),
                   device.status().message().c_str());
      return 3;
    }
    devices.push_back(std::move(*device));
  }
  clio::RealTimeSource clock;
  clio::LogServiceOptions options;
  auto service = clio::LogService::Recover(std::move(devices), &clock,
                                           options, nullptr);
  if (!service.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 service.status().message().c_str());
    return 3;
  }

  // Chain-verify every volume before trusting its contents; telemetry
  // records are ordinary entries to the verifier.
  for (size_t v = 0; v < (*service)->volume_count(); ++v) {
    auto report = clio::VerifyVolume((*service)->volume(v));
    if (!report.ok()) {
      std::fprintf(stderr, "verify of volume %zu failed: %s\n", v,
                   report.status().message().c_str());
      return 3;
    }
    std::printf("volume %zu: %" PRIu64 " blocks, %" PRIu64 " entries, %s\n",
                v, report->blocks_valid, report->entries_total,
                report->clean() ? "chain OK" : "NOT CLEAN");
    if (!report->clean()) {
      for (const auto& m : report->chain_mismatches) {
        std::fprintf(stderr, "  chain mismatch: %s\n", m.c_str());
      }
      return 4;
    }
  }

  auto reader =
      (*service)->OpenReader(std::string(clio::kTelemetryJournalPath));
  if (!reader.ok()) {
    std::fprintf(stderr, "no telemetry journal on this volume set: %s\n",
                 reader.status().message().c_str());
    return 3;
  }
  clio::TelemetryReplay replay;
  (*reader)->SeekToStart();
  for (;;) {
    auto record = (*reader)->Next();
    if (!record.ok()) {
      std::fprintf(stderr, "journal read failed: %s\n",
                   record.status().message().c_str());
      return 3;
    }
    if (!record->has_value()) {
      break;
    }
    replay.Feed(static_cast<uint64_t>((*record)->timestamp),
                (*record)->payload);
  }
  PrintSeriesSummary(replay);
  return WriteSeries(replay, json_path, csv_path, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  uint64_t min_total_us = 0;
  uint32_t max_spans = 0;
  size_t limit = 10;
  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  bool show_stats = false;
  bool show_top = false;
  bool show_health = false;
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;
  std::vector<std::string> history_paths;
  std::vector<std::string> csv_metrics;
  uint32_t block_size = 1024;
  uint64_t capacity_blocks = 1 << 16;
  const char* verify_path = nullptr;
  clio::Timestamp verify_t = 0;
  bool have_timestamp = false;
  for (int i = 1; i < argc; ++i) {
    auto want_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) {
        return nullptr;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--stats") == 0) {
      show_stats = true;
    } else if (std::strcmp(argv[i], "--top") == 0) {
      show_top = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      show_health = true;
    } else if (const char* v = want_value("--port")) {
      port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v2 = want_value("--min-total-us")) {
      min_total_us = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = want_value("--limit")) {
      limit = std::strtoul(v3, nullptr, 10);
    } else if (const char* v4 = want_value("--max-spans")) {
      max_spans = static_cast<uint32_t>(std::strtoul(v4, nullptr, 10));
    } else if (const char* v5 = want_value("--json")) {
      json_path = v5;
    } else if (const char* v6 = want_value("--verify")) {
      verify_path = v6;
    } else if (const char* v7 = want_value("--timestamp")) {
      verify_t = static_cast<clio::Timestamp>(std::strtoll(v7, nullptr, 10));
      have_timestamp = true;
    } else if (const char* v8 = want_value("--history")) {
      history_paths.emplace_back(v8);
    } else if (const char* v9 = want_value("--csv")) {
      csv_path = v9;
    } else if (const char* v10 = want_value("--metric")) {
      csv_metrics.emplace_back(v10);
    } else if (const char* v11 = want_value("--interval-ms")) {
      interval_ms = std::strtoull(v11, nullptr, 10);
    } else if (const char* v12 = want_value("--iterations")) {
      iterations = std::strtoull(v12, nullptr, 10);
    } else if (const char* v13 = want_value("--block-size")) {
      block_size = static_cast<uint32_t>(std::strtoul(v13, nullptr, 10));
    } else if (const char* v14 = want_value("--capacity-blocks")) {
      capacity_blocks = std::strtoull(v14, nullptr, 10);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  // Offline history needs no server at all.
  if (!history_paths.empty() && port == 0) {
    return RunHistoryOffline(history_paths, block_size, capacity_blocks,
                             json_path, csv_path, csv_metrics);
  }
  if (port == 0) {
    Usage(argv[0]);
    return 2;
  }

  auto client = clio::NetLogClient::Connect(port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().message().c_str());
    return show_health ? 3 : 1;
  }

  if (!history_paths.empty()) {
    if (history_paths.size() != 1) {
      std::fprintf(stderr,
                   "online --history takes exactly one journal path\n");
      return 2;
    }
    return RunHistoryOnline(client->get(), history_paths[0], json_path,
                            csv_path, csv_metrics);
  }

  if (show_health) {
    return RunHealth(client->get());
  }

  if (show_top) {
    return RunTop(client->get(), interval_ms, iterations);
  }

  if (verify_path != nullptr) {
    if (!have_timestamp) {
      std::fprintf(stderr, "--verify needs --timestamp\n");
      return 2;
    }
    auto proof = (*client)->FetchChainProof(verify_path, verify_t);
    if (!proof.ok()) {
      std::fprintf(stderr, "proof fetch failed: %s\n",
                   proof.status().message().c_str());
      return 1;
    }
    std::printf("proof for %s @ %" PRId64 ": volume %u block %" PRIu64
                " entry %u, %zu record hashes, %zu chain links to head "
                "block %" PRIu64 "\n",
                verify_path, static_cast<int64_t>(verify_t),
                proof->volume_index, proof->block, proof->entry_index,
                proof->record_hashes.size(), proof->links.size(),
                proof->head_block);
    auto entry = proof->Verify();
    if (!entry.ok()) {
      std::printf("VERIFY FAILED: %s\n", entry.status().message().c_str());
      return 1;
    }
    std::printf("VERIFY OK: %zu-byte entry is committed by the volume "
                "chain head tag %016" PRIx64 "\n",
                entry->payload.size(), proof->head_tag);
    return 0;
  }

  if (show_stats) {
    auto stats = (*client)->GetStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats fetch failed: %s\n",
                   stats.status().message().c_str());
      return 1;
    }
    PrintStats(*stats);
    return 0;
  }

  auto dump = (*client)->DumpTraces(min_total_us, max_spans);
  if (!dump.ok()) {
    std::fprintf(stderr, "trace dump failed: %s\n",
                 dump.status().message().c_str());
    return 1;
  }

  if (json_path != nullptr) {
    std::string json = clio::TraceDumpToChromeJson(*dump);
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %zu bytes of Chrome trace JSON to %s\n", json.size(),
                json_path);
    std::printf("open in chrome://tracing or https://ui.perfetto.dev\n");
  }

  auto summaries = clio::SummarizeTraces(dump->spans);
  std::printf("%zu spans, %zu requests, %" PRIu64 " dropped\n",
              dump->spans.size(), summaries.size(), dump->dropped);
  if (summaries.empty()) {
    std::printf("no traced requests recorded%s\n",
                min_total_us > 0 ? " above the threshold" : "");
    return 0;
  }
  std::printf("slowest requests:\n");
  size_t shown = 0;
  for (const clio::TraceSummary& s : summaries) {
    if (shown++ >= limit) {
      break;
    }
    std::printf("  trace 0x%016" PRIx64 "  total %8" PRIu64
                " us  (%zu spans)\n",
                s.trace_id, s.total_us, s.span_count);
    for (const auto& [stage, us] : s.stage_us) {
      std::printf("    %-14s %8" PRIu64 " us\n",
                  std::string(clio::TraceStageName(stage)).c_str(), us);
    }
  }
  return 0;
}
