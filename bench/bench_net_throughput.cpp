// Networked log server throughput: client count x group-commit batching.
//
// Models the paper's §3.2 observation that the forced tail-block write
// dominates synchronous log append cost, and §2.3's claim that buffering
// amortizes it. Each cell runs N client threads over real loopback TCP
// against one NetLogServer whose WORM device charges a fixed real latency
// per block burn (think fsync / optical burn). With batching off, N
// committers pay N forces; with group commit they share ~1 per batch.
//
// Output: aggregate forced appends/sec and per-append p50/p99 latency per
// configuration, then the headline speedup of batching at 8 clients
// (ISSUE 1 acceptance: >= 3x).
//
// A second sweep scales PARTITIONS instead of batching: the same 8 forced
// committers against 1/2/4 independent volume sequences (src/partition/),
// with block-sized payloads so every append costs one burn and the single
// write head is the bottleneck. Horizontal scaling then shows up directly
// as appends/sec (ISSUE 6 acceptance: 4 partitions >= 2.5x one, p99 <=
// 1.25x). `--partitions=N` raises the sweep's top cell.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/device/borrowed_device.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/obs/trace.h"
#include "src/partition/partitioned_service.h"

namespace clio {
namespace bench {
namespace {

// A WORM device whose block burns take real wall-clock time. The in-memory
// device is too fast to show force economics; this decorator stands in for
// the durable-media cost (NVMe fsync ~0.5 ms; the paper's disk, ~20 ms).
class SlowBurnDevice : public BorrowedDevice {
 public:
  SlowBurnDevice(std::unique_ptr<WormDevice> base, uint64_t burn_us)
      : BorrowedDevice(base.get()), owned_(std::move(base)),
        burn_us_(burn_us) {}

  Result<uint64_t> AppendBlock(std::span<const std::byte> data) override {
    std::this_thread::sleep_for(std::chrono::microseconds(burn_us_));
    return BorrowedDevice::AppendBlock(data);
  }

 private:
  std::unique_ptr<WormDevice> owned_;
  const uint64_t burn_us_;
};

constexpr uint64_t kBurnUs = 500;  // per-block burn latency
constexpr size_t kPayloadBytes = 64;

// Forced appends per client; CI's fast mode keeps the same code paths but
// shrinks the workload so the smoke job stays under a minute.
int AppendsPerClient() { return FastMode() ? 30 : 100; }

struct CellResult {
  double appends_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_batch = 0;  // entries per force (1.0 when batching is off)
  uint64_t scrub_passes = 0;  // completed online scrub passes (scrub cells)
  uint64_t telemetry_samples = 0;  // journal records (telemetry cells)
};

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) {
    return 0;
  }
  std::sort(samples->begin(), samples->end());
  size_t index = static_cast<size_t>(p * (samples->size() - 1));
  return (*samples)[index];
}

CellResult RunCell(int clients, bool batching, uint64_t hold_us,
                   bool scrub = false, bool telemetry = false) {
  const int kAppendsPerClient = AppendsPerClient();
  SimulatedClock clock(1'000'000, /*auto_tick=*/11);
  MemoryWormOptions dev;
  dev.block_size = 1024;
  dev.capacity_blocks = 1 << 16;
  LogServiceOptions options;
  options.cache_blocks = 4096;
  options.sequence_id = 0xBE7C5;
  auto service = LogService::Create(
      std::make_unique<SlowBurnDevice>(
          std::make_unique<MemoryWormDevice>(dev), kBurnUs),
      &clock, options);
  BENCH_CHECK_OK(service.status());

  NetLogServerOptions server_options;
  server_options.batch.max_hold_us = hold_us;
  // Commit as soon as every connected committer has joined the batch; the
  // hold window is the fallback when some are mid-round-trip. Unbatched
  // cells commit batches of one: one force per append.
  server_options.batch.max_batch_entries =
      batching ? static_cast<size_t>(clients) : 1;
  // Scrub cells run the online scrubber at an aggressive cadence so it
  // actually races the committers during the short measurement window —
  // the overhead measured here is an upper bound on production settings.
  server_options.scrub = scrub;
  server_options.scrub_options.interval_ms = 2;
  server_options.scrub_options.max_busy_yields = 2;
  // Telemetry cells sample at an absurd cadence (every 5 ms vs the 1 s
  // production default) so the measured overhead upper-bounds reality:
  // each tick snapshots the registry and appends a journal record through
  // the same append path the committers are hammering.
  server_options.telemetry = telemetry;
  server_options.telemetry_options.sample_interval_ms = 5;
  auto server = NetLogServer::Start(service.value().get(), server_options);
  BENCH_CHECK_OK(server.status());

  {
    auto setup = NetLogClient::Connect((*server)->port());
    BENCH_CHECK_OK(setup.status());
    BENCH_CHECK_OK((*setup)->CreateLogFile("/bench").status());
  }

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  auto started = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = NetLogClient::Connect((*server)->port());
      BENCH_CHECK_OK(client.status());
      Bytes payload(kPayloadBytes, std::byte{static_cast<uint8_t>('a' + c)});
      latencies[c].reserve(kAppendsPerClient);
      for (int i = 0; i < kAppendsPerClient; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        BENCH_CHECK_OK((*client)
                           ->Append("/bench", payload, /*timestamped=*/true,
                                    /*force=*/true)
                           .status());
        latencies[c].push_back(UsSince(t0));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  double elapsed_us = UsSince(started);

  CellResult result;
  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.appends_per_sec = all.size() / (elapsed_us / 1e6);
  result.p50_us = Percentile(&all, 0.50);
  result.p99_us = Percentile(&all, 0.99);
  result.p999_us = Percentile(&all, 0.999);
  if ((*server)->batcher()->batches_committed() > 0) {
    result.mean_batch =
        static_cast<double>((*server)->batcher()->entries_committed()) /
        (*server)->batcher()->batches_committed();
  } else {
    result.mean_batch = 1.0;
  }
  if (scrub && (*server)->scrubber() != nullptr) {
    result.scrub_passes = (*server)->scrubber()->passes_completed();
  }
  if (telemetry && (*server)->sampler() != nullptr) {
    result.telemetry_samples = (*server)->sampler()->samples_taken();
  }
  (*server)->Stop();
  return result;
}

// One partition-sweep cell: `clients` committers spread round-robin over
// `partitions` volume sequences, each on its own SlowBurnDevice. Payloads
// near the block size make every append one block burn, so a cell's
// ceiling is (partitions x 1/kBurnUs) burns per second — the paper's
// single-head limit, multiplied.
constexpr size_t kPartitionPayloadBytes = 768;

struct PartitionCellResult {
  CellResult cell;
  std::vector<uint64_t> lane_entries;  // per-partition committed appends
};

PartitionCellResult RunPartitionedCell(uint32_t partitions, int clients) {
  const int kAppendsPerClient = AppendsPerClient();
  SimulatedClock clock(1'000'000, /*auto_tick=*/11);
  MemoryWormOptions dev;
  dev.block_size = 1024;
  dev.capacity_blocks = 1 << 16;
  std::vector<std::unique_ptr<WormDevice>> devices;
  for (uint32_t p = 0; p < partitions; ++p) {
    devices.push_back(std::make_unique<SlowBurnDevice>(
        std::make_unique<MemoryWormDevice>(dev), kBurnUs));
  }
  PartitionedServiceOptions options;
  options.base.cache_blocks = 4096;
  options.base.sequence_id = 0xBE7C600;
  auto service =
      PartitionedLogService::Create(std::move(devices), &clock, options);
  BENCH_CHECK_OK(service.status());

  NetLogServerOptions server_options;
  server_options.batch.max_hold_us = 1000;
  // Commit as soon as every committer pinned to the lane has joined.
  server_options.batch.max_batch_entries = static_cast<size_t>(
      std::max(1, clients / static_cast<int>(partitions)));
  auto server = NetLogServer::Start(service.value().get(), server_options);
  BENCH_CHECK_OK(server.status());

  {
    auto setup = NetLogClient::Connect((*server)->port());
    BENCH_CHECK_OK(setup.status());
    for (int c = 0; c < clients; ++c) {
      BENCH_CHECK_OK((*setup)
                         ->CreateLogFilePlaced(
                             "/bench" + std::to_string(c), 0644,
                             static_cast<uint32_t>(c) % partitions)
                         .status());
    }
  }

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  auto started = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = NetLogClient::Connect((*server)->port());
      BENCH_CHECK_OK(client.status());
      std::string path = "/bench" + std::to_string(c);
      Bytes payload(kPartitionPayloadBytes,
                    std::byte{static_cast<uint8_t>('a' + c)});
      latencies[c].reserve(kAppendsPerClient);
      for (int i = 0; i < kAppendsPerClient; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        BENCH_CHECK_OK((*client)
                           ->Append(path, payload, /*timestamped=*/true,
                                    /*force=*/true)
                           .status());
        latencies[c].push_back(UsSince(t0));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  double elapsed_us = UsSince(started);

  PartitionCellResult result;
  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.cell.appends_per_sec = all.size() / (elapsed_us / 1e6);
  result.cell.p50_us = Percentile(&all, 0.50);
  result.cell.p99_us = Percentile(&all, 0.99);
  result.cell.p999_us = Percentile(&all, 0.999);
  uint64_t entries = 0, batches = 0;
  for (size_t lane = 0; lane < (*server)->lane_count(); ++lane) {
    result.lane_entries.push_back(
        (*server)->batcher(lane)->entries_committed());
    entries += (*server)->batcher(lane)->entries_committed();
    batches += (*server)->batcher(lane)->batches_committed();
  }
  result.cell.mean_batch =
      batches > 0 ? static_cast<double>(entries) / batches : 1.0;
  (*server)->Stop();
  return result;
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main(int argc, char** argv) {
  using namespace clio::bench;

  // --partitions=N: top cell of the partition sweep (default 4).
  uint32_t max_partitions = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--partitions=", 13) == 0) {
      int value = std::atoi(argv[i] + 13);
      if (value < 1) {
        std::fprintf(stderr, "bad --partitions value: %s\n", argv[i]);
        return 1;
      }
      max_partitions = static_cast<uint32_t>(value);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 1;
    }
  }

  std::printf("Networked log server, group-commit sweep\n");
  std::printf("(loopback TCP, %d forced %zu-byte appends per client, "
              "%llu us per block burn)\n\n",
              AppendsPerClient(), kPayloadBytes,
              static_cast<unsigned long long>(kBurnUs));
  std::printf("%8s  %12s  %10s  %10s  %10s  %10s\n", "clients", "batch",
              "appends/s", "p50 (us)", "p99 (us)", "mean batch");

  struct BatchConfig {
    const char* name;   // table label
    const char* slug;   // BENCH json op-name component
    bool batching;
    uint64_t hold_us;
  };
  // Fast mode keeps the endpoints of the sweep (no batching vs the middle
  // hold window, 1 vs 8 clients) so the CI comparator still sees the cells
  // that matter for the group-commit speedup story.
  const std::vector<int> client_counts =
      FastMode() ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  const std::vector<BatchConfig> configs =
      FastMode() ? std::vector<BatchConfig>{{"off", "off", false, 0},
                                            {"hold 1000us", "hold1000us",
                                             true, 1000}}
                 : std::vector<BatchConfig>{{"off", "off", false, 0},
                                            {"hold 200us", "hold200us",
                                             true, 200},
                                            {"hold 1000us", "hold1000us",
                                             true, 1000},
                                            {"hold 4000us", "hold4000us",
                                             true, 4000}};

  BenchReport report("net_throughput");
  double unbatched_8 = 0;
  double best_batched_8 = 0;
  for (int clients : client_counts) {
    for (const auto& config : configs) {
      CellResult cell = RunCell(clients, config.batching, config.hold_us);
      std::printf("%8d  %12s  %10.0f  %10.0f  %10.0f  %10.1f\n", clients,
                  config.name, cell.appends_per_sec, cell.p50_us, cell.p99_us,
                  cell.mean_batch);
      std::string op =
          "c" + std::to_string(clients) + "_" + config.slug;
      size_t n = static_cast<size_t>(clients) *
                 static_cast<size_t>(AppendsPerClient());
      report.AddMean(op, n, cell.appends_per_sec > 0
                                ? 1e6 / cell.appends_per_sec
                                : 0.0);
      report.AddPercentiles(op, cell.p50_us, cell.p99_us, cell.p999_us);
      report.AddCounter(op, "appends_per_sec", cell.appends_per_sec);
      report.AddCounter(op, "mean_batch", cell.mean_batch);
      if (clients == 8 && !config.batching) {
        unbatched_8 = cell.appends_per_sec;
      }
      if (clients == 8 && config.batching) {
        best_batched_8 = std::max(best_batched_8, cell.appends_per_sec);
      }
    }
    std::printf("\n");
  }

  double speedup = unbatched_8 > 0 ? best_batched_8 / unbatched_8 : 0;
  std::printf("8-client group-commit speedup over per-append force: %.1fx %s\n",
              speedup, speedup >= 3.0 ? "(>= 3x: PASS)" : "(< 3x)");
  report.AddCounter("c8_summary", "batching_speedup", speedup);

  // -- Scrubber A/B: the 8-committer batched cell with the online
  // scrubber off vs on. The acceptance gate (CI floors it) is that the
  // scrubber's shared-lock chunks cost < 5% of append throughput.
  std::printf("\nOnline scrubber A/B (8 clients, batching hold 1000us)\n");
  std::printf("%8s  %10s  %10s  %10s  %14s\n", "scrub", "appends/s",
              "p50 (us)", "p99 (us)", "scrub passes");
  struct ScrubConfig {
    const char* name;
    const char* slug;
    bool scrub;
  };
  const ScrubConfig scrub_configs[] = {{"off", "scrub_off", false},
                                       {"on", "scrub_on", true}};
  double scrub_off_thr = 0, scrub_on_thr = 0;
  uint64_t scrub_passes = 0;
  for (const ScrubConfig& config : scrub_configs) {
    CellResult cell = RunCell(8, true, 1000, config.scrub);
    std::printf("%8s  %10.0f  %10.0f  %10.0f  %14llu\n", config.name,
                cell.appends_per_sec, cell.p50_us, cell.p99_us,
                static_cast<unsigned long long>(cell.scrub_passes));
    size_t n = 8 * static_cast<size_t>(AppendsPerClient());
    report.AddMean(config.slug, n, cell.appends_per_sec > 0
                                       ? 1e6 / cell.appends_per_sec
                                       : 0.0);
    report.AddPercentiles(config.slug, cell.p50_us, cell.p99_us,
                          cell.p999_us);
    report.AddCounter(config.slug, "appends_per_sec", cell.appends_per_sec);
    if (config.scrub) {
      scrub_on_thr = cell.appends_per_sec;
      scrub_passes = cell.scrub_passes;
    } else {
      scrub_off_thr = cell.appends_per_sec;
    }
  }
  double scrub_ratio = scrub_off_thr > 0 ? scrub_on_thr / scrub_off_thr : 0;
  std::printf("scrub-on throughput vs off: %.3fx %s\n", scrub_ratio,
              scrub_ratio >= 0.95 ? "(>= 0.95x: PASS)" : "(< 0.95x)");
  report.AddCounter("scrub_summary", "throughput_ratio", scrub_ratio);
  report.AddCounter("scrub_summary", "scrub_passes",
                    static_cast<double>(scrub_passes));

  // -- Telemetry sampler A/B: the same 8-committer batched cell with the
  // background telemetry sampler off vs on (at a 5 ms cadence, 200x the
  // production default, so the measured tax is a deliberate upper bound).
  // The acceptance gate (CI floors it) is sampler-on >= 0.97x off.
  std::printf("\nTelemetry sampler A/B (8 clients, batching hold 1000us)\n");
  std::printf("%8s  %10s  %10s  %10s  %14s\n", "sampler", "appends/s",
              "p50 (us)", "p99 (us)", "journal recs");
  struct TelemetryConfig {
    const char* name;
    const char* slug;
    bool telemetry;
  };
  const TelemetryConfig telemetry_configs[] = {
      {"off", "telemetry_off", false}, {"on", "telemetry_on", true}};
  double telemetry_off_thr = 0, telemetry_on_thr = 0;
  uint64_t telemetry_samples = 0;
  for (const TelemetryConfig& config : telemetry_configs) {
    CellResult cell =
        RunCell(8, true, 1000, /*scrub=*/false, config.telemetry);
    std::printf("%8s  %10.0f  %10.0f  %10.0f  %14llu\n", config.name,
                cell.appends_per_sec, cell.p50_us, cell.p99_us,
                static_cast<unsigned long long>(cell.telemetry_samples));
    size_t n = 8 * static_cast<size_t>(AppendsPerClient());
    report.AddMean(config.slug, n, cell.appends_per_sec > 0
                                       ? 1e6 / cell.appends_per_sec
                                       : 0.0);
    report.AddPercentiles(config.slug, cell.p50_us, cell.p99_us,
                          cell.p999_us);
    report.AddCounter(config.slug, "appends_per_sec", cell.appends_per_sec);
    if (config.telemetry) {
      telemetry_on_thr = cell.appends_per_sec;
      telemetry_samples = cell.telemetry_samples;
    } else {
      telemetry_off_thr = cell.appends_per_sec;
    }
  }
  double telemetry_ratio =
      telemetry_off_thr > 0 ? telemetry_on_thr / telemetry_off_thr : 0;
  std::printf("sampler-on throughput vs off: %.3fx %s\n", telemetry_ratio,
              telemetry_ratio >= 0.97 ? "(>= 0.97x: PASS)" : "(< 0.97x)");
  report.AddCounter("telemetry_summary", "throughput_ratio", telemetry_ratio);
  report.AddCounter("telemetry_summary", "journal_records",
                    static_cast<double>(telemetry_samples));

  // -- Partition sweep: same committers, more write heads. --
  std::vector<uint32_t> partition_counts;
  for (uint32_t p = 1; p < max_partitions; p *= 2) {
    partition_counts.push_back(p);
  }
  partition_counts.push_back(max_partitions);

  const int kPartitionClients = 8;
  std::printf("\nPartitioned volume sequences, %d committers, "
              "%zu-byte (block-filling) payloads\n",
              kPartitionClients, kPartitionPayloadBytes);
  std::printf("%10s  %10s  %10s  %10s  %10s  %-s\n", "partitions",
              "appends/s", "p50 (us)", "p99 (us)", "mean batch",
              "per-lane appends");
  double single_thr = 0, single_p99 = 0;
  double top_thr = 0, top_p99 = 0;
  for (uint32_t partitions : partition_counts) {
    PartitionCellResult cell =
        RunPartitionedCell(partitions, kPartitionClients);
    std::string lanes;
    for (uint64_t lane : cell.lane_entries) {
      lanes += (lanes.empty() ? "" : " ") + std::to_string(lane);
    }
    std::printf("%10u  %10.0f  %10.0f  %10.0f  %10.1f  [%s]\n", partitions,
                cell.cell.appends_per_sec, cell.cell.p50_us, cell.cell.p99_us,
                cell.cell.mean_batch, lanes.c_str());
    std::string op = "p" + std::to_string(partitions);
    size_t n = static_cast<size_t>(kPartitionClients) *
               static_cast<size_t>(AppendsPerClient());
    report.AddMean(op, n, cell.cell.appends_per_sec > 0
                              ? 1e6 / cell.cell.appends_per_sec
                              : 0.0);
    report.AddPercentiles(op, cell.cell.p50_us, cell.cell.p99_us,
                          cell.cell.p999_us);
    report.AddCounter(op, "appends_per_sec", cell.cell.appends_per_sec);
    report.AddCounter(op, "mean_batch", cell.cell.mean_batch);
    for (size_t lane = 0; lane < cell.lane_entries.size(); ++lane) {
      report.AddCounter(op, "lane" + std::to_string(lane) + "_entries",
                        static_cast<double>(cell.lane_entries[lane]));
    }
    if (partitions == 1) {
      single_thr = cell.cell.appends_per_sec;
      single_p99 = cell.cell.p99_us;
    }
    if (partitions == max_partitions) {
      top_thr = cell.cell.appends_per_sec;
      top_p99 = cell.cell.p99_us;
    }
  }
  double scaling = single_thr > 0 ? top_thr / single_thr : 0;
  double p99_ratio = single_p99 > 0 ? top_p99 / single_p99 : 0;
  std::printf("%u-partition scaling over single head: %.2fx %s\n",
              max_partitions, scaling,
              scaling >= 2.5 ? "(>= 2.5x: PASS)" : "(< 2.5x)");
  std::printf("%u-partition p99 vs single head: %.2fx %s\n", max_partitions,
              p99_ratio, p99_ratio <= 1.25 ? "(<= 1.25x: PASS)" : "(> 1.25x)");
  std::string suffix = std::to_string(max_partitions) + "x";
  report.AddCounter("partition_summary", "scaling_" + suffix, scaling);
  report.AddCounter("partition_summary", "p99_ratio_" + suffix, p99_ratio);

  if (!report.Write()) {
    return 1;
  }

  // Clients and servers share this process, so the flight recorder holds
  // both halves of every traced request. Export the newest spans as Chrome
  // trace_event JSON next to the BENCH record; CI uploads it from the
  // smoke job as an artifact viewable in chrome://tracing / Perfetto.
  std::string dir = ".";
  if (const char* env = std::getenv("CLIO_BENCH_JSON_DIR")) {
    if (env[0] != '\0') {
      dir = env;
    }
  }
  std::string trace_path = dir + "/TRACE_net_throughput.json";
  clio::TraceDump dump = clio::FlightRecorder::Instance().Collect();
  std::string trace_json = clio::TraceDumpToChromeJson(dump);
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
    std::fwrite(trace_json.data(), 1, trace_json.size(), f);
    std::fclose(f);
    std::printf("TRACE JSON: %s (%zu spans, %llu dropped)\n",
                trace_path.c_str(), dump.spans.size(),
                static_cast<unsigned long long>(dump.dropped));
  } else {
    std::fprintf(stderr, "BENCH: cannot write %s\n", trace_path.c_str());
  }
  return 0;
}
