#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "perfbench/device_model.h"
#include "perfbench/ledger.h"
#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/memory_worm_device.h"
#include "src/device/nvram_tail.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"

namespace perfbench {
namespace {

using clio::Timestamp;

constexpr Timestamp kClockStart = 1'000'000'000;
constexpr int kLoadThreads = 4;  // load connections, one thread each
constexpr size_t kCommitPayloadBytes = 128;
constexpr uint32_t kReadBatch = 32;
constexpr size_t kScanMinPayload = 64;
constexpr size_t kScanMaxPayload = 512;
// Scan media use 4 KiB blocks. With 1 KiB blocks the entrymap nodes due at
// a multiple of 4096 blocks overflow their block when ~256 log files are
// live, and a fragmented entry straddling that boundary then reads back
// wrong (VerifyVolume: "block B continues but block B+1 holds no
// fragment"). README.md, "Known defect", has the details.
constexpr uint32_t kScanBlockSize = 4096;
// Traced runs alternate the benchmark's spans off and on in slices of
// this length, so traced and untraced ops see the same phase of the run.
constexpr auto kTraceSlice = std::chrono::milliseconds(500);
// Ops issued just before a slice ends finish inside this grace period,
// before the collector's last pass.
constexpr auto kTraceGrace = std::chrono::milliseconds(20);
// Far below the time the fastest flight-recorder ring takes to wrap.
constexpr auto kCollectPeriod = std::chrono::milliseconds(20);
// Latency percentiles are the median over this many equal slices of the
// window of each slice's percentile, so one noisy second cannot move them.
constexpr int kLatencySlices = 5;
// Timed restarts per set-up; recover_ms and recover_call_ms are medians
// over all of them.
constexpr int kRestartsPerSetup = 5;
// A window during which the hypervisor took more than this share of the
// host's CPU time (steal) measured the neighbours, not the program: it is
// measured again, up to kWindowAttempts windows in all.
constexpr double kMaxStealFrac = 0.03;
constexpr int kWindowAttempts = 2;
// Mixed fails as overloaded when it commits less than this share of the
// offered rate.
constexpr double kMinOfferedShare = 0.9;

[[noreturn]] void Fatal(const std::string& what, const clio::Status& status) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::_Exit(2);
}

void Must(const clio::Status& status, const std::string& what) {
  if (!status.ok()) {
    Fatal(what, status);
  }
}

template <typename T>
T Must(clio::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    Fatal(what, result.status());
  }
  return std::move(result).value();
}

// -- Per-thread records, merged after the window. --

enum Call { kAppendCall, kOpenCall, kSeekCall, kReadBatchCall, kCloseCall,
            kCallCount };
constexpr const char* kCallNames[kCallCount] = {"append", "open", "seek",
                                                "read_batch", "close"};

struct Log {
  std::array<std::vector<double>, kCallCount> call_us;
  std::vector<double> op_us;    // commit or query latency
  std::vector<Clock::time_point> op_done;  // when each op_us sample ended
  std::vector<double> late_us;  // open-loop sends past their due time
  std::vector<OpSpan> spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;
  uint64_t commit_bytes = 0;
  uint64_t queries = 0;
  uint64_t entries = 0;  // delivered to readers
  uint64_t entry_bytes = 0;
  uint64_t scheduled = 0;
  std::vector<std::string> failures;

  void Fail(std::string what) {
    if (failures.size() < 8) {
      failures.push_back(std::move(what));
    }
  }

  void Merge(const Log& o) {
    for (size_t i = 0; i < kCallCount; ++i) {
      call_us[i].insert(call_us[i].end(), o.call_us[i].begin(),
                        o.call_us[i].end());
    }
    op_us.insert(op_us.end(), o.op_us.begin(), o.op_us.end());
    op_done.insert(op_done.end(), o.op_done.begin(), o.op_done.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    attempted += o.attempted;
    failed += o.failed;
    commits += o.commits;
    commit_bytes += o.commit_bytes;
    queries += o.queries;
    entries += o.entries;
    entry_bytes += o.entry_bytes;
    scheduled += o.scheduled;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }
};

// -- Trace slicing. --

class TraceSlicer {
 public:
  TraceSlicer(bool enabled, DeviceProbe* probe)
      : enabled_(enabled), probe_(probe) {}

  bool enabled() const { return enabled_; }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  // Runs on the main thread until `deadline`.
  void Drive(Clock::time_point deadline) {
    if (!enabled_) {
      std::this_thread::sleep_until(deadline);
      return;
    }
    while (Clock::now() < deadline) {
      std::this_thread::sleep_until(std::min(deadline, Clock::now() + kTraceSlice));
      if (Clock::now() >= deadline) {
        break;
      }
      collector_.Start();
      probe_->set_tracing(true);
      on_.store(true);
      std::this_thread::sleep_until(std::min(deadline, Clock::now() + kTraceSlice));
      on_.store(false);
      std::this_thread::sleep_for(kTraceGrace);
      probe_->set_tracing(false);
      collector_.Stop();
    }
  }

  const SpanCollector& collector() const { return collector_; }

 private:
  const bool enabled_;
  DeviceProbe* probe_;
  std::atomic<bool> on_{false};
  SpanCollector collector_{kCollectPeriod};
};

// Starts an op's client span; records it into `log` on Finish when this is
// a traced run (untraced ops of a traced run are kept for overhead_frac).
class OpTimer {
 public:
  OpTimer(const TraceSlicer* slicer, const char* op)
      : slicer_(slicer), op_(op), traced_(slicer != nullptr && slicer->on()),
        start_us_(slicer != nullptr && slicer->enabled() ? clio::TraceNowUs()
                                                         : 0) {}
  void AddTrace(uint64_t trace_id) {
    if (n_ < ids_.size()) {
      ids_[n_++] = trace_id;
    }
  }
  void Finish(Log* log) {
    if (slicer_ == nullptr || !slicer_->enabled()) {
      return;
    }
    OpSpan span;
    span.op = op_;
    span.start_us = start_us_;
    span.dur_us = clio::TraceNowUs() - start_us_;
    span.trace_ids = ids_;
    span.n_ids = n_;
    span.traced = traced_;
    log->spans.push_back(span);
  }

 private:
  const TraceSlicer* slicer_;
  const char* op_;
  const bool traced_;
  const uint64_t start_us_;
  std::array<uint64_t, 4> ids_{};
  uint8_t n_ = 0;
};

struct WindowTimes {
  double wall_s = 0;
  // Share of the host's CPU time the hypervisor took meanwhile; a run with
  // a high value measured a noisy host, not the program.
  double steal_frac = 0;
  // Peak RSS at the end of the first window, so a window measured again
  // (which writes more media) does not inflate it.
  double rss_mb = 0;
};

template <typename Body>
WindowTimes RunWindow(double seconds, TraceSlicer* slicer, Body body) {
  const CpuTicks cpu_before = ReadCpuTicks();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int i = 0; i < kLoadThreads; ++i) {
    threads.emplace_back([&body, i, deadline] { body(i, deadline); });
  }
  slicer->Drive(deadline);
  for (auto& t : threads) {
    t.join();
  }
  const CpuTicks cpu_after = ReadCpuTicks();
  return {Seconds(Clock::now() - start),
          Ratio(cpu_after.steal - cpu_before.steal,
                cpu_after.total - cpu_before.total)};
}

// One measured window and everything recorded over it.
struct Measurement {
  WindowTimes times;
  StatsDelta stats;
  DeviceWindow dev;
  Log total;
  std::unique_ptr<TraceSlicer> slicer;
};

// Runs `body(thread, deadline, slicer, log)` on every load thread for one
// window, again while the host's steal share is above kMaxStealFrac (see
// there). Check failures of a discarded window still count.
template <typename Body>
Measurement Measure(const Args& args, clio::NetLogClient* stats_client,
                    DeviceProbe* probe, Body body) {
  std::vector<std::string> discarded_failures;
  double first_rss_mb = 0;
  for (int attempt = 1;; ++attempt) {
    auto before = Must(stats_client->GetStats(), "stats");
    probe->TakeWindow();
    auto slicer = std::make_unique<TraceSlicer>(args.trace, probe);
    std::vector<Log> logs(kLoadThreads);
    WindowTimes times =
        RunWindow(args.seconds, slicer.get(),
                  [&](int c, Clock::time_point deadline) {
                    body(c, deadline, slicer.get(), &logs[c]);
                  });
    DeviceWindow dev = probe->TakeWindow();
    if (attempt == 1) {
      first_rss_mb = PeakRssMb();
    }
    times.rss_mb = first_rss_mb;
    StatsDelta stats(std::move(before),
                     Must(stats_client->GetStats(), "stats"));
    Log total;
    for (const Log& l : logs) {
      total.Merge(l);
    }
    if (times.steal_frac <= kMaxStealFrac || attempt == kWindowAttempts) {
      total.failures.insert(total.failures.end(), discarded_failures.begin(),
                            discarded_failures.end());
      return {times, std::move(stats), std::move(dev), std::move(total),
              std::move(slicer)};
    }
    std::printf("window %d discarded: host steal %.3f above %.3f\n", attempt,
                times.steal_frac, kMaxStealFrac);
    discarded_failures.insert(discarded_failures.end(), total.failures.begin(),
                              total.failures.end());
  }
}

// -- The system under test. --

// A NetLogServer over one LogService over benchmark-owned media.
class Rig {
 public:
  Rig(DeviceProbe* probe, clio::LogServiceOptions service_options,
      clio::NetLogServerOptions server_options, bool with_nvram,
      uint32_t block_size = clio::MemoryWormOptions{}.block_size)
      : probe_(probe),
        service_options_(std::move(service_options)),
        server_options_(std::move(server_options)) {
    clio::MemoryWormOptions media;
    media.block_size = block_size;
    media_ = std::make_shared<clio::MemoryWormDevice>(media);
    if (with_nvram) {
      nvram_ = std::make_unique<clio::NvramTail>(media_->block_size());
      service_options_.nvram = nvram_.get();
    }
    service_ = Must(clio::LogService::Create(
                        std::make_unique<ChargedDevice>(media_, probe_),
                        &clock_, service_options_),
                    "create service");
  }

  void StartServer() {
    server_ = Must(clio::NetLogServer::Start(service_.get(), server_options_),
                   "start server");
  }

  void StopServer() {
    if (server_ != nullptr) {
      server_->Stop();
      server_.reset();
    }
  }

  // Stops the server and drops the service, then recovers a new service
  // from the same media (and NVRAM, when attached).
  void Restart() {
    StopServer();
    service_.reset();
    std::vector<std::unique_ptr<clio::WormDevice>> devices;
    devices.push_back(std::make_unique<ChargedDevice>(media_, probe_));
    clio::RecoveryReport report;
    service_ = Must(clio::LogService::Recover(std::move(devices), &clock_,
                                              service_options_, &report),
                    "recover service");
  }

  clio::LogService* service() { return service_.get(); }
  uint16_t port() const { return server_->port(); }
  uint32_t block_size() const { return media_->block_size(); }

 private:
  clio::SimulatedClock clock_{kClockStart, /*auto_tick=*/1};
  DeviceProbe* probe_;
  clio::LogServiceOptions service_options_;
  clio::NetLogServerOptions server_options_;
  std::shared_ptr<clio::MemoryWormDevice> media_;
  std::unique_ptr<clio::NvramTail> nvram_;
  std::unique_ptr<clio::LogService> service_;
  std::unique_ptr<clio::NetLogServer> server_;  // stops before the service
};

std::unique_ptr<clio::NetLogClient> Connect(uint16_t port) {
  return Must(clio::NetLogClient::Connect(port), "connect");
}

// -- Writer streams (commit and mixed). --

// The entries one writer issued, by stream-local sequence number. A slot
// holds the server timestamp of an acknowledged append, or 0 for a failed
// one (timestamps start far above 0). Slots below `issued` are final and
// may be read by other threads.
struct Stream {
  Stream(std::string p, size_t cap)
      : path(std::move(p)), capacity(cap), ts(new Timestamp[cap]) {}
  std::string path;
  clio::LogFileId id = clio::kNoLogFileId;
  size_t capacity;
  std::unique_ptr<Timestamp[]> ts;
  std::atomic<uint64_t> issued{0};
};

// One forced, timestamped append of the stream's next entry. Latency runs
// from `start`: the due time of an open-loop op, else the send.
void CommitNext(clio::NetLogClient* client, Stream* stream, uint32_t stream_no,
                uint64_t seed, std::optional<Clock::time_point> start,
                const TraceSlicer* slicer, Log* log) {
  const uint64_t seq = stream->issued.load(std::memory_order_relaxed);
  if (seq >= stream->capacity) {
    log->Fail("stream " + stream->path + " ran out of slots");
    return;
  }
  const clio::Bytes payload =
      MakePayload(seed, stream_no, seq, kCommitPayloadBytes);
  OpTimer span(slicer, "append");
  const auto t0 = Clock::now();
  auto acked = client->Append(stream->path, payload, /*timestamped=*/true,
                              /*force=*/true);
  const auto t1 = Clock::now();
  span.AddTrace(client->last_trace_id());
  span.Finish(log);
  ++log->attempted;
  log->call_us[kAppendCall].push_back(Micros(t1 - t0));
  if (acked.ok()) {
    stream->ts[seq] = *acked;
    log->op_us.push_back(Micros(t1 - start.value_or(t0)));
    log->op_done.push_back(t1);
    ++log->commits;
    log->commit_bytes += payload.size();
  } else {
    stream->ts[seq] = 0;
    ++log->failed;
  }
  stream->issued.store(seq + 1, std::memory_order_release);
}

// Reads `path` back in-process and checks it holds every acknowledged
// entry of `stream` exactly once, in order, with its acknowledged
// timestamp (failed appends may or may not have landed).
void ReadBack(clio::LogService* service, const Stream& stream,
              uint32_t stream_no, uint64_t seed, Log* log) {
  auto reader = service->OpenReader(stream.path);
  if (!reader.ok()) {
    log->Fail("read-back open " + stream.path + ": " +
              reader.status().ToString());
    return;
  }
  const uint64_t issued = stream.issued.load();
  uint64_t next = 0;
  auto missing = [&](uint64_t from, uint64_t to) {
    for (uint64_t k = from; k < to && k < issued; ++k) {
      if (stream.ts[k] != 0) {
        log->Fail(stream.path + ": acknowledged entry " + std::to_string(k) +
                  " missing after restart");
        return;
      }
    }
  };
  for (;;) {
    auto entry = (*reader)->Next();
    if (!entry.ok()) {
      log->Fail("read-back " + stream.path + ": " + entry.status().ToString());
      return;
    }
    if (!entry->has_value()) {
      break;
    }
    const clio::Bytes payload = (**entry).CopyPayload();
    uint32_t owner = 0;
    uint64_t seq = 0;
    if (!CheckPayload(seed, payload, &owner, &seq) || owner != stream_no ||
        seq < next || seq >= issued) {
      log->Fail(stream.path + ": unexpected, duplicate or reordered entry");
      return;
    }
    missing(next, seq);
    if (stream.ts[seq] != 0 && (**entry).timestamp != stream.ts[seq]) {
      log->Fail(stream.path + ": entry " + std::to_string(seq) +
                " has a different timestamp than acknowledged");
    }
    next = seq + 1;
  }
  missing(next, issued);
}

void VerifyClean(clio::LogService* service, Log* log) {
  for (size_t v = 0; v < service->volume_count(); ++v) {
    auto report = clio::VerifyVolume(service->volume(v));
    if (!report.ok()) {
      log->Fail("VerifyVolume: " + report.status().ToString());
    } else if (!report->clean()) {
      std::string first;
      for (const auto* list :
           {&report->missing_bits, &report->broken_chains,
            &report->time_regressions, &report->chain_mismatches,
            &report->index_mismatches}) {
        if (first.empty() && !list->empty()) {
          first = list->front();
        }
      }
      log->Fail("VerifyVolume found defects on volume " + std::to_string(v) +
                " (" + std::to_string(report->blocks_corrupt) +
                " corrupt blocks): " + first);
    }
  }
}

// The first read after a restart: OpenReader, SeekToTime to just before
// the middle acknowledged entry, one batch, CloseReader. Checks the batch
// starts at that entry.
void FirstQuery(uint16_t port, const Stream& stream, uint32_t stream_no,
                uint64_t seed, Log* log) {
  auto client = Connect(port);
  uint64_t mid = stream.issued.load() / 2;
  while (mid > 0 && stream.ts[mid] == 0) {
    --mid;
  }
  const uint64_t handle =
      Must(client->OpenReader(stream.path), "open after restart");
  Must(client->SeekToTime(handle, stream.ts[mid] - 1), "seek after restart");
  auto batch = Must(client->ReadNextBatch(handle, kReadBatch),
                    "read after restart");
  Must(client->CloseReader(handle), "close after restart");
  uint32_t owner = 0;
  uint64_t seq = 0;
  if (batch.entries.empty() ||
      !CheckPayload(seed, batch.entries[0].payload, &owner, &seq) ||
      owner != stream_no || seq != mid) {
    log->Fail("first query after restart did not return the sought entry");
  }
}

// -- Metrics shared by all workloads. --

struct Restarts {
  std::vector<double> total_ms;  // Recover call to first query answered
  std::vector<double> recover_call_ms;  // the LogService::Recover call
};

// Timed restarts of the rig, each sampled into `out`.
void TimedRestarts(Rig* rig, const std::function<void()>& first_query,
                   Restarts* out) {
  for (int i = 0; i < kRestartsPerSetup; ++i) {
    rig->StopServer();
    const auto t0 = Clock::now();
    rig->Restart();
    out->recover_call_ms.push_back(Micros(Clock::now() - t0) / 1000.0);
    rig->StartServer();
    first_query();
    out->total_ms.push_back(Micros(Clock::now() - t0) / 1000.0);
  }
}

// A statistic of the workload's op latency: the median, over
// kLatencySlices equal slices of the window, of `stat` on each slice.
double SlicedStat(const Log& log,
                  const std::function<double(std::vector<double>&)>& stat) {
  if (log.op_us.empty()) {
    return 0;
  }
  const auto [lo, hi] = std::minmax_element(log.op_done.begin(),
                                            log.op_done.end());
  const double span = Seconds(*hi - *lo) * (1 + 1e-9) + 1e-9;
  std::vector<std::vector<double>> slices(kLatencySlices);
  for (size_t i = 0; i < log.op_us.size(); ++i) {
    const int k = static_cast<int>(Seconds(log.op_done[i] - *lo) / span *
                                   kLatencySlices);
    slices[k].push_back(log.op_us[i]);
  }
  std::vector<double> per_slice;
  for (auto& slice : slices) {
    if (!slice.empty()) {
      per_slice.push_back(stat(slice));
    }
  }
  return Median(per_slice);
}

double SlicedQuantile(const Log& log, double q) {
  return SlicedStat(log, [q](std::vector<double>& v) { return Quantile(v, q); });
}

double SlicedMean(const Log& log) {
  return SlicedStat(log, [](std::vector<double>& v) {
    double sum = 0;
    for (double x : v) {
      sum += x;
    }
    return sum / static_cast<double>(v.size());
  });
}

void AddLayerMetrics(const Log& t, const StatsDelta& d, const StatsDelta& rec,
                     DeviceWindow& dev, double wall_s, Sheet* s) {
  for (size_t i = 0; i < kCallCount; ++i) {
    s->Set(std::string("net.client_call_us_p50.") + kCallNames[i],
           Median(t.call_us[i]), "us");
  }
  s->Set("net.client_retries", d.Count("clio.net.client.retries"), "count");
  s->Set("net.batch_entries_mean",
         Ratio(d.Count("clio.net.batch.appends"),
               d.Count("clio.net.batch.batches")),
         "count");
  const auto dwell = d.Hist("clio.net.batch.dwell_us");
  s->Set("net.batch_dwell_us_p50", dwell.p50(), "us");
  s->Set("net.batch_dwell_us_p99", dwell.p99(), "us");
  const auto commit = d.Hist("clio.net.batch.commit_us");
  s->Set("net.batch_commit_us_p50", commit.p50(), "us");
  s->Set("net.batch_commit_us_p99", commit.p99(), "us");
  const auto queue = d.Hist("clio.net.stage.queue_us");
  s->Set("net.queue_us_p50", queue.p50(), "us");
  s->Set("net.queue_us_p99", queue.p99(), "us");
  const auto handle = d.Hist("clio.net.stage.handle_us");
  s->Set("net.handle_us_p50", handle.p50(), "us");
  s->Set("net.handle_us_p99", handle.p99(), "us");
  s->Set("net.flush_us_p50", d.Hist("clio.net.stage.flush_us").p50(), "us");
  s->Set("net.wakeups_per_frame",
         Ratio(d.Count("clio.net.loop.wakeups"),
               d.Count("clio.net.server.frames")),
         "ratio");
  s->Set("net.zerocopy_frac",
         Ratio(d.Count("clio.net.reply.zerocopy_bytes"),
               d.Count("clio.net.server.bytes_out")),
         "ratio");
  s->Set("net.bytes_out_per_entry",
         Ratio(d.Count("clio.net.server.bytes_out"), t.entries), "B");

  const auto force = d.Hist("clio.volume.force_us");
  s->Set("clio.force_us_p50", force.p50(), "us");
  s->Set("clio.force_us_p99", force.p99(), "us");
  s->Set("clio.forces_per_commit",
         Ratio(d.Count("clio.volume.forces"), t.commits), "ratio");
  s->Set("clio.append_us_p50", d.Hist("clio.volume.append_us").p50(), "us");
  const double burned = d.Count("clio.volume.blocks_burned");
  s->Set("clio.blocks_burned_per_commit", Ratio(burned, t.commits), "ratio");
  s->Set("clio.entrymap_nodes_per_kblock",
         Ratio(1000.0 * d.Count("clio.entrymap.nodes_emitted"), burned),
         "ratio");

  const double index_hits = d.Count("clio.index.hits");
  s->Set("index.hit_ratio",
         Ratio(index_hits, index_hits + d.Count("clio.index.misses")),
         "ratio");
  // Per restart, over the last set-up's timed restarts.
  s->Set("index.checkpoints_restored",
         Ratio(rec.Count("clio.index.checkpoints_restored"), kRestartsPerSetup),
         "count");
  s->Set("index.rebuilds",
         Ratio(rec.Count("clio.index.rebuilds"), kRestartsPerSetup), "count");
  s->Set("index.rebuild_readahead_blocks",
         Ratio(rec.Count("clio.index.rebuild_readahead_blocks"),
               kRestartsPerSetup),
         "count");

  const double cache_hits = d.Count("clio.cache.hits");
  s->Set("cache.hit_ratio",
         Ratio(cache_hits, cache_hits + d.Count("clio.cache.misses")),
         "ratio");
  s->Set("cache.evictions_per_query",
         Ratio(d.Count("clio.cache.evictions"), t.queries), "ratio");
  s->Set("cache.readahead_blocks_per_query",
         Ratio(d.Count("clio.cache.readahead_blocks"), t.queries), "ratio");

  s->Set("device.burn_us_p50", Median(dev.burn_us), "us");
  s->Set("device.burns_per_commit", Ratio(dev.burns, t.commits), "ratio");
  s->Set("device.read_passes_per_query", Ratio(dev.read_passes, t.queries),
         "ratio");
  s->Set("device.blocks_read_per_entry", Ratio(dev.blocks_read, t.entries),
         "ratio");
  s->Set("device.busy_frac", Ratio(dev.busy_s, wall_s), "ratio");
  s->Set("device.overshoot_us_p99", Quantile(dev.overshoot_us, 0.99), "us");

  s->Set("scrub.blocks_scanned_per_s",
         Ratio(d.Count("clio.scrub.blocks_scanned"), wall_s), "1/s");
  s->Set("scrub.passes", d.Count("clio.scrub.passes"), "count");
  s->Set("obs.telemetry_samples", d.Count("clio.telemetry.samples"), "count");
  s->Set("obs.telemetry_append_failures",
         d.Count("clio.telemetry.append_failures"), "count");

  std::vector<double> late = t.late_us;
  s->Set("loadgen.late_us_p99", Quantile(late, 0.99), "us");
  s->Set("loadgen.offered_per_s", Ratio(t.scheduled, wall_s), "1/s");
}

// Fills the sheet and the result from one measured window.
void Finish(const Args& args, Log& total, const StatsDelta& window,
            const StatsDelta& recovery, DeviceWindow& dev,
            const WindowTimes& times,
            const std::vector<double>& setup_s,
            const Restarts& restarts, const TraceSlicer& slicer,
            RunResult* out) {
  Sheet& s = out->sheet;
  s.Set("setup_s", Median(setup_s), "s");
  s.Set("recover_ms", Median(restarts.total_ms), "ms");
  // The gated restart figure: the server start and first query inside
  // recover_ms are a few wake-ups on fresh threads, whose latency shifts
  // with host load by more than any bound could absorb.
  s.Set("recover_call_ms", Median(restarts.recover_call_ms), "ms");
  s.Set("error_rate", Ratio(total.failed, total.attempted), "ratio");
  s.Set("rss_mb", times.rss_mb, "MiB");
  s.Set("window_s", times.wall_s, "s");
  AddLayerMetrics(total, window, recovery, dev, times.wall_s, &s);
  s.Set("host.steal_frac", times.steal_frac, "ratio");
  if (args.trace) {
    BuildLedger(total.spans, slicer.collector().spans(), dev.spans,
                slicer.collector().dropped(), &s);
  }
  out->attempted = total.attempted;
  out->failed = total.failed;
  out->check_failures.insert(out->check_failures.end(),
                             total.failures.begin(), total.failures.end());
}

void SetCommitMetrics(Log& total, double wall_s, uint32_t block_size,
                      const DeviceWindow& dev, Sheet* s) {
  s->Set("commit_mean_us", SlicedMean(total), "us");
  s->Set("commit_p50_us", SlicedQuantile(total, 0.5), "us");
  s->Set("commit_p95_us", SlicedQuantile(total, 0.95), "us");
  s->Set("commit_p99_us", SlicedQuantile(total, 0.99), "us");
  s->Set("commit_samples", total.op_us.size(), "count");
  s->Set("commits_per_s", Ratio(total.commits, wall_s), "1/s");
  s->Set("bytes_per_user_byte",
         Ratio(static_cast<double>(dev.burns) * block_size, total.commit_bytes),
         "ratio");
}

// The BENCHMARK.json names: the same few user-facing figures on every
// workload (README.md maps each to its workload-specific name). The tail
// is gated through the mean, not a high percentile: commit latency is
// bimodal (an append either catches the open batch or waits out another
// hold window), the missing share drifts from 1% to over 5% with the
// host's wake-up latency, and any percentile in that range jumps between
// the modes while the mean moves in proportion.
void SetHeadline(Sheet* s, const std::string& latency,
                 const std::string& throughput, const std::string& bytes) {
  s->Set("latency_p50_us", s->Get(latency + "_p50_us"), "us");
  s->Set("latency_mean_us", s->Get(latency + "_mean_us"), "us");
  s->Set("throughput_per_s", s->Get(throughput), "1/s");
  s->Set("device_bytes_per_user_byte", s->Get(bytes), "ratio");
}

// -- commit --

RunResult RunCommit(const Args& args, const Scale& scale) {
  RunResult out;
  DeviceProbe probe;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  std::vector<std::unique_ptr<clio::NetLogClient>> clients;
  std::vector<std::unique_ptr<Stream>> streams;
  Restarts restarts;
  Log setup_log;
  clio::StatsSnapshot rec_before;
  clio::StatsSnapshot rec_after;
  const size_t capacity =
      scale.warmup_appends +
      static_cast<size_t>(kWindowAttempts * args.seconds * 10000) + 1000;
  for (int round = 0; round < scale.setups; ++round) {
    clients.clear();
    rig.reset();
    streams.clear();
    const auto t0 = Clock::now();
    probe.set_charging(true);
    rig = std::make_unique<Rig>(&probe, clio::LogServiceOptions{},
                                clio::NetLogServerOptions{}, false);
    rig->StartServer();
    for (int c = 0; c < kLoadThreads; ++c) {
      clients.push_back(Connect(rig->port()));
    }
    Must(clients[0]->CreateLogFile("/commit"), "create /commit");
    for (int c = 0; c < kLoadThreads; ++c) {
      streams.push_back(std::make_unique<Stream>(
          "/commit/c" + std::to_string(c), capacity));
      streams[c]->id = Must(clients[0]->CreateLogFile(streams[c]->path),
                            "create " + streams[c]->path);
    }
    // Warm-up: each connection's first appends pay one-time costs.
    std::vector<std::thread> warm;
    std::vector<Log> warmup_logs(kLoadThreads);
    for (int c = 0; c < kLoadThreads; ++c) {
      warm.emplace_back([&, c] {
        for (uint64_t i = 0; i < scale.warmup_appends; ++i) {
          CommitNext(clients[c].get(), streams[c].get(), c, args.seed,
                     std::nullopt, nullptr, &warmup_logs[c]);
        }
      });
    }
    for (auto& t : warm) {
      t.join();
    }
    for (const Log& l : warmup_logs) {
      if (l.failed > 0) {
        Fatal("commit warm-up", clio::Unavailable("appends failed"));
      }
    }
    clients.clear();
    rec_before = clio::ObsRegistry().Snapshot();
    TimedRestarts(rig.get(), [&] {
      FirstQuery(rig->port(), *streams[0], 0, args.seed, &setup_log);
    }, &restarts);
    rec_after = clio::ObsRegistry().Snapshot();
    for (int c = 0; c < kLoadThreads; ++c) {
      clients.push_back(Connect(rig->port()));
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  const StatsDelta recovery(rec_before, rec_after);

  Measurement m = Measure(
      args, clients[0].get(), &probe,
      [&](int c, Clock::time_point deadline, const TraceSlicer* slicer,
          Log* log) {
        while (Clock::now() < deadline) {
          CommitNext(clients[c].get(), streams[c].get(), c, args.seed,
                     std::nullopt, slicer, log);
        }
      });
  Log& total = m.total;
  DeviceWindow& dev = m.dev;
  const StatsDelta& window = m.stats;
  const WindowTimes& times = m.times;
  const double wall_s = times.wall_s;
  const TraceSlicer& slicer = *m.slicer;
  if (dev.read_passes != 0) {
    total.Fail("bypass: commit made " + std::to_string(dev.read_passes) +
               " device read passes");
  }
  total.Merge(setup_log);

  // Durability: every acknowledged append survives a restart.
  clients.clear();
  probe.set_charging(false);
  rig->Restart();
  for (int c = 0; c < kLoadThreads; ++c) {
    ReadBack(rig->service(), *streams[c], c, args.seed, &total);
  }
  VerifyClean(rig->service(), &total);

  SetCommitMetrics(total, wall_s, rig->block_size(), dev, &out.sheet);
  Finish(args, total, window, recovery, dev, times, setup_s, restarts,
         slicer, &out);
  SetHeadline(&out.sheet, "commit", "commits_per_s", "bytes_per_user_byte");
  return out;
}

// -- scan --

// What the set-up wrote to one scan file, by entry ordinal.
struct ScanFile {
  std::string path;
  clio::LogFileId id = clio::kNoLogFileId;
  std::vector<Timestamp> ts;
  std::vector<uint16_t> size;
};

// Fills a fresh volume with Zipf(s=1)-skewed unforced appends until it
// holds `target` blocks.
std::vector<ScanFile> Populate(clio::LogService* service, const Args& args,
                               const Scale& scale) {
  Must(service->CreateLogFile("/scan"), "create /scan");
  std::vector<ScanFile> files(scale.scan_files);
  for (size_t f = 0; f < files.size(); ++f) {
    char name[32];
    std::snprintf(name, sizeof name, "/scan/f%03zu", f);
    files[f].path = name;
    files[f].id = Must(service->CreateLogFile(name), "create scan file");
  }
  std::mt19937_64 rng(args.seed);
  std::vector<size_t> by_rank(files.size());
  for (size_t i = 0; i < by_rank.size(); ++i) {
    by_rank[i] = i;
  }
  std::shuffle(by_rank.begin(), by_rank.end(), rng);
  std::vector<double> cdf(files.size());
  double total = 0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> pick(0, total);
  std::uniform_int_distribution<size_t> size(kScanMinPayload, kScanMaxPayload);
  clio::WriteOptions options;
  options.timestamped = true;
  while (service->current_volume()->end_block() < scale.scan_target_blocks) {
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), pick(rng)) - cdf.begin(),
        files.size() - 1);
    ScanFile& file = files[by_rank[rank]];
    const size_t bytes = size(rng);
    const clio::Bytes payload =
        MakePayload(args.seed, by_rank[rank], file.ts.size(), bytes);
    auto appended = Must(service->Append(file.id, payload, options), "populate");
    file.ts.push_back(appended.timestamp);
    file.size.push_back(static_cast<uint16_t>(bytes));
  }
  Must(service->Force(), "populate force");
  return files;
}

// One query: OpenReader on the file, SeekToTime(t), one batch of
// kReadBatch, CloseReader. Checks the batch is exactly the file's entries
// after t.
void ScanQuery(clio::NetLogClient* client, const ScanFile& file,
               uint32_t file_no, Timestamp t, uint64_t seed,
               const TraceSlicer* slicer, Log* log) {
  OpTimer span(slicer, "query");
  ++log->attempted;
  const auto t0 = Clock::now();
  auto timed = [&](Call call, auto&& fn) {
    const auto c0 = Clock::now();
    auto result = fn();
    log->call_us[call].push_back(Micros(Clock::now() - c0));
    span.AddTrace(client->last_trace_id());
    return result;
  };
  auto handle = timed(kOpenCall, [&] { return client->OpenReader(file.path); });
  if (!handle.ok()) {
    ++log->failed;
    return;
  }
  const clio::Status seek =
      timed(kSeekCall, [&] { return client->SeekToTime(*handle, t); });
  auto batch = seek.ok() ? timed(kReadBatchCall,
                                 [&] {
                                   return client->ReadNextBatch(*handle,
                                                                kReadBatch);
                                 })
                         : clio::Result<clio::EntryBatch>(seek);
  const clio::Status close =
      timed(kCloseCall, [&] { return client->CloseReader(*handle); });
  const auto t1 = Clock::now();
  span.Finish(log);
  if (!batch.ok() || !close.ok()) {
    ++log->failed;
    return;
  }
  log->op_us.push_back(Micros(t1 - t0));
  log->op_done.push_back(t1);
  ++log->queries;
  const size_t first =
      std::upper_bound(file.ts.begin(), file.ts.end(), t) - file.ts.begin();
  const size_t expect = std::min<size_t>(kReadBatch, file.ts.size() - first);
  if (batch->entries.size() != expect) {
    log->Fail(file.path + ": query returned " +
              std::to_string(batch->entries.size()) + " entries, expected " +
              std::to_string(expect));
    return;
  }
  for (size_t i = 0; i < expect; ++i) {
    const clio::RemoteEntry& e = batch->entries[i];
    uint32_t owner = 0;
    uint64_t seq = 0;
    const char* wrong = nullptr;
    if (e.logfile_id != file.id) {
      wrong = "log file";
    } else if (e.timestamp != file.ts[first + i]) {
      wrong = "timestamp";
    } else if (e.payload.size() != file.size[first + i] ||
               !CheckPayload(seed, e.payload, &owner, &seq) ||
               owner != file_no || seq != first + i) {
      wrong = "payload";
    }
    if (wrong != nullptr) {
      log->Fail(file.path + ": query entry " + std::to_string(first + i) +
                " has a different " + wrong + " than set-up wrote");
      return;
    }
    log->entry_bytes += e.payload.size();
  }
  log->entries += expect;
}

Timestamp RandomInstant(const ScanFile& file, std::mt19937_64& rng) {
  return std::uniform_int_distribution<Timestamp>(file.ts.front(),
                                                  file.ts.back())(rng);
}

RunResult RunScan(const Args& args, const Scale& scale) {
  RunResult out;
  out.non_default_options.push_back(
      "service.nvram=attached (checkpoint_interval_blocks=256)");
  out.non_default_options.push_back("media.block_size=" +
                                    std::to_string(kScanBlockSize));
  if (scale.scan_cache_blocks != clio::LogServiceOptions{}.cache_blocks) {
    out.non_default_options.push_back("service.cache_blocks=" +
                                      std::to_string(scale.scan_cache_blocks));
  }
  DeviceProbe probe;
  std::vector<double> setup_s;
  Restarts restarts;
  std::unique_ptr<Rig> rig;
  std::vector<std::unique_ptr<clio::NetLogClient>> clients;
  std::vector<ScanFile> files;
  Log setup_log;
  clio::StatsSnapshot rec_before;
  clio::StatsSnapshot rec_after;
  std::mt19937_64 rng(args.seed ^ 0x5ca9);
  for (int round = 0; round < scale.setups; ++round) {
    clients.clear();
    rig.reset();
    const auto t0 = Clock::now();
    probe.set_charging(false);
    clio::LogServiceOptions options;
    options.cache_blocks = scale.scan_cache_blocks;
    rig = std::make_unique<Rig>(&probe, options, clio::NetLogServerOptions{},
                                /*with_nvram=*/true, kScanBlockSize);
    files = Populate(rig->service(), args, scale);
    probe.set_charging(true);
    rec_before = clio::ObsRegistry().Snapshot();
    TimedRestarts(rig.get(), [&] {
      auto client = Connect(rig->port());
      const size_t f = rng() % files.size();
      ScanQuery(client.get(), files[f], f, RandomInstant(files[f], rng),
                args.seed, nullptr, &setup_log);
    }, &restarts);
    rec_after = clio::ObsRegistry().Snapshot();
    while (clients.size() < kLoadThreads) {
      clients.push_back(Connect(rig->port()));
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  const StatsDelta recovery(rec_before, rec_after);

  Measurement m = Measure(
      args, clients[0].get(), &probe,
      [&](int c, Clock::time_point deadline, const TraceSlicer* slicer,
          Log* log) {
        std::mt19937_64 my_rng(args.seed * 1000003 + c);
        while (Clock::now() < deadline) {
          const size_t f = my_rng() % files.size();
          ScanQuery(clients[c].get(), files[f], f,
                    RandomInstant(files[f], my_rng), args.seed, slicer, log);
        }
      });
  Log& total = m.total;
  DeviceWindow& dev = m.dev;
  const StatsDelta& window = m.stats;
  const WindowTimes& times = m.times;
  const double wall_s = times.wall_s;
  const TraceSlicer& slicer = *m.slicer;
  if (setup_log.failed > 0) {
    total.Fail("first query after restart failed");
  }
  total.failures.insert(total.failures.end(), setup_log.failures.begin(),
                        setup_log.failures.end());
  if (window.Count("clio.net.batch.batches") != 0 || dev.burns != 0) {
    total.Fail("bypass: scan committed " +
               std::to_string(window.Count("clio.net.batch.batches")) +
               " batches and burned " + std::to_string(dev.burns) + " blocks");
  }
  clients.clear();
  rig->StopServer();
  probe.set_charging(false);
  VerifyClean(rig->service(), &total);

  Sheet& s = out.sheet;
  s.Set("query_mean_us", SlicedMean(total), "us");
  s.Set("query_p50_us", SlicedQuantile(total, 0.5), "us");
  s.Set("query_p95_us", SlicedQuantile(total, 0.95), "us");
  s.Set("query_p99_us", SlicedQuantile(total, 0.99), "us");
  s.Set("query_samples", total.op_us.size(), "count");
  s.Set("read_entries_per_s", Ratio(total.entries, wall_s), "1/s");
  s.Set("read_amplification",
        Ratio(static_cast<double>(dev.blocks_read) * rig->block_size(),
              total.entry_bytes),
        "ratio");
  Finish(args, total, window, recovery, dev, times, setup_s, restarts,
         slicer, &out);
  SetHeadline(&s, "query", "read_entries_per_s", "read_amplification");
  return out;
}

// -- mixed --

RunResult RunMixed(const Args& args, const Scale& scale) {
  RunResult out;
  out.non_default_options = {"server.scrub=true", "server.telemetry=true"};
  constexpr int kWriters = 2;
  const double per_writer_rate = kMixedCommitsPerS / kWriters;
  const size_t capacity =
      scale.mixed_prefill +
      static_cast<size_t>(2 * per_writer_rate * kWindowAttempts *
                          args.seconds) +
      1000;
  DeviceProbe probe;
  std::vector<double> setup_s;
  Restarts restarts;
  std::unique_ptr<Rig> rig;
  std::vector<std::unique_ptr<clio::NetLogClient>> clients;
  std::vector<std::unique_ptr<Stream>> streams;
  Log setup_log;
  clio::StatsSnapshot rec_before;
  clio::StatsSnapshot rec_after;
  for (int round = 0; round < scale.setups; ++round) {
    clients.clear();
    rig.reset();
    streams.clear();
    const auto t0 = Clock::now();
    probe.set_charging(true);
    clio::NetLogServerOptions server_options;
    server_options.scrub = true;
    server_options.telemetry = true;
    rig = std::make_unique<Rig>(&probe, clio::LogServiceOptions{},
                                server_options, false);
    clio::LogService* service = rig->service();
    Must(service->CreateLogFile("/mixed"), "create /mixed");
    clio::WriteOptions options;
    options.timestamped = true;
    for (int w = 0; w < kWriters; ++w) {
      streams.push_back(std::make_unique<Stream>(
          "/mixed/w" + std::to_string(w), capacity));
      streams[w]->id = Must(service->CreateLogFile(streams[w]->path),
                            "create " + streams[w]->path);
    }
    for (uint64_t seq = 0; seq < scale.mixed_prefill; ++seq) {
      for (int w = 0; w < kWriters; ++w) {
        const clio::Bytes payload =
            MakePayload(args.seed, w, seq, kCommitPayloadBytes);
        streams[w]->ts[seq] =
            Must(service->Append(streams[w]->id, payload, options), "prefill")
                .timestamp;
      }
    }
    Must(service->Force(), "prefill force");
    for (auto& stream : streams) {
      stream->issued.store(scale.mixed_prefill);
    }
    rec_before = clio::ObsRegistry().Snapshot();
    TimedRestarts(rig.get(), [&] {
      FirstQuery(rig->port(), *streams[0], 0, args.seed, &setup_log);
    }, &restarts);
    rec_after = clio::ObsRegistry().Snapshot();
    for (int c = 0; c < kLoadThreads; ++c) {
      clients.push_back(Connect(rig->port()));
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  const StatsDelta recovery(rec_before, rec_after);

  struct Gap {
    int stream;
    uint64_t from;
    uint64_t to;
  };
  std::mutex gaps_mu;
  std::vector<Gap> gaps;

  auto writer = [&](int w, Clock::time_point deadline,
                    const TraceSlicer* slicer, Log* log) {
    std::mt19937_64 rng(args.seed * 7919 + w);
    std::exponential_distribution<double> gap_s(per_writer_rate);
    auto next_gap = [&] {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s(rng)));
    };
    Clock::time_point previous_done;
    for (auto due = Clock::now() + next_gap(); due < deadline;
         due += next_gap()) {
      WaitUntil(due);
      const auto sent = Clock::now();
      log->late_us.push_back(Micros(sent - due));
      ++log->scheduled;
      // An op that waited for its predecessor is timed from its due time;
      // one the generator itself woke late for is timed from its send.
      CommitNext(clients[w].get(), streams[w].get(), w, args.seed,
                 previous_done > due ? due : sent, slicer, log);
      previous_done = Clock::now();
    }
  };
  auto reader = [&](int r, Clock::time_point deadline,
                    const TraceSlicer* slicer, Log* log) {
    clio::NetLogClient* client = clients[kWriters + r].get();
    const Stream& stream = *streams[r];
    const uint64_t handle = Must(client->OpenReader(stream.path), "open");
    while (Clock::now() < deadline) {
      const uint64_t issued = stream.issued.load(std::memory_order_acquire);
      uint64_t start =
          issued > scale.mixed_window ? issued - scale.mixed_window : 0;
      while (start + 1 < issued && stream.ts[start] == 0) {
        ++start;  // a failed append has no timestamp to seek by
      }
      ++log->attempted;
      const auto c0 = Clock::now();
      const clio::Status seek = client->SeekToTime(handle, stream.ts[start] - 1);
      log->call_us[kSeekCall].push_back(Micros(Clock::now() - c0));
      if (!seek.ok()) {
        ++log->failed;
        continue;
      }
      clio::BatchedReader batched(client, handle, kReadBatch);
      uint64_t expected = start;
      for (;;) {
        const uint64_t last_id = client->last_trace_id();
        OpTimer span(slicer, "read_batch");
        const auto b0 = Clock::now();
        auto entry = batched.Next();
        if (client->last_trace_id() != last_id) {  // this Next() refilled
          log->call_us[kReadBatchCall].push_back(Micros(Clock::now() - b0));
          span.AddTrace(client->last_trace_id());
          span.Finish(log);
        }
        if (!entry.ok()) {
          ++log->failed;
          break;
        }
        if (!entry->has_value()) {
          break;
        }
        uint32_t owner = 0;
        uint64_t seq = 0;
        const clio::RemoteEntry& e = **entry;
        if (e.logfile_id != stream.id ||
            !CheckPayload(args.seed, e.payload, &owner, &seq) ||
            owner != static_cast<uint32_t>(r) || seq < expected) {
          log->Fail(stream.path + ": reader window out of order or foreign");
          break;
        }
        if (seq > expected) {
          std::lock_guard<std::mutex> lock(gaps_mu);
          gaps.push_back({r, expected, seq});
        }
        expected = seq + 1;
        ++log->entries;
        log->entry_bytes += e.payload.size();
      }
      if (expected < issued) {
        log->Fail(stream.path + ": reader window ended before entry " +
                  std::to_string(issued - 1));
      }
    }
    (void)client->CloseReader(handle);
  };
  Measurement m = Measure(
      args, clients[0].get(), &probe,
      [&](int c, Clock::time_point deadline, const TraceSlicer* slicer,
          Log* log) {
        if (c < kWriters) {
          writer(c, deadline, slicer, log);
        } else {
          reader(c - kWriters, deadline, slicer, log);
        }
      });
  Log& total = m.total;
  DeviceWindow& dev = m.dev;
  const StatsDelta& window = m.stats;
  const WindowTimes& times = m.times;
  const double wall_s = times.wall_s;
  const TraceSlicer& slicer = *m.slicer;
  for (const Gap& g : gaps) {
    for (uint64_t k = g.from; k < g.to; ++k) {
      if (streams[g.stream]->ts[k] != 0) {
        total.Fail(streams[g.stream]->path + ": reader window skipped entry " +
                   std::to_string(k));
        break;
      }
    }
  }
  const double commits_per_s = Ratio(total.commits, wall_s);
  if (commits_per_s < kMinOfferedShare * kMixedCommitsPerS) {
    total.Fail("overload: committed " + std::to_string(commits_per_s) +
               "/s of " + std::to_string(kMixedCommitsPerS) + "/s offered");
  }

  total.Merge(setup_log);

  // Durability: every acknowledged append survives a restart.
  clients.clear();
  probe.set_charging(false);
  rig->Restart();
  for (int w = 0; w < kWriters; ++w) {
    ReadBack(rig->service(), *streams[w], w, args.seed, &total);
  }
  VerifyClean(rig->service(), &total);

  SetCommitMetrics(total, wall_s, rig->block_size(), dev, &out.sheet);
  out.sheet.Set("read_entries_per_s", Ratio(total.entries, wall_s), "1/s");
  Finish(args, total, window, recovery, dev, times, setup_s, restarts,
         slicer, &out);
  SetHeadline(&out.sheet, "commit", "read_entries_per_s",
              "bytes_per_user_byte");
  return out;
}

}  // namespace

RunResult RunWorkload(const Args& args) {
  const Scale scale = args.tiny ? Scale::Tiny() : Scale::Full();
  if (args.workload == "commit") {
    return RunCommit(args, scale);
  }
  if (args.workload == "scan") {
    return RunScan(args, scale);
  }
  if (args.workload == "mixed") {
    return RunMixed(args, scale);
  }
  Fatal("unknown workload " + args.workload, clio::InvalidArgument("usage"));
}

}  // namespace perfbench
