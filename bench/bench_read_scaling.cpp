// Concurrent read-path scaling: reader count, plus the batched-RPC and
// readahead ablations.
//
// Models the paper's §3.3 thesis (log read cost is determined primarily by
// cache misses) at production reader counts: N tailing clients over real
// loopback TCP against one NetLogServer whose WORM device charges a fixed
// real latency per read PASS (one seek, however many blocks it returns —
// which is what makes sequential readahead pay off). Each reader scans its
// own log file, so their cache misses are disjoint and, under the shared
// lock, their device time overlaps.
//
// Output: aggregate entries/sec at 1 and 8 readers, the readahead cold-scan
// speedup, the blocks a sparse file's cold scan reads per entry at the
// default readahead depth (the index-planned pass reads only the file's
// own blocks, DESIGN.md §12), and the kReadBatch K=32 RPC reduction on a
// 10k-entry tail scan (>= 5x fewer round trips than per-entry ReadNext).
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/device/borrowed_device.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/obs/metrics.h"

namespace clio {
namespace bench {
namespace {

// A WORM device whose read passes take real wall-clock time. One seek is
// charged per ReadBlock AND per ReadBlocks pass, so a readahead pass of
// M+1 blocks costs the same as a single-block miss — the physical model
// (optical seek dominates transfer) that motivates prefetching. Burns stay
// fast: this bench measures the read path. Every block read is counted.
class SlowReadDevice : public BorrowedDevice {
 public:
  SlowReadDevice(std::unique_ptr<WormDevice> base, uint64_t seek_us)
      : BorrowedDevice(base.get()), owned_(std::move(base)),
        seek_us_(seek_us) {}

  Status ReadBlock(uint64_t i, std::span<std::byte> out) override {
    std::this_thread::sleep_for(std::chrono::microseconds(seek_us_));
    blocks_read_.fetch_add(1);
    return BorrowedDevice::ReadBlock(i, out);
  }
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override {
    std::this_thread::sleep_for(std::chrono::microseconds(seek_us_));
    auto got = BorrowedDevice::ReadBlocks(first, count, out);
    if (got.ok()) {
      blocks_read_.fetch_add(got.value());
    }
    return got;
  }
  // Passes sleep with no lock held: concurrent misses overlap.
  bool serves_one_call_at_a_time() const override { return false; }

  uint64_t blocks_read() const { return blocks_read_.load(); }

 private:
  std::unique_ptr<WormDevice> owned_;
  const uint64_t seek_us_;
  std::atomic<uint64_t> blocks_read_{0};
};

constexpr size_t kPayloadBytes = 64;
constexpr int kMaxReaders = 8;
constexpr uint32_t kBatchSize = 32;

// The seek must dominate per-file host CPU (~50 us/entry of RPC framing
// and verification) or the cells measure the host's core count instead of
// lock/IO overlap: reader CPU serializes on a small machine no matter what
// the lock does, and only the device sleeps can overlap. 2-3 ms is still
// an order of magnitude faster than the optical media the paper targets.
uint64_t SeekUs() { return FastMode() ? 2000 : 3000; }
int EntriesPerFile() { return FastMode() ? 400 : 1250; }
int TailScanEntries() { return FastMode() ? 2000 : 10000; }
constexpr int kSparseEntries = 24;
constexpr size_t kFillerBytes = 1000;  // about one 1 KiB block per entry

std::string FilePath(int reader) {
  return "/scan" + std::to_string(reader);
}

struct Harness {
  SlowReadDevice* device = nullptr;  // owned by the service
  std::unique_ptr<SimulatedClock> clock;
  std::unique_ptr<LogService> service;
  std::unique_ptr<NetLogServer> server;
};

// One server per cell: every reader scans cold, so the cells are
// comparable. `readahead` is the knob under test. `gap_blocks` > 0 puts
// that many block-sized entries of another file before each entry, so a
// file's entries sit about gap_blocks apart on the volume.
Harness StartServer(uint32_t readahead, int entries_per_file, int files,
                    int gap_blocks = 0) {
  Harness h;
  h.clock = std::make_unique<SimulatedClock>(1'000'000, /*auto_tick=*/11);
  MemoryWormOptions dev;
  dev.block_size = 1024;
  dev.capacity_blocks = 1 << 16;
  LogServiceOptions options;
  options.cache_blocks = 8192;
  options.readahead_blocks = readahead;
  options.sequence_id = 0xBE7C6;
  auto device = std::make_unique<SlowReadDevice>(
      std::make_unique<MemoryWormDevice>(dev), SeekUs());
  h.device = device.get();
  auto service =
      LogService::Create(std::move(device), h.clock.get(), options);
  BENCH_CHECK_OK(service.status());
  h.service = std::move(service).value();

  auto server = NetLogServer::Start(h.service.get());
  BENCH_CHECK_OK(server.status());
  h.server = std::move(server).value();

  // Populate file-by-file so each reader's scan touches a disjoint block
  // range (concurrent misses really are independent device passes).
  auto setup = NetLogClient::Connect(h.server->port());
  BENCH_CHECK_OK(setup.status());
  Rng rng(0xC0FFEE);
  if (gap_blocks > 0) {
    BENCH_CHECK_OK((*setup)->CreateLogFile("/filler").status());
  }
  for (int f = 0; f < files; ++f) {
    BENCH_CHECK_OK((*setup)->CreateLogFile(FilePath(f)).status());
    for (int i = 0; i < entries_per_file; ++i) {
      for (int g = 0; g < gap_blocks; ++g) {
        BENCH_CHECK_OK((*setup)
                           ->Append("/filler", FillPayload(&rng, kFillerBytes),
                                    /*timestamped=*/false, /*force=*/false)
                           .status());
      }
      BENCH_CHECK_OK((*setup)
                         ->Append(FilePath(f), FillPayload(&rng, kPayloadBytes),
                                  /*timestamped=*/false,
                                  /*force=*/i == entries_per_file - 1)
                         .status());
    }
  }
  return h;
}

// Aggregate entries/sec for `readers` concurrent clients, each draining
// its own file through the batched iterator. The populate pass left every
// burned block cached (the write path keeps the buffer pool warm), so the
// cache is dropped first: these cells measure COLD scans, where shared
// locking lets the readers' device passes overlap.
double RunScanCell(const Harness& h, int readers, int entries_per_file) {
  h.service->cache().Clear();
  std::vector<std::thread> threads;
  std::atomic<uint64_t> total{0};
  auto started = std::chrono::steady_clock::now();
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      auto client = NetLogClient::Connect(h.server->port());
      BENCH_CHECK_OK(client.status());
      auto handle = (*client)->OpenReader(FilePath(c));
      BENCH_CHECK_OK(handle.status());
      BatchedReader reader(client->get(), *handle, kBatchSize);
      uint64_t seen = 0;
      while (true) {
        auto entry = reader.Next();
        BENCH_CHECK_OK(entry.status());
        if (!entry->has_value()) {
          break;
        }
        ++seen;
      }
      if (seen != static_cast<uint64_t>(entries_per_file)) {
        std::fprintf(stderr, "BENCH FATAL: reader %d saw %llu of %d\n", c,
                     static_cast<unsigned long long>(seen), entries_per_file);
        std::abort();
      }
      total.fetch_add(seen);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  double elapsed_us = UsSince(started);
  return total.load() / (elapsed_us / 1e6);
}

// RPC round trips for a tail scan of `entries`, per-entry vs batched.
// Counted via the process-global client-call counter, so the two scans run
// back to back against a warm server (RPC count is deterministic either
// way; device time is irrelevant here).
struct RpcCounts {
  uint64_t per_entry = 0;
  uint64_t batched = 0;
};

RpcCounts RunRpcCell(const Harness& h, int entries) {
  Counter* calls = ObsRegistry().counter("clio.net.client.calls");
  auto client = NetLogClient::Connect(h.server->port());
  BENCH_CHECK_OK(client.status());
  auto handle = (*client)->OpenReader(FilePath(0));
  BENCH_CHECK_OK(handle.status());

  RpcCounts counts;
  uint64_t before = calls->value();
  for (int i = 0; i < entries; ++i) {
    auto entry = (*client)->ReadNext(*handle);
    BENCH_CHECK_OK(entry.status());
    BENCH_CHECK_OK(entry->has_value()
                       ? Status::Ok()
                       : Unavailable("scan ended early"));
  }
  counts.per_entry = calls->value() - before;

  BENCH_CHECK_OK((*client)->SeekToStart(*handle));
  before = calls->value();
  BatchedReader reader(client->get(), *handle, kBatchSize);
  for (int i = 0; i < entries; ++i) {
    auto entry = reader.Next();
    BENCH_CHECK_OK(entry.status());
    BENCH_CHECK_OK(entry->has_value()
                       ? Status::Ok()
                       : Unavailable("batched scan ended early"));
  }
  counts.batched = calls->value() - before;
  return counts;
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  using namespace clio::bench;

  const int entries_per_file = EntriesPerFile();
  std::printf("Concurrent read-path scaling\n");
  std::printf("(loopback TCP, %d %zu-byte entries per reader's file, "
              "%llu us per device read pass, batch K=%u)\n\n",
              entries_per_file, kPayloadBytes,
              static_cast<unsigned long long>(SeekUs()), kBatchSize);

  BenchReport report("read_scaling");

  // -- Reader scaling, readahead off so every block miss is a separate
  //    device pass.
  std::printf("%8s  %12s\n", "readers", "entries/s");
  for (int readers : {1, kMaxReaders}) {
    Harness h = StartServer(/*readahead=*/0, entries_per_file, kMaxReaders);
    double eps = RunScanCell(h, readers, entries_per_file);
    h.server->Stop();
    std::printf("%8d  %12.0f\n", readers, eps);
    report.AddCounter("r" + std::to_string(readers) + "_shared",
                      "entries_per_sec", eps);
  }
  std::printf("\n");

  // -- Readahead ablation: one cold scan, with and without prefetch. The
  //    server runs in-process, so the speculative-fetch obs counter is
  //    directly readable here.
  clio::Counter* prefetched =
      clio::ObsRegistry().counter("clio.cache.readahead_blocks");
  double ra_off = 0, ra_on = 0;
  for (uint32_t readahead : {0u, 8u}) {
    Harness h = StartServer(readahead, entries_per_file, /*files=*/1);
    uint64_t before = prefetched->value();
    double eps = RunScanCell(h, 1, entries_per_file);
    h.server->Stop();
    (readahead == 0 ? ra_off : ra_on) = eps;
    std::string op = "readahead" + std::to_string(readahead);
    report.AddCounter(op, "entries_per_sec", eps);
    report.AddCounter(op, "blocks_prefetched",
                      static_cast<double>(prefetched->value() - before));
  }
  double ra_gain = ra_off > 0 ? ra_on / ra_off : 0;
  std::printf("readahead=8 cold-scan speedup over readahead=0: %.1fx\n",
              ra_gain);
  report.AddCounter("summary", "readahead_speedup", ra_gain);

  // -- Readahead waste: a cold scan of one file whose entries sit further
  //    apart than the default window. Blind readahead would read about
  //    window+1 blocks per entry; the index-planned pass reads only the
  //    file's own block. A deterministic block count, not a timing.
  {
    const uint32_t window = clio::LogServiceOptions{}.readahead_blocks;
    Harness h = StartServer(window, kSparseEntries, /*files=*/1,
                            /*gap_blocks=*/2 * static_cast<int>(window));
    const uint64_t before = h.device->blocks_read();
    RunScanCell(h, 1, kSparseEntries);
    h.server->Stop();
    double per_entry =
        static_cast<double>(h.device->blocks_read() - before) /
        kSparseEntries;
    std::printf("sparse cold scan (readahead=%u): %.2f blocks read per "
                "entry\n",
                window, per_entry);
    report.AddCounter("summary", "sparse_blocks_read_per_entry", per_entry,
                      BenchReport::Better::kLower);
  }

  // -- RPC amortization: per-entry ReadNext vs kReadBatch for a tail scan.
  {
    const int entries = TailScanEntries();
    Harness h = StartServer(/*readahead=*/8, entries, /*files=*/1);
    RpcCounts counts = RunRpcCell(h, entries);
    h.server->Stop();
    double reduction =
        counts.batched > 0
            ? static_cast<double>(counts.per_entry) / counts.batched
            : 0;
    std::printf("%d-entry tail scan: %llu RPCs per-entry vs %llu batched "
                "(%.1fx fewer) %s\n",
                entries, static_cast<unsigned long long>(counts.per_entry),
                static_cast<unsigned long long>(counts.batched), reduction,
                reduction >= 5.0 ? "(>= 5x: PASS)" : "(< 5x)");
    report.AddCounter("tail_scan", "rpc_reduction", reduction);
  }

  if (!report.Write()) {
    return 1;
  }
  return 0;
}
