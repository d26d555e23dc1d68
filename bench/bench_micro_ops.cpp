// Micro-benchmarks of the core operations (google-benchmark harness):
// append (compact vs timestamped vs forced vs bulk ingest), chain hashing,
// block codec, entrymap search, time search, and crash recovery. These are
// the primitive costs behind every table in the paper; run with
// --benchmark_filter=... to focus.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/clio/block_format.h"
#include "src/device/nvram_tail.h"
#include "src/util/sha256.h"

namespace clio {
namespace bench {
namespace {

void BM_AppendCompact(benchmark::State& state) {
  auto b = BenchService::Make(1024, 1 << 20, 16, 4096);
  BENCH_CHECK_OK(b.service->CreateLogFile("/x").status());
  Rng rng(1);
  Bytes payload = FillPayload(&rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = b.service->Append("/x", payload);
    BENCH_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result.value().timestamp);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AppendCompact)->Arg(0)->Arg(50)->Arg(500);

void BM_AppendForced(benchmark::State& state) {
  auto b = BenchService::Make(1024, 1 << 20, 16, 4096);
  BENCH_CHECK_OK(b.service->CreateLogFile("/x").status());
  Rng rng(1);
  Bytes payload = FillPayload(&rng, 50);
  WriteOptions opts;
  opts.timestamped = true;
  opts.force = true;
  for (auto _ : state) {
    auto result = b.service->Append("/x", payload, opts);
    BENCH_CHECK_OK(result.status());
  }
}
BENCHMARK(BM_AppendForced);

// Bulk ingest, the shape of a populated archive: unforced timestamped
// appends of 64-512 B over 256 Zipf-skewed files into 4 KiB chained
// blocks, with an NVRAM tail and its index checkpoints. Per append this
// prices the whole write path: timestamping, packing, entrymap marks, and
// per burn the chain hash and index upkeep (§3.2). A fresh service every
// 32768 appends keeps memory bounded.
void BM_AppendBulk(benchmark::State& state) {
  constexpr int kFiles = 256;
  constexpr int kAppendsPerService = 32768;
  std::unique_ptr<NvramTail> nvram;
  std::unique_ptr<BenchService> b;
  std::vector<LogFileId> ids;
  auto fresh = [&] {
    b.reset();
    nvram = std::make_unique<NvramTail>(4096);
    LogServiceOptions options;
    options.nvram = nvram.get();
    b = std::make_unique<BenchService>(
        BenchService::Make(4096, 1 << 16, options));
    ids.clear();
    for (int f = 0; f < kFiles; ++f) {
      auto id = b->service->CreateLogFile("/f" + std::to_string(f));
      BENCH_CHECK_OK(id.status());
      ids.push_back(id.value());
    }
  };
  fresh();
  std::vector<double> cdf(kFiles);
  double total = 0;
  for (int r = 0; r < kFiles; ++r) {
    total += 1.0 / (r + 1);
    cdf[r] = total;
  }
  Rng rng(6);
  Bytes payload = FillPayload(&rng, 512);
  WriteOptions opts;
  opts.timestamped = true;
  int appended = 0;
  for (auto _ : state) {
    if (appended == kAppendsPerService) {
      state.PauseTiming();
      fresh();
      appended = 0;
      state.ResumeTiming();
    }
    const double u = total * static_cast<double>(rng.Below(1 << 20)) /
                     static_cast<double>(1 << 20);
    const size_t file = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        kFiles - 1);
    const size_t size = rng.Range(64, 512);
    auto result = b->service->Append(
        ids[file], std::span<const std::byte>(payload).first(size), opts);
    BENCH_CHECK_OK(result.status());
    ++appended;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendBulk);

// The chain hash primitive: one record digest (64 B, a typical 300 B
// record) and a whole 4 KiB block image.
void BM_Sha256(benchmark::State& state) {
  Rng rng(7);
  Bytes data = FillPayload(&rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Sha256Digest digest = Sha256Of(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(300)->Arg(4096);

void BM_BlockParse(benchmark::State& state) {
  BlockBuilder builder(1024);
  Rng rng(2);
  while (builder.PayloadCapacity(HeaderVersion::kCompact) > 40) {
    builder.AddEntry(builder.empty() ? HeaderVersion::kTimestamped
                                     : HeaderVersion::kCompact,
                     4, FillPayload(&rng, 30), 1000);
  }
  const BlockImage image = BlockImage::Copy(builder.Finish());
  for (auto _ : state) {
    auto parsed = ParsedBlock::Parse(image);
    BENCH_CHECK_OK(parsed.status());
    benchmark::DoNotOptimize(parsed.value().entries().size());
  }
}
BENCHMARK(BM_BlockParse);

// The Table-1 primitive: a far-back search through the entrymap tree,
// fully cached.
void BM_EntrymapSearch(benchmark::State& state) {
  static BenchService* shared = [] {
    auto* b = new BenchService(BenchService::Make(256, 1 << 17, 16, 1 << 17));
    BENCH_CHECK_OK(b->service->CreateLogFile("/rare").status());
    BENCH_CHECK_OK(b->service->CreateLogFile("/noise").status());
    Rng rng(3);
    WriteOptions forced;
    forced.force = true;
    BENCH_CHECK_OK(
        b->service->Append("/rare", AsBytes("needle"), forced).status());
    for (int i = 0; i < 70000; ++i) {
      BENCH_CHECK_OK(
          b->service->Append("/noise", FillPayload(&rng, 40), forced)
              .status());
    }
    return b;
  }();
  LogVolume* volume = shared->service->current_volume();
  LogFileId id = shared->service->Resolve("/rare").value();
  uint64_t distance = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    OpStats stats;
    auto found = volume->PrevBlockWith(id, 2 + distance, &stats);
    BENCH_CHECK_OK(found.status());
    benchmark::DoNotOptimize(found.value());
  }
}
BENCHMARK(BM_EntrymapSearch)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TimeSearch(benchmark::State& state) {
  static BenchService* shared = [] {
    auto* b = new BenchService(BenchService::Make(512, 1 << 16, 16, 1 << 16));
    BENCH_CHECK_OK(b->service->CreateLogFile("/t").status());
    Rng rng(4);
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 20000; ++i) {
      BENCH_CHECK_OK(
          b->service->Append("/t", FillPayload(&rng, 40), forced).status());
    }
    return b;
  }();
  LogVolume* volume = shared->service->current_volume();
  Rng rng(9);
  for (auto _ : state) {
    OpStats stats;
    Timestamp t = 1'000'000 + static_cast<Timestamp>(rng.Below(200000));
    auto block = volume->FindBlockByTime(t, &stats);
    BENCH_CHECK_OK(block.status());
    benchmark::DoNotOptimize(block.value());
  }
}
BENCHMARK(BM_TimeSearch);

void BM_CursorScan(benchmark::State& state) {
  static BenchService* shared = [] {
    auto* b = new BenchService(BenchService::Make(1024, 1 << 16, 16,
                                                  1 << 16));
    BENCH_CHECK_OK(b->service->CreateLogFile("/scan").status());
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
      BENCH_CHECK_OK(
          b->service->Append("/scan", FillPayload(&rng, 60)).status());
    }
    BENCH_CHECK_OK(b->service->Force());
    return b;
  }();
  for (auto _ : state) {
    auto reader = shared->service->OpenReader("/scan");
    BENCH_CHECK_OK(reader.status());
    reader.value()->SeekToStart();
    int count = 0;
    while (true) {
      auto record = reader.value()->Next();
      BENCH_CHECK_OK(record.status());
      if (!record.value().has_value()) {
        break;
      }
      ++count;
    }
    if (count != 10000) {
      BENCH_CHECK_OK(Internal("scan lost entries"));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CursorScan);

}  // namespace
}  // namespace bench
}  // namespace clio

BENCHMARK_MAIN();
