// Reproduces the paper's §4 cache-economics argument:
//
//   "Suppose ... that the cost of retrieving 1 kilobyte is 100 ms if the
//    data is read from a log device (on a cache miss), 30 ms if the data is
//    read from a magnetic disk cache, and 1 ms if the data is read from a
//    RAM cache. In this case, given the choice of adding R Mbytes of RAM
//    versus D Mbytes of disk for the same cost, as long as the cache hit
//    ratio for the RAM cache is at least 70% of the cache hit ratio of the
//    disk cache, then the RAM cache has the better read access
//    performance."
//
// Part 1 evaluates the analytic model and locates the crossover. Part 2
// runs the actual BlockCache on a skewed workload at the two sizes a fixed
// budget buys and applies the model to the measured hit ratios.
#include "bench/bench_util.h"

#include <cinttypes>
#include <cmath>

#include "src/cache/block_cache.h"

namespace clio {
namespace bench {
namespace {

constexpr double kDeviceMs = 100.0;
constexpr double kDiskMs = 30.0;
constexpr double kRamMs = 1.0;

double EffectiveMs(double hit_ratio, double hit_ms) {
  return hit_ratio * hit_ms + (1.0 - hit_ratio) * kDeviceMs;
}

void AnalyticTable() {
  std::printf("\n(1) analytic model: effective read time (ms/KB); RAM hit"
              " ratio as a fraction of the disk cache's\n");
  std::printf("%-16s | %-10s | %-13s | %-13s | %s\n", "disk hit ratio",
              "disk", "RAM @60%", "RAM @75%", "RAM wins?");
  std::printf("-----------------+------------+---------------+------------"
              "---+-------------------\n");
  for (double disk_hit = 0.2; disk_hit <= 1.0001; disk_hit += 0.2) {
    double disk_ms = EffectiveMs(disk_hit, kDiskMs);
    double ram60 = EffectiveMs(0.60 * disk_hit, kRamMs);
    double ram75 = EffectiveMs(0.75 * disk_hit, kRamMs);
    std::printf("%-16.1f | %-10.1f | %-13.1f | %-13.1f | %s\n", disk_hit,
                disk_ms, ram60, ram75,
                ram75 <= disk_ms ? "at 75%, not at 60%" : "no");
  }
  // Exact crossover: h_ram * 1 + (1-h_ram)*100 = h_disk*30 + (1-h_disk)*100
  // -> h_ram = h_disk * 70/99 ~= 0.707 * h_disk.
  std::printf("exact break-even: h_ram = h_disk * (100-30)/(100-1) = "
              "%.3f * h_disk (paper: ~70%%)\n", 70.0 / 99.0);
}

// Zipf-ish block access over `universe` blocks: block popularity decays so
// a modest cache catches most traffic (Ousterhout's observation the paper
// cites: small caches reach 90% hits).
uint64_t SkewedBlock(Rng* rng, uint64_t universe) {
  double u = rng->NextDouble();
  double x = std::pow(u, 8.0);  // strong skew toward low indexes
  return static_cast<uint64_t>(x * static_cast<double>(universe));
}

void MeasuredTable() {
  std::printf("\n(2) measured BlockCache hit ratios on a skewed workload "
              "(100k reads over 20k hot blocks)\n");
  // Budget example: RAM is ~10x the per-byte cost of disk, so one budget
  // buys a 1k-block RAM cache or a 10k-block disk cache.
  const uint64_t universe = 20000;
  struct Config {
    const char* name;
    size_t blocks;
    double hit_ms;
  };
  const Config configs[] = {
      {"disk cache, 10000 blocks", 10000, kDiskMs},
      {"RAM  cache,  1000 blocks", 1000, kRamMs},
      {"RAM  cache,  2000 blocks", 2000, kRamMs},
  };
  std::printf("%-28s | %-10s | %s\n", "configuration", "hit ratio",
              "effective ms/KB");
  std::printf("-----------------------------+------------+---------------"
              "\n");
  for (const Config& config : configs) {
    Bytes block(64, std::byte{0});
    BlockCache cache(config.blocks, static_cast<uint32_t>(block.size()));
    Rng rng(11);
    for (int i = 0; i < 100000; ++i) {
      uint64_t b = SkewedBlock(&rng, universe);
      if (!cache.Lookup({0, b})) {
        cache.Admit({0, b}, block);
      }
    }
    double hit = cache.stats().HitRatio();
    std::printf("%-28s | %-10.3f | %.1f\n", config.name, hit,
                EffectiveMs(hit, config.hit_ms));
  }
  std::printf("\nEven with a tenth of the blocks, the RAM cache's "
              "effective latency beats the disk cache whenever its hit "
              "ratio clears ~70%% of the disk's — the paper's case for "
              "caching history-based state in RAM (section 4).\n");
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  using namespace clio::bench;
  PrintHeader("Section 4: RAM vs disk cache economics",
              "paper section 4 storage-model argument");
  AnalyticTable();
  MeasuredTable();
  return 0;
}
