// Reproduces the paper's §1 motivation: "standard magnetic disk-based file
// systems are inadequate for storing and accessing the large, long-lived
// logs that history-based applications may require."
//
// Three claims, each measured against the real baselines in src/vfs:
//  (a) indirect-block file systems (Unix): "blocks at the tail end of such
//      files become increasingly expensive to read and write";
//  (b) extent-based file systems: "such files use up many extents, since
//      each addition ... can end up allocating a new portion of the disk
//      that is discontiguous";
//  (c) backup: "copying whole files ... is particularly inefficient for
//      large log files, since only the tail end will have changed" —
//      a log service gets incremental backup for free (copy new blocks).
#include "bench/bench_util.h"

#include <cinttypes>

#include "src/device/memory_rewritable_device.h"
#include "src/vfs/extent_fs.h"
#include "src/vfs/unix_fs.h"

namespace clio {
namespace bench {
namespace {

void TailReadDepth() {
  std::printf("\n(a) blocks touched to read 1 KB at the tail of a growing "
              "file (1 KB blocks)\n");
  MemoryRewritableDevice disk(1024, 1 << 18);
  BlockCache cache(64, disk.block_size());
  auto fs = UnixFs::Format(&disk, &cache, 1, {.inode_count = 64});
  BENCH_CHECK_OK(fs.status());
  auto ino = fs.value()->CreateFile("/grow");
  BENCH_CHECK_OK(ino.status());

  std::printf("%-14s | %-18s | %-18s | %s\n", "file size",
              "UnixFs blocks", "Clio log blocks", "why");
  std::printf("---------------+--------------------+--------------------+"
              "----------------------\n");
  struct Row {
    uint64_t size;
    const char* why;
  };
  const Row rows[] = {
      {8 * 1024, "direct pointers"},
      {64 * 1024, "single indirect"},
      {1024 * 1024, "double indirect"},
      {8 * 1024 * 1024, "double indirect"},
      {180ull * 1024 * 1024, "triple indirect"},
      {20ull * 1024 * 1024 * 1024, "triple indirect"},
  };
  for (const Row& row : rows) {
    auto cost = fs.value()->BlocksToRead(*ino, row.size - 1024, 1024);
    BENCH_CHECK_OK(cost.status());
    // A Clio log file's most recent entries are located via the in-memory
    // accumulator / cached entrymap nodes: 1 block for a tail read,
    // independent of the log's age (section 2.1).
    std::printf("%10.1f MB | %18" PRIu64 " | %18d | %s\n",
                static_cast<double>(row.size) / (1024 * 1024), cost.value(),
                1, row.why);
  }
}

void ExtentFragmentation() {
  std::printf("\n(b) extents consumed by two logs growing in an "
              "interleaved fashion (ExtentFs)\n");
  MemoryRewritableDevice disk(1024, 1 << 16);
  BlockCache cache(64, disk.block_size());
  auto fs = ExtentFs::Format(&disk, &cache, 2, {});
  BENCH_CHECK_OK(fs.status());
  auto a = fs.value()->Create("log-a");
  auto b = fs.value()->Create("log-b");
  BENCH_CHECK_OK(a.status());
  BENCH_CHECK_OK(b.status());
  Rng rng(3);
  std::printf("%-16s | %-12s | %-12s | %s\n", "appends per log",
              "extents (a)", "extents (b)", "Clio equivalent");
  std::printf("-----------------+--------------+--------------+------------"
              "-----\n");
  int written = 0;
  bool exhausted = false;
  for (int target : {8, 32, 128, 512}) {
    for (; written < target && !exhausted; ++written) {
      Status sa = fs.value()->Append(*a, FillPayload(&rng, 1024));
      Status sb = sa.ok() ? fs.value()->Append(*b, FillPayload(&rng, 1024))
                          : sa;
      if (!sa.ok() || !sb.ok()) {
        // The design's terminal failure: the per-file extent list no longer
        // fits its metadata block.
        exhausted = true;
      }
    }
    auto stat_a = fs.value()->Stat(*a);
    auto stat_b = fs.value()->Stat(*b);
    BENCH_CHECK_OK(stat_a.status());
    BENCH_CHECK_OK(stat_b.status());
    std::printf("%-16d | %-12u | %-12u | 0 extents (append-only volume)%s\n",
                written, stat_a.value().extent_count,
                stat_b.value().extent_count,
                exhausted ? "  <- extent budget EXHAUSTED" : "");
    if (exhausted) {
      break;
    }
  }
  std::printf("paper: 'each addition to the file can end up allocating a "
              "new portion of the disk that is discontiguous'. The run "
              "above %s.\n",
              exhausted ? "ended when the per-file extent table overflowed "
                          "- a growing log eventually cannot be appended "
                          "to at all"
                        : "kept fragmenting linearly");
}

void BackupCost() {
  std::printf("\n(c) daily backup cost for a 64 MB log growing 1 MB/day "
              "(1 KB blocks)\n");
  const uint64_t total_blocks = 64 * 1024;
  const uint64_t daily_blocks = 1024;
  std::printf("%-28s | %-16s | %s\n", "strategy", "blocks copied",
              "cumulative after 30 days");
  std::printf("-----------------------------+------------------+-----------"
              "--------------\n");
  std::printf("%-28s | %-16" PRIu64 " | %" PRIu64 " blocks\n",
              "whole-file copy (standard FS)", total_blocks,
              30 * total_blocks);
  std::printf("%-28s | %-16" PRIu64 " | %" PRIu64 " blocks\n",
              "append-only delta (log file)", daily_blocks,
              30 * daily_blocks);
  std::printf("%-28s | %-16s | %s\n", "WORM volume (Clio)", "0",
              "0 blocks: the medium *is* the archive (section 4)");
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  using namespace clio::bench;
  PrintHeader("Section 1 motivation: conventional file systems vs large "
              "growing logs", "paper section 1 claims");
  TailReadDepth();
  ExtentFragmentation();
  BackupCost();
  return 0;
}
