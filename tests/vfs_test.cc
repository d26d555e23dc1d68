// Baseline file system tests: the Unix-like indirect-block FS and the
// extent FS used by the paper-motivation benches.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/device/memory_rewritable_device.h"
#include "src/vfs/extent_fs.h"
#include "src/vfs/unix_fs.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

TEST(UnixFs, CreateWriteReadRoundTrip) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->CreateFile("/hello.txt"));
  ASSERT_OK(fs->Write(ino, 0, AsBytes("hello, unix fs")));
  Bytes out(14);
  ASSERT_OK_AND_ASSIGN(size_t n, fs->Read(ino, 0, out));
  EXPECT_EQ(n, 14u);
  EXPECT_EQ(ToString(out), "hello, unix fs");
}

TEST(UnixFs, DirectoriesNestAndList) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
  ASSERT_OK(fs->Mkdir("/var").status());
  ASSERT_OK(fs->Mkdir("/var/log").status());
  ASSERT_OK(fs->CreateFile("/var/log/messages").status());
  ASSERT_OK(fs->CreateFile("/var/log/auth").status());
  ASSERT_OK_AND_ASSIGN(auto entries, fs->ReadDir("/var/log"));
  EXPECT_EQ(entries.size(), 2u);
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->Lookup("/var/log/messages"));
  ASSERT_OK_AND_ASSIGN(UnixFsStat stat, fs->StatInode(ino));
  EXPECT_FALSE(stat.is_directory);
}

TEST(UnixFs, LargeFileSpansIndirectBlocks) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->CreateFile("/big"));
  Rng rng(9);
  // 600 KiB: direct (10 KiB) + single indirect (256 KiB) + into double.
  Bytes data = RandomPayload(&rng, 600 * 1024);
  ASSERT_OK(fs->Write(ino, 0, data));
  Bytes out(data.size());
  ASSERT_OK_AND_ASSIGN(size_t n, fs->Read(ino, 0, out));
  EXPECT_EQ(n, data.size());
  EXPECT_EQ(out, data);
  ASSERT_OK_AND_ASSIGN(UnixFsStat stat, fs->StatInode(ino));
  EXPECT_EQ(stat.size, data.size());
}

TEST(UnixFs, AppendGrowsFile) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->CreateFile("/log"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(fs->Append(ino, AsBytes("line " + std::to_string(i) + "\n")));
  }
  ASSERT_OK_AND_ASSIGN(UnixFsStat stat, fs->StatInode(ino));
  EXPECT_GT(stat.size, 600u);
  Bytes head(7);
  ASSERT_OK(fs->Read(ino, 0, head).status());
  EXPECT_EQ(ToString(head), "line 0\n");
}

TEST(UnixFs, TailReadCostGrowsWithFileDepth) {
  // The paper's §1 claim: blocks at the tail of a large growing file become
  // increasingly expensive to reach (indirect chain depth).
  MemoryRewritableDevice device(1024, 1 << 16);
  BlockCache cache(16, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->CreateFile("/grow"));
  ASSERT_OK_AND_ASSIGN(uint64_t direct_cost, fs->BlocksToRead(ino, 0, 1024));
  // Offset in single-indirect range.
  ASSERT_OK_AND_ASSIGN(uint64_t single_cost,
                       fs->BlocksToRead(ino, 100 * 1024, 1024));
  // Offset in double-indirect range.
  ASSERT_OK_AND_ASSIGN(uint64_t double_cost,
                       fs->BlocksToRead(ino, 10 * 1024 * 1024, 1024));
  EXPECT_EQ(direct_cost, 1u);
  EXPECT_EQ(single_cost, 2u);
  EXPECT_EQ(double_cost, 3u);
}

TEST(UnixFs, RemoveFreesBlocks) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
  uint64_t before = fs->free_blocks();
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->CreateFile("/temp"));
  Rng rng(2);
  ASSERT_OK(fs->Write(ino, 0, RandomPayload(&rng, 50 * 1024)));
  EXPECT_LT(fs->free_blocks(), before);
  ASSERT_OK(fs->Remove("/temp"));
  // Data blocks come back (directory block and indirect tables may stay).
  EXPECT_GT(fs->free_blocks(), before - 5);
  EXPECT_EQ(fs->Lookup("/temp").status().code(), StatusCode::kNotFound);
}

TEST(UnixFs, MountSeesExistingData) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  {
    ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Format(&device, &cache, 1, {}));
    ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->CreateFile("/persist"));
    ASSERT_OK(fs->Write(ino, 0, AsBytes("still here")));
  }
  ASSERT_OK_AND_ASSIGN(auto fs, UnixFs::Mount(&device, &cache, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->Lookup("/persist"));
  Bytes out(10);
  ASSERT_OK(fs->Read(ino, 0, out).status());
  EXPECT_EQ(ToString(out), "still here");
}

TEST(ExtentFs, CreateAppendRead) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, ExtentFs::Format(&device, &cache, 2, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t id, fs->Create("journal"));
  ASSERT_OK(fs->Append(id, AsBytes("first record ")));
  ASSERT_OK(fs->Append(id, AsBytes("second record")));
  Bytes out(26);
  ASSERT_OK_AND_ASSIGN(size_t n, fs->Read(id, 0, out));
  EXPECT_EQ(n, 26u);
  EXPECT_EQ(ToString(out), "first record second record");
}

TEST(ExtentFs, SoloGrowthStaysContiguous) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, ExtentFs::Format(&device, &cache, 2, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t id, fs->Create("only"));
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(fs->Append(id, RandomPayload(&rng, 1024)));
  }
  ASSERT_OK_AND_ASSIGN(ExtentFsStat stat, fs->Stat(id));
  EXPECT_EQ(stat.extent_count, 1u);  // uncontended: one growing extent
}

TEST(ExtentFs, InterleavedGrowthFragments) {
  // The paper's §1 claim: each addition to a slowly growing file can
  // allocate a discontiguous extent when other files grow in between.
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, ExtentFs::Format(&device, &cache, 2, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t a, fs->Create("log-a"));
  ASSERT_OK_AND_ASSIGN(uint32_t b, fs->Create("log-b"));
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(fs->Append(a, RandomPayload(&rng, 1024)));
    ASSERT_OK(fs->Append(b, RandomPayload(&rng, 1024)));
  }
  ASSERT_OK_AND_ASSIGN(ExtentFsStat stat_a, fs->Stat(a));
  ASSERT_OK_AND_ASSIGN(ExtentFsStat stat_b, fs->Stat(b));
  EXPECT_GT(stat_a.extent_count, 10u);
  EXPECT_GT(stat_b.extent_count, 10u);
}

TEST(ExtentFs, MountSeesExistingData) {
  MemoryRewritableDevice device(1024, 1 << 14);
  BlockCache cache(256, device.block_size());
  {
    ASSERT_OK_AND_ASSIGN(auto fs, ExtentFs::Format(&device, &cache, 2, {}));
    ASSERT_OK_AND_ASSIGN(uint32_t id, fs->Create("persist"));
    ASSERT_OK(fs->Append(id, AsBytes("extent data")));
  }
  ASSERT_OK_AND_ASSIGN(auto fs, ExtentFs::Mount(&device, &cache, 2));
  ASSERT_OK_AND_ASSIGN(uint32_t id, fs->Lookup("persist"));
  Bytes out(11);
  ASSERT_OK(fs->Read(id, 0, out).status());
  EXPECT_EQ(ToString(out), "extent data");
}

TEST(ExtentFs, ExtentBudgetExhaustionSurfaces) {
  // With tiny blocks the per-file extent list overflows under heavy
  // interleaving — the design's documented failure mode.
  MemoryRewritableDevice device(256, 1 << 14);
  BlockCache cache(64, device.block_size());
  ASSERT_OK_AND_ASSIGN(auto fs, ExtentFs::Format(&device, &cache, 2, {}));
  ASSERT_OK_AND_ASSIGN(uint32_t a, fs->Create("a"));
  ASSERT_OK_AND_ASSIGN(uint32_t b, fs->Create("b"));
  Rng rng(4);
  Status last;
  for (int i = 0; i < 200 && last.ok(); ++i) {
    last = fs->Append(a, RandomPayload(&rng, 256));
    if (last.ok()) {
      last = fs->Append(b, RandomPayload(&rng, 256));
    }
  }
  EXPECT_EQ(last.code(), StatusCode::kNoSpace);
}

}  // namespace
}  // namespace clio
