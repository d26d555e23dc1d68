// Volume verifier tests: clean volumes verify clean; injected damage is
// classified correctly.
#include "src/clio/verify.h"

#include <gtest/gtest.h>

#include "src/clio/log_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

TEST(Verify, CleanVolumeVerifiesClean) {
  auto fx = ServiceFixture::Make(/*block_size=*/512, /*capacity_blocks=*/8192,
                                 /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  ASSERT_OK(fx.service->CreateLogFile("/a/sub").status());
  ASSERT_OK(fx.service->CreateLogFile("/b").status());
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const char* path = i % 3 == 0 ? "/a" : (i % 3 == 1 ? "/a/sub" : "/b");
    ASSERT_OK(fx.service->Append(path, RandomPayload(&rng, 60)).status());
  }
  ASSERT_OK(fx.service->Force());
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx.service->current_volume()));
  EXPECT_TRUE(report.clean()) << (report.missing_bits.empty()
                                      ? (report.broken_chains.empty()
                                             ? report.time_regressions[0]
                                             : report.broken_chains[0])
                                      : report.missing_bits[0]);
  EXPECT_EQ(report.blocks_corrupt, 0u);
  EXPECT_GT(report.entries_total, 500u);
  EXPECT_GT(report.entrymap_nodes, 0u);
  EXPECT_GE(report.catalog_records, 3u);
}

TEST(Verify, CleanVolumeWithFragmentsVerifiesClean) {
  auto fx = ServiceFixture::Make(/*block_size=*/256, /*capacity_blocks=*/8192,
                                 /*degree=*/4);
  ASSERT_OK(fx.service->CreateLogFile("/big").status());
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(
        fx.service->Append("/big", RandomPayload(&rng, 700)).status());
  }
  ASSERT_OK(fx.service->Force());
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx.service->current_volume()));
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.fragments_total, 30u);
}

// An entrymap node too wide for one block (1 KiB blocks, 260 live files:
// the level-3 node due at block 4096) used to be burned on its own in the
// middle of a fragment chain without the continues flag, so the entry
// straddling block 4096 read back wrong and the chain looked broken.
TEST(Verify, FragmentChainSurvivesAnOverflowingEntrymapNode) {
  auto fx = ServiceFixture::Make(/*block_size=*/1024, /*capacity_blocks=*/8192,
                                 /*degree=*/16);
  constexpr int kFiles = 260;
  for (int f = 0; f < kFiles; ++f) {
    ASSERT_OK(fx.service->CreateLogFile("/f" + std::to_string(f)).status());
  }
  Rng rng(0x4096);
  WriteOptions timestamped;
  timestamped.timestamped = true;
  for (int i = 0; fx.service->current_volume()->end_block() < 4090; ++i) {
    ASSERT_OK(fx.service
                  ->Append("/f" + std::to_string(i % kFiles),
                           RandomPayload(&rng, 300), timestamped)
                  .status());
  }
  ASSERT_LT(fx.service->current_volume()->end_block(), 4096u);
  const Bytes straddler = RandomPayload(&rng, 12 * 1024);
  ASSERT_OK_AND_ASSIGN(AppendResult appended,
                       fx.service->Append("/f7", straddler, timestamped));
  ASSERT_OK(fx.service->Force());
  ASSERT_GT(fx.service->current_volume()->end_block(), 4100u);

  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx.service->current_volume()));
  EXPECT_TRUE(report.clean())
      << (report.broken_chains.empty() ? "" : report.broken_chains[0]);
  ASSERT_OK_AND_ASSIGN(auto reader, fx.service->OpenReader("/f7"));
  ASSERT_OK_AND_ASSIGN(auto found,
                       reader->FindByTimestamp(appended.timestamp));
  ASSERT_TRUE(found.has_value());
  EXPECT_FALSE(found->truncated);
  EXPECT_EQ(found->payload.size(), straddler.size());
  EXPECT_TRUE(found->payload == straddler);
}

TEST(Verify, MultiMembershipVolumesVerifyClean) {
  auto fx = ServiceFixture::Make(/*block_size=*/512, /*capacity_blocks=*/8192,
                                 /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  ASSERT_OK_AND_ASSIGN(LogFileId b, fx.service->CreateLogFile("/b"));
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    WriteOptions opts;
    if (i % 4 == 0) {
      opts.extra_memberships = {b};
    }
    ASSERT_OK(
        fx.service->Append("/a", RandomPayload(&rng, 50), opts).status());
  }
  ASSERT_OK(fx.service->Force());
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx.service->current_volume()));
  EXPECT_TRUE(report.clean());
}

TEST(Verify, CorruptBlockMakesTheReportUnclean) {
  // Regression: clean() once ignored blocks_corrupt entirely, so a volume
  // full of unreadable blocks still audited "clean".
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::make_unique<BorrowedDevice>(&media),
                         &clock, options));
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(5);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(
        service->Append("/a", RandomPayload(&rng, 60), forced).status());
  }
  // Flip one stored bit: the block fails its CRC and is counted corrupt.
  uint64_t victim = 4;
  Bytes buf(dev.block_size);
  ASSERT_OK(media.ReadBlock(victim, buf));
  buf[100] ^= std::byte{0x10};
  media.Scribble(victim, buf);
  service->cache().Erase({0, victim});
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(service->current_volume()));
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.blocks_corrupt, 1u);
}

TEST(Verify, InvalidatedDataBlockLeavesStaleBitsOnly) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::make_unique<BorrowedDevice>(&media),
                         &clock, options));
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(4);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(
        service->Append("/a", RandomPayload(&rng, 60), forced).status());
  }
  LogVolume* volume = service->current_volume();
  // Invalidate a non-home data block: its entries are lost, which leaves
  // stale bits (tolerated: the entrymap is conservative) but must not
  // produce missing bits, broken chains, or time regressions.
  uint64_t victim = 3;
  while (volume->geometry().HomeLevel(victim) > 0) {
    ++victim;
  }
  ASSERT_OK(media.InvalidateBlock(victim));
  service->cache().Erase({0, victim});
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyVolume(volume));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.blocks_invalidated, 1u);
  EXPECT_FALSE(report.stale_bits.empty());
}

}  // namespace
}  // namespace clio
