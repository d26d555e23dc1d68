// LogVolume internals: entrymap fetch displacement, the synthesize-from-
// lower-levels fallback, entrymap node chunking, time search over damaged
// regions, fragment-chain truncation, the linear scan paths, and the
// search fallbacks' handling of a transient read, and Prev's read of a
// multi-block entry's base block.
#include "src/clio/volume.h"

#include <gtest/gtest.h>

#include <functional>

#include "src/clio/cursor.h"
#include "src/clio/log_service.h"
#include "src/device/fault_injection.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

struct VolumeRig {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  std::unique_ptr<MemoryWormDevice> media;
  testing::FlakyBlockDevice* flaky = nullptr;  // owned by the service
  std::unique_ptr<LogService> service;

  static VolumeRig Make(uint32_t block_size, uint16_t degree,
                        uint64_t capacity = 1 << 14,
                        bool extent_index = true) {
    VolumeRig rig;
    MemoryWormOptions dev;
    dev.block_size = block_size;
    dev.capacity_blocks = capacity;
    rig.media = std::make_unique<MemoryWormDevice>(dev);
    LogServiceOptions options;
    options.entrymap_degree = degree;
    options.enable_extent_index = extent_index;
    auto device = std::make_unique<testing::FlakyBlockDevice>(rig.media.get());
    rig.flaky = device.get();
    auto service =
        LogService::Create(std::move(device), rig.clock.get(), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    return rig;
  }
  LogVolume* volume() { return rig_volume(); }
  LogVolume* rig_volume() { return service->current_volume(); }
};

TEST(VolumeInternals, SearchSurvivesEntrymapHomeInvalidation) {
  // Invalidate a level-1 home block *after* it was written: the search
  // must fall back to synthesizing the bitmap from the blocks themselves
  // (paper §2.3.2: entrymap data is redundant).
  auto rig = VolumeRig::Make(512, 8);
  ASSERT_OK(rig.service->CreateLogFile("/rare").status());
  ASSERT_OK(rig.service->CreateLogFile("/noise").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(1);
  ASSERT_OK(rig.service->Append("/rare", AsBytes("needle"), forced).status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rig.service->Append("/noise", RandomPayload(&rng, 60), forced)
                  .status());
  }
  // Destroy every entrymap home block on the media.
  LogVolume* volume = rig.service->current_volume();
  for (uint64_t b = 8; b < volume->end_block(); b += 8) {
    ASSERT_OK(rig.media->InvalidateBlock(b));
    rig.service->cache().Erase({0, b});
  }
  LogFileId rare = rig.service->Resolve("/rare").value();
  OpStats stats;
  ASSERT_OK_AND_ASSIGN(auto found,
                       volume->PrevBlockWith(rare, volume->end_block(),
                                             &stats));
  ASSERT_TRUE(found.has_value());
  // The needle block itself must parse and contain the entry.
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed, volume->GetBlock(*found, &stats));
  bool has = false;
  for (const auto& e : parsed.entries()) {
    has |= e.logfile_id == rare;
  }
  EXPECT_TRUE(has);
}

TEST(VolumeInternals, ManyLogFilesForceEntrymapChunking) {
  // With tiny blocks and hundreds of active log files, one entrymap node
  // cannot fit a block; the writer splits it into chunks that readers
  // merge (kFlagEntrymapContinues).
  auto rig = VolumeRig::Make(256, 16, 1 << 14);
  std::vector<std::string> paths;
  for (int f = 0; f < 120; ++f) {
    std::string path = "/f" + std::to_string(f);
    ASSERT_OK(rig.service->CreateLogFile(path).status());
    paths.push_back(path);
  }
  Rng rng(2);
  std::map<std::string, int> counts;
  for (int i = 0; i < 3000; ++i) {
    const std::string& path = paths[rng.Below(paths.size())];
    ASSERT_OK(rig.service->Append(path, RandomPayload(&rng, 20)).status());
    counts[path]++;
  }
  ASSERT_OK(rig.service->Force());
  // Every log file reads back completely (chunked entrymap nodes and all).
  for (const auto& [path, expected] : counts) {
    ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader(path));
    reader->SeekToStart();
    int got = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      if (!record.has_value()) {
        break;
      }
      ++got;
    }
    EXPECT_EQ(got, expected) << path;
  }
}

TEST(VolumeInternals, FragmentChainTruncationIsReported) {
  auto rig = VolumeRig::Make(256, 8);
  ASSERT_OK(rig.service->CreateLogFile("/big").status());
  Rng rng(3);
  Bytes payload = RandomPayload(&rng, 2000);  // ~10 blocks
  ASSERT_OK(rig.service->Append("/big", payload).status());
  ASSERT_OK(rig.service->Force());
  LogVolume* volume = rig.service->current_volume();
  // Corrupt a block in the middle of the chain.
  uint64_t mid = volume->end_block() / 2 + 1;
  ASSERT_OK(rig.media->InvalidateBlock(mid));
  rig.service->cache().Erase({0, mid});

  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/big"));
  reader->SeekToStart();
  ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->truncated);
  EXPECT_LT(record->payload.size(), payload.size());
  EXPECT_GT(record->payload.size(), 0u);
  // The surviving prefix matches the original (no garbage spliced in).
  EXPECT_EQ(ToString(record->payload),
            ToString(payload).substr(0, record->payload.size()));
}

TEST(VolumeInternals, VolumeSequenceLogLinearScan) {
  auto rig = VolumeRig::Make(512, 8);
  ASSERT_OK(rig.service->CreateLogFile("/a").status());
  ASSERT_OK(rig.service->Append("/a", AsBytes("x")).status());
  ASSERT_OK(rig.service->Force());
  LogVolume* volume = rig.service->current_volume();
  OpStats stats;
  // "/" matches every block with entries.
  ASSERT_OK_AND_ASSIGN(
      auto prev,
      volume->PrevBlockWith(kVolumeSeqLogId, volume->end_block(), &stats));
  ASSERT_TRUE(prev.has_value());
  ASSERT_OK_AND_ASSIGN(auto next,
                       volume->NextBlockWith(kVolumeSeqLogId, 1, &stats));
  ASSERT_TRUE(next.has_value());
  EXPECT_LE(*next, *prev);
}

TEST(VolumeInternals, EntrymapLogIsItselfReadable) {
  // The entrymap log file is a log file too; reading it via the service
  // must yield decodable entrymap payloads.
  auto rig = VolumeRig::Make(512, 4);
  ASSERT_OK(rig.service->CreateLogFile("/x").status());
  Rng rng(4);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(rig.service->Append("/x", RandomPayload(&rng, 50), forced)
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader,
                       rig.service->OpenReaderById(kEntrymapLogId));
  reader->SeekToStart();
  int nodes = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    ASSERT_OK_AND_ASSIGN(EntrymapPayload payload,
                         EntrymapPayload::Decode(record->payload, 1));
    EXPECT_GE(payload.level, 1);
    ++nodes;
  }
  EXPECT_GT(nodes, 5);
}

TEST(VolumeInternals, TimeSearchSkipsInvalidatedBlocks) {
  auto rig = VolumeRig::Make(512, 8);
  ASSERT_OK(rig.service->CreateLogFile("/t").status());
  WriteOptions forced;
  forced.force = true;
  forced.timestamped = true;
  std::vector<Timestamp> stamps;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK_AND_ASSIGN(AppendResult r,
                         rig.service->Append("/t", AsBytes("e"), forced));
    stamps.push_back(r.timestamp);
  }
  LogVolume* volume = rig.service->current_volume();
  // Invalidate a third of the blocks.
  Rng rng(5);
  for (uint64_t b = 2; b < volume->end_block(); b += 3) {
    ASSERT_OK(rig.media->InvalidateBlock(b));
    rig.service->cache().Erase({0, b});
  }
  // Time search still brackets correctly among surviving blocks.
  OpStats stats;
  ASSERT_OK_AND_ASSIGN(auto block,
                       volume->FindBlockByTime(stamps[30], &stats));
  ASSERT_TRUE(block.has_value());
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed, volume->GetBlock(*block, &stats));
  ASSERT_TRUE(parsed.FirstTimestamp().has_value());
  EXPECT_LE(*parsed.FirstTimestamp(), stamps[30]);
}

// A transient read is no verdict on a block (DESIGN.md §15): the time
// bisection must fail the seek rather than probe past the block, and the
// retry must land on the entry. Skipping it would put the gap before an
// earlier block, and Prev would lose the entry.
TEST(VolumeInternals, TimeSeekFailsOnATransientProbeThenFindsTheEntry) {
  auto rig = VolumeRig::Make(512, 8, 1 << 14, /*extent_index=*/false);
  ASSERT_OK(rig.service->CreateLogFile("/t").status());
  WriteOptions forced;
  forced.force = true;
  forced.timestamped = true;
  std::vector<AppendResult> appended;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        rig.service->Append("/t", AsBytes("e" + std::to_string(i)), forced));
    appended.push_back(r);
  }
  const AppendResult& target = appended[30];
  rig.service->cache().Clear();
  rig.flaky->FailReads(target.position.block, 1);
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/t"));
  EXPECT_EQ(reader->SeekToTime(target.timestamp).code(),
            StatusCode::kUnavailable);
  ASSERT_OK(reader->SeekToTime(target.timestamp));
  ASSERT_OK_AND_ASSIGN(auto prev, reader->Prev());
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(ToString(prev->payload), "e30");
}

// The same for Next across groups whose entrymap homes were invalidated:
// the level-1 bitmap is synthesized from the blocks, and a block it
// cannot read fails the call instead of reading as "no entry here".
TEST(VolumeInternals, NextFailsOnATransientReadBehindAnInvalidatedHome) {
  auto rig = VolumeRig::Make(512, 8, 1 << 14, /*extent_index=*/false);
  ASSERT_OK(rig.service->CreateLogFile("/rare").status());
  ASSERT_OK(rig.service->CreateLogFile("/noise").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(3);
  auto noise = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(rig.service->Append("/noise", RandomPayload(&rng, 60), forced)
                    .status());
    }
  };
  ASSERT_OK(rig.service->Append("/rare", AsBytes("first"), forced).status());
  noise(100);
  ASSERT_OK_AND_ASSIGN(
      AppendResult second,
      rig.service->Append("/rare", AsBytes("second"), forced));
  noise(20);
  const uint64_t needle = second.position.block;
  LogVolume* volume = rig.service->current_volume();
  for (uint64_t b = 8; b < volume->end_block(); b += 8) {
    ASSERT_NE(b, needle);
    ASSERT_OK(rig.media->InvalidateBlock(b));
  }
  rig.service->cache().Clear();
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/rare"));
  ASSERT_OK_AND_ASSIGN(auto first, reader->Next());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(ToString(first->payload), "first");
  rig.flaky->FailReads(needle, 1);
  EXPECT_EQ(reader->Next().status().code(), StatusCode::kUnavailable);
  ASSERT_OK_AND_ASSIGN(auto retried, reader->Next());
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(ToString(retried->payload), "second");
}

// Outside a walk only kUnavailable fails a search: every other answer,
// kOutOfRange and kInvalidArgument included, is a block readers skip.
TEST(VolumeInternals, OneReadFailsOnlyWhenTransient) {
  for (StatusCode code :
       {StatusCode::kOutOfRange, StatusCode::kInvalidArgument,
        StatusCode::kNotWritten, StatusCode::kCorrupt,
        StatusCode::kInvalidated, StatusCode::kFailedPrecondition}) {
    auto read = ValidBlock(Status(code, "read"));
    ASSERT_OK(read.status());
    EXPECT_FALSE(read.value().has_value()) << StatusCodeName(code);
  }
  EXPECT_EQ(ValidBlock(Unavailable("read")).status().code(),
            StatusCode::kUnavailable);
}

TEST(VolumeInternals, GetBlockRejectsHeaderAndUnwritten) {
  auto rig = VolumeRig::Make(512, 8);
  LogVolume* volume = rig.service->current_volume();
  OpStats stats;
  EXPECT_EQ(volume->GetBlock(0, &stats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(volume->GetBlock(500, &stats).status().code(),
            StatusCode::kNotWritten);
}

TEST(VolumeInternals, OpStatsAccumulateAcrossCalls) {
  auto rig = VolumeRig::Make(512, 8);
  ASSERT_OK(rig.service->CreateLogFile("/x").status());
  ASSERT_OK(rig.service->Append("/x", AsBytes("data")).status());
  ASSERT_OK(rig.service->Force());
  LogVolume* volume = rig.service->current_volume();
  OpStats stats;
  OpStats more;
  ASSERT_OK(volume->GetBlock(1, &stats).status());
  ASSERT_OK(volume->GetBlock(1, &more).status());
  stats += more;
  EXPECT_EQ(stats.blocks_read, 2u);
  EXPECT_GE(stats.cache_hits, 1u);  // second fetch must hit
}

// /a gets a 60-byte entry, then a 1 400-byte one whose chain starts in a
// later block and continues over two more (512-byte blocks). Returns the
// block of the chain's base.
uint64_t WriteShortThenChained(LogService* service) {
  WriteOptions forced;
  forced.force = true;
  EXPECT_TRUE(service->CreateLogFile("/a").ok());
  Rng rng(14);
  EXPECT_TRUE(service->Append("/a", RandomPayload(&rng, 60), forced).ok());
  auto chained = service->Append("/a", RandomPayload(&rng, 1400), forced);
  EXPECT_TRUE(chained.ok());
  return chained.ok() ? chained.value().position.block : 0;
}

// The first entry by Next, then Next and Prev from the end, each with
// the chain's base dropped from the cache after `damage` ran: Next reads
// the 60-byte entry and fails on the base, and Prev fails the same way
// instead of skipping the chained entry for the one before it.
void ExpectBothWaysFailOnTheBase(LogService* service, uint64_t base,
                                 const std::function<void()>& damage,
                                 StatusCode code) {
  ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/a"));
  ASSERT_OK_AND_ASSIGN(auto first, reader->Next());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload.size(), 60u);
  service->cache().Erase({0, base});
  damage();
  EXPECT_EQ(reader->Next().status().code(), code);
  service->cache().Erase({0, base});
  damage();
  reader->SeekToEnd();
  EXPECT_EQ(reader->Prev().status().code(), code);
}

TEST(CursorChains, PrevFailsOnATransientReadOfTheChainBase) {
  auto rig = VolumeRig::Make(512, 8);
  const uint64_t base = WriteShortThenChained(rig.service.get());
  ASSERT_GT(base, 1u);
  ExpectBothWaysFailOnTheBase(
      rig.service.get(), base, [&] { rig.flaky->FailReads(base, 1); },
      StatusCode::kUnavailable);
  // The failure was transient: a retry reads the chained entry.
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/a"));
  reader->SeekToEnd();
  ASSERT_OK_AND_ASSIGN(auto last, reader->Prev());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->payload.size(), 1400u);
  EXPECT_FALSE(last->truncated);
}

TEST(CursorChains, PrevFailsOnAQuarantinedChainBase) {
  SimulatedClock clock(1'000'000, 7);
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 1 << 14;
  auto device = std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<MemoryWormDevice>(dev), FaultPolicy{}, /*seed=*/1);
  FaultInjectingWormDevice* media = device.get();
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(auto service,
                       LogService::Create(std::move(device), &clock, options));
  const uint64_t base = WriteShortThenChained(service.get());
  ASSERT_GT(base, 1u);
  ASSERT_OK(media->FlipBitOnMedia(base, /*bit_index=*/1234));
  ASSERT_OK(service->QuarantineBlock(0, base));
  ExpectBothWaysFailOnTheBase(service.get(), base, [] {},
                              StatusCode::kCorrupt);
}

}  // namespace
}  // namespace clio
