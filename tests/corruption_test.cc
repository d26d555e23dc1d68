// Log volume corruption tests (paper §2.3.2): garbage writes, invalidated
// blocks, displaced entrymap entries, and the rule that corruption of one
// block must never render the rest of the volume unusable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/fault_injection.h"
#include "src/device/memory_worm_device.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

// A service over a fault-injecting device; the injector deposits garbage on
// a fraction of appends, exactly the failure the paper's bad-block handling
// targets.
struct FaultyRig {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  FaultInjectingWormDevice* injector = nullptr;
  std::unique_ptr<LogService> service;

  static FaultyRig Make(const FaultPolicy& policy, uint64_t seed,
                        uint16_t degree = 8) {
    FaultyRig rig;
    MemoryWormOptions dev;
    dev.block_size = 512;
    dev.capacity_blocks = 1 << 14;
    auto injecting = std::make_unique<FaultInjectingWormDevice>(
        std::make_unique<MemoryWormDevice>(dev), policy, seed);
    rig.injector = injecting.get();
    LogServiceOptions options;
    options.entrymap_degree = degree;
    auto service = LogService::Create(std::move(injecting), rig.clock.get(),
                                      options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    return rig;
  }
};

// Two inputs: entries far smaller than a block, and entries of 1-3 blocks
// whose fragment chains cross the retried burns.
TEST(Corruption, GarbageAppendsAreInvalidatedAndLogged) {
  for (bool straddling : {false, true}) {
    SCOPED_TRACE(straddling ? "1-3 block payloads" : "small payloads");
    FaultPolicy policy;
    policy.garbage_append_per_mille = 100;  // 10% of burns fail with garbage
    auto rig = FaultyRig::Make(policy, /*seed=*/99);
    ASSERT_OK(rig.service->CreateLogFile("/log").status());
    WriteOptions forced;
    forced.force = true;
    Rng rng(1);
    std::vector<std::string> wrote;
    for (int i = 0; i < 300; ++i) {
      std::string data = "entry-" + std::to_string(i);
      if (straddling) {
        data += ToString(RandomPayload(&rng, rng.Range(400, 1500)));
      }
      wrote.push_back(data);
      ASSERT_OK(rig.service->Append("/log", AsBytes(data), forced).status());
    }
    ASSERT_GT(rig.injector->injected_garbage_appends(), 10u);

    // Every entry survives despite the injected garbage.
    ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/log"));
    reader->SeekToStart();
    for (size_t i = 0; i < wrote.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      ASSERT_TRUE(record.has_value()) << i;
      EXPECT_FALSE(record->truncated) << i;
      EXPECT_EQ(ToString(record->payload), wrote[i]) << i;
    }

    // The bad-block log file records every invalidated block.
    ASSERT_OK_AND_ASSIGN(auto bad,
                         rig.service->OpenReaderById(kBadBlockLogId));
    bad->SeekToStart();
    size_t recorded = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto record, bad->Next());
      if (!record.has_value()) {
        break;
      }
      ++recorded;
      ASSERT_EQ(record->payload.size(), 9u);  // u64 block + u8 reason
    }
    EXPECT_EQ(recorded, rig.injector->injected_garbage_appends());
  }
}

TEST(Corruption, ReverseReadSurvivesGarbage) {
  FaultPolicy policy;
  policy.garbage_append_per_mille = 80;
  auto rig = FaultyRig::Make(policy, /*seed=*/7);
  ASSERT_OK(rig.service->CreateLogFile("/log").status());
  WriteOptions forced;
  forced.force = true;
  std::vector<std::string> wrote;
  for (int i = 0; i < 200; ++i) {
    std::string data = "e" + std::to_string(i);
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/log", AsBytes(data), forced).status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/log"));
  reader->SeekToEnd();
  for (int i = 199; i >= 0; --i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Prev());
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(ToString(record->payload), wrote[i]) << i;
  }
}

TEST(Corruption, DisplacedEntrymapHomeStillSearchable) {
  // Force garbage into an entrymap home block's burn: the entrymap entry
  // shifts to the next good block and searches must still work.
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 1 << 14;
  auto base = std::make_unique<MemoryWormDevice>(dev);
  auto* raw = base.get();
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::unique_ptr<WormDevice>(std::move(base)),
                         &clock, options));
  ASSERT_OK(service->CreateLogFile("/rare").status());
  ASSERT_OK(service->CreateLogFile("/noise").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(5);
  ASSERT_OK(service->Append("/rare", AsBytes("needle"), forced).status());

  LogVolume* volume = service->current_volume();
  // Walk to just before the next level-1 home block, then scribble into it
  // so the home burn is displaced.
  while (volume->writer()->staging_block() % 8 != 0) {
    ASSERT_OK(
        service->Append("/noise", RandomPayload(&rng, 64), forced).status());
  }
  uint64_t home = volume->writer()->staging_block();
  Bytes garbage = RandomPayload(&rng, 512);
  raw->Scribble(home, garbage);

  // The next burn (which carries the entrymap entries for the finished
  // group) hits the scribble, invalidates it and lands one block later.
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(
        service->Append("/noise", RandomPayload(&rng, 64), forced).status());
  }
  EXPECT_EQ(raw->BlockState(home), WormBlockState::kInvalidated);

  // Far-back search for the needle still succeeds (displacement chase or
  // lower-level fallback, both §2.3.2 behaviours).
  ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/rare"));
  reader->SeekToEnd();
  ASSERT_OK_AND_ASSIGN(auto record, reader->Prev());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(ToString(record->payload), "needle");
}

TEST(Corruption, SilentBitFlipsAreDetectedAndSkipped) {
  FaultPolicy policy;
  policy.silent_corruption_per_mille = 50;  // media lies on 5% of burns
  auto rig = FaultyRig::Make(policy, /*seed=*/13);
  ASSERT_OK(rig.service->CreateLogFile("/log").status());
  WriteOptions forced;
  forced.force = true;
  int wrote = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rig.service
                  ->Append("/log", AsBytes("e" + std::to_string(i)), forced)
                  .status());
    ++wrote;
  }
  ASSERT_GT(rig.injector->injected_corruptions(), 2u);
  // Reads skip the CRC-failing blocks but return every intact entry; no
  // corrupt payload is ever surfaced as valid data.
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/log"));
  reader->SeekToStart();
  int intact = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    std::string payload = ToString(record->payload);
    EXPECT_EQ(payload.rfind('e', 0), 0u);
    ++intact;
  }
  EXPECT_GT(intact, 0);
  EXPECT_LE(intact, wrote);
  EXPECT_GE(intact,
            wrote - static_cast<int>(rig.injector->injected_corruptions()));
}

TEST(Corruption, TornTailIsInvalidatedAtRecovery) {
  // Torn garbage in the trailing blocks (a crash mid-burn) is invalidated
  // at recovery and everything else replays.
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 4096;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(
            std::make_unique<BorrowedDevice>(&media), &clock,
            options));
    ASSERT_OK(service->CreateLogFile("/log").status());
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(service->Append("/log", AsBytes("e" + std::to_string(i)),
                                forced)
                    .status());
    }
    // The crash leaves torn garbage just past the written end.
    Rng rng(3);
    media.Scribble(media.frontier(), RandomPayload(&rng, 512));
  }
  uint64_t torn_block = 0;
  for (uint64_t b = 0; b < 4096; ++b) {
    if (media.BlockState(b) == WormBlockState::kScribbled) {
      torn_block = b;
    }
  }
  ASSERT_GT(torn_block, 0u);

  RecoveryReport report;
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  ASSERT_OK_AND_ASSIGN(auto service, LogService::Recover(std::move(devices),
                                                         &clock, options,
                                                         &report));
  EXPECT_EQ(report.invalidated_blocks, 1u);
  EXPECT_EQ(media.BlockState(torn_block), WormBlockState::kInvalidated);
  ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/log"));
  reader->SeekToStart();
  int intact = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    ++intact;
  }
  EXPECT_EQ(intact, 50);

  // The torn block's location lands in the bad-block log on the next
  // append.
  WriteOptions forced;
  forced.force = true;
  ASSERT_OK(service->Append("/log", AsBytes("after"), forced).status());
  ASSERT_OK_AND_ASSIGN(auto bad, service->OpenReaderById(kBadBlockLogId));
  bad->SeekToStart();
  ASSERT_OK_AND_ASSIGN(auto record, bad->Next());
  ASSERT_TRUE(record.has_value());
  ByteReader payload(record->payload);
  EXPECT_EQ(payload.GetU64(), torn_block);
}

TEST(Corruption, SilentlyCorruptedLastBlockIsAbsorbedAtRecovery) {
  // The nastiest tail case: the LAST written block of the volume is
  // silently corrupted in place — its trailer (the backward-growing size
  // index plus footer) turned to garbage, as a dying controller might
  // leave it. Unlike a torn block past the end, this block IS the end:
  // recovery must detect it (the footer CRC covers the whole block), lop
  // it off, and leave a volume that verifies clean and keeps appending.
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 4096;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  constexpr int kEntries = 50;
  uint64_t last_block = 0;
  int entries_in_last = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(
            std::make_unique<BorrowedDevice>(&media), &clock,
            options));
    ASSERT_OK(service->CreateLogFile("/log").status());
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < kEntries; ++i) {
      ASSERT_OK(service->Append("/log", AsBytes("e" + std::to_string(i)),
                                forced)
                    .status());
    }
    // How many log entries live in the block about to be mutilated? (The
    // very last burn may be an index or catalog block holding none.)
    last_block = media.frontier() - 1;
    ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/log"));
    reader->SeekToStart();
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      if (!record.has_value()) {
        break;
      }
      if (record->position.block == last_block) {
        ++entries_in_last;
      }
    }
  }

  // Garble the trailer index region (the bytes just below the footer) of
  // the last block and put the mutilated image back.
  Bytes image(dev.block_size);
  ASSERT_OK(media.ReadBlock(last_block, image));
  for (size_t i = dev.block_size - 20; i < dev.block_size - 12; ++i) {
    image[i] ^= std::byte{0xA5};
  }
  media.Scribble(last_block, image);

  RecoveryReport report;
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  ASSERT_OK_AND_ASSIGN(auto service, LogService::Recover(std::move(devices),
                                                         &clock, options,
                                                         &report));
  EXPECT_GE(report.invalidated_blocks, 1u);
  EXPECT_EQ(media.BlockState(last_block), WormBlockState::kInvalidated);

  // Exactly the entries of the corrupted block are lost; everything below
  // it replays, in order.
  ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/log"));
  reader->SeekToStart();
  int intact = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    EXPECT_EQ(ToString(record->payload), "e" + std::to_string(intact));
    ++intact;
  }
  EXPECT_EQ(intact, kEntries - entries_in_last);

  ASSERT_OK_AND_ASSIGN(VerifyReport verify,
                       VerifyVolume(service->current_volume()));
  EXPECT_TRUE(verify.clean());

  // The volume is open for business: appends land and read back.
  WriteOptions forced;
  forced.force = true;
  ASSERT_OK(service->Append("/log", AsBytes("after"), forced).status());
  ASSERT_OK_AND_ASSIGN(auto tail, service->OpenReader("/log"));
  tail->SeekToEnd();
  ASSERT_OK_AND_ASSIGN(auto record, tail->Prev());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(ToString(record->payload), "after");
}

// A service over a GarbageBurnDevice, restartable on the same media.
struct RetriedBurnRig {
  std::unique_ptr<MemoryWormDevice> media;
  testing::GarbageBurnDevice* burns = nullptr;
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  LogServiceOptions options;
  std::unique_ptr<LogService> service;

  static RetriedBurnRig Make(uint32_t block_size, bool extent_index) {
    RetriedBurnRig rig;
    MemoryWormOptions dev;
    dev.block_size = block_size;
    dev.capacity_blocks = 4096;
    rig.media = std::make_unique<MemoryWormDevice>(dev);
    auto device = std::make_unique<testing::GarbageBurnDevice>(rig.media.get());
    rig.burns = device.get();
    rig.options.entrymap_degree = 8;
    rig.options.enable_extent_index = extent_index;
    auto service =
        LogService::Create(std::move(device), rig.clock.get(), rig.options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    return rig;
  }

  // A full-scan restart on the same media (no NVRAM, so no checkpoint).
  void Restart() {
    service.reset();
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(media.get()));
    auto recovered =
        LogService::Recover(std::move(devices), clock.get(), options, nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    service = std::move(recovered).value();
  }
};

// A forced entry spans six 1 KiB blocks. Whichever burn of its chain turns
// to garbage, the writer invalidates that block and burns the image past
// it, so no valid block is lost: the reader crosses the gap and returns the
// entry whole, with the extent index on and off, and verify agrees.
TEST(Corruption, ForcedEntryReadsBackWholeAcrossARetriedBurn) {
  WriteOptions forced;
  forced.force = true;
  for (bool extent_index : {true, false}) {
    for (int burn = 1; burn <= 6; ++burn) {
      SCOPED_TRACE("index " + std::to_string(extent_index) + ", burn " +
                   std::to_string(burn));
      auto rig = RetriedBurnRig::Make(/*block_size=*/1024, extent_index);
      ASSERT_OK(rig.service->CreateLogFile("/log").status());
      Rng rng(burn);
      const Bytes payload = RandomPayload(&rng, 5000);
      rig.burns->GarbageOnBurn(burn);
      ASSERT_OK(rig.service->Append("/log", payload, forced).status());
      ASSERT_TRUE(rig.burns->fired());

      ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/log"));
      reader->SeekToStart();
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      ASSERT_TRUE(record.has_value());
      EXPECT_FALSE(record->truncated);
      EXPECT_EQ(record->payload.size(), payload.size());
      EXPECT_TRUE(record->payload == payload);
      ASSERT_OK_AND_ASSIGN(VerifyReport report,
                           VerifyVolume(rig.service->current_volume()));
      EXPECT_EQ(report.blocks_invalidated, 1u);
      EXPECT_TRUE(report.broken_chains.empty()) << report.broken_chains[0];
    }
  }
}

// Forced creates whose catalog records fragment across 256 B blocks: a
// retried burn anywhere among them loses no create at a full-scan restart.
TEST(Corruption, ForcedCreatesSurviveARetriedBurnAtRestart) {
  constexpr int kCreates = 12;
  auto path = [](int i) {
    return "/" + std::string(500, static_cast<char>('a' + i));
  };
  // Every burn of the creates in turn, until the creates burn fewer.
  int burn = 1;
  for (;; ++burn) {
    SCOPED_TRACE("burn " + std::to_string(burn));
    auto rig = RetriedBurnRig::Make(/*block_size=*/256, /*extent_index=*/true);
    rig.burns->GarbageOnBurn(burn);
    for (int i = 0; i < kCreates; ++i) {
      ASSERT_OK(rig.service->CreateLogFile(path(i)).status());
      ASSERT_OK(rig.service->Force());
    }
    if (!rig.burns->fired()) {
      break;
    }
    ASSERT_OK_AND_ASSIGN(VerifyReport report,
                         VerifyVolume(rig.service->current_volume()));
    EXPECT_TRUE(report.broken_chains.empty()) << report.broken_chains[0];
    ASSERT_NO_FATAL_FAILURE(rig.Restart());
    for (int i = 0; i < kCreates; ++i) {
      EXPECT_TRUE(rig.service->Resolve(path(i)).ok()) << i;
    }
  }
  EXPECT_GT(burn, 2 * kCreates);  // the records fragmented
}

// The multi-block form of SilentlyCorruptedLastBlockIsAbsorbedAtRecovery:
// a forced entry's fragment lives in the volume's last burned block, which
// is silently corrupted. Recovery invalidates that block and re-derives the
// chain head from the valid block before it, so that head cannot show that
// a valid block was lost there. Without NVRAM the restart must not seal the
// chain across the lost block; with NVRAM the restored tail block, holding
// the entry's last fragment, must keep the tag it was staged with, which
// shows the loss. The entry reads back truncated, before and after later
// appends, and verify names the entry's block as a broken chain.
TEST(Corruption, CorruptedLastFragmentLeavesTheEntryTruncated) {
  for (int input = 0; input < 4; ++input) {
    const size_t size = input % 2 == 0 ? 1200 : 1700;
    const bool with_nvram = input >= 2;
    SCOPED_TRACE("payload " + std::to_string(size) +
                 (with_nvram ? ", NVRAM tail" : ""));
    MemoryWormOptions dev;
    dev.block_size = 512;
    dev.capacity_blocks = 4096;
    MemoryWormDevice media(dev);
    SimulatedClock clock(1'000'000, 7);
    NvramTail nvram(dev.block_size);
    LogServiceOptions options;
    options.entrymap_degree = 8;
    options.nvram = with_nvram ? &nvram : nullptr;
    WriteOptions forced;
    forced.force = true;
    Rng rng(size);
    const Bytes payload = RandomPayload(&rng, size);
    uint64_t base_block = 0;
    {
      ASSERT_OK_AND_ASSIGN(
          auto service,
          LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                             options));
      ASSERT_OK(service->CreateLogFile("/log").status());
      ASSERT_OK(service->Append("/log", AsBytes("before"), forced).status());
      ASSERT_OK_AND_ASSIGN(AppendResult appended,
                           service->Append("/log", payload, forced));
      base_block = appended.position.block;
    }
    const uint64_t last_block = media.frontier() - 1;
    Bytes image(dev.block_size);
    ASSERT_OK(media.ReadBlock(last_block, image));
    ASSERT_OK_AND_ASSIGN(ParsedBlock last,
                         ParsedBlock::Parse(BlockImage::Copy(image)));
    ASSERT_GT(last_block, base_block);
    ASSERT_TRUE(last.entries().front().is_fragment());
    ASSERT_EQ(nvram.has_data(), with_nvram);
    for (size_t i = dev.block_size - 20; i < dev.block_size - 12; ++i) {
      image[i] ^= std::byte{0xA5};
    }
    media.Scribble(last_block, image);

    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(&media));
    ASSERT_OK_AND_ASSIGN(auto service, LogService::Recover(std::move(devices),
                                                           &clock, options,
                                                           nullptr));
    auto expect_truncated = [&] {
      ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/log"));
      reader->SeekToStart();
      ASSERT_OK_AND_ASSIGN(auto first, reader->Next());
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(ToString(first->payload), "before");
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      ASSERT_TRUE(record.has_value());
      EXPECT_TRUE(record->truncated);
      EXPECT_LT(record->payload.size(), payload.size());
      ASSERT_OK_AND_ASSIGN(VerifyReport report,
                           VerifyVolume(service->current_volume()));
      EXPECT_EQ(report.broken_chain_blocks,
                std::vector<uint64_t>{base_block});
    };
    ASSERT_NO_FATAL_FAILURE(expect_truncated());
    for (int i = 0; i < 4; ++i) {
      ASSERT_OK(service->Append("/log", RandomPayload(&rng, 300), forced)
                    .status());
    }
    ASSERT_NO_FATAL_FAILURE(expect_truncated());
  }
}

}  // namespace
}  // namespace clio
