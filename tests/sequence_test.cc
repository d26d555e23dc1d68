// Multi-volume sequence behaviour beyond the basics: cross-volume time
// search, unique-id lookup across volumes, catalog seeding of successors,
// random crash points, and file-backed persistence end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/clio/log_service.h"
#include "src/device/file_worm_device.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

struct SeqRig {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  std::vector<std::unique_ptr<MemoryWormDevice>> devices;
  std::unique_ptr<LogService> service;
  LogServiceOptions options;

  static SeqRig Make(uint64_t capacity = 64) {
    SeqRig rig;
    MemoryWormOptions dev;
    dev.block_size = 512;
    dev.capacity_blocks = capacity;
    rig.options.entrymap_degree = 4;
    rig.devices.push_back(std::make_unique<MemoryWormDevice>(dev));
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(rig.devices[0].get()),
        rig.clock.get(), rig.options);
    EXPECT_TRUE(service.ok());
    rig.service = std::move(service).value();
    auto* devices = &rig.devices;
    rig.service->set_volume_factory(
        [devices, dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
          devices->push_back(std::make_unique<MemoryWormDevice>(dev));
          return std::unique_ptr<WormDevice>(
              std::make_unique<BorrowedDevice>(devices->back().get()));
        });
    return rig;
  }

  void Crash() {
    service.reset();
    std::vector<std::unique_ptr<WormDevice>> borrowed;
    for (auto& d : devices) {
      borrowed.push_back(std::make_unique<BorrowedDevice>(d.get()));
    }
    auto recovered = LogService::Recover(std::move(borrowed), clock.get(),
                                         options, nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    service = std::move(recovered).value();
    auto* devs = &devices;
    MemoryWormOptions dev;
    dev.block_size = 512;
    dev.capacity_blocks = devices[0]->capacity_blocks();
    service->set_volume_factory(
        [devs, dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
          devs->push_back(std::make_unique<MemoryWormDevice>(dev));
          return std::unique_ptr<WormDevice>(
              std::make_unique<BorrowedDevice>(devs->back().get()));
        });
  }
};

TEST(Sequence, TimeSearchCrossesVolumes) {
  auto rig = SeqRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/t").status());
  WriteOptions forced;
  forced.force = true;
  forced.timestamped = true;
  std::vector<Timestamp> stamps;
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        rig.service->Append("/t", AsBytes("e" + std::to_string(i)), forced));
    stamps.push_back(r.timestamp);
  }
  ASSERT_GT(rig.service->volume_count(), 2u);
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/t"));
  // Probe times landing in the first, a middle, and the last volume.
  for (int i : {3, 50, 100, 150, 197}) {
    ASSERT_OK(reader->SeekToTime(stamps[i]));
    ASSERT_OK_AND_ASSIGN(auto at, reader->Prev());
    ASSERT_TRUE(at.has_value()) << i;
    EXPECT_EQ(ToString(at->payload), "e" + std::to_string(i)) << i;
    // And iteration continues seamlessly across the boundary.
    ASSERT_OK_AND_ASSIGN(auto same, reader->Next());
    ASSERT_OK_AND_ASSIGN(auto next, reader->Next());
    if (i < 199) {
      ASSERT_TRUE(next.has_value()) << i;
      EXPECT_EQ(ToString(next->payload), "e" + std::to_string(i + 1)) << i;
    }
  }
}

TEST(Sequence, FindByTimestampLocatesExactEntry) {
  auto rig = SeqRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/t").status());
  WriteOptions opts;
  opts.timestamped = true;
  opts.force = true;
  std::vector<Timestamp> stamps;
  for (int i = 0; i < 150; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        rig.service->Append("/t", AsBytes("v" + std::to_string(i)), opts));
    stamps.push_back(r.timestamp);
  }
  ASSERT_GT(rig.service->volume_count(), 1u);
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/t"));
  for (int i : {0, 42, 149}) {
    ASSERT_OK_AND_ASSIGN(auto found, reader->FindByTimestamp(stamps[i]));
    ASSERT_TRUE(found.has_value()) << i;
    EXPECT_EQ(ToString(found->payload), "v" + std::to_string(i)) << i;
  }
  // A timestamp never issued to this log file finds nothing.
  ASSERT_OK_AND_ASSIGN(auto missing,
                       reader->FindByTimestamp(stamps[42] + 1));
  EXPECT_FALSE(missing.has_value());
}

TEST(Sequence, CatalogSeedMakesSuccessorSelfDescribing) {
  auto rig = SeqRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/early").status());
  ASSERT_OK(rig.service->CreateLogFile("/early/sub", 0600).status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(1);
  while (rig.service->volume_count() < 3) {
    ASSERT_OK(rig.service
                  ->Append("/early/sub", RandomPayload(&rng, 100), forced)
                  .status());
  }
  // Recover from the LAST volume alone: its seeded catalog log must
  // describe /early/sub even though the create happened two volumes ago.
  LogServiceOptions options = rig.options;
  SimulatedClock clock(10'000'000, 7);
  std::vector<std::unique_ptr<WormDevice>> only_last;
  only_last.push_back(
      std::make_unique<BorrowedDevice>(rig.devices.back().get()));
  // The last device's volume index is > 0, so full Recover() rejects it as
  // a sequence; open the volume directly instead.
  BlockCache cache(256, rig.devices.back()->block_size());
  Catalog catalog;
  auto volume =
      LogVolume::Open(rig.devices.back().get(), &cache, 0, &catalog, &clock,
                      nullptr, /*writable=*/false,
                      LogServiceOptions{}.readahead_blocks, nullptr);
  ASSERT_TRUE(volume.ok()) << volume.status().ToString();
  ASSERT_OK_AND_ASSIGN(LogFileId id, catalog.Resolve("/early/sub"));
  ASSERT_OK_AND_ASSIGN(LogFileInfo info, catalog.Info(id));
  EXPECT_EQ(info.permissions, 0600u);
}

TEST(Sequence, RandomCrashPointsNeverLoseForcedData) {
  Rng meta_rng(777);
  for (int round = 0; round < 5; ++round) {
    auto rig = SeqRig::Make(/*capacity=*/128);
    ASSERT_OK(rig.service->CreateLogFile("/d").status());
    Rng rng(round);
    std::vector<std::string> forced_so_far;
    int crash_after = static_cast<int>(meta_rng.Range(5, 120));
    for (int i = 0; i < crash_after; ++i) {
      std::string data = "r" + std::to_string(round) + "-" +
                         std::to_string(i);
      WriteOptions opts;
      opts.force = rng.Chance(1, 3);
      ASSERT_OK(rig.service->Append("/d", AsBytes(data), opts).status());
      if (opts.force) {
        // Everything up to and including a forced entry is durable.
        forced_so_far.push_back(data);
      }
    }
    size_t durable_prefix = 0;
    {
      // Count how many entries are in the durable prefix: all entries up
      // to the LAST forced one survive (force makes everything before it
      // durable too).
      durable_prefix = 0;
      int last_forced = -1;
      Rng replay(round);
      for (int i = 0; i < crash_after; ++i) {
        if (replay.Chance(1, 3)) {
          last_forced = i;
        }
      }
      durable_prefix = static_cast<size_t>(last_forced + 1);
    }
    rig.Crash();
    ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
    reader->SeekToStart();
    size_t got = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      if (!record.has_value()) {
        break;
      }
      EXPECT_EQ(ToString(record->payload),
                "r" + std::to_string(round) + "-" + std::to_string(got));
      ++got;
    }
    EXPECT_GE(got, durable_prefix) << "round " << round;
    EXPECT_LE(got, static_cast<size_t>(crash_after)) << "round " << round;
  }
}

TEST(Sequence, FileBackedSequenceSurvivesProcessStyleRestart) {
  std::string base = ::testing::TempDir() + "/clio_seq_test";
  for (int v = 0; v < 3; ++v) {
    std::string path = base + std::to_string(v) + ".dev";
    std::remove(path.c_str());
    std::remove((path + ".state").c_str());
  }
  FileWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 48;
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 4;
  size_t volumes_created = 1;
  std::vector<std::string> wrote;
  {
    ASSERT_OK_AND_ASSIGN(auto first,
                         FileWormDevice::Open(base + "0.dev", dev));
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(std::move(first), &clock, options));
    service->set_volume_factory(
        [&](uint32_t index) -> Result<std::unique_ptr<WormDevice>> {
          volumes_created = index + 1;
          CLIO_ASSIGN_OR_RETURN(
              auto device,
              FileWormDevice::Open(base + std::to_string(index) + ".dev",
                                   dev));
          return std::unique_ptr<WormDevice>(std::move(device));
        });
    ASSERT_OK(service->CreateLogFile("/p").status());
    WriteOptions forced;
    forced.force = true;
    Rng rng(9);
    for (int i = 0; i < 120; ++i) {
      std::string data = "p" + std::to_string(i);
      wrote.push_back(data);
      ASSERT_OK(service->Append("/p", AsBytes(data), forced).status());
    }
    ASSERT_GT(service->volume_count(), 1u);
    volumes_created = service->volume_count();
  }
  // "Process restart": reopen every device file and recover.
  std::vector<std::unique_ptr<WormDevice>> devices;
  for (size_t v = 0; v < volumes_created; ++v) {
    ASSERT_OK_AND_ASSIGN(
        auto device,
        FileWormDevice::Open(base + std::to_string(v) + ".dev", dev));
    devices.push_back(std::move(device));
  }
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, nullptr));
  ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader("/p"));
  reader->SeekToStart();
  for (size_t i = 0; i < wrote.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(ToString(record->payload), wrote[i]);
  }
  for (size_t v = 0; v < volumes_created; ++v) {
    std::string path = base + std::to_string(v) + ".dev";
    std::remove(path.c_str());
    std::remove((path + ".state").c_str());
  }
}

}  // namespace
}  // namespace clio
