// Crash-recovery tests (paper §2.3.1 / §3.4): the in-memory state is
// disposable; everything must be reconstructible from the device. These
// tests write workloads, "crash" (drop the service), recover against the
// same devices and verify equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/fault_injection.h"
#include "src/device/memory_worm_device.h"
#include "src/device/nvram_tail.h"
#include "src/index/checkpoint.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

struct CrashRig {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  std::vector<std::unique_ptr<MemoryWormDevice>> devices;
  std::unique_ptr<LogService> service;
  LogServiceOptions options;

  static CrashRig Make(uint32_t block_size = 1024,
                       uint64_t capacity = 4096, uint16_t degree = 16,
                       NvramTail* nvram = nullptr,
                       uint64_t checkpoint_interval = 256) {
    CrashRig rig;
    MemoryWormOptions dev;
    dev.block_size = block_size;
    dev.capacity_blocks = capacity;
    rig.devices.push_back(std::make_unique<MemoryWormDevice>(dev));
    rig.options.entrymap_degree = degree;
    rig.options.sequence_id = 0xFEED;
    rig.options.nvram = nvram;
    rig.options.checkpoint_interval_blocks = checkpoint_interval;
    // The service borrows the devices: a "crash" destroys the service but
    // the devices (the media) survive.
    auto borrowing = std::unique_ptr<WormDevice>(
        new BorrowedDevice(rig.devices[0].get()));
    auto service = LogService::Create(std::move(borrowing),
                                      rig.clock.get(), rig.options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    return rig;
  }

  // Simulates a server crash: all volatile state is lost; the devices and
  // (optionally) the NVRAM tail survive. Returns the recovery report.
  RecoveryReport Crash() {
    service.reset();
    std::vector<std::unique_ptr<WormDevice>> borrowed;
    borrowed.reserve(devices.size());
    for (auto& d : devices) {
      borrowed.push_back(std::unique_ptr<WormDevice>(
          new BorrowedDevice(d.get())));
    }
    RecoveryReport report;
    auto recovered = LogService::Recover(std::move(borrowed), clock.get(),
                                         options, &report);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    service = std::move(recovered).value();
    return report;
  }
};

std::vector<std::string> ReadAll(LogService* service,
                                 const std::string& path) {
  auto reader = service->OpenReader(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<std::string> out;
  reader.value()->SeekToStart();
  while (true) {
    auto record = reader.value()->Next();
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    if (!record.ok() || !record.value().has_value()) {
      break;
    }
    out.push_back(ToString(record.value()->payload));
  }
  return out;
}

// Restarts the rig's volume through a device whose first `failures` reads
// of block `flaky` fail. That restart must fail with kUnavailable; once
// the fault has passed, a second restart recovers. (A restart that
// succeeds despite the fault is kept, so the caller sees what it lost.)
RecoveryReport RestartThroughTransientReads(CrashRig* rig, uint64_t flaky,
                                            int failures) {
  rig->service.reset();
  MemoryWormDevice* media = rig->devices[0].get();
  auto device = std::make_unique<testing::FlakyBlockDevice>(media);
  device->FailReads(flaky, failures);
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::move(device));
  RecoveryReport report;
  auto recovered = LogService::Recover(std::move(devices), rig->clock.get(),
                                       rig->options, &report);
  EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable);
  if (recovered.ok()) {
    rig->service = std::move(recovered).value();
    return report;
  }
  return rig->Crash();
}

// A transient read of the last burned block at restart is no verdict on
// the block: it holds a forced entry, so recovery fails instead of
// invalidating it as torn.
TEST(Recovery, TransientReadAtRestartNeverInvalidatesABurnedBlock) {
  auto rig = CrashRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/c").status());
  WriteOptions forced;
  forced.force = true;
  std::vector<std::string> wrote;
  for (int i = 0; i < 30; ++i) {
    wrote.push_back("e" + std::to_string(i));
    ASSERT_OK(
        rig.service->Append("/c", AsBytes(wrote.back()), forced).status());
  }
  const uint64_t last = rig.devices[0]->frontier() - 1;
  // The head pass, the tail pass and the torn-tail check each read it.
  RestartThroughTransientReads(&rig, last, 3);
  EXPECT_EQ(rig.devices[0]->BlockState(last), WormBlockState::kWritten);
  EXPECT_EQ(ReadAll(rig.service.get(), "/c"), wrote);
}

// Neither the checkpoint replay nor the full scan's entrymap rebuild may
// take a block it could not read for an empty one: the restart fails,
// and the one after it recovers every entry and entrymap bit.
TEST(Recovery, TransientReadDuringReplayFailsTheRestart) {
  for (bool checkpointed : {true, false}) {
    SCOPED_TRACE(checkpointed ? "checkpoint replay" : "full scan");
    NvramTail nvram(512);
    auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                              /*degree=*/8, checkpointed ? &nvram : nullptr,
                              /*checkpoint_interval=*/256);
    ASSERT_OK(rig.service->CreateLogFile("/wal").status());
    WriteOptions forced;
    forced.force = true;
    Rng rng(47);
    std::vector<std::string> wrote;
    auto append = [&] {
      wrote.push_back("r" + std::to_string(wrote.size()) +
                      ToString(RandomPayload(&rng, 90)));
      auto result = rig.service->Append("/wal", AsBytes(wrote.back()), forced);
      return result.status();
    };
    MemoryWormDevice* media = rig.devices[0].get();
    uint64_t flaky = 0;
    int failures = 0;
    if (checkpointed) {
      while (!nvram.has_checkpoint()) {
        ASSERT_OK(append());
      }
      auto ck = CheckpointState::Decode(nvram.checkpoint());
      ASSERT_OK(ck.status());
      while (media->frontier() < ck->covered_end + 48) {
        ASSERT_OK(append());
      }
      // Below the tail pass: the replay's first pass stops at it, then
      // the replay reads it alone.
      flaky = ck->covered_end + 2;
      failures = 2;
    } else {
      while (media->frontier() < 300 || (media->frontier() - 1) % 8 != 5) {
        ASSERT_OK(append());
      }
      // In the last, open level-1 group: the tail pass stops at it, then
      // the catalog walk and the level-1 rebuild each read it alone.
      flaky = media->frontier() - 5;
      failures = 3;
    }
    RecoveryReport report = RestartThroughTransientReads(&rig, flaky, failures);
    EXPECT_EQ(report.restored_checkpoint, checkpointed);
    EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
    // Burn past the flaky block's level-1 home: the node written there
    // must carry its bits.
    LogVolume* volume = rig.service->current_volume();
    while (media->frontier() <= volume->geometry().HomeFor(flaky, 1)) {
      ASSERT_OK(append());
    }
    ASSERT_OK_AND_ASSIGN(VerifyReport verify, VerifyVolume(volume));
    EXPECT_EQ(verify.missing_bits.size(), 0u);
    EXPECT_EQ(verify.index_mismatches.size(), 0u);
    EXPECT_TRUE(verify.clean());
    EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
  }
}

TEST(Recovery, ForcedDataSurvivesCrash) {
  auto rig = CrashRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(rig.service
                  ->Append("/wal", AsBytes("commit-" + std::to_string(i)),
                           forced)
                  .status());
  }
  rig.Crash();
  auto entries = ReadAll(rig.service.get(), "/wal");
  ASSERT_EQ(entries.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(entries[i], "commit-" + std::to_string(i));
  }
}

TEST(Recovery, UnforcedTailIsLostWithoutNvram) {
  auto rig = CrashRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/log").status());
  WriteOptions forced;
  forced.force = true;
  ASSERT_OK(rig.service->Append("/log", AsBytes("durable"), forced).status());
  // Unforced appends sit in the volatile staging buffer.
  ASSERT_OK(rig.service->Append("/log", AsBytes("volatile-1")).status());
  ASSERT_OK(rig.service->Append("/log", AsBytes("volatile-2")).status());
  rig.Crash();
  auto entries = ReadAll(rig.service.get(), "/log");
  EXPECT_EQ(entries, std::vector<std::string>{"durable"});
}

TEST(Recovery, NvramTailPreservesForcedPartialBlock) {
  NvramTail nvram(1024);
  auto rig = CrashRig::Make(1024, 4096, 16, &nvram);
  ASSERT_OK(rig.service->CreateLogFile("/log").status());
  WriteOptions forced;
  forced.force = true;
  // With NVRAM, a forced write stages the partial block instead of burning
  // it; a crash must still not lose it.
  ASSERT_OK(rig.service->Append("/log", AsBytes("alpha"), forced).status());
  ASSERT_OK(rig.service->Append("/log", AsBytes("beta"), forced).status());
  uint64_t burned = rig.devices[0]->frontier();
  RecoveryReport report = rig.Crash();
  EXPECT_TRUE(report.restored_nvram_tail);
  auto entries = ReadAll(rig.service.get(), "/log");
  EXPECT_EQ(entries, (std::vector<std::string>{"alpha", "beta"}));
  // And the device tail really was not burned for those forces.
  EXPECT_EQ(rig.devices[0]->frontier(), burned);
  // Appends keep working after the restore.
  ASSERT_OK(rig.service->Append("/log", AsBytes("gamma"), forced).status());
  auto after = ReadAll(rig.service.get(), "/log");
  EXPECT_EQ(after, (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(Recovery, CatalogSurvivesCrash) {
  auto rig = CrashRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/mail").status());
  ASSERT_OK(rig.service->CreateLogFile("/mail/smith", 0600).status());
  ASSERT_OK(rig.service->SealLogFile("/mail/smith"));
  ASSERT_OK(rig.service->Force());
  rig.Crash();
  ASSERT_OK_AND_ASSIGN(LogFileInfo info, rig.service->Stat("/mail/smith"));
  EXPECT_EQ(info.permissions, 0600u);
  EXPECT_TRUE(info.sealed);
  ASSERT_OK_AND_ASSIGN(auto children, rig.service->List("/mail"));
  EXPECT_EQ(children.size(), 1u);
}

TEST(Recovery, RepeatedCrashesPreserveEverything) {
  auto rig = CrashRig::Make();
  WriteOptions forced;
  forced.force = true;
  std::map<std::string, std::vector<std::string>> wrote;
  Rng rng(17);
  ASSERT_OK(rig.service->CreateLogFile("/a").status());
  ASSERT_OK(rig.service->CreateLogFile("/b").status());
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      std::string path = rng.Chance(1, 2) ? "/a" : "/b";
      std::string data = path.substr(1) + "-" + std::to_string(round) + "-" +
                         std::to_string(i);
      wrote[path].push_back(data);
      ASSERT_OK(rig.service->Append(path, AsBytes(data), forced).status());
    }
    rig.Crash();
    for (const auto& [path, expected] : wrote) {
      EXPECT_EQ(ReadAll(rig.service.get(), path), expected)
          << path << " after crash round " << round;
    }
  }
}

TEST(Recovery, EntrymapAccumulatorRebuildMatchesLiveSearch) {
  // Write entries of a rare log file, crash mid-group, and verify the
  // far-back search still finds them (the rebuilt accumulator must cover
  // the un-logged tail of the entrymap, §3.4 step 2).
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8);
  ASSERT_OK(rig.service->CreateLogFile("/rare").status());
  ASSERT_OK(rig.service->CreateLogFile("/noise").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(23);
  ASSERT_OK(rig.service->Append("/rare", AsBytes("needle-1"), forced)
                .status());
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(rig.service
                  ->Append("/noise", RandomPayload(&rng, 100), forced)
                  .status());
  }
  ASSERT_OK(rig.service->Append("/rare", AsBytes("needle-2"), forced)
                .status());
  for (int i = 0; i < 37; ++i) {  // end mid-group at several levels
    ASSERT_OK(rig.service
                  ->Append("/noise", RandomPayload(&rng, 100), forced)
                  .status());
  }
  rig.Crash();
  EXPECT_EQ(ReadAll(rig.service.get(), "/rare"),
            (std::vector<std::string>{"needle-1", "needle-2"}));
  // Reverse search exercises the entrymap tree from the recovered end.
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/rare"));
  reader->SeekToEnd();
  ASSERT_OK_AND_ASSIGN(auto last, reader->Prev());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(ToString(last->payload), "needle-2");
  ASSERT_OK_AND_ASSIGN(auto first, reader->Prev());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(ToString(first->payload), "needle-1");
}

TEST(Recovery, MultiVolumeSequenceRecovers) {
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/64,
                            /*degree=*/4);
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 64;
  // Successor volumes are recorded in the rig so Crash() can reopen them.
  auto* devices = &rig.devices;
  rig.service->set_volume_factory(
      [devices, dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
        devices->push_back(std::make_unique<MemoryWormDevice>(dev));
        return std::unique_ptr<WormDevice>(
            new BorrowedDevice(devices->back().get()));
      });
  ASSERT_OK(rig.service->CreateLogFile("/big").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(31);
  std::vector<std::string> wrote;
  for (int i = 0; i < 300; ++i) {
    std::string data = "entry-" + std::to_string(i);
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/big", AsBytes(data), forced).status());
  }
  ASSERT_GT(rig.service->volume_count(), 2u);
  size_t volumes_before = rig.service->volume_count();
  rig.Crash();
  EXPECT_EQ(rig.service->volume_count(), volumes_before);
  EXPECT_EQ(ReadAll(rig.service.get(), "/big"), wrote);
  // The sequence keeps growing after recovery.
  ASSERT_OK(rig.service->Append("/big", AsBytes("after"), forced).status());
  wrote.push_back("after");
  EXPECT_EQ(ReadAll(rig.service.get(), "/big"), wrote);
}

TEST(Recovery, TimestampsStayUniqueAcrossCrash) {
  auto rig = CrashRig::Make();
  ASSERT_OK(rig.service->CreateLogFile("/t").status());
  WriteOptions forced;
  forced.force = true;
  forced.timestamped = true;
  Timestamp last = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(AppendResult r,
                         rig.service->Append("/t", AsBytes("x"), forced));
    last = r.timestamp;
  }
  // Adversarial: the clock jumps backwards across the crash.
  rig.clock->Set(0);
  rig.Crash();
  ASSERT_OK_AND_ASSIGN(AppendResult r,
                       rig.service->Append("/t", AsBytes("y"), forced));
  EXPECT_GT(r.timestamp, last);
}

TEST(Recovery, BinarySearchEndLocationWorks) {
  // A device that cannot report its write frontier forces the binary
  // search path (§3.4 step 1, cost log2 V).
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 2048;
  dev.supports_end_query = false;
  auto real = std::make_unique<MemoryWormDevice>(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  // The service gets a borrowed view so the media outlives the "crash".
  auto service = LogService::Create(
      std::unique_ptr<WormDevice>(new BorrowedDevice(real.get())),
      &clock, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_OK(service.value()->CreateLogFile("/x").status());
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(service.value()
                  ->Append("/x", AsBytes("e" + std::to_string(i)), forced)
                  .status());
  }
  service.value().reset();

  RecoveryReport report;
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::unique_ptr<WormDevice>(
      new BorrowedDevice(real.get())));
  auto recovered = LogService::Recover(std::move(devices), &clock, options,
                                       &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(report.end_location_reads, 5u);  // ~log2(2048) + window
  auto entries = ReadAll(recovered.value().get(), "/x");
  EXPECT_EQ(entries.size(), 100u);
}

// -- Checkpointed fast restart (DESIGN.md §17) --

// Burns well past several checkpoint intervals, crashes, and verifies the
// recovery restored from the checkpoint and replayed only the blocks past
// it instead of rescanning the whole volume.
TEST(Recovery, CheckpointRestartReplaysOnlyTheTail) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/16);
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(41);
  std::vector<std::string> wrote;
  for (int i = 0; i < 200; ++i) {
    std::string data = "c" + std::to_string(i) +
                       ToString(RandomPayload(&rng, 90));
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/wal", AsBytes(data), forced).status());
  }
  ASSERT_TRUE(nvram.has_checkpoint());
  const uint64_t burned = rig.devices[0]->frontier();
  RecoveryReport report = rig.Crash();
  EXPECT_TRUE(report.restored_checkpoint);
  // Replay covers only the post-checkpoint suffix: strictly less than the
  // volume, at most interval + one in-flight append's worth of blocks.
  EXPECT_LT(report.checkpoint_replay_blocks, burned);
  EXPECT_LE(report.checkpoint_replay_blocks, 16u + 4u);
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
  // The restored service keeps appending and checkpointing.
  uint64_t stores = nvram.checkpoint_store_count();
  for (int i = 0; i < 40; ++i) {
    std::string data = "post-" + std::to_string(i) +
                       ToString(RandomPayload(&rng, 90));
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/wal", AsBytes(data), forced).status());
  }
  EXPECT_GT(nvram.checkpoint_store_count(), stores);
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
}

// A corrupt checkpoint blob must be detected (crc) and recovery must fall
// back to the full scan with nothing lost.
TEST(Recovery, CorruptCheckpointFallsBackToFullScan) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/16);
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(43);
  std::vector<std::string> wrote;
  for (int i = 0; i < 150; ++i) {
    std::string data = "e" + std::to_string(i) +
                       ToString(RandomPayload(&rng, 80));
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/wal", AsBytes(data), forced).status());
  }
  ASSERT_TRUE(nvram.has_checkpoint());
  Bytes mangled(nvram.checkpoint().begin(), nvram.checkpoint().end());
  mangled[mangled.size() / 2] ^= std::byte{0x40};
  nvram.StoreCheckpoint(mangled);
  RecoveryReport report = rig.Crash();
  EXPECT_FALSE(report.restored_checkpoint);
  EXPECT_EQ(report.checkpoint_replay_blocks, 0u);
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
}

// A truncated checkpoint blob (torn NVRAM write) likewise falls back.
TEST(Recovery, TruncatedCheckpointFallsBackToFullScan) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/16);
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(47);
  std::vector<std::string> wrote;
  for (int i = 0; i < 150; ++i) {
    std::string data = "e" + std::to_string(i) +
                       ToString(RandomPayload(&rng, 80));
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/wal", AsBytes(data), forced).status());
  }
  ASSERT_TRUE(nvram.has_checkpoint());
  Bytes torn(nvram.checkpoint().begin(),
             nvram.checkpoint().begin() + nvram.checkpoint().size() / 3);
  nvram.StoreCheckpoint(torn);
  RecoveryReport report = rig.Crash();
  EXPECT_FALSE(report.restored_checkpoint);
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
}

// A sidecar whose records decode but whose extent index does not: the
// restart joins the index only after replaying the suffix, and must then
// fall back to the full scan with nothing lost.
TEST(Recovery, CheckpointIndexThatFailsAfterTheReplayFallsBackToFullScan) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/16);
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(59);
  std::vector<std::string> wrote;
  for (int i = 0; i < 150; ++i) {
    wrote.push_back("e" + std::to_string(i) +
                    ToString(RandomPayload(&rng, 80)));
    ASSERT_OK(
        rig.service->Append("/wal", AsBytes(wrote.back()), forced).status());
  }
  ASSERT_OK_AND_ASSIGN(CheckpointState real,
                       CheckpointState::Decode(nvram.checkpoint()));
  // The real record with its index delta cut short: every checksum, the
  // coverage, the catalog and the pending nodes hold.
  CheckpointRecord crafted;
  crafted.volume_index = real.volume_index;
  crafted.covered_end = real.covered_end;
  crafted.max_timestamp = real.max_timestamp;
  crafted.index_delta = real.index.EncodeSince(1);
  crafted.index_delta.resize(crafted.index_delta.size() / 2);
  crafted.accumulator_nodes = real.accumulator_nodes;
  crafted.catalog_records = real.catalog_records;
  nvram.StoreCheckpoint(crafted.Encode());
  ASSERT_FALSE(CheckpointState::Decode(nvram.checkpoint()).ok());
  RecoveryReport report = rig.Crash();
  EXPECT_FALSE(report.restored_checkpoint);
  EXPECT_EQ(report.checkpoint_replay_blocks, 0u);
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
  for (int i = 0; i < 40; ++i) {
    wrote.push_back("post-" + std::to_string(i));
    ASSERT_OK(
        rig.service->Append("/wal", AsBytes(wrote.back()), forced).status());
  }
  ASSERT_OK_AND_ASSIGN(VerifyReport verify,
                       VerifyVolume(rig.service->current_volume()));
  EXPECT_TRUE(verify.clean());
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
}

// A restart whose Open fails before it needs the checkpoint (every read
// of the head pass fails) returns the error with the sidecar decode and
// the thread that opened the volumes both finished; the next restart
// restores the checkpoint.
TEST(Recovery, OpenFailingBeforeTheCheckpointJoinsTheDecode) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/16);
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  std::vector<std::string> wrote;
  for (int i = 0; i < 120; ++i) {
    wrote.push_back("e" + std::to_string(i) + std::string(90, 'x'));
    ASSERT_OK(
        rig.service->Append("/wal", AsBytes(wrote.back()), forced).status());
  }
  ASSERT_TRUE(nvram.has_checkpoint());
  rig.service.reset();
  FaultPolicy policy;
  policy.transient_read_failure_per_mille = 1000;
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<BorrowedDevice>(rig.devices[0].get()), policy,
      /*seed=*/1));
  auto failed = LogService::Recover(std::move(devices), rig.clock.get(),
                                    rig.options, nullptr);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  RecoveryReport report = rig.Crash();
  EXPECT_TRUE(report.restored_checkpoint);
  EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
}

uint64_t HistogramCount(const StatsSnapshot& stats, const std::string& name) {
  return stats.histogram(name).value_or(HistogramSnapshot{}).count;
}

// The restart ledger: each restart records its step times once, the
// decode pair only when a sidecar decode ran.
TEST(Recovery, RestartRecordsItsStepTimesOnce) {
  for (bool checkpointed : {true, false}) {
    SCOPED_TRACE(checkpointed ? "checkpoint restart" : "full scan");
    NvramTail nvram(512);
    auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                              /*degree=*/8, checkpointed ? &nvram : nullptr,
                              /*checkpoint_interval=*/16);
    ASSERT_OK(rig.service->CreateLogFile("/wal").status());
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 120; ++i) {
      ASSERT_OK(rig.service
                    ->Append("/wal", AsBytes(std::string(90, 'a' + i % 26)),
                             forced)
                    .status());
    }
    const StatsSnapshot before = ObsRegistry().Snapshot();
    RecoveryReport report = rig.Crash();
    const StatsSnapshot after = ObsRegistry().Snapshot();
    EXPECT_EQ(report.restored_checkpoint, checkpointed);
    auto recorded = [&](const std::string& name) {
      return HistogramCount(after, name) - HistogramCount(before, name);
    };
    EXPECT_EQ(recorded("clio.recovery.decode_us"), checkpointed ? 1u : 0u);
    EXPECT_EQ(recorded("clio.recovery.decode_wait_us"),
              checkpointed ? 1u : 0u);
    EXPECT_EQ(recorded("clio.recovery.open_delay_us"),
              checkpointed ? 1u : 0u);
    EXPECT_EQ(recorded("clio.recovery.locate_us"), 1u);
    EXPECT_EQ(recorded("clio.recovery.replay_us"), 1u);
    if (checkpointed) {
      // The helper starts after Recover is entered and records the delay
      // once: the histogram's sum grew by the report's value.
      const auto sum = [](const StatsSnapshot& snapshot) {
        return snapshot.histogram("clio.recovery.open_delay_us")
            .value_or(HistogramSnapshot{})
            .sum;
      };
      EXPECT_EQ(sum(after) - sum(before), report.step_us.open_delay);
    } else {
      EXPECT_EQ(report.step_us.decode, 0u);
      EXPECT_EQ(report.step_us.open_delay, 0u);
      EXPECT_EQ(report.step_us.decode_wait, 0u);
    }
  }
}

// Unsigned LEB128, the integer encoding of an extent index delta.
void PutVarint(Bytes* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    out->push_back(static_cast<std::byte>(v | 0x80));
  }
  out->push_back(static_cast<std::byte>(v));
}

// A sidecar whose checksums hold but whose counts claim far more elements
// than the record has bytes (2^39 runs, stamps or holes over a 2^40-block
// range, in a few bytes) must fail to decode and fall back to the full
// scan instead of reserving memory for the claim.
TEST(Recovery, CraftedCheckpointCountsFallBackToFullScan) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/16);
  ASSERT_OK(rig.service->CreateLogFile("/wal").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(53);
  std::vector<std::string> wrote;
  for (int i = 0; i < 150; ++i) {
    std::string data = "e" + std::to_string(i) +
                       ToString(RandomPayload(&rng, 80));
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/wal", AsBytes(data), forced).status());
  }
  ASSERT_OK_AND_ASSIGN(CheckpointState real,
                       CheckpointState::Decode(nvram.checkpoint()));
  constexpr uint64_t kClaim = uint64_t{1} << 39;
  // Index deltas of 20 bytes: one file with kClaim runs; no files and
  // kClaim leading stamps; no files, no stamps and kClaim holes.
  std::vector<std::vector<uint64_t>> claims = {
      {1, kFirstClientLogId, kClaim}, {0, kClaim}, {0, 0, kClaim}};
  for (const std::vector<uint64_t>& claim : claims) {
    Bytes delta;
    for (uint64_t v : claim) {
      PutVarint(&delta, v);
    }
    delta.resize(20, std::byte{0x01});
    CheckpointRecord crafted;
    crafted.volume_index = real.volume_index;
    crafted.covered_end = uint64_t{1} << 40;
    crafted.index_delta = delta;
    crafted.catalog_records.emplace();
    nvram.StoreCheckpoint(crafted.Encode());
    EXPECT_FALSE(CheckpointState::Decode(nvram.checkpoint()).ok());
    RecoveryReport report = rig.Crash();
    EXPECT_FALSE(report.restored_checkpoint);
    EXPECT_EQ(ReadAll(rig.service.get(), "/wal"), wrote);
  }
}

// After a full-scan restart the extent index is built lazily, so the
// first checkpoint attempt scans the volume. When that scan keeps failing
// on the device, the next attempt must wait a full interval rather than
// rescan on every append: each failed attempt costs one device read (its
// first read fails), so K appends cost at most ceil(K / interval) + 1.
TEST(Recovery, FailedCheckpointBacksOffAnInterval) {
  constexpr uint64_t kInterval = 8;
  constexpr uint64_t kAppends = 96;
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 4096;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  options.cache_blocks = 8;  // the index scan must go to the device
  options.checkpoint_interval_blocks = kInterval;
  Rng rng(59);
  WriteOptions plain;
  {
    auto created = LogService::Create(
        std::make_unique<BorrowedDevice>(&media), &clock, options);
    ASSERT_OK(created.status());
    ASSERT_OK(created.value()->CreateLogFile("/w").status());
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(created.value()
                    ->Append("/w", RandomPayload(&rng, 300), plain)
                    .status());
    }
    ASSERT_OK(created.value()->Force());
  }  // crash with no sidecar: recovery runs the full scan

  NvramTail nvram(dev.block_size);
  options.nvram = &nvram;
  std::vector<std::unique_ptr<WormDevice>> devices;
  auto faulty = std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<BorrowedDevice>(&media), FaultPolicy{},
      /*seed=*/61);
  FaultInjectingWormDevice* device = faulty.get();
  devices.push_back(std::move(faulty));
  RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, &report));
  ASSERT_FALSE(report.restored_checkpoint);

  FaultPolicy failing_reads;
  failing_reads.transient_read_failure_per_mille = 1000;
  device->set_policy(failing_reads);
  Counter* failures = ObsRegistry().counter("clio.index.checkpoint_failures");
  const uint64_t failures_before = failures->value();
  const uint64_t reads_before = device->stats().reads.load();
  const uint64_t staging_before =
      service->current_volume()->writer()->staging_block();
  for (uint64_t i = 0; i < kAppends; ++i) {
    ASSERT_OK(
        service->Append("/w", RandomPayload(&rng, 300), plain).status());
  }
  // Entries fragment across blocks, so each append burns at most one
  // block; enough burn here for several due attempts.
  ASSERT_GE(service->current_volume()->writer()->staging_block(),
            staging_before + kAppends / 2);
  const uint64_t reads = device->stats().reads.load() - reads_before;
  EXPECT_GE(reads, 1u);
  EXPECT_LE(reads, (kAppends + kInterval - 1) / kInterval + 1);
  EXPECT_GE(failures->value() - failures_before, 1u);
  EXPECT_FALSE(nvram.has_checkpoint());

  // Once the device reads again, the next due attempt builds and writes.
  device->set_policy(FaultPolicy{});
  for (uint64_t i = 0; i < 2 * kInterval; ++i) {
    ASSERT_OK(
        service->Append("/w", RandomPayload(&rng, 300), plain).status());
  }
  EXPECT_TRUE(nvram.has_checkpoint());
}

// A crash that strands a fragment chain whose base entry has a compact
// (untimestamped) header: the NVRAM tail held the chain's continuation,
// but its staging block was scribbled, so recovery discards the tail and
// seals the chain with a terminator fragment. The terminator must carry
// the base entry's effective (block-resolution) timestamp. Stamped 0, it
// would lead the staged block, and the time search's staged-tail fast
// path would answer the staging block for every instant.
TEST(Recovery, StrandedCompactChainKeepsTimeSearchWorking) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/16, &nvram);
  ASSERT_OK(rig.service->CreateLogFile("/w").status());
  WriteOptions forced;
  forced.force = true;
  Rng rng(0x57A4);
  std::vector<Timestamp> stamps;
  // Append until the newest burned block ends in a compact entry that
  // continues into the staged tail.
  auto stranded_compact = [&] {
    const uint64_t last = rig.devices[0]->frontier() - 1;
    Bytes image(512);
    if (last == 0 || !rig.devices[0]->ReadBlock(last, image).ok()) {
      return false;
    }
    auto parsed = ParsedBlock::Parse(BlockImage::Copy(image));
    return parsed.ok() && FragmentChain::From(last, *parsed).has_value() &&
           !parsed->entries().back().timestamp.has_value();
  };
  while (stamps.size() < 20 || !stranded_compact()) {
    ASSERT_LT(stamps.size(), 2000u);
    const size_t size = rng.Chance(1, 4) ? 600 : rng.Range(20, 120);
    ASSERT_OK_AND_ASSIGN(
        AppendResult appended,
        rig.service->Append("/w", RandomPayload(&rng, size), forced));
    stamps.push_back(appended.timestamp);
  }
  ASSERT_TRUE(nvram.has_data());
  rig.devices[0]->Scribble(rig.devices[0]->frontier(),
                           RandomPayload(&rng, 512));
  RecoveryReport report = rig.Crash();
  EXPECT_FALSE(report.restored_nvram_tail);

  const std::vector<std::string> all = ReadAll(rig.service.get(), "/w");
  ASSERT_GT(all.size(), 10u);
  auto reader = rig.service->OpenReader("/w");
  ASSERT_OK(reader.status());
  ASSERT_OK(reader.value()->SeekToTime(stamps[2]));
  std::vector<std::string> got;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader.value()->Next());
    if (!record.has_value()) {
      break;
    }
    got.push_back(ToString(record->payload));
  }
  // From an early instant, Next walks (at block resolution) most of the
  // file, ending where a read from the start ends.
  ASSERT_GT(got.size(), all.size() / 2);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), all.end() - got.size()));
}

// -- Checkpoint replay in read-ahead passes --

// Burns past one checkpoint until ~200 blocks lie beyond its coverage,
// then crashes and recovers with read-ahead depth `readahead`. The suffix
// holds a block quarantined before it burned (the replay learns the
// verdict from the catalog before it reaches the block) and, at the tail,
// a torn block that recovery invalidates. Deterministic: every call burns
// identical media.
struct ReplayCase {
  std::unique_ptr<NvramTail> nvram = std::make_unique<NvramTail>(512);
  CrashRig rig;
  uint64_t covered_end = 0;
  uint64_t quarantined = 0;
  uint64_t torn = 0;
  std::vector<Timestamp> stamps;
  RecoveryReport report;

  static constexpr const char* kFiles[] = {"/a", "/a/s", "/b"};

  explicit ReplayCase(uint32_t readahead)
      : rig(CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                           /*degree=*/8, nvram.get(),
                           /*checkpoint_interval=*/256)) {
    for (const char* path : kFiles) {
      EXPECT_OK(rig.service->CreateLogFile(path).status());
    }
    Rng rng(0x2E9A);
    WriteOptions forced;
    forced.force = true;
    forced.timestamped = true;
    auto append = [&] {
      const char* path = kFiles[rng.Range(0, 2)];
      auto r = rig.service->Append(
          path, RandomPayload(&rng, rng.Range(40, 300)), forced);
      EXPECT_OK(r.status());
      if (r.ok()) {
        stamps.push_back(r.value().timestamp);
      }
      return r.ok();
    };
    while (!nvram->has_checkpoint() && append()) {
    }
    auto ck = CheckpointState::Decode(nvram->checkpoint());
    EXPECT_OK(ck.status());
    covered_end = ck.ok() ? ck.value().covered_end : 0;
    quarantined = covered_end + 90;
    EXPECT_OK(rig.service->QuarantineBlock(0, quarantined));
    while (rig.devices[0]->frontier() < covered_end + 200 && append()) {
    }
    torn = rig.devices[0]->frontier();
    rig.devices[0]->Scribble(torn, RandomPayload(&rng, 512));
    rig.options.readahead_blocks = readahead;
    report = rig.Crash();
  }

  uint64_t replayed() const { return report.checkpoint_replay_blocks; }
};

// The checkpoint replay reads its suffix in read-ahead passes, and
// recovers exactly what a one-block-per-pass replay recovers: the same
// extent index (holes included), catalog, report counts and query
// answers.
TEST(Recovery, CheckpointReplayReadsInPassesAndRecoversTheSameState) {
  const uint32_t depth = LogServiceOptions{}.readahead_blocks;
  ASSERT_GT(depth, 0u);
  ReplayCase on(depth);
  ReplayCase off(/*readahead=*/0);
  ASSERT_EQ(on.stamps, off.stamps);  // identical media

  ASSERT_TRUE(on.report.restored_checkpoint);
  ASSERT_TRUE(off.report.restored_checkpoint);
  const uint64_t r = on.replayed();
  ASSERT_GE(r, 200u);
  ASSERT_EQ(r, off.replayed());
  EXPECT_EQ(on.covered_end + r, on.torn + 1);  // the torn block is replayed
  EXPECT_GT(on.quarantined, on.covered_end);
  EXPECT_LT(on.quarantined, on.torn);
  EXPECT_EQ(on.report.invalidated_blocks, 1u);

  // At the default depth each pass fetches up to depth + 1 blocks.
  EXPECT_LE(on.report.device_passes.replay, (r + depth) / (depth + 1) + 1);
  // With read-ahead off every block is its own pass, except three: the
  // quarantined block is never read, and the torn-tail and seal checks
  // that run before the replay left the last two blocks in the cache.
  EXPECT_EQ(off.report.device_passes.replay, r - 3);

  // Same report block counts.
  EXPECT_EQ(on.report.end_location_reads, off.report.end_location_reads);
  EXPECT_EQ(on.report.tail_scan_blocks, off.report.tail_scan_blocks);
  EXPECT_EQ(on.report.catalog_replay_blocks,
            off.report.catalog_replay_blocks);
  EXPECT_EQ(on.report.invalidated_blocks, off.report.invalidated_blocks);
  EXPECT_EQ(on.report.restored_nvram_tail, off.report.restored_nvram_tail);

  // Same extent index, byte for byte: the quarantined block is the one
  // hole either way; the invalidated block is not a hole.
  LogVolume* von = on.rig.service->current_volume();
  LogVolume* voff = off.rig.service->current_volume();
  ASSERT_NE(von->extent_index(), nullptr);
  ASSERT_NE(voff->extent_index(), nullptr);
  EXPECT_EQ(von->extent_index()->hole_count(), 1u);
  EXPECT_EQ(von->extent_index()->Serialize(),
            voff->extent_index()->Serialize());

  // Same catalog.
  auto encoded = [](const Catalog& catalog) {
    std::vector<Bytes> out;
    for (const CatalogRecord& record : catalog.ExportRecords()) {
      out.push_back(record.Encode());
    }
    return out;
  };
  EXPECT_EQ(encoded(on.rig.service->catalog()),
            encoded(off.rig.service->catalog()));
  EXPECT_TRUE(on.rig.service->catalog().IsQuarantined(0, on.quarantined));
  EXPECT_EQ(on.rig.service->catalog().quarantined(),
            off.rig.service->catalog().quarantined());

  // Same answers to SeekToTime + Next, from instants across the volume.
  // A read that reaches the quarantined block fails the same way on both.
  auto answers = [](LogService* service, const char* path, Timestamp t) {
    std::vector<std::string> out;
    auto reader = service->OpenReader(path);
    EXPECT_OK(reader.status());
    Status seek = reader.value()->SeekToTime(t);
    if (!seek.ok()) {
      return std::vector<std::string>{seek.ToString()};
    }
    for (int n = 0; n < 8; ++n) {
      auto record = reader.value()->Next();
      if (!record.ok()) {
        out.push_back(record.status().ToString());
        break;
      }
      if (!record.value().has_value()) {
        break;
      }
      out.push_back(std::to_string(record.value()->timestamp) + " " +
                    ToString(record.value()->payload));
    }
    return out;
  };
  int failed_reads = 0;
  for (const char* path : ReplayCase::kFiles) {
    for (size_t i = 0; i < on.stamps.size(); i += on.stamps.size() / 64) {
      std::vector<std::string> got =
          answers(on.rig.service.get(), path, on.stamps[i]);
      EXPECT_FALSE(got.empty()) << path << " from stamp " << i;
      EXPECT_EQ(got, answers(off.rig.service.get(), path, on.stamps[i]))
          << path << " from stamp " << i;
      failed_reads += !got.empty() && got.back().starts_with("corrupt");
    }
  }
  EXPECT_GT(failed_reads, 0);  // some read crossed the quarantined block
}

// -- Restart by read plan (DESIGN.md §17) --

// One device read call: ReadBlock(first) has count 1.
struct ReadCall {
  uint64_t first = 0;
  uint64_t count = 0;
  bool operator==(const ReadCall&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ReadCall& c) {
  return os << "[" << c.first << "+" << c.count << "]";
}

// A borrowed device that logs every read call into `calls`. ReadBlocks is
// one call, as on a device whose pass is one seek. QueryEnd reports
// `end_shortfall` blocks short, or is unsupported when `query_end` is off.
class PassLogDevice : public BorrowedDevice {
 public:
  PassLogDevice(WormDevice* media, std::vector<ReadCall>* calls,
                bool query_end, uint64_t end_shortfall)
      : BorrowedDevice(media),
        calls_(calls),
        query_end_(query_end),
        end_shortfall_(end_shortfall) {}

  Status ReadBlock(uint64_t i, std::span<std::byte> out) override {
    calls_->push_back({i, 1});
    return BorrowedDevice::ReadBlock(i, out);
  }
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override {
    calls_->push_back({first, count});
    return BorrowedDevice::ReadBlocks(first, count, out);
  }
  Result<uint64_t> QueryEnd() override {
    if (!query_end_) {
      return Unimplemented("no end query");
    }
    CLIO_ASSIGN_OR_RETURN(uint64_t end, BorrowedDevice::QueryEnd());
    return end - std::min(end, end_shortfall_);
  }

 private:
  std::vector<ReadCall>* calls_;
  bool query_end_;
  uint64_t end_shortfall_;
};

// The `commit` shape: 1 KiB blocks, degree 16, no NVRAM, so every forced
// append burns its own block; appends stop once `end` blocks are burned.
struct PlanRig {
  std::unique_ptr<MemoryWormDevice> media;
  SimulatedClock clock{1'000'000, 7};
  LogServiceOptions options;
  std::vector<std::string> wrote;

  explicit PlanRig(uint64_t end) {
    MemoryWormOptions dev;
    dev.block_size = 1024;
    dev.capacity_blocks = 4096;
    media = std::make_unique<MemoryWormDevice>(dev);
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(media.get()), &clock,
        options);
    EXPECT_OK(service.status());
    EXPECT_OK(service.value()->CreateLogFile("/c").status());
    WriteOptions forced;
    forced.force = true;
    while (media->frontier() < end) {
      wrote.push_back("e" + std::to_string(wrote.size()));
      EXPECT_OK(
          service.value()->Append("/c", AsBytes(wrote.back()), forced)
              .status());
    }
    EXPECT_EQ(media->frontier(), end);
  }

  // Recovers at read-ahead depth `readahead`, logging Open's read calls.
  // Reads go through `through` when given (a decorator over `media`).
  Result<std::unique_ptr<LogService>> TryRecover(
      uint32_t readahead, std::vector<ReadCall>* calls,
      RecoveryReport* report, bool query_end = true,
      uint64_t end_shortfall = 0, WormDevice* through = nullptr) {
    LogServiceOptions o = options;
    o.readahead_blocks = readahead;
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<PassLogDevice>(
        through != nullptr ? through : media.get(), calls, query_end,
        end_shortfall));
    return LogService::Recover(std::move(devices), &clock, o, report);
  }
  std::unique_ptr<LogService> Recover(uint32_t readahead,
                                      std::vector<ReadCall>* calls,
                                      RecoveryReport* report,
                                      bool query_end = true,
                                      uint64_t end_shortfall = 0) {
    auto recovered =
        TryRecover(readahead, calls, report, query_end, end_shortfall);
    EXPECT_OK(recovered.status());
    return recovered.ok() ? std::move(recovered).value() : nullptr;
  }

  // Forced appends to "/c" until the device's next burn lands past
  // `block`.
  void AppendPast(LogService* service, uint64_t block) {
    WriteOptions forced;
    forced.force = true;
    while (media->frontier() <= block) {
      wrote.push_back("p" + std::to_string(wrote.size()));
      ASSERT_OK(
          service->Append("/c", AsBytes(wrote.back()), forced).status());
    }
  }
};

// Blocks named by the bad-block log (§2.3.2).
std::vector<uint64_t> LoggedBadBlocks(LogService* service) {
  std::vector<uint64_t> out;
  auto reader = service->OpenReaderById(kBadBlockLogId);
  EXPECT_OK(reader.status());
  if (!reader.ok()) {
    return out;
  }
  reader.value()->SeekToStart();
  while (true) {
    auto record = reader.value()->Next();
    EXPECT_OK(record.status());
    if (!record.ok() || !record.value().has_value()) {
      return out;
    }
    ByteReader payload(record.value()->payload);
    out.push_back(payload.GetU64());
  }
}

// What a restart leaves of a readable island at `island`, whether it
// absorbed the island or left it to the writer: once appends burn past
// it, the island is invalidated and in the bad-block log, a read of it
// serves no data, the log reads back as written and the volume verifies,
// then and after a second restart.
void ExpectIslandNeverServed(PlanRig* rig, std::unique_ptr<LogService> service,
                             uint64_t island) {
  // Burn the block after the island, then one more append: it logs the
  // blocks the burn before it skipped.
  rig->AppendPast(service.get(), island + 1);
  rig->AppendPast(service.get(), rig->media->frontier());
  EXPECT_EQ(rig->media->BlockState(island), WormBlockState::kInvalidated);
  std::vector<uint64_t> bad = LoggedBadBlocks(service.get());
  EXPECT_EQ(std::count(bad.begin(), bad.end(), island), 1) << island;
  OpStats stats;
  EXPECT_EQ(service->current_volume()->GetBlock(island, &stats)
                .status()
                .code(),
            StatusCode::kInvalidated);
  EXPECT_EQ(ReadAll(service.get(), "/c"), rig->wrote);
  ASSERT_OK_AND_ASSIGN(VerifyReport verify,
                       VerifyVolume(service->current_volume()));
  EXPECT_TRUE(verify.clean());
  service.reset();
  std::vector<ReadCall> calls;
  RecoveryReport report;
  service = rig->Recover(32, &calls, &report);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(report.invalidated_blocks, 0u);
  EXPECT_EQ(ReadAll(service.get(), "/c"), rig->wrote);
  ASSERT_OK_AND_ASSIGN(verify, VerifyVolume(service->current_volume()));
  EXPECT_TRUE(verify.clean());
}

TEST(RestartPlan, CommitShapedVolumeRestartsInFourPasses) {
  PlanRig rig(101);
  const uint32_t depth = LogServiceOptions{}.readahead_blocks;
  ASSERT_EQ(depth, 32u);
  std::vector<ReadCall> calls;
  RecoveryReport report;
  Counter* recorded = ObsRegistry().counter("clio.recovery.device_passes");
  const uint64_t recorded_before = recorded->value();
  auto service = rig.Recover(depth, &calls, &report);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(recorded->value() - recorded_before, 4u);
  // Head [0, 33); tail [69, 101] stopping at 101; 101 alone, whose
  // kNotWritten confirms the end (no island probes); one walk pass from
  // entrymap node 48 covers 48, 64 and 80.
  const std::vector<ReadCall> want = {{0, 33}, {69, 33}, {101, 1}, {48, 33}};
  EXPECT_EQ(calls, want);
  EXPECT_EQ(report.device_passes.head, 1u);
  EXPECT_EQ(report.device_passes.tail, 1u);
  EXPECT_EQ(report.device_passes.end_probes, 1u);
  EXPECT_EQ(report.device_passes.walk, 1u);
  EXPECT_EQ(report.device_passes.replay, 0u);
  EXPECT_EQ(report.device_passes.total(), 4u);
  EXPECT_EQ(report.end_location_reads, 1u);  // blocks past the end
  EXPECT_EQ(service->current_volume()->end_block(), 101u);
  EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
}

// At depth 0 the plan degenerates to one block per call. The tail pass is
// the read of 101 itself, so its kNotWritten confirms the end: 101 is
// read once.
TEST(RestartPlan, DepthZeroKeepsTheBlockByBlockSequence) {
  PlanRig rig(101);
  std::vector<ReadCall> calls;
  RecoveryReport report;
  auto service = rig.Recover(/*readahead=*/0, &calls, &report);
  ASSERT_NE(service, nullptr);
  std::vector<ReadCall> want = {{0, 1}, {101, 1}};
  // The torn-tail check at 100; the catalog walk's entrymap nodes 16..96
  // and block 1; the walk's unindexed tail 97..99.
  for (uint64_t b : {100, 16, 1, 32, 48, 64, 80, 96, 97, 98, 99}) {
    want.push_back({b, 1});
  }
  EXPECT_EQ(calls, want);
  EXPECT_EQ(report.device_passes.end_probes, 0u);
  EXPECT_EQ(report.device_passes.total(), 13u);
  EXPECT_EQ(report.device_passes.total(), calls.size());
  EXPECT_EQ(report.end_location_reads, 1u);
  EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
}

// An end query short over written blocks sends the tail pass past its
// answer, and the island probes then absorb wild writes just past the
// end, at the far edge of the probe window too. Recovery invalidates the
// island and the gap, so every case starts from fresh media.
TEST(RestartPlan, IslandsPastAShortEndQueryAreAbsorbed) {
  for (uint64_t offset : {1u, 15u}) {
    for (uint64_t below : {1u, 8u}) {
      for (uint32_t depth : {32u, 0u}) {
        SCOPED_TRACE("island at end + " + std::to_string(offset) +
                     ", query " + std::to_string(below) +
                     " below the end, depth " + std::to_string(depth));
        PlanRig rig(101);
        Rng rng(offset);
        const uint64_t island = 101 + offset;
        rig.media->Scribble(island, RandomPayload(&rng, 1024));
        std::vector<ReadCall> calls;
        RecoveryReport report;
        auto service =
            rig.Recover(depth, &calls, &report, /*query_end=*/true,
                        /*end_shortfall=*/island + 1 - (101 - below));
        ASSERT_NE(service, nullptr);
        EXPECT_EQ(service->current_volume()->end_block(), island + 1);
        // The island and the gap before it, up to the torn-tail window.
        EXPECT_EQ(report.invalidated_blocks,
                  std::min<uint64_t>(offset + 1, 16));
        EXPECT_EQ(rig.media->BlockState(island),
                  WormBlockState::kInvalidated);
        EXPECT_EQ(report.device_passes.total(), calls.size());
        EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
        ExpectIslandNeverServed(&rig, std::move(service), island);
      }
    }
  }
}

// An end query that agrees with the tail pass (it hides the island, as a
// lying device may) ends the restart at the confirmed end: no probe reads
// past it, and the island is left to the writer, which invalidates and
// logs it when a burn skips it.
TEST(RestartPlan, IslandPastAnAgreedEndIsLeftToTheWriter) {
  for (uint64_t offset : {1u, 5u, 15u}) {
    for (uint32_t depth : {32u, 0u}) {
      SCOPED_TRACE("island at end + " + std::to_string(offset) +
                   ", depth " + std::to_string(depth));
      PlanRig rig(101);
      Rng rng(offset);
      const uint64_t island = 101 + offset;
      rig.media->Scribble(island, RandomPayload(&rng, 1024));
      std::vector<ReadCall> calls;
      RecoveryReport report;
      auto service = rig.Recover(depth, &calls, &report, /*query_end=*/true,
                                 /*end_shortfall=*/offset + 1);
      ASSERT_NE(service, nullptr);
      EXPECT_EQ(service->current_volume()->end_block(), 101u);
      EXPECT_EQ(report.invalidated_blocks, 0u);
      EXPECT_EQ(report.end_location_reads, 1u);
      for (const ReadCall& call : calls) {
        EXPECT_LE(call.first + call.count, 102u) << call;
      }
      EXPECT_EQ(report.device_passes.total(), calls.size());
      EXPECT_EQ(rig.media->BlockState(island), WormBlockState::kScribbled);
      EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
      ExpectIslandNeverServed(&rig, std::move(service), island);
    }
  }
}

// A QueryEnd that under-reports by 1..8 blocks, on media whose end is
// followed by a 3-block gap and an island at 104, and the binary search
// without a query, each recover every entry. The restart either absorbs
// the island (end 105, the gap and island invalidated) or, when the tail
// pass confirms 101 unwritten, leaves it to the writer (end 101); either
// way the island is never served. Each recovery starts from fresh media.
TEST(RestartPlan, ShortEndQueryAcrossAGapMatchesBinarySearch) {
  auto recover = [](bool query_end, uint64_t shortfall) {
    PlanRig rig(101);
    Rng rng(7);
    rig.media->Scribble(104, RandomPayload(&rng, 1024));
    std::vector<ReadCall> calls;
    RecoveryReport report;
    auto service = rig.Recover(32, &calls, &report, query_end, shortfall);
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(report.device_passes.total(), calls.size());
    EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
    const uint64_t end = service->current_volume()->end_block();
    if (end == 105) {
      EXPECT_EQ(report.invalidated_blocks, 4u);  // 101..103 and the island
    } else {
      EXPECT_EQ(end, 101u);
      EXPECT_EQ(report.invalidated_blocks, 0u);
    }
    ExpectIslandNeverServed(&rig, std::move(service), 104);
  };
  {
    SCOPED_TRACE("binary search");
    recover(/*query_end=*/false, 0);
  }
  for (uint64_t shortfall = 1; shortfall <= 8; ++shortfall) {
    SCOPED_TRACE("end query short by " + std::to_string(shortfall));
    recover(/*query_end=*/true, shortfall);
  }
}

// An end query that lies onto the last burned block, whose reads fail
// transiently: the tail pass stops at it and its own read cannot confirm
// the end, so it stays inside the region and the island probes run. No
// forced entry is lost, and a block that stays unreadable through the
// torn-tail check fails the restart instead of dropping the entry.
TEST(RestartPlan, TransientReadAtALyingEndFallsBackToTheProbes) {
  for (int failures : {1, 2, 3}) {
    for (uint32_t depth : {32u, 0u}) {
      SCOPED_TRACE(std::to_string(failures) + " failed reads, depth " +
                   std::to_string(depth));
      PlanRig rig(101);
      testing::FlakyBlockDevice flaky(rig.media.get());
      flaky.FailReads(100, failures);
      std::vector<ReadCall> calls;
      RecoveryReport report;
      auto recovered = rig.TryRecover(depth, &calls, &report,
                                      /*query_end=*/true,
                                      /*end_shortfall=*/1, &flaky);
      // The tail pass and the read of 100 alone fail (at depth 0 they are
      // one read); the torn-tail check reads it next.
      if (failures > (depth == 0 ? 1 : 2)) {
        EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable);
        recovered = rig.TryRecover(depth, &calls, &report);
      } else {
        // The read of 100 alone, if any, then probes 101..116.
        EXPECT_EQ(report.device_passes.end_probes, depth == 0 ? 16u : 17u);
      }
      ASSERT_OK(recovered.status());
      std::unique_ptr<LogService> service = std::move(recovered).value();
      EXPECT_EQ(service->current_volume()->end_block(), 101u);
      EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
      rig.AppendPast(service.get(), 101);
      EXPECT_EQ(rig.media->BlockState(100), WormBlockState::kWritten);
      EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
    }
  }
}

// A torn block read by the tail pass is invalidated on media and dropped
// from the cache: later reads see the invalidated block, never the torn
// bytes the pass cached.
TEST(RestartPlan, TornTailBlockIsNeverServedFromTheTailPass) {
  PlanRig rig(101);
  Rng rng(11);
  rig.media->Scribble(101, RandomPayload(&rng, 1024));
  std::vector<ReadCall> calls;
  RecoveryReport report;
  auto service = rig.Recover(32, &calls, &report);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(report.invalidated_blocks, 1u);
  EXPECT_EQ(rig.media->BlockState(101), WormBlockState::kInvalidated);
  EXPECT_EQ(calls[1], (ReadCall{70, 33}));  // the tail pass read it
  OpStats stats;
  auto torn = service->current_volume()->GetBlock(101, &stats);
  EXPECT_EQ(torn.status().code(), StatusCode::kInvalidated);
  EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
  WriteOptions forced;
  forced.force = true;
  ASSERT_OK(service->Append("/c", AsBytes("after"), forced).status());
  rig.wrote.push_back("after");
  EXPECT_EQ(ReadAll(service.get(), "/c"), rig.wrote);
}

// A checkpoint restart reads the suffix the tail pass did not cache in
// one device pass, and no block of it twice, even through a cache too
// small to hold that pass; the restart then serves every entry.
TEST(RestartPlan, CheckpointSuffixIsOnePassThroughATinyCache) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/4096,
                            /*degree=*/8, &nvram,
                            /*checkpoint_interval=*/256);
  ASSERT_OK(rig.service->CreateLogFile("/w").status());
  Rng rng(0x1CE);
  WriteOptions forced;
  forced.force = true;
  std::vector<std::string> wrote;
  auto append = [&] {
    wrote.push_back(ToString(RandomPayload(&rng, rng.Range(40, 300))));
    ASSERT_OK(rig.service->Append("/w", AsBytes(wrote.back()), forced)
                  .status());
  };
  while (!nvram.has_checkpoint()) {
    append();
  }
  ASSERT_OK_AND_ASSIGN(CheckpointState ck,
                       CheckpointState::Decode(nvram.checkpoint()));
  while (rig.devices[0]->frontier() < ck.covered_end + 150) {
    append();
  }
  const uint64_t end = rig.devices[0]->frontier();
  for (size_t cache_blocks : {size_t{16}, size_t{0}}) {
    SCOPED_TRACE("cache " + std::to_string(cache_blocks));
    rig.service.reset();
    LogServiceOptions options = rig.options;
    options.cache_blocks = cache_blocks;
    std::vector<ReadCall> calls;
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<PassLogDevice>(
        rig.devices[0].get(), &calls, /*query_end=*/true,
        /*end_shortfall=*/0));
    RecoveryReport report;
    ASSERT_OK_AND_ASSIGN(rig.service,
                         LogService::Recover(std::move(devices),
                                             rig.clock.get(), options,
                                             &report));
    ASSERT_TRUE(report.restored_checkpoint);
    EXPECT_EQ(report.checkpoint_replay_blocks, end - ck.covered_end);
    EXPECT_EQ(report.device_passes.replay, 1u);
    // Blocks below the tail pass [end - W, end] are read once, by the
    // replay's pass.
    const uint64_t tail_first = end - options.readahead_blocks;
    std::vector<int> reads(end, 0);
    for (const ReadCall& call : calls) {
      for (uint64_t b = call.first; b < call.first + call.count && b < end;
           ++b) {
        ++reads[b];
      }
    }
    for (uint64_t b = ck.covered_end; b < tail_first; ++b) {
      EXPECT_EQ(reads[b], 1) << "block " << b;
    }
    EXPECT_EQ(ReadAll(rig.service.get(), "/w"), wrote);
  }
}

// A volume sequence decodes the sidecar once, and only the writable
// volume restores from it: the earlier volumes open by the full scan.
TEST(Recovery, MultiVolumeSequenceDecodesTheCheckpointOnce) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/64,
                            /*degree=*/4, &nvram,
                            /*checkpoint_interval=*/8);
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 64;
  auto* devices = &rig.devices;
  rig.service->set_volume_factory(
      [devices, dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
        devices->push_back(std::make_unique<MemoryWormDevice>(dev));
        return std::unique_ptr<WormDevice>(
            new BorrowedDevice(devices->back().get()));
      });
  ASSERT_OK(rig.service->CreateLogFile("/big").status());
  WriteOptions forced;
  forced.force = true;
  std::vector<std::string> wrote;
  while (rig.service->volume_count() < 3 || !nvram.has_checkpoint() ||
         rig.devices.back()->frontier() < 40) {
    ASSERT_LT(wrote.size(), 2000u);
    std::string data = "entry-" + std::to_string(wrote.size());
    data.resize(300, 'x');
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/big", AsBytes(data), forced).status());
  }
  const uint64_t last_volume_blocks = rig.devices.back()->frontier();
  const StatsSnapshot before = ObsRegistry().Snapshot();
  RecoveryReport report = rig.Crash();
  const StatsSnapshot after = ObsRegistry().Snapshot();
  EXPECT_EQ(HistogramCount(after, "clio.recovery.decode_us") -
                HistogramCount(before, "clio.recovery.decode_us"),
            1u);
  EXPECT_TRUE(report.restored_checkpoint);
  EXPECT_LT(report.checkpoint_replay_blocks, last_volume_blocks);
  // Only the earlier volumes walked their catalog logs.
  EXPECT_GT(report.catalog_replay_blocks, 0u);
  EXPECT_EQ(ReadAll(rig.service.get(), "/big"), wrote);
  ASSERT_OK(rig.service->Append("/big", AsBytes("after"), forced).status());
  wrote.push_back("after");
  EXPECT_EQ(ReadAll(rig.service.get(), "/big"), wrote);
}

// A crash strands an unforced entry whose first blocks burned while its
// tail died in the staging buffer; restart seals the chain with an empty
// fragment. The entry reads back as what it is, a truncated prefix, and
// verify lists it apart from damage.
TEST(Recovery, CrashStrandedEntryReadsBackTruncated) {
  auto rig = CrashRig::Make(/*block_size=*/512);
  ASSERT_OK(rig.service->CreateLogFile("/s").status());
  WriteOptions forced;
  forced.force = true;
  ASSERT_OK(
      rig.service->Append("/s", Bytes(20, std::byte{0x11}), forced).status());
  ASSERT_OK(
      rig.service->Append("/s", Bytes(1500, std::byte{0x22}), WriteOptions{})
          .status());
  rig.Crash();
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/s"));
  reader->SeekToStart();
  ASSERT_OK_AND_ASSIGN(auto first, reader->Next());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload.size(), 20u);
  EXPECT_FALSE(first->truncated);
  ASSERT_OK_AND_ASSIGN(auto second, reader->Next());
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->payload.size(), 0u);
  EXPECT_LT(second->payload.size(), 1500u);
  EXPECT_TRUE(second->truncated);
  ASSERT_OK_AND_ASSIGN(auto none, reader->Next());
  EXPECT_FALSE(none.has_value());

  ASSERT_OK_AND_ASSIGN(VerifyReport verify,
                       VerifyVolume(rig.service->current_volume()));
  EXPECT_EQ(verify.sealed_chain_blocks.size(), 1u);
  EXPECT_TRUE(verify.broken_chains.empty());
  EXPECT_TRUE(verify.clean());
  // Later appends burn past the seal; the entry stays truncated.
  ASSERT_OK(rig.service->Append("/s", Bytes(700, std::byte{0x33}), forced)
                .status());
  ASSERT_OK_AND_ASSIGN(reader, rig.service->OpenReader("/s"));
  reader->SeekToStart();
  ASSERT_OK(reader->Next().status());
  ASSERT_OK_AND_ASSIGN(second, reader->Next());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->truncated);
  ASSERT_OK_AND_ASSIGN(auto third, reader->Next());
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->payload.size(), 700u);
  EXPECT_FALSE(third->truncated);
}

// Checkpoints written in one volume must not leak into its successor: a
// rollover clears the NVRAM sidecar and recovery scans the new volume.
TEST(Recovery, RolloverClearsTheCheckpoint) {
  NvramTail nvram(512);
  auto rig = CrashRig::Make(/*block_size=*/512, /*capacity=*/64,
                            /*degree=*/4, &nvram,
                            /*checkpoint_interval=*/8);
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 64;
  auto* devices = &rig.devices;
  rig.service->set_volume_factory(
      [devices, dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
        devices->push_back(std::make_unique<MemoryWormDevice>(dev));
        return std::unique_ptr<WormDevice>(
            new BorrowedDevice(devices->back().get()));
      });
  ASSERT_OK(rig.service->CreateLogFile("/big").status());
  WriteOptions forced;
  forced.force = true;
  std::vector<std::string> wrote;
  for (int i = 0; i < 300; ++i) {
    // Padded so ~300 entries span several 64-block volumes: with the NVRAM
    // tail, force makes the staged block durable without burning it, so
    // only payload volume rolls the sequence over.
    std::string data = "entry-" + std::to_string(i);
    data.resize(300, 'x');
    wrote.push_back(data);
    ASSERT_OK(rig.service->Append("/big", AsBytes(data), forced).status());
  }
  ASSERT_GT(rig.service->volume_count(), 2u);
  rig.Crash();
  EXPECT_EQ(ReadAll(rig.service.get(), "/big"), wrote);
  ASSERT_OK(rig.service->Append("/big", AsBytes("after"), forced).status());
  wrote.push_back("after");
  EXPECT_EQ(ReadAll(rig.service.get(), "/big"), wrote);
}

}  // namespace
}  // namespace clio
