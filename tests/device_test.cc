// WORM device semantics: append-only enforcement, invalidation, scribbles,
// end query, persistence, the optical latency model and fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/device/fault_injection.h"
#include "src/device/file_worm_device.h"
#include "src/device/memory_rewritable_device.h"
#include "src/device/memory_worm_device.h"
#include "src/device/nvram_tail.h"
#include "src/device/optical_model.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

MemoryWormOptions SmallDevice() {
  MemoryWormOptions options;
  options.block_size = 256;
  options.capacity_blocks = 64;
  return options;
}

Bytes Pattern(uint32_t size, uint8_t seed) {
  Bytes out(size);
  for (uint32_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>(seed + i);
  }
  return out;
}

TEST(MemoryWorm, AppendsAreSequential) {
  MemoryWormDevice device(SmallDevice());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t index,
                         device.AppendBlock(Pattern(256, i)));
    EXPECT_EQ(index, i);
  }
  ASSERT_OK_AND_ASSIGN(uint64_t end, device.QueryEnd());
  EXPECT_EQ(end, 5u);
}

TEST(MemoryWorm, ReadBackMatchesWrites) {
  MemoryWormDevice device(SmallDevice());
  ASSERT_OK(device.AppendBlock(Pattern(256, 42)).status());
  Bytes out(256);
  ASSERT_OK(device.ReadBlock(0, out));
  EXPECT_EQ(out, Pattern(256, 42));
}

TEST(MemoryWorm, UnwrittenBlockReadsFail) {
  MemoryWormDevice device(SmallDevice());
  Bytes out(256);
  EXPECT_EQ(device.ReadBlock(0, out).code(), StatusCode::kNotWritten);
  EXPECT_EQ(device.ReadBlock(1000, out).code(), StatusCode::kOutOfRange);
}

TEST(MemoryWorm, WrongSizeBuffersRejected) {
  MemoryWormDevice device(SmallDevice());
  Bytes small(100);
  EXPECT_EQ(device.AppendBlock(small).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK(device.AppendBlock(Pattern(256, 0)).status());
  EXPECT_EQ(device.ReadBlock(0, small).code(), StatusCode::kInvalidArgument);
}

TEST(MemoryWorm, InvalidatedBlockReadsAllOnes) {
  MemoryWormDevice device(SmallDevice());
  ASSERT_OK(device.AppendBlock(Pattern(256, 1)).status());
  ASSERT_OK(device.InvalidateBlock(0));
  Bytes out(256);
  ASSERT_OK(device.ReadBlock(0, out));
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0xFF});
  }
  EXPECT_EQ(device.BlockState(0), WormBlockState::kInvalidated);
}

TEST(MemoryWorm, AppendSkipsInvalidatedAndScribbledBlocks) {
  MemoryWormDevice device(SmallDevice());
  ASSERT_OK(device.AppendBlock(Pattern(256, 0)).status());
  ASSERT_OK(device.InvalidateBlock(1));
  Rng rng(1);
  device.Scribble(2, RandomPayload(&rng, 256));
  ASSERT_OK_AND_ASSIGN(uint64_t index, device.AppendBlock(Pattern(256, 3)));
  EXPECT_EQ(index, 3u);  // the head moved past both bad blocks
  ASSERT_OK_AND_ASSIGN(uint64_t end, device.QueryEnd());
  EXPECT_EQ(end, 4u);
}

TEST(MemoryWorm, VolumeFillsToNoSpace) {
  MemoryWormOptions options = SmallDevice();
  options.capacity_blocks = 3;
  MemoryWormDevice device(options);
  ASSERT_OK(device.AppendBlock(Pattern(256, 0)).status());
  ASSERT_OK(device.AppendBlock(Pattern(256, 1)).status());
  ASSERT_OK(device.AppendBlock(Pattern(256, 2)).status());
  EXPECT_EQ(device.AppendBlock(Pattern(256, 3)).status().code(),
            StatusCode::kNoSpace);
}

TEST(MemoryWorm, EndQueryCanBeDisabled) {
  MemoryWormOptions options = SmallDevice();
  options.supports_end_query = false;
  MemoryWormDevice device(options);
  EXPECT_EQ(device.QueryEnd().status().code(), StatusCode::kUnimplemented);
}

TEST(MemoryWorm, StatsCountOperations) {
  MemoryWormDevice device(SmallDevice());
  ASSERT_OK(device.AppendBlock(Pattern(256, 0)).status());
  Bytes out(256);
  ASSERT_OK(device.ReadBlock(0, out));
  (void)device.ReadBlock(5, out);
  EXPECT_EQ(device.stats().appends, 1u);
  EXPECT_EQ(device.stats().reads, 2u);
  EXPECT_EQ(device.stats().failed_ops, 1u);
}

TEST(FileWorm, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/clio_fileworm_test.dev";
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
  FileWormOptions options;
  options.block_size = 256;
  options.capacity_blocks = 32;
  {
    ASSERT_OK_AND_ASSIGN(auto device, FileWormDevice::Open(path, options));
    ASSERT_OK(device->AppendBlock(Pattern(256, 7)).status());
    ASSERT_OK(device->AppendBlock(Pattern(256, 8)).status());
    ASSERT_OK(device->InvalidateBlock(1));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto device, FileWormDevice::Open(path, options));
    ASSERT_OK_AND_ASSIGN(uint64_t end, device->QueryEnd());
    EXPECT_EQ(end, 2u);
    Bytes out(256);
    ASSERT_OK(device->ReadBlock(0, out));
    EXPECT_EQ(out, Pattern(256, 7));
    EXPECT_EQ(device->BlockState(1), WormBlockState::kInvalidated);
    // The write head resumes after the existing data.
    ASSERT_OK_AND_ASSIGN(uint64_t index,
                         device->AppendBlock(Pattern(256, 9)));
    EXPECT_EQ(index, 2u);
  }
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
}

// The end query counts every block that is not virgin, so an island past
// a virgin gap is inside the answer: one past the island, not the gap.
TEST(WormEndQuery, CountsAnIslandPastAGap) {
  std::string path = ::testing::TempDir() + "/clio_island_end_test.dev";
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
  FileWormOptions file_options;
  file_options.block_size = 256;
  file_options.capacity_blocks = 64;
  ASSERT_OK_AND_ASSIGN(auto file, FileWormDevice::Open(path, file_options));
  MemoryWormDevice memory(SmallDevice());
  for (WormDevice* device : {static_cast<WormDevice*>(&memory),
                             static_cast<WormDevice*>(file.get())}) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK(device->AppendBlock(Pattern(256, i)).status());
    }
    // Blocks 3..6 stay virgin; 7 is an island.
    ASSERT_OK(device->InvalidateBlock(7));
    ASSERT_OK_AND_ASSIGN(uint64_t end, device->QueryEnd());
    EXPECT_EQ(end, 8u);
    EXPECT_EQ(device->BlockState(5), WormBlockState::kUnwritten);
    Bytes out(256);
    EXPECT_EQ(device->ReadBlock(5, out).code(), StatusCode::kNotWritten);
  }
  Rng rng(3);
  memory.Scribble(20, RandomPayload(&rng, 256));
  ASSERT_OK_AND_ASSIGN(uint64_t scribbled_end, memory.QueryEnd());
  EXPECT_EQ(scribbled_end, 21u);
  file.reset();
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
}

TEST(Rewritable, ReadsZerosUntilWritten) {
  MemoryRewritableDevice device(256, 16);
  Bytes out(256, std::byte{1});
  ASSERT_OK(device.ReadBlock(3, out));
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
  ASSERT_OK(device.WriteBlock(3, Pattern(256, 5)));
  ASSERT_OK(device.WriteBlock(3, Pattern(256, 6)));  // rewrite allowed
  ASSERT_OK(device.ReadBlock(3, out));
  EXPECT_EQ(out, Pattern(256, 6));
}

TEST(Optical, ChargesSeekAndTransferTime) {
  MemoryWormOptions base = SmallDevice();
  base.capacity_blocks = 1000;
  OpticalModelOptions model;
  SimulatedOpticalDevice device(std::make_unique<MemoryWormDevice>(base),
                                model);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(device.AppendBlock(Pattern(256, i)).status());
  }
  uint64_t after_writes = device.simulated_us();
  EXPECT_GT(after_writes, 0u);

  // A far seek costs much more than a sequential read.
  Bytes out(256);
  ASSERT_OK(device.ReadBlock(8, out));  // park the read head far away
  device.ResetSimulatedTime();
  ASSERT_OK(device.ReadBlock(0, out));  // long seek back
  uint64_t far = device.simulated_us();
  ASSERT_OK(device.ReadBlock(1, out));  // head is now adjacent
  uint64_t sequential = device.simulated_us() - far;
  EXPECT_LT(sequential, far);
}

TEST(Optical, SharedHeadPenalizesAlternation) {
  MemoryWormOptions base = SmallDevice();
  base.capacity_blocks = 100000;
  auto run = [&](bool separate) {
    OpticalModelOptions model;
    model.separate_heads = separate;
    SimulatedOpticalDevice device(std::make_unique<MemoryWormDevice>(base),
                                  model);
    Bytes out(256);
    for (int i = 0; i < 50; ++i) {
      EXPECT_OK(device.AppendBlock(Pattern(256, i)).status());
    }
    device.ResetSimulatedTime();
    // Alternate appends with far-back reads.
    for (int i = 0; i < 20; ++i) {
      EXPECT_OK(device.AppendBlock(Pattern(256, i)).status());
      EXPECT_OK(device.ReadBlock(0, out));
    }
    return device.simulated_us();
  };
  // Paper §3.3.1: "the log device should ideally have separate read and
  // write heads" because reading interferes with writing.
  EXPECT_LT(run(true), run(false));
}

TEST(FaultInjection, GarbageAppendsScribbleAndFail) {
  FaultPolicy policy;
  policy.garbage_append_per_mille = 1000;  // always
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 1);
  auto result = device.AppendBlock(Pattern(256, 0));
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(device.injected_garbage_appends(), 1u);
  EXPECT_EQ(device.BlockState(0), WormBlockState::kScribbled);
}

TEST(FaultInjection, TransientReadFailuresSurface) {
  FaultPolicy policy;
  policy.transient_read_failure_per_mille = 1000;
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 1);
  ASSERT_OK(device.base()->AppendBlock(Pattern(256, 0)).status());
  Bytes out(256);
  EXPECT_EQ(device.ReadBlock(0, out).code(), StatusCode::kUnavailable);
  EXPECT_EQ(device.injected_read_failures(), 1u);
}

TEST(FaultInjection, InjectedFaultsShowInDeviceStats) {
  FaultPolicy policy;
  policy.garbage_append_per_mille = 1000;
  policy.transient_read_failure_per_mille = 1000;
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 1);
  EXPECT_EQ(device.stats().failed_ops, 0u);
  EXPECT_FALSE(device.AppendBlock(Pattern(256, 0)).ok());
  Bytes out(256);
  EXPECT_FALSE(device.ReadBlock(0, out).ok());
  // The injector's failures are folded into the reported stats instead of
  // being silently absorbed by the decorator.
  EXPECT_EQ(device.stats().failed_ops, 2u);
  EXPECT_GE(device.stats().reads, 1u);
  device.ResetStats();
  EXPECT_EQ(device.stats().failed_ops, 0u);
  EXPECT_EQ(device.stats().reads, 0u);
}

TEST(FaultInjection, PowerCutScheduleKillsAndRearms) {
  FaultPolicy policy;
  policy.power_cut_after_appends = 3;
  policy.torn_write_at_power_cut = false;
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 7);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(device.AppendBlock(Pattern(256, i)).status());
  }
  EXPECT_FALSE(device.powered_off());
  EXPECT_EQ(device.AppendBlock(Pattern(256, 9)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(device.powered_off());
  EXPECT_EQ(device.power_cuts(), 1u);
  // Everything fails while the device is dark.
  Bytes out(256);
  EXPECT_EQ(device.ReadBlock(0, out).code(), StatusCode::kUnavailable);
  EXPECT_EQ(device.QueryEnd().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(device.InvalidateBlock(0).code(), StatusCode::kUnavailable);
  device.Revive();
  EXPECT_FALSE(device.powered_off());
  ASSERT_OK(device.ReadBlock(0, out));
  // Revive re-arms the schedule: three more appends, then the next cut.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(device.AppendBlock(Pattern(256, i)).status());
  }
  EXPECT_EQ(device.AppendBlock(Pattern(256, 9)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(device.power_cuts(), 2u);
}

TEST(FaultInjection, PowerCutTornWriteLeavesPartialBlock) {
  FaultPolicy policy;
  policy.power_cut_after_appends = 1;
  policy.torn_write_at_power_cut = true;
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 3);
  ASSERT_OK(device.AppendBlock(Pattern(256, 1)).status());
  Bytes image = Pattern(256, 2);
  EXPECT_EQ(device.AppendBlock(image).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(device.injected_torn_appends(), 1u);
  device.Revive();
  // Block 1 holds a strict prefix of the intended image, then garbage —
  // the signature of a burn interrupted mid-way.
  Bytes out(256);
  ASSERT_OK(device.ReadBlock(1, out));
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 16, image.begin()));
  EXPECT_NE(ToString(out), ToString(image));
  // The frontier moved past the torn block: good data lands after it.
  ASSERT_OK_AND_ASSIGN(uint64_t where, device.AppendBlock(Pattern(256, 3)));
  EXPECT_EQ(where, 2u);
}

TEST(FaultInjection, TornAppendFaultsProducePartialBlocks) {
  FaultPolicy policy;
  policy.torn_append_per_mille = 1000;
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 5);
  Bytes image = Pattern(256, 4);
  EXPECT_EQ(device.AppendBlock(image).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(device.injected_torn_appends(), 1u);
  Bytes out(256);
  ASSERT_OK(device.ReadBlock(0, out));
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 16, image.begin()));
  EXPECT_NE(ToString(out), ToString(image));
}

TEST(FaultInjection, QueryEndUnderReportsButNeverOverReports) {
  FaultPolicy policy;
  policy.query_end_lies_per_mille = 1000;
  FaultInjectingWormDevice device(
      std::make_unique<MemoryWormDevice>(SmallDevice()), policy, 11);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(device.AppendBlock(Pattern(256, i)).status());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t lied, device.QueryEnd());
    EXPECT_LT(lied, 10u);
    EXPECT_GE(lied, 2u);  // under-reports by at most 8
  }
  EXPECT_EQ(device.injected_query_end_lies(), 8u);
  ASSERT_OK_AND_ASSIGN(uint64_t truth, device.base()->QueryEnd());
  EXPECT_EQ(truth, 10u);
}

TEST(FaultInjection, DecoratesFileBackedDevices) {
  // The decorator is generic over WormDevice: wrap the file-backed device
  // and garbage still lands in the log through the ordinary append path.
  std::string path = ::testing::TempDir() + "/clio_fault_file_test.dev";
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
  FileWormOptions file_options;
  file_options.block_size = 256;
  file_options.capacity_blocks = 32;
  ASSERT_OK_AND_ASSIGN(auto file_device,
                       FileWormDevice::Open(path, file_options));
  FaultPolicy policy;
  policy.garbage_append_per_mille = 1000;
  FaultInjectingWormDevice device(std::move(file_device), policy, 13);
  EXPECT_EQ(device.AppendBlock(Pattern(256, 0)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(device.injected_garbage_appends(), 1u);
  // The wild write consumed block 0 on the real media.
  ASSERT_OK_AND_ASSIGN(uint64_t end, device.base()->QueryEnd());
  EXPECT_EQ(end, 1u);
  EXPECT_EQ(device.BlockState(0), WormBlockState::kWritten);
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
}

TEST(Nvram, StoreAndClear) {
  NvramTail nvram(256);
  EXPECT_FALSE(nvram.has_data());
  ASSERT_OK(nvram.Store(5, Pattern(256, 1)));
  EXPECT_TRUE(nvram.has_data());
  EXPECT_EQ(nvram.block_index(), 5u);
  ASSERT_OK(nvram.Store(5, Pattern(256, 2)));  // rewritable
  EXPECT_EQ(nvram.store_count(), 2u);
  EXPECT_EQ(ToString(nvram.data()), ToString(Pattern(256, 2)));
  nvram.Clear();
  EXPECT_FALSE(nvram.has_data());
  Bytes too_big(300);
  EXPECT_EQ(nvram.Store(6, too_big).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace clio
