// Offline volumes mounted on demand (paper §2.1: "Many of the previous
// volumes in a volume sequence may also be available for reading (only),
// or may be made available on demand, either automatically or manually").
#include <gtest/gtest.h>

#include "src/clio/log_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

struct ArchiveRig {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  std::vector<std::unique_ptr<MemoryWormDevice>> media;
  std::unique_ptr<LogService> service;
  std::vector<std::string> wrote;

  static ArchiveRig Make() {
    ArchiveRig rig;
    MemoryWormOptions dev;
    dev.block_size = 512;
    dev.capacity_blocks = 64;
    LogServiceOptions options;
    options.entrymap_degree = 4;
    rig.media.push_back(std::make_unique<MemoryWormDevice>(dev));
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(rig.media[0].get()),
        rig.clock.get(), options);
    EXPECT_TRUE(service.ok());
    rig.service = std::move(service).value();
    auto* media = &rig.media;
    rig.service->set_volume_factory(
        [media, dev](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
          media->push_back(std::make_unique<MemoryWormDevice>(dev));
          return std::unique_ptr<WormDevice>(
              std::make_unique<BorrowedDevice>(media->back().get()));
        });
    // Fill several volumes.
    EXPECT_TRUE(rig.service->CreateLogFile("/d").ok());
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 250; ++i) {
      std::string data = "e" + std::to_string(i);
      rig.wrote.push_back(data);
      EXPECT_TRUE(rig.service->Append("/d", AsBytes(data), forced).ok());
    }
    EXPECT_GT(rig.service->volume_count(), 3u);
    return rig;
  }

  void InstallMounter() {
    auto* shelf = &media;
    service->set_volume_mounter(
        [shelf](uint32_t index) -> Result<std::unique_ptr<WormDevice>> {
          return std::unique_ptr<WormDevice>(
              std::make_unique<BorrowedDevice>((*shelf)[index].get()));
        });
  }
};

TEST(OfflineVolumes, OfflineReadFailsWithoutMounter) {
  auto rig = ArchiveRig::Make();
  ASSERT_OK(rig.service->TakeVolumeOffline(0));
  EXPECT_FALSE(rig.service->VolumeOnline(0));
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  reader->SeekToStart();
  auto result = reader->Next();
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(OfflineVolumes, OnDemandMountRestoresAccess) {
  auto rig = ArchiveRig::Make();
  rig.InstallMounter();
  // Archive every old volume.
  for (uint32_t v = 0; v + 1 < rig.service->volume_count(); ++v) {
    ASSERT_OK(rig.service->TakeVolumeOffline(v));
  }
  // A full scan transparently remounts them one by one.
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  reader->SeekToStart();
  for (size_t i = 0; i < rig.wrote.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(ToString(record->payload), rig.wrote[i]);
  }
  EXPECT_EQ(rig.service->on_demand_mounts(),
            rig.service->volume_count() - 1);
}

TEST(OfflineVolumes, NewestVolumeCannotGoOffline) {
  auto rig = ArchiveRig::Make();
  uint32_t newest = static_cast<uint32_t>(rig.service->volume_count() - 1);
  EXPECT_EQ(rig.service->TakeVolumeOffline(newest).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.service->TakeVolumeOffline(999).code(),
            StatusCode::kInvalidArgument);
}

TEST(OfflineVolumes, ReverseReadAcrossOfflineBoundary) {
  auto rig = ArchiveRig::Make();
  rig.InstallMounter();
  ASSERT_OK(rig.service->TakeVolumeOffline(0));
  ASSERT_OK(rig.service->TakeVolumeOffline(1));
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  reader->SeekToEnd();
  for (size_t i = rig.wrote.size(); i > 0; --i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Prev());
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(ToString(record->payload), rig.wrote[i - 1]);
  }
}

// A reader positioned on a volume that goes offline keeps its gap: the
// next call fails kUnavailable without a mounter, and once one is
// installed the reader continues from the same place on the remount.
TEST(OfflineVolumes, ForwardReaderSurvivesItsVolumeGoingOffline) {
  auto rig = ArchiveRig::Make();
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  ASSERT_OK_AND_ASSIGN(auto first, reader->Next());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(ToString(first->payload), rig.wrote[0]);
  ASSERT_EQ(first->position.volume_index, 0u);

  ASSERT_OK(rig.service->TakeVolumeOffline(0));
  EXPECT_EQ(reader->Next().status().code(), StatusCode::kUnavailable);
  rig.InstallMounter();
  for (size_t i = 1; i < rig.wrote.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(ToString(record->payload), rig.wrote[i]);
  }
  ASSERT_OK_AND_ASSIGN(auto end, reader->Next());
  EXPECT_FALSE(end.has_value());
  EXPECT_EQ(rig.service->on_demand_mounts(), 1u);
}

TEST(OfflineVolumes, BackwardReaderSurvivesItsVolumeGoingOffline) {
  auto rig = ArchiveRig::Make();
  rig.InstallMounter();
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    ASSERT_TRUE(record.has_value());
    ASSERT_EQ(record->position.volume_index, 0u);
  }
  ASSERT_OK_AND_ASSIGN(auto third, reader->Prev());
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(ToString(third->payload), rig.wrote[2]);

  ASSERT_OK(rig.service->TakeVolumeOffline(0));
  for (size_t i = 2; i > 0; --i) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Prev());
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(ToString(record->payload), rig.wrote[i - 1]);
  }
  ASSERT_OK_AND_ASSIGN(auto start, reader->Prev());
  EXPECT_FALSE(start.has_value());
  EXPECT_EQ(rig.service->on_demand_mounts(), 1u);
}

TEST(OfflineVolumes, MounterRejectsWrongPlatter) {
  auto rig = ArchiveRig::Make();
  auto* media = &rig.media;
  // A confused operator mounts volume 1's platter when volume 0 was asked
  // for; the service must detect the mismatch.
  rig.service->set_volume_mounter(
      [media](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
        return std::unique_ptr<WormDevice>(
            std::make_unique<BorrowedDevice>((*media)[1].get()));
      });
  ASSERT_OK(rig.service->TakeVolumeOffline(0));
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  reader->SeekToStart();
  auto result = reader->Next();
  EXPECT_EQ(result.status().code(), StatusCode::kCorrupt);
}

TEST(OfflineVolumes, TimeSearchMountsOnlyWhatItNeeds) {
  auto rig = ArchiveRig::Make();
  rig.InstallMounter();
  for (uint32_t v = 0; v + 1 < rig.service->volume_count(); ++v) {
    ASSERT_OK(rig.service->TakeVolumeOffline(v));
  }
  // Seek to "now": only the (online) newest volume is touched.
  ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader("/d"));
  ASSERT_OK(reader->SeekToTime(kTimestampMax - 1));
  ASSERT_OK_AND_ASSIGN(auto last, reader->Prev());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(ToString(last->payload), rig.wrote.back());
  EXPECT_EQ(rig.service->on_demand_mounts(), 0u);
}

}  // namespace
}  // namespace clio
