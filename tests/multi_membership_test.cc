// Multi-membership entries (paper §2.1: "the logging service allows a log
// entry to be a member of more than one log file").
#include <gtest/gtest.h>

#include "src/clio/log_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

std::vector<std::string> ReadAll(LogService* service,
                                 const std::string& path) {
  auto reader = service->OpenReader(path);
  EXPECT_TRUE(reader.ok());
  reader.value()->SeekToStart();
  std::vector<std::string> out;
  while (true) {
    auto record = reader.value()->Next();
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    if (!record.value().has_value()) {
      break;
    }
    out.push_back(ToString(record.value()->payload));
  }
  return out;
}

TEST(MultiMembership, EntryAppearsInBothLogFiles) {
  auto fx = ServiceFixture::Make();
  ASSERT_OK_AND_ASSIGN(LogFileId a, fx.service->CreateLogFile("/a"));
  ASSERT_OK_AND_ASSIGN(LogFileId b, fx.service->CreateLogFile("/b"));
  (void)a;
  WriteOptions opts;
  opts.extra_memberships = {b};
  ASSERT_OK(fx.service->Append("/a", AsBytes("shared"), opts).status());
  ASSERT_OK(fx.service->Append("/a", AsBytes("a-only")).status());
  ASSERT_OK(fx.service->Append("/b", AsBytes("b-only")).status());

  EXPECT_EQ(ReadAll(fx.service.get(), "/a"),
            (std::vector<std::string>{"shared", "a-only"}));
  EXPECT_EQ(ReadAll(fx.service.get(), "/b"),
            (std::vector<std::string>{"shared", "b-only"}));
}

TEST(MultiMembership, RecordExposesExtraMemberships) {
  auto fx = ServiceFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  ASSERT_OK_AND_ASSIGN(LogFileId b, fx.service->CreateLogFile("/b"));
  ASSERT_OK_AND_ASSIGN(LogFileId c, fx.service->CreateLogFile("/c"));
  WriteOptions opts;
  opts.extra_memberships = {b, c};
  ASSERT_OK(fx.service->Append("/a", AsBytes("x"), opts).status());
  ASSERT_OK_AND_ASSIGN(auto reader, fx.service->OpenReader("/c"));
  reader->SeekToStart();
  ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->extra_memberships, (std::vector<LogFileId>{b, c}));
  EXPECT_TRUE(record->timestamp_exact);  // kMulti headers carry timestamps
}

TEST(MultiMembership, FarBackSearchFindsSharedEntries) {
  // The entrymap bitmaps must be set for the extra memberships too, or a
  // far-back search through the tree would miss the entry.
  auto fx = ServiceFixture::Make(/*block_size=*/512, /*capacity_blocks=*/8192,
                                 /*degree=*/4);
  ASSERT_OK(fx.service->CreateLogFile("/primary").status());
  ASSERT_OK_AND_ASSIGN(LogFileId other, fx.service->CreateLogFile("/other"));
  ASSERT_OK(fx.service->CreateLogFile("/noise").status());
  WriteOptions multi;
  multi.extra_memberships = {other};
  multi.force = true;
  ASSERT_OK(fx.service->Append("/primary", AsBytes("early"), multi).status());
  Rng rng(3);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(fx.service->Append("/noise", RandomPayload(&rng, 80), forced)
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, fx.service->OpenReader("/other"));
  reader->SeekToEnd();
  OpStats stats;
  ASSERT_OK_AND_ASSIGN(auto record, reader->Prev(&stats));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(ToString(record->payload), "early");
  // The tree was actually used, not a linear scan.
  EXPECT_LT(stats.blocks_read, 50u);
}

TEST(MultiMembership, SublogExtrasImplyAncestors) {
  auto fx = ServiceFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/mail").status());
  ASSERT_OK_AND_ASSIGN(LogFileId smith,
                       fx.service->CreateLogFile("/mail/smith"));
  ASSERT_OK(fx.service->CreateLogFile("/billing").status());
  // An invoice mail is delivered to /billing but also to /mail/smith; it
  // must then appear in /mail too (ancestor of the extra membership).
  WriteOptions opts;
  opts.extra_memberships = {smith};
  ASSERT_OK(fx.service->Append("/billing", AsBytes("invoice"), opts)
                .status());
  EXPECT_EQ(ReadAll(fx.service.get(), "/mail"),
            (std::vector<std::string>{"invoice"}));
  EXPECT_EQ(ReadAll(fx.service.get(), "/mail/smith"),
            (std::vector<std::string>{"invoice"}));
  EXPECT_EQ(ReadAll(fx.service.get(), "/billing"),
            (std::vector<std::string>{"invoice"}));
}

TEST(MultiMembership, LargeSharedEntriesFragment) {
  auto fx = ServiceFixture::Make(/*block_size=*/256);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  ASSERT_OK_AND_ASSIGN(LogFileId b, fx.service->CreateLogFile("/b"));
  Rng rng(5);
  Bytes big = RandomPayload(&rng, 1500);
  WriteOptions opts;
  opts.extra_memberships = {b};
  ASSERT_OK(fx.service->Append("/a", big, opts).status());
  for (const char* path : {"/a", "/b"}) {
    auto got = ReadAll(fx.service.get(), path);
    ASSERT_EQ(got.size(), 1u) << path;
    EXPECT_EQ(got[0], ToString(big)) << path;
  }
}

TEST(MultiMembership, ExtraMembershipsSurviveRecoveryViaNvram) {
  NvramTail nvram(1024);
  MemoryWormOptions dev;
  dev.block_size = 1024;
  dev.capacity_blocks = 4096;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.nvram = &nvram;
  LogFileId b_id = kNoLogFileId;
  {
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(&media), &clock, options);
    ASSERT_TRUE(service.ok());
    ASSERT_OK(service.value()->CreateLogFile("/a").status());
    ASSERT_OK_AND_ASSIGN(b_id, service.value()->CreateLogFile("/b"));
    WriteOptions opts;
    opts.extra_memberships = {b_id};
    opts.force = true;  // staged to NVRAM, not burned
    ASSERT_OK(service.value()->Append("/a", AsBytes("staged"), opts)
                  .status());
  }
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       LogService::Recover(std::move(devices), &clock,
                                           options, nullptr));
  EXPECT_EQ(ReadAll(recovered.get(), "/b"),
            (std::vector<std::string>{"staged"}));
}

TEST(MultiMembership, ValidationRejectsBadExtras) {
  auto fx = ServiceFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  WriteOptions opts;
  opts.extra_memberships = {kCatalogLogId};
  EXPECT_EQ(fx.service->Append("/a", AsBytes("x"), opts).status().code(),
            StatusCode::kPermissionDenied);
  opts.extra_memberships = {static_cast<LogFileId>(999)};
  EXPECT_EQ(fx.service->Append("/a", AsBytes("x"), opts).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace clio
