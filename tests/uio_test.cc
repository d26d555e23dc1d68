// Uniform I/O tests: log files and conventional files behind one interface
// (paper §6: "log files fit naturally into the abstraction provided by
// conventional file systems").
#include "src/uio/uio.h"

#include <gtest/gtest.h>

#include "src/device/memory_rewritable_device.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::ServiceFixture;

struct UioRig {
  ServiceFixture fx = ServiceFixture::Make();
  MemoryRewritableDevice disk{1024, 1 << 14};
  BlockCache cache{256, disk.block_size()};
  std::unique_ptr<UnixFs> fs;
  UioNamespace ns;

  UioRig() {
    auto formatted = UnixFs::Format(&disk, &cache, 99, {});
    EXPECT_TRUE(formatted.ok());
    fs = std::move(formatted).value();
    ns.MountLogService("/logs", fx.service.get());
    ns.MountUnixFs("/files", fs.get());
  }
};

TEST(Uio, RoutesToCorrectMount) {
  UioRig rig;
  ASSERT_OK_AND_ASSIGN(auto log_file, rig.ns.Open("/logs/audit", true));
  ASSERT_OK_AND_ASSIGN(auto unix_file, rig.ns.Open("/files/etc", true));
  EXPECT_TRUE(log_file->append_only());
  EXPECT_FALSE(unix_file->append_only());
  EXPECT_EQ(rig.ns.Open("/elsewhere/x").status().code(),
            StatusCode::kNotFound);
}

TEST(Uio, SameCodeReadsBothKinds) {
  UioRig rig;
  // Write through the uniform interface...
  for (const char* path : {"/logs/shared", "/files/shared"}) {
    ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open(path, true));
    ASSERT_OK(file->Write(AsBytes("identical content")).status());
  }
  // ...and read back through it, with the same loop for both.
  for (const char* path : {"/logs/shared", "/files/shared"}) {
    ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open(path));
    ASSERT_OK(file->Seek(UioFile::Whence::kStart));
    ASSERT_OK_AND_ASSIGN(Bytes data, file->Read());
    EXPECT_EQ(ToString(data), "identical content") << path;
  }
}

TEST(Uio, LogFileReadsAreRecordOriented) {
  UioRig rig;
  ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open("/logs/records", true));
  ASSERT_OK(file->Write(AsBytes("first")).status());
  ASSERT_OK(file->Write(AsBytes("second")).status());
  ASSERT_OK(file->Seek(UioFile::Whence::kStart));
  ASSERT_OK_AND_ASSIGN(Bytes a, file->Read());
  ASSERT_OK_AND_ASSIGN(Bytes b, file->Read());
  ASSERT_OK_AND_ASSIGN(Bytes end, file->Read());
  EXPECT_EQ(ToString(a), "first");
  EXPECT_EQ(ToString(b), "second");
  EXPECT_TRUE(end.empty());
}

TEST(Uio, LogFileSupportsTimeSeek) {
  UioRig rig;
  ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open("/logs/timed", true));
  ASSERT_OK(file->Write(AsBytes("old")).status());
  Timestamp cut = rig.fx.clock->Now() + 1;
  rig.fx.clock->Advance(1000);
  ASSERT_OK(file->Write(AsBytes("new")).status());
  ASSERT_OK(file->Seek(UioFile::Whence::kTime, cut));
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read());
  EXPECT_EQ(ToString(data), "new");
}

TEST(Uio, ConventionalFileRejectsTimeSeek) {
  UioRig rig;
  ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open("/files/plain", true));
  EXPECT_EQ(file->Seek(UioFile::Whence::kTime, 123).code(),
            StatusCode::kUnimplemented);
}

TEST(Uio, ConventionalFileSeeksAndOverwrites) {
  UioRig rig;
  ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open("/files/rw", true));
  ASSERT_OK(file->Write(AsBytes("aaaa")).status());
  ASSERT_OK(file->Seek(UioFile::Whence::kStart, 1));
  ASSERT_OK(file->Write(AsBytes("bb")).status());
  ASSERT_OK(file->Seek(UioFile::Whence::kStart));
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read());
  EXPECT_EQ(ToString(data), "abba");
}

TEST(Uio, LongestPrefixWins) {
  UioRig rig;
  // A nested log mount shadows the file mount below it.
  rig.ns.MountLogService("/files/journal", rig.fx.service.get());
  ASSERT_OK_AND_ASSIGN(auto file, rig.ns.Open("/files/journal/x", true));
  EXPECT_TRUE(file->append_only());
}

}  // namespace
}  // namespace clio
