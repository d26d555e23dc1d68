// Atomic regular-file update via log-file recovery — the paper's §6
// stated future work, implemented in src/apps/atomic_update.*.
#include "src/apps/atomic_update.h"

#include <gtest/gtest.h>

#include "src/device/memory_rewritable_device.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::ServiceFixture;

struct Rig {
  ServiceFixture fx = ServiceFixture::Make();
  MemoryRewritableDevice disk{1024, 1 << 14};
  BlockCache cache{256, disk.block_size()};
  std::unique_ptr<UnixFs> fs;

  Rig() {
    auto formatted = UnixFs::Format(&disk, &cache, 50, {});
    EXPECT_TRUE(formatted.ok());
    fs = std::move(formatted).value();
  }

  std::string ReadFile(const std::string& path) {
    auto inode = fs->Lookup(path);
    if (!inode.ok()) {
      return "(missing)";
    }
    auto stat = fs->StatInode(inode.value());
    Bytes out(stat.value().size);
    auto n = fs->Read(inode.value(), 0, out);
    EXPECT_TRUE(n.ok());
    return ToString(out);
  }
};

TEST(AtomicUpdate, SingleFileUpdateAppears) {
  Rig rig;
  ASSERT_OK_AND_ASSIGN(auto store,
                       AtomicFileStore::Create(rig.fx.service.get(),
                                               rig.fs.get()));
  ASSERT_OK(store->Update("/config", AsBytes("version=1")));
  EXPECT_EQ(rig.ReadFile("/config"), "version=1");
  ASSERT_OK(store->Update("/config", AsBytes("v2")));
  EXPECT_EQ(rig.ReadFile("/config"), "v2");  // replace, not append
}

TEST(AtomicUpdate, GroupUpdatesAllFiles) {
  Rig rig;
  ASSERT_OK_AND_ASSIGN(auto store,
                       AtomicFileStore::Create(rig.fx.service.get(),
                                               rig.fs.get()));
  std::vector<AtomicFileStore::FileUpdate> group(2);
  group[0].path = "/passwd";
  group[0].contents = ToBytes("root:0");
  group[1].path = "/shadow";
  group[1].contents = ToBytes("root:hash");
  ASSERT_OK(store->UpdateAtomically(group));
  EXPECT_EQ(rig.ReadFile("/passwd"), "root:0");
  EXPECT_EQ(rig.ReadFile("/shadow"), "root:hash");
}

TEST(AtomicUpdate, CrashBetweenIntentAndApplyIsRedone) {
  Rig rig;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         AtomicFileStore::Create(rig.fx.service.get(),
                                                 rig.fs.get()));
    ASSERT_OK(store->Update("/a", AsBytes("committed")));
    // Simulate the crash window: write ONLY the intent (forced), then die
    // before touching the file system. We reproduce that by appending the
    // intent record directly.
    std::vector<AtomicFileStore::FileUpdate> pending(2);
    pending[0].path = "/a";
    pending[0].contents = ToBytes("after-crash");
    pending[1].path = "/new-file";
    pending[1].contents = ToBytes("born in recovery");
    // Private encoding mirrored here via a second store round-trip: write
    // the intent through a scratch store, then "crash" before Apply by
    // using the log directly.
    Bytes intent;
    ByteWriter w(&intent);
    w.PutU8(1);  // kOpIntent
    w.PutU64(99);
    w.PutU16(2);
    for (const auto& u : pending) {
      w.PutString(u.path);
      w.PutU32(static_cast<uint32_t>(u.contents.size()));
      w.PutBytes(u.contents);
    }
    WriteOptions forced;
    forced.timestamped = true;
    forced.force = true;
    ASSERT_OK(rig.fx.service->Append("/fswal", intent, forced).status());
    // Crash: the store object vanishes; the files were never written.
  }
  EXPECT_EQ(rig.ReadFile("/new-file"), "(missing)");

  ASSERT_OK_AND_ASSIGN(auto recovered,
                       AtomicFileStore::Recover(rig.fx.service.get(),
                                                rig.fs.get()));
  EXPECT_EQ(recovered->redo_count(), 1u);
  EXPECT_EQ(rig.ReadFile("/a"), "after-crash");
  EXPECT_EQ(rig.ReadFile("/new-file"), "born in recovery");
}

TEST(AtomicUpdate, CompletedGroupsAreNotRedone) {
  Rig rig;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         AtomicFileStore::Create(rig.fx.service.get(),
                                                 rig.fs.get()));
    ASSERT_OK(store->Update("/x", AsBytes("one")));
    ASSERT_OK(store->Update("/x", AsBytes("two")));
  }
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       AtomicFileStore::Recover(rig.fx.service.get(),
                                                rig.fs.get()));
  EXPECT_EQ(recovered->redo_count(), 0u);
  EXPECT_EQ(rig.ReadFile("/x"), "two");
}

TEST(AtomicUpdate, RedoIsIdempotentAfterPartialApply) {
  Rig rig;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         AtomicFileStore::Create(rig.fx.service.get(),
                                                 rig.fs.get()));
    // Intent for two files, but "crash" after applying only the first:
    Bytes intent;
    ByteWriter w(&intent);
    w.PutU8(1);
    w.PutU64(7);
    w.PutU16(2);
    w.PutString("/p");
    w.PutU32(5);
    w.PutBytes(AsBytes("PPPPP"));
    w.PutString("/q");
    w.PutU32(1);
    w.PutBytes(AsBytes("Q"));
    WriteOptions forced;
    forced.timestamped = true;
    forced.force = true;
    ASSERT_OK(rig.fx.service->Append("/fswal", intent, forced).status());
    // Partial apply: /p got written (with stale longer content first to
    // test truncate-on-redo), /q did not.
    ASSERT_OK_AND_ASSIGN(uint32_t ino, rig.fs->CreateFile("/p"));
    ASSERT_OK(rig.fs->Write(ino, 0, AsBytes("PPPPP-and-stale-junk")));
  }
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       AtomicFileStore::Recover(rig.fx.service.get(),
                                                rig.fs.get()));
  EXPECT_EQ(recovered->redo_count(), 1u);
  EXPECT_EQ(rig.ReadFile("/p"), "PPPPP");  // stale tail truncated by redo
  EXPECT_EQ(rig.ReadFile("/q"), "Q");
}

}  // namespace
}  // namespace clio
