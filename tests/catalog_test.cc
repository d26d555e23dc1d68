// Catalog tests: the cached log-file descriptor table, sublog hierarchy,
// record codec and replay idempotence (paper §2.2).
#include "src/clio/catalog.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace clio {
namespace {

TEST(Catalog, ReservedLogFilesExist) {
  Catalog catalog;
  EXPECT_TRUE(catalog.Exists(kVolumeSeqLogId));
  EXPECT_TRUE(catalog.Exists(kEntrymapLogId));
  EXPECT_TRUE(catalog.Exists(kCatalogLogId));
  EXPECT_TRUE(catalog.Exists(kBadBlockLogId));
  ASSERT_OK_AND_ASSIGN(LogFileId root, catalog.Resolve("/"));
  EXPECT_EQ(root, kVolumeSeqLogId);
  ASSERT_OK_AND_ASSIGN(LogFileId entrymap, catalog.Resolve("/@entrymap"));
  EXPECT_EQ(entrymap, kEntrymapLogId);
}

TEST(Catalog, CreateAssignsSequentialIds) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(CatalogRecord a,
                       catalog.Create("a", kVolumeSeqLogId, 0644, 100));
  ASSERT_OK_AND_ASSIGN(CatalogRecord b,
                       catalog.Create("b", kVolumeSeqLogId, 0644, 101));
  EXPECT_EQ(a.subject, kFirstClientLogId);
  EXPECT_EQ(b.subject, kFirstClientLogId + 1);
  EXPECT_NE(a.unique_id, b.unique_id);
}

TEST(Catalog, ResolveWalksHierarchy) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(CatalogRecord mail,
                       catalog.Create("mail", kVolumeSeqLogId, 0644, 1));
  ASSERT_OK_AND_ASSIGN(CatalogRecord smith,
                       catalog.Create("smith", mail.subject, 0644, 2));
  ASSERT_OK_AND_ASSIGN(LogFileId resolved, catalog.Resolve("/mail/smith"));
  EXPECT_EQ(resolved, smith.subject);
  ASSERT_OK_AND_ASSIGN(std::string path, catalog.PathOf(smith.subject));
  EXPECT_EQ(path, "/mail/smith");
  EXPECT_EQ(catalog.Resolve("/mail/none").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.Resolve("mail").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Catalog, SelfAndAncestorsChains) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(CatalogRecord mail,
                       catalog.Create("mail", kVolumeSeqLogId, 0644, 1));
  ASSERT_OK_AND_ASSIGN(CatalogRecord smith,
                       catalog.Create("smith", mail.subject, 0644, 2));
  std::vector<LogFileId> chain;
  catalog.VisitSelfAndAncestors(smith.subject, [&](LogFileId id) {
    chain.push_back(id);
    return true;
  });
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], smith.subject);
  EXPECT_EQ(chain[1], mail.subject);
  EXPECT_EQ(chain[2], kVolumeSeqLogId);
  EXPECT_TRUE(catalog.IsWithin(smith.subject, mail.subject));
  EXPECT_TRUE(catalog.IsWithin(smith.subject, kVolumeSeqLogId));
  EXPECT_FALSE(catalog.IsWithin(mail.subject, smith.subject));
}

TEST(Catalog, RecordCodecRoundTrips) {
  CatalogRecord record;
  record.op = CatalogRecord::Op::kCreate;
  record.subject = 17;
  record.unique_id = 0xABCDEF;
  record.parent = 4;
  record.permissions = 0600;
  record.created_at = 123456;
  record.name = "audit-trail";
  ASSERT_OK_AND_ASSIGN(CatalogRecord decoded,
                       CatalogRecord::Decode(record.Encode()));
  EXPECT_EQ(decoded.subject, record.subject);
  EXPECT_EQ(decoded.unique_id, record.unique_id);
  EXPECT_EQ(decoded.parent, record.parent);
  EXPECT_EQ(decoded.permissions, record.permissions);
  EXPECT_EQ(decoded.created_at, record.created_at);
  EXPECT_EQ(decoded.name, record.name);
}

TEST(Catalog, ReplayRebuildsIdenticalState) {
  Catalog original;
  ASSERT_OK(original.Create("mail", kVolumeSeqLogId, 0644, 1).status());
  ASSERT_OK(original.Create("smith", kFirstClientLogId, 0600, 2).status());
  ASSERT_OK(original.SetPermissions(kFirstClientLogId, 0755).status());
  ASSERT_OK(original.Seal(kFirstClientLogId + 1).status());
  ASSERT_OK(original.Rename(kFirstClientLogId + 1, "smythe").status());

  Catalog replayed;
  for (const CatalogRecord& record : original.ExportRecords()) {
    ASSERT_OK(replayed.Apply(record));
  }
  // Note: ExportRecords snapshots final state; SetPermissions/Rename are
  // already folded in.
  ASSERT_OK_AND_ASSIGN(LogFileInfo mail, replayed.Info(kFirstClientLogId));
  EXPECT_EQ(mail.permissions, 0755u);
  ASSERT_OK_AND_ASSIGN(LogFileId smythe, replayed.Resolve("/mail/smythe"));
  ASSERT_OK_AND_ASSIGN(LogFileInfo info, replayed.Info(smythe));
  EXPECT_TRUE(info.sealed);
}

TEST(Catalog, ApplyIsIdempotent) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(CatalogRecord record,
                       catalog.Create("x", kVolumeSeqLogId, 0644, 1));
  ASSERT_OK(catalog.Apply(record));  // replay of the same create
  auto children = catalog.Children(kVolumeSeqLogId);
  // Reserved entries (@entrymap, @catalog, @badblocks) plus "x".
  EXPECT_EQ(children.size(), 4u);
}

TEST(Catalog, NameValidation) {
  Catalog catalog;
  EXPECT_EQ(catalog.Create("", kVolumeSeqLogId, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Create("a/b", kVolumeSeqLogId, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Create("@reserved", kVolumeSeqLogId, 0, 0)
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Catalog, RollbackRemovesCreate) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(CatalogRecord record,
                       catalog.Create("x", kVolumeSeqLogId, 0644, 1));
  catalog.RemoveForRollback(record.subject);
  EXPECT_FALSE(catalog.Exists(record.subject));
  EXPECT_EQ(catalog.Resolve("/x").status().code(), StatusCode::kNotFound);
  // The id is reusable afterwards.
  ASSERT_OK_AND_ASSIGN(CatalogRecord again,
                       catalog.Create("y", kVolumeSeqLogId, 0644, 2));
  EXPECT_EQ(again.subject, record.subject);
}

TEST(Catalog, IdExhaustionReportsNoSpace) {
  Catalog catalog;
  for (LogFileId i = kFirstClientLogId; i <= kMaxLogFileId; ++i) {
    ASSERT_OK(catalog
                  .Create("f" + std::to_string(i), kVolumeSeqLogId, 0644, i)
                  .status());
  }
  EXPECT_EQ(
      catalog.Create("straw", kVolumeSeqLogId, 0644, 0).status().code(),
      StatusCode::kNoSpace);
}

}  // namespace
}  // namespace clio
