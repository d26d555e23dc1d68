// Entrymap unit tests: geometry arithmetic, bitmap payload codec and the
// accumulator (paper §2.1, Figure 2).
#include "src/clio/entrymap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.h"
#include "tests/test_util.h"

namespace clio {
namespace {

TEST(Geometry, PowersAndLevels) {
  EntrymapGeometry geometry(16, 1 << 20);
  EXPECT_EQ(geometry.degree(), 16);
  EXPECT_EQ(geometry.PowN(0), 1u);
  EXPECT_EQ(geometry.PowN(1), 16u);
  EXPECT_EQ(geometry.PowN(2), 256u);
  // 16^5 = 2^20 == capacity, so 5 levels.
  EXPECT_EQ(geometry.max_level(), 5);
  EXPECT_EQ(geometry.bitmap_bytes(), 2u);
}

TEST(Geometry, TinyDegreeBitmapBytes) {
  EntrymapGeometry geometry(4, 1 << 10);
  EXPECT_EQ(geometry.bitmap_bytes(), 1u);  // ceil(4/8)
}

TEST(Geometry, HomeDetection) {
  EntrymapGeometry geometry(16, 1 << 20);
  EXPECT_EQ(geometry.HomeLevel(0), 0);
  EXPECT_EQ(geometry.HomeLevel(5), 0);
  EXPECT_EQ(geometry.HomeLevel(16), 1);
  EXPECT_EQ(geometry.HomeLevel(32), 1);
  EXPECT_EQ(geometry.HomeLevel(256), 2);
  EXPECT_EQ(geometry.HomeLevel(4096), 3);
  EXPECT_TRUE(geometry.IsHome(256, 1));
  EXPECT_TRUE(geometry.IsHome(256, 2));
  EXPECT_FALSE(geometry.IsHome(256, 3));
}

TEST(Geometry, HomeForAndGroups) {
  EntrymapGeometry geometry(16, 1 << 20);
  // Block 100's level-1 group is [96, 112), homed at 112.
  EXPECT_EQ(geometry.HomeFor(100, 1), 112u);
  EXPECT_EQ(geometry.GroupStart(112, 1), 96u);
  EXPECT_EQ(geometry.SubgroupOf(100, 1), 4u);  // (100 % 16) / 1
  // Level 2: group [0, 256) homed at 256; 100 is in subgroup 6.
  EXPECT_EQ(geometry.HomeFor(100, 2), 256u);
  EXPECT_EQ(geometry.SubgroupOf(100, 2), 6u);
}

TEST(Payload, EncodeDecodeRoundTrip) {
  EntrymapPayload payload;
  payload.level = 2;
  payload.home_block = 512;
  payload.files.push_back({7, Bytes{std::byte{0xA5}, std::byte{0x01}}});
  payload.files.push_back({9, Bytes{std::byte{0x00}, std::byte{0x80}}});
  ASSERT_OK_AND_ASSIGN(EntrymapPayload decoded,
                       EntrymapPayload::Decode(payload.Encode(), 2));
  EXPECT_EQ(decoded.level, 2);
  EXPECT_EQ(decoded.home_block, 512u);
  ASSERT_EQ(decoded.files.size(), 2u);
  EXPECT_EQ(decoded.files[0].id, 7);
  EXPECT_EQ(decoded.files[1].id, 9);
  EXPECT_TRUE(EntrymapPayload::TestBit(decoded.files[0].bitmap, 0));
  EXPECT_FALSE(EntrymapPayload::TestBit(decoded.files[0].bitmap, 1));
  EXPECT_TRUE(EntrymapPayload::TestBit(decoded.files[1].bitmap, 15));
}

TEST(Payload, DecodeRejectsTruncation) {
  EntrymapPayload payload;
  payload.level = 1;
  payload.home_block = 16;
  payload.files.push_back({7, Bytes(2, std::byte{0xFF})});
  Bytes encoded = payload.Encode();
  encoded.resize(encoded.size() - 1);
  EXPECT_EQ(EntrymapPayload::Decode(encoded, 2).status().code(),
            StatusCode::kCorrupt);
}

TEST(Payload, BitScans) {
  Bytes bitmap{std::byte{0b00100100}, std::byte{0}};
  EXPECT_EQ(EntrymapPayload::HighestSetBelow(bitmap, 16), 5u);
  EXPECT_EQ(EntrymapPayload::HighestSetBelow(bitmap, 5), 2u);
  EXPECT_EQ(EntrymapPayload::HighestSetBelow(bitmap, 2), std::nullopt);
  EXPECT_EQ(EntrymapPayload::LowestSetFrom(bitmap, 0, 16), 2u);
  EXPECT_EQ(EntrymapPayload::LowestSetFrom(bitmap, 3, 16), 5u);
  EXPECT_EQ(EntrymapPayload::LowestSetFrom(bitmap, 6, 16), std::nullopt);
}

TEST(Accumulator, MarkSetsAllLevelsKeyedByHome) {
  EntrymapGeometry geometry(16, 1 << 20);
  EntrymapAccumulator acc(&geometry);
  LogFileId ids[] = {7};
  acc.Mark(100, ids);
  // Block 100: level-1 group homed at 112, bit 4; level-2 group homed at
  // 256, bit 6; level-3 group homed at 4096, bit 0.
  EXPECT_TRUE(EntrymapPayload::TestBit(acc.BitmapOf(1, 112, 7), 4));
  EXPECT_TRUE(EntrymapPayload::TestBit(acc.BitmapOf(2, 256, 7), 6));
  EXPECT_TRUE(EntrymapPayload::TestBit(acc.BitmapOf(3, 4096, 7), 0));
  // Other homes hold nothing.
  EXPECT_TRUE(acc.BitmapOf(1, 128, 7).empty());
}

TEST(Accumulator, UntrackedIdsIgnored) {
  EntrymapGeometry geometry(16, 1 << 20);
  EntrymapAccumulator acc(&geometry);
  LogFileId ids[] = {kVolumeSeqLogId, kEntrymapLogId, 7};
  acc.Mark(5, ids);
  EXPECT_TRUE(acc.BitmapOf(1, 16, kVolumeSeqLogId).empty());
  EXPECT_TRUE(acc.BitmapOf(1, 16, kEntrymapLogId).empty());
  EXPECT_FALSE(acc.BitmapOf(1, 16, 7).empty());
}

TEST(Accumulator, TakeHarvestsAndClearsOneNode) {
  EntrymapGeometry geometry(16, 1 << 20);
  EntrymapAccumulator acc(&geometry);
  LogFileId seven[] = {7};
  LogFileId nine[] = {9};
  acc.Mark(3, seven);
  acc.Mark(5, nine);
  EntrymapPayload payload = acc.Take(1, 16);
  EXPECT_EQ(payload.level, 1);
  EXPECT_EQ(payload.home_block, 16u);
  ASSERT_EQ(payload.files.size(), 2u);
  EXPECT_TRUE(EntrymapPayload::TestBit(payload.Find(7)->bitmap, 3));
  EXPECT_TRUE(EntrymapPayload::TestBit(payload.Find(9)->bitmap, 5));
  // The level-1 node is consumed; the level-2 node is untouched.
  EXPECT_TRUE(acc.BitmapOf(1, 16, 7).empty());
  EXPECT_FALSE(acc.BitmapOf(2, 256, 7).empty());
}

TEST(Accumulator, AdjacentGroupsStayDisjoint) {
  // The fix the soak test forced: marks on either side of a home boundary
  // must never mix, even if no Take happens in between (a burn can skip
  // past a home block after a garbage write, section 2.3.2).
  EntrymapGeometry geometry(16, 1 << 20);
  EntrymapAccumulator acc(&geometry);
  LogFileId ids[] = {7};
  acc.Mark(15, ids);  // last block of group homed at 16
  acc.Mark(16, ids);  // first block of group homed at 32
  EntrymapPayload old_group = acc.Take(1, 16);
  ASSERT_EQ(old_group.files.size(), 1u);
  EXPECT_TRUE(EntrymapPayload::TestBit(old_group.files[0].bitmap, 15));
  EXPECT_FALSE(EntrymapPayload::TestBit(old_group.files[0].bitmap, 0));
  EntrymapPayload new_group = acc.Take(1, 32);
  ASSERT_EQ(new_group.files.size(), 1u);
  EXPECT_TRUE(EntrymapPayload::TestBit(new_group.files[0].bitmap, 0));
}

TEST(Accumulator, TakeOfQuietGroupIsEmpty) {
  EntrymapGeometry geometry(16, 1 << 20);
  EntrymapAccumulator acc(&geometry);
  EntrymapPayload payload = acc.Take(1, 16);
  EXPECT_TRUE(payload.files.empty());
}

TEST(Accumulator, MarkedIdsAndBitmapOf) {
  EntrymapGeometry geometry(16, 1 << 20);
  EntrymapAccumulator acc(&geometry);
  LogFileId ids[] = {4, 9};
  acc.Mark(2, ids);
  auto marked = acc.MarkedIds(1, 16);
  ASSERT_EQ(marked.size(), 2u);
  EXPECT_EQ(marked[0], 4);
  EXPECT_EQ(marked[1], 9);
  EXPECT_TRUE(EntrymapPayload::TestBit(acc.BitmapOf(1, 16, 4), 2));
  EXPECT_TRUE(acc.BitmapOf(1, 16, 99).empty());
  EXPECT_TRUE(acc.MarkedIds(1, 32).empty());
}

// Mark resolves each level's node once for all ids; it must leave exactly
// the state of the per-(level, id) SetBit loop it replaces — the same
// pending nodes (none created by untracked ids alone) and the same
// harvested payload bytes.
TEST(Accumulator, MarkMatchesThePerIdReference) {
  EntrymapGeometry geometry(8, 1 << 12);
  EntrymapAccumulator fast(&geometry);
  EntrymapAccumulator reference(&geometry);
  Rng rng(0xACC);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t block = rng.Range(1, 1200);
    std::vector<LogFileId> ids;
    const size_t n = rng.Below(6);
    for (size_t k = 0; k < n; ++k) {
      // Ids 0 and 1 are untracked; some calls carry only those.
      ids.push_back(static_cast<LogFileId>(rng.Below(40)));
    }
    fast.Mark(block, ids);
    for (int level = 1; level <= geometry.max_level(); ++level) {
      for (LogFileId id : ids) {
        if (EntrymapTracks(id)) {
          reference.SetBit(level, geometry.HomeFor(block, level), id,
                           geometry.SubgroupOf(block, level));
        }
      }
    }
  }
  // Groups that see only untracked ids, or no ids, get no node.
  const LogFileId untracked[] = {kVolumeSeqLogId, kEntrymapLogId};
  fast.Mark(3000, untracked);
  fast.Mark(3500, {});
  auto encoded = [](const EntrymapAccumulator& acc) {
    Bytes out;
    ByteWriter w(&out);
    for (const auto& node : acc.ExportPending()) {
      w.PutU8(static_cast<uint8_t>(node.level));
      w.PutU64(node.home);
      w.PutU16(static_cast<uint16_t>(node.files.size()));
      for (const auto& [id, bitmap] : node.files) {
        w.PutU16(id);
        w.PutBytes(bitmap);
      }
    }
    return out;
  };
  ASSERT_FALSE(fast.ExportPending().empty());
  EXPECT_EQ(encoded(fast), encoded(reference));
  for (const auto& node : reference.ExportPending()) {
    EXPECT_EQ(fast.Take(node.level, node.home).Encode(),
              reference.Take(node.level, node.home).Encode())
        << "level " << node.level << " home " << node.home;
  }
  EXPECT_TRUE(fast.ExportPending().empty());
}

// Mark merges a block's new ids into each node in one pass. Random id
// sets — wide, unsorted, with repeats, untracked ids and ids past the
// catalog's range — over blocks in burn order, with harvests and SetBit
// calls between them, must leave the bitmaps one insert per id leaves.
TEST(Accumulator, MergedMarksMatchOneByOneInserts) {
  EntrymapGeometry geometry(16, 1 << 14);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EntrymapAccumulator merged(&geometry);
    EntrymapAccumulator reference(&geometry);
    Rng rng(seed);
    auto pending = [](const EntrymapAccumulator& acc) {
      Bytes out;
      ByteWriter w(&out);
      for (const auto& node : acc.ExportPending()) {
        w.PutU8(static_cast<uint8_t>(node.level));
        w.PutU64(node.home);
        for (const auto& [id, bitmap] : node.files) {
          w.PutU16(id);
          w.PutBytes(bitmap);
        }
      }
      return out;
    };
    for (uint64_t block = 1; block < 3000; ++block) {
      std::vector<LogFileId> ids;
      const size_t n = rng.Below(25);
      for (size_t k = 0; k < n; ++k) {
        LogFileId id = static_cast<LogFileId>(rng.Below(300));
        if (rng.Chance(1, 40)) {
          id = static_cast<LogFileId>(kMaxLogFileId + 1 + rng.Below(50));
        }
        ids.push_back(id);
      }
      if (rng.Chance(1, 2)) {
        std::sort(ids.begin(), ids.end());
      }
      merged.Mark(block, ids);
      for (int level = 1; level <= geometry.max_level(); ++level) {
        for (LogFileId id : ids) {
          if (EntrymapTracks(id)) {
            reference.SetBit(level, geometry.HomeFor(block, level), id,
                             geometry.SubgroupOf(block, level));
          }
        }
      }
      if (rng.Chance(1, 50)) {  // a fold from below, as recovery does
        const int level = static_cast<int>(rng.Range(1, geometry.max_level()));
        const LogFileId id = static_cast<LogFileId>(rng.Below(300));
        const uint64_t home = geometry.HomeFor(block, level);
        const uint32_t bit = geometry.SubgroupOf(block, level);
        merged.SetBit(level, home, id, bit);
        reference.SetBit(level, home, id, bit);
      }
      // Harvest each level-1 node as its group closes.
      const uint64_t degree = geometry.degree();
      if (block % degree == degree - 1) {
        const uint64_t home = geometry.HomeFor(block, 1);
        ASSERT_EQ(merged.Take(1, home).Encode(),
                  reference.Take(1, home).Encode())
            << "block " << block;
      }
      if (block % 97 == 0) {
        ASSERT_EQ(pending(merged), pending(reference)) << "block " << block;
      }
    }
    EXPECT_EQ(pending(merged), pending(reference));
  }
}

TEST(Tracks, ExclusionsMatchPaperFootnote) {
  // Footnote 6: the volume sequence log and the entrymap log itself are
  // not tracked; the catalog and bad-block logs are.
  EXPECT_FALSE(EntrymapTracks(kVolumeSeqLogId));
  EXPECT_FALSE(EntrymapTracks(kEntrymapLogId));
  EXPECT_TRUE(EntrymapTracks(kCatalogLogId));
  EXPECT_TRUE(EntrymapTracks(kBadBlockLogId));
  EXPECT_TRUE(EntrymapTracks(kFirstClientLogId));
}

}  // namespace
}  // namespace clio
