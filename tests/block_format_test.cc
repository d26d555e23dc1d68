#include "src/clio/block_format.h"

#include <gtest/gtest.h>

#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace clio {
namespace {

BlockImage Shared(const Bytes& b) { return BlockImage::Copy(b); }

TEST(BlockBuilder, EmptyBlockRoundTrips) {
  BlockBuilder builder(512);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed, ParsedBlock::Parse(
      Shared(builder.Finish())));
  EXPECT_TRUE(parsed.entries().empty());
  EXPECT_EQ(parsed.flags(), 0);
}

TEST(BlockBuilder, SingleCompactEntryRoundTrips) {
  BlockBuilder builder(512);
  Bytes payload = ToBytes("hello log");
  builder.AddEntry(HeaderVersion::kCompact, 42, payload);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  ASSERT_EQ(parsed.entries().size(), 1u);
  const ParsedEntry& e = parsed.entries()[0];
  EXPECT_EQ(e.logfile_id, 42);
  EXPECT_EQ(e.version, HeaderVersion::kCompact);
  EXPECT_FALSE(e.timestamp.has_value());
  EXPECT_EQ(ToString(e.payload), "hello log");
}

TEST(BlockBuilder, TimestampedEntryCarriesTimestamp) {
  BlockBuilder builder(512);
  builder.AddEntry(HeaderVersion::kTimestamped, 7, ToBytes("x"), 123456789);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_EQ(parsed.entries()[0].timestamp, 123456789);
  EXPECT_EQ(parsed.FirstTimestamp(), 123456789);
}

TEST(BlockBuilder, CompleteHeaderCarriesClientSequence) {
  BlockBuilder builder(512);
  builder.AddEntry(HeaderVersion::kComplete, 9, ToBytes("abc"), 55, 0xDEAD);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_EQ(parsed.entries()[0].client_sequence, 0xDEADu);
  EXPECT_EQ(parsed.entries()[0].timestamp, 55);
}

TEST(BlockBuilder, FragmentHeaderCarriesBaseTimestamp) {
  BlockBuilder builder(512);
  builder.AddEntry(HeaderVersion::kFragment, 3, ToBytes("tail"), 99);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_TRUE(parsed.entries()[0].is_fragment());
  EXPECT_EQ(parsed.entries()[0].timestamp, 99);
  EXPECT_TRUE(parsed.first_entry_is_fragment());
}

TEST(BlockBuilder, ManyEntriesPreserveOrderAndPayloads) {
  BlockBuilder builder(1024);
  Rng rng(1);
  std::vector<Bytes> payloads;
  int count = 0;
  while (true) {
    Bytes payload = testing::RandomPayload(&rng, 10 + rng.Below(30));
    HeaderVersion v = count == 0 ? HeaderVersion::kTimestamped
                                 : HeaderVersion::kCompact;
    if (builder.PayloadCapacity(v) < payload.size()) {
      break;
    }
    builder.AddEntry(v, static_cast<LogFileId>(4 + count % 5), payload,
                     1000 + count);
    payloads.push_back(payload);
    ++count;
  }
  ASSERT_GT(count, 10);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  ASSERT_EQ(parsed.entries().size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(ToString(parsed.entries()[i].payload),
              ToString(payloads[i])) << "entry " << i;
    EXPECT_EQ(parsed.entries()[i].logfile_id, 4 + i % 5);
  }
}

TEST(BlockBuilder, PayloadCapacityShrinksWithEachEntry) {
  BlockBuilder builder(512);
  uint32_t before = builder.PayloadCapacity(HeaderVersion::kCompact);
  builder.AddEntry(HeaderVersion::kTimestamped, 4, ToBytes("0123456789"), 1);
  uint32_t after = builder.PayloadCapacity(HeaderVersion::kCompact);
  // 10 payload + 10 header + 2 size slot consumed.
  EXPECT_EQ(before - after, 22u);
}

TEST(BlockBuilder, FillsToExactCapacity) {
  BlockBuilder builder(256);
  uint32_t cap = builder.PayloadCapacity(HeaderVersion::kTimestamped);
  Bytes payload(cap, std::byte{0x5A});
  builder.AddEntry(HeaderVersion::kTimestamped, 4, payload, 1);
  EXPECT_EQ(builder.free_bytes(), 0u);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  EXPECT_EQ(parsed.entries()[0].payload.size(), cap);
}

TEST(ParsedBlock, RejectsCorruptBlock) {
  BlockBuilder builder(512);
  builder.AddEntry(HeaderVersion::kTimestamped, 4, ToBytes("data"), 1);
  Bytes image = builder.Finish();
  image[5] ^= std::byte{0xFF};
  auto parsed = ParsedBlock::Parse(Shared(std::move(image)));
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
}

TEST(ParsedBlock, RecognizesInvalidatedBlock) {
  Bytes ones(512, std::byte{0xFF});
  auto parsed = ParsedBlock::Parse(Shared(std::move(ones)));
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidated);
}

TEST(ParsedBlock, RejectsGarbage) {
  Rng rng(7);
  Bytes garbage(512);
  for (auto& b : garbage) {
    b = static_cast<std::byte>(rng.Below(256));
  }
  auto parsed = ParsedBlock::Parse(Shared(std::move(garbage)));
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
}

TEST(ParsedBlock, FlagsRoundTrip) {
  BlockBuilder builder(512);
  builder.AddEntry(HeaderVersion::kTimestamped, 4, ToBytes("x"), 1);
  builder.SetFlags(kFlagLastEntryContinues | kFlagVolumeSealed);
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  EXPECT_TRUE(parsed.last_entry_continues());
  EXPECT_TRUE(parsed.volume_sealed());
  EXPECT_FALSE(parsed.entrymap_continues());
}

// The paper's size-index trick (Fig. 1): a block can be scanned backwards
// using only the trailer. Parse exposes offsets; verify they are the
// prefix sums of the stored sizes.
TEST(ParsedBlock, OffsetsMatchSizeIndex) {
  BlockBuilder builder(512);
  builder.AddEntry(HeaderVersion::kTimestamped, 4, ToBytes("aaaa"), 1);
  builder.AddEntry(HeaderVersion::kCompact, 5, ToBytes("bb"));
  builder.AddEntry(HeaderVersion::kCompact, 6, ToBytes("cccccc"));
  ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                       ParsedBlock::Parse(Shared(builder.Finish())));
  ASSERT_EQ(parsed.entries().size(), 3u);
  EXPECT_EQ(parsed.entries()[0].offset, 0u);
  EXPECT_EQ(parsed.entries()[0].record_size, 14u);  // 10 hdr + 4
  EXPECT_EQ(parsed.entries()[1].offset, 14u);
  EXPECT_EQ(parsed.entries()[1].record_size, 4u);   // 2 hdr + 2
  EXPECT_EQ(parsed.entries()[2].offset, 18u);
  EXPECT_EQ(parsed.entries()[2].record_size, 8u);   // 2 hdr + 6
}

TEST(Crc32c, KnownVector) {
  // CRC32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c(AsBytes("123456789")), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  auto data = ToBytes("the quick brown fox jumps over the lazy dog");
  uint32_t one_shot = Crc32c(data);
  uint32_t incremental = 0;
  incremental = Crc32cExtend(incremental,
                             std::span<const std::byte>(data).first(10));
  incremental = Crc32cExtend(incremental,
                             std::span<const std::byte>(data).subspan(10));
  EXPECT_EQ(one_shot, incremental);
}

}  // namespace
}  // namespace clio
