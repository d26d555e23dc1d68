// Hash-chain tests (DESIGN.md §15): v2 footers carry chain tags, the
// recovered head survives crashes, consistent forgeries (recomputed CRC)
// are caught by the chain walk, and single-entry inclusion proofs verify
// end to end — and reject every kind of tampering.
#include "src/clio/chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/clio/entrymap.h"
#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

// Rewrites `block` in place with one payload byte flipped and the CRC
// recomputed — a consistent forgery the per-block checksum cannot see.
// Returns false if the block has no payload byte to flip.
bool ForgePayloadByte(MemoryWormDevice* media, LogService* service,
                      uint64_t block) {
  OpStats op;
  auto parsed = service->current_volume()->GetBlock(block, &op);
  if (!parsed.ok()) {
    return false;
  }
  const ParsedEntry* victim = nullptr;
  for (const ParsedEntry& e : parsed->entries()) {
    if (!e.payload.empty()) {
      victim = &e;
      break;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  Bytes forged(parsed->image().begin(), parsed->image().end());
  size_t off = static_cast<size_t>(victim->payload.data() -
                                   parsed->image().data());
  forged[off] ^= std::byte{0x01};
  StoreU32(forged, forged.size() - 4,
           Crc32c(std::span<const std::byte>(forged.data(),
                                             forged.size() - 4)));
  media->Scribble(block, forged);
  service->cache().Erase({0, block});
  return true;
}

TEST(Chain, BurnedBlocksCarryTagsAndWalkToTheRecoveredHead) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(7);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(fx.service->Append("/a", RandomPayload(&rng, 80), forced)
                  .status());
  }
  LogVolume* volume = fx.service->current_volume();
  ASSERT_TRUE(volume->header().chained());
  uint64_t acc = volume->chain_seed();
  uint64_t blocks_walked = 0;
  for (uint64_t b = 1; b < volume->end_block(); ++b) {
    OpStats op;
    auto parsed = volume->GetBlock(b, &op);
    ASSERT_OK(parsed.status());
    ASSERT_TRUE(parsed->chain_tag().has_value());
    EXPECT_EQ(*parsed->chain_tag(), acc) << "block " << b;
    acc = AdvanceChainTag(*parsed->chain_tag(), ChainBlockCommit(*parsed));
    ++blocks_walked;
  }
  EXPECT_GT(blocks_walked, 10u);
  ASSERT_TRUE(volume->chain_head_tag().has_value());
  EXPECT_EQ(acc, *volume->chain_head_tag());
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyVolume(volume));
  EXPECT_TRUE(report.clean()) << (report.chain_mismatches.empty()
                                      ? "?"
                                      : report.chain_mismatches[0]);
}

TEST(Chain, HeadTagSurvivesCrashAndReopen) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  uint64_t head_before = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                           options));
    ASSERT_OK(service->CreateLogFile("/a").status());
    Rng rng(8);
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK(
          service->Append("/a", RandomPayload(&rng, 90), forced).status());
    }
    ASSERT_TRUE(service->current_volume()->chain_head_tag().has_value());
    head_before = *service->current_volume()->chain_head_tag();
  }  // crash: the service dies, the media survives
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, &report));
  ASSERT_TRUE(service->current_volume()->chain_head_tag().has_value());
  EXPECT_EQ(*service->current_volume()->chain_head_tag(), head_before);
  // The O(1) recovered head must agree with the full from-seed walk.
  ASSERT_OK_AND_ASSIGN(VerifyReport verified,
                       VerifyVolume(service->current_volume()));
  EXPECT_TRUE(verified.clean()) << (verified.chain_mismatches.empty()
                                        ? "?"
                                        : verified.chain_mismatches[0]);
}

TEST(Chain, ConsistentForgeryIsCaughtByTheChainWalk) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                         options));
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(9);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(
        service->Append("/a", RandomPayload(&rng, 80), forced).status());
  }
  // Forge a mid-volume block: flip a payload byte and recompute the CRC,
  // so the block still parses. Pick one with at least two valid
  // successors so a later stored tag can convict it.
  uint64_t end = service->current_volume()->end_block();
  ASSERT_GT(end, 8u);
  uint64_t victim = 0;
  for (uint64_t b = 3; b + 3 < end; ++b) {
    if (ForgePayloadByte(&media, service.get(), b)) {
      victim = b;
      break;
    }
  }
  ASSERT_GT(victim, 0u) << "no forgeable block found";
  // The forged block itself still parses — the CRC is valid again.
  OpStats op;
  ASSERT_OK(service->current_volume()->GetBlock(victim, &op).status());
  // But the chain walk sees the forged commit break a successor's tag.
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(service->current_volume()));
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.blocks_corrupt, 0u);
  EXPECT_FALSE(report.chain_mismatches.empty());
}

TEST(Chain, InclusionProofVerifiesAndRoundTrips) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(10);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  Timestamp proven_t = 0;
  Bytes proven_payload;
  for (int i = 0; i < 50; ++i) {
    Bytes payload = RandomPayload(&rng, 70);
    ASSERT_OK_AND_ASSIGN(AppendResult r,
                         fx.service->Append("/a", payload, stamped));
    if (i == 20) {
      proven_t = r.timestamp;
      proven_payload = payload;
    }
  }
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       fx.service->BuildChainProof("/a", proven_t));
  ASSERT_OK_AND_ASSIGN(ParsedEntry entry, proof.Verify());
  ASSERT_TRUE(entry.timestamp.has_value());
  EXPECT_EQ(*entry.timestamp, proven_t);
  EXPECT_EQ(Bytes(entry.payload.begin(), entry.payload.end()),
            proven_payload);
  EXPECT_GT(proof.links.size(), 0u);

  // Wire round trip preserves verifiability.
  Bytes wire;
  ByteWriter w(&wire);
  proof.EncodeTo(w);
  ByteReader r(wire);
  ASSERT_OK_AND_ASSIGN(ChainProof decoded, ChainProof::DecodeFrom(r));
  EXPECT_OK(decoded.Verify().status());
  EXPECT_EQ(decoded.head_tag, proof.head_tag);
  EXPECT_EQ(decoded.links.size(), proof.links.size());
}

// A block whose read fails transiently is no verdict on the chain: the
// proof across it fails with kUnavailable, and once the fault has passed
// the same proof builds and verifies.
TEST(Chain, ProofAcrossATransientReadIsUnavailableThenBuilds) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  auto device = std::make_unique<testing::FlakyBlockDevice>(&media);
  testing::FlakyBlockDevice* flaky = device.get();
  ASSERT_OK_AND_ASSIGN(auto service,
                       LogService::Create(std::move(device), &clock, options));
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(12);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  Timestamp proven_t = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        service->Append("/a", RandomPayload(&rng, 70), stamped));
    if (i == 5) {
      proven_t = r.timestamp;
    }
  }
  const uint64_t flaky_block = service->current_volume()->end_block() - 3;
  service->cache().Erase({0, flaky_block});
  flaky->FailReads(flaky_block, 1);
  EXPECT_EQ(service->BuildChainProof("/a", proven_t).status().code(),
            StatusCode::kUnavailable);
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       service->BuildChainProof("/a", proven_t));
  EXPECT_LT(proof.block, flaky_block);
  EXPECT_OK(proof.Verify().status());
}

// A proof walk that ends in skipped blocks has no later stored tag to show
// that a valid block was lost there: it checks the writer's head tag
// instead. With nothing staged, losing the newest burned block fails the
// proof with kCorrupt.
TEST(Chain, ProofEndingInALostBlockIsCorrupt) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                         options));
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(14);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  Timestamp proven_t = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        service->Append("/a", RandomPayload(&rng, 70), stamped));
    if (i == 5) {
      proven_t = r.timestamp;
    }
  }
  ASSERT_OK(service->BuildChainProof("/a", proven_t).status());
  LogVolume* volume = service->current_volume();
  ASSERT_EQ(volume->end_including_staged(), volume->end_block());
  const uint64_t newest = volume->end_block() - 1;
  media.Scribble(newest, Bytes(dev.block_size, std::byte{0x5A}));
  service->cache().Erase({0, newest});
  EXPECT_EQ(service->BuildChainProof("/a", proven_t).status().code(),
            StatusCode::kCorrupt);
}

TEST(Chain, TamperedProofsAreRejected) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(11);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  Timestamp proven_t = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        fx.service->Append("/a", RandomPayload(&rng, 70), stamped));
    if (i == 10) {
      proven_t = r.timestamp;
    }
  }
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       fx.service->BuildChainProof("/a", proven_t));
  ASSERT_OK(proof.Verify().status());

  {  // A doctored record byte no longer matches its listed hash.
    ChainProof p = proof;
    ASSERT_FALSE(p.record.empty());
    p.record.back() ^= std::byte{0x40};
    EXPECT_FALSE(p.Verify().ok());
  }
  {  // A doctored record hash breaks the reassembled block commit.
    ChainProof p = proof;
    ASSERT_FALSE(p.record_hashes.empty());
    p.record_hashes.front()[0] ^= std::byte{0x01};
    EXPECT_FALSE(p.Verify().ok());
  }
  {  // A doctored link breaks the walk to the head tag.
    ChainProof p = proof;
    if (!p.links.empty()) {
      p.links.front()[0] ^= std::byte{0x01};
      EXPECT_FALSE(p.Verify().ok());
    }
  }
  {  // A lying head tag is caught.
    ChainProof p = proof;
    p.head_tag ^= 1;
    EXPECT_FALSE(p.Verify().ok());
  }
  {  // An out-of-range entry index is rejected, not crashed on.
    ChainProof p = proof;
    p.entry_index = static_cast<uint32_t>(p.record_hashes.size());
    EXPECT_FALSE(p.Verify().ok());
  }
}

TEST(Chain, ProofDecodeSurvivesTruncationAndGarbage) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(12);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  ASSERT_OK_AND_ASSIGN(
      AppendResult r,
      fx.service->Append("/a", RandomPayload(&rng, 70), stamped));
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       fx.service->BuildChainProof("/a", r.timestamp));
  Bytes wire;
  ByteWriter w(&wire);
  proof.EncodeTo(w);
  // Every truncation either decodes to a garbage-but-bounded proof or
  // fails cleanly; none may crash or over-read.
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes cut(wire.begin(), wire.begin() + len);
    ByteReader reader(cut);
    auto decoded = ChainProof::DecodeFrom(reader);
    if (decoded.ok()) {
      (void)decoded->Verify();
    }
  }
  // Random corruption: decode + verify must never crash.
  for (int trial = 0; trial < 200; ++trial) {
    Bytes fuzzed = wire;
    size_t flips = 1 + rng.Below(4);
    for (size_t f = 0; f < flips; ++f) {
      fuzzed[rng.Below(fuzzed.size())] ^=
          static_cast<std::byte>(1u << rng.Below(8));
    }
    ByteReader reader(fuzzed);
    auto decoded = ChainProof::DecodeFrom(reader);
    if (decoded.ok()) {
      (void)decoded->Verify();
    }
  }
}

TEST(Chain, V1FootersStillParseUnchained) {
  // Compat: a v1 (12-byte-footer) block built without a chain tag parses,
  // reports no tag, and a v2 block round-trips its tag — the two flavours
  // coexist behind one Parse.
  BlockBuilder v1(512);
  v1.AddEntry(HeaderVersion::kTimestamped, 7,
              Bytes(20, std::byte{0x5A}), /*ts=*/42);
  auto v1_parsed = ParsedBlock::Parse(
      BlockImage::Copy(v1.Finish()));
  ASSERT_OK(v1_parsed.status());
  EXPECT_FALSE(v1_parsed->chain_tag().has_value());
  ASSERT_EQ(v1_parsed->entries().size(), 1u);

  BlockBuilder v2(512, /*chain_tag=*/0xDEADBEEFCAFEF00Dull);
  v2.AddEntry(HeaderVersion::kTimestamped, 7,
              Bytes(20, std::byte{0x5A}), /*ts=*/42);
  auto v2_parsed = ParsedBlock::Parse(
      BlockImage::Copy(v2.Finish()));
  ASSERT_OK(v2_parsed.status());
  ASSERT_TRUE(v2_parsed->chain_tag().has_value());
  EXPECT_EQ(*v2_parsed->chain_tag(), 0xDEADBEEFCAFEF00Dull);
}

// The writer hashes each burned block from its builder instead of
// re-parsing the image it just built; the two commits must agree byte for
// byte over every header shape, entrymap nodes, flags and fill level.
TEST(Chain, BuilderCommitMatchesTheParsedImage) {
  Rng rng(0xB111D);
  const uint32_t sizes[] = {kMinBlockSize, 256, 1024, 4096};
  int shapes_seen[6] = {};
  for (int trial = 0; trial < 400; ++trial) {
    const uint32_t block_size = sizes[rng.Below(4)];
    std::optional<uint64_t> tag;
    if (rng.Chance(3, 4)) {
      tag = rng.Next();
    }
    BlockBuilder builder(block_size, tag);
    const size_t target = rng.Below(40);
    for (size_t i = 0; i < target; ++i) {
      const int shape = static_cast<int>(rng.Below(6));
      HeaderVersion v = HeaderVersion::kCompact;
      LogFileId id = static_cast<LogFileId>(rng.Range(3, 300));
      std::vector<LogFileId> extras;
      std::optional<uint32_t> seq;
      Bytes payload;
      switch (shape) {
        case 0:
          break;
        case 1:
          v = HeaderVersion::kTimestamped;
          break;
        case 2:
          v = HeaderVersion::kComplete;
          seq = static_cast<uint32_t>(rng.Next());
          break;
        case 3:
          v = HeaderVersion::kFragment;
          break;
        case 4:
          v = HeaderVersion::kMulti;
          for (size_t k = rng.Range(1, 5); k > 0; --k) {
            extras.push_back(static_cast<LogFileId>(rng.Range(3, 300)));
          }
          break;
        case 5: {
          v = builder.empty() ? HeaderVersion::kTimestamped
                              : HeaderVersion::kCompact;
          id = kEntrymapLogId;
          EntrymapPayload node;
          node.level = static_cast<uint8_t>(rng.Range(1, 3));
          node.home_block = rng.Below(1 << 20);
          for (size_t k = rng.Below(4); k > 0; --k) {
            node.files.push_back({static_cast<LogFileId>(rng.Range(2, 300)),
                                  RandomPayload(&rng, 2)});
          }
          payload = node.Encode();
          break;
        }
      }
      const uint32_t cap = builder.PayloadCapacity(
          v, static_cast<uint32_t>(extras.size()));
      if (id != kEntrymapLogId) {
        payload =
            RandomPayload(&rng, rng.Below(std::min<uint32_t>(cap, 300) + 1));
      }
      if (cap == 0 || payload.size() > cap) {
        break;
      }
      builder.AddEntry(v, id, payload,
                       static_cast<Timestamp>(rng.Next() >> 1), seq, extras);
      ++shapes_seen[shape];
    }
    if (rng.Chance(1, 2)) {
      builder.SetFlags(static_cast<uint16_t>(rng.Below(16)));
    }
    ASSERT_OK_AND_ASSIGN(
        ParsedBlock parsed,
        ParsedBlock::Parse(BlockImage::Copy(builder.Finish())));
    ASSERT_EQ(ChainBlockCommit(builder), ChainBlockCommit(parsed))
        << "trial " << trial << ", " << builder.entry_count() << " entries";
  }
  for (int count : shapes_seen) {
    EXPECT_GT(count, 50);
  }
}

// Media golden image: a fixed, seeded workload on a SimulatedClock burns
// the same bytes on every build. The workload mixes sublogs, compact,
// timestamped, client-sequenced and multi-membership headers, fragments
// spilling across blocks, forced partial burns, and entrymap nodes up to
// level 3. The constants below were captured from a build that hashed
// each burned block by re-parsing its image, so a write path that
// computes the chain commit any other way must still burn identical
// blocks. A change here is a media format change.
TEST(Chain, BurnedImagesMatchTheGoldenCrc) {
  MemoryWormOptions dev;
  dev.block_size = 256;
  dev.capacity_blocks = 2048;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions service_options;
  service_options.entrymap_degree = 4;
  service_options.sequence_id = 0xC110C110;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                         service_options));
  const char* const paths[] = {"/a", "/a/s", "/a/s/t", "/b", "/c"};
  std::vector<LogFileId> ids;
  for (const char* path : paths) {
    ASSERT_OK_AND_ASSIGN(LogFileId id, service->CreateLogFile(path));
    ids.push_back(id);
  }
  Rng rng(0x601D);
  uint32_t sequence = 0;
  for (int i = 0; i < 700; ++i) {
    WriteOptions options;
    options.timestamped = rng.Chance(1, 3);
    if (rng.Chance(1, 8)) {
      options.client_sequence = ++sequence;
    }
    if (rng.Chance(1, 10)) {
      options.extra_memberships.push_back(ids[rng.Below(ids.size())]);
    }
    options.force = rng.Chance(1, 6);
    const size_t size =
        rng.Chance(1, 12) ? rng.Range(300, 700) : rng.Range(0, 120);
    ASSERT_OK(service
                  ->Append(ids[rng.Below(ids.size())],
                           RandomPayload(&rng, size), options)
                  .status());
  }
  ASSERT_OK(service->Force());

  LogVolume* volume = service->current_volume();
  int fragments = 0;
  int top_level = 0;
  uint32_t crc = 0;
  for (uint64_t b = 0; b < media.frontier(); ++b) {
    Bytes image(dev.block_size);
    ASSERT_OK(media.ReadBlock(b, image));
    // Leave out each image's own trailing CRC32C: extending a running CRC
    // over a message followed by its CRC lands on a fixed residue, which
    // would hide every byte before it.
    crc = Crc32cExtend(
        crc, std::span<const std::byte>(image).first(image.size() - 4));
    if (b == 0) {
      continue;
    }
    OpStats op;
    ASSERT_OK_AND_ASSIGN(ParsedBlock parsed, volume->GetBlock(b, &op));
    for (const ParsedEntry& e : parsed.entries()) {
      fragments += e.is_fragment();
      if (e.logfile_id == kEntrymapLogId) {
        ASSERT_OK_AND_ASSIGN(EntrymapPayload node,
                             EntrymapPayload::Decode(e.payload, 1));
        top_level = std::max<int>(top_level, node.level);
      }
    }
  }
  EXPECT_GT(fragments, 20);
  EXPECT_GE(top_level, 3);
  EXPECT_EQ(media.frontier(), 401u);
  EXPECT_EQ(crc, 0xF80F9621u);
}

}  // namespace
}  // namespace clio
