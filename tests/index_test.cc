// Extent-index tests (DESIGN.md §17): unit coverage of the RAM index and
// checkpoint record, plus the two system-level invariants behind the fast
// locate path:
//
//  I1  equivalence: with the index enabled, every locate (PrevBlockWith,
//      NextBlockWith, timestamp search) returns exactly what the
//      entrymap/device walk returns on the same media;
//  I2  convergence: the index the writer maintained incrementally, the one
//      a recovery rebuilds by scan, and the one restored from a checkpoint
//      serialize byte-identically;
//  I3  planned reads: scans and seeks return exactly what they return with
//      the index off, while forward-scan readahead never reads past the
//      scanned file's last block in the window and a seek onto a block
//      without the file reads nothing (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/memory_worm_device.h"
#include "src/index/checkpoint.h"
#include "src/index/extent_index.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

// -- ExtentIndex unit tests --

TEST(ExtentIndex, RunsMergeAndAnswerPointLookups) {
  ExtentIndex idx;
  const LogFileId a = 7;
  const LogFileId b = 9;
  std::vector<LogFileId> both = {a, b};
  std::vector<LogFileId> only_a = {a};
  idx.MarkBlock(1, Timestamp{100}, only_a);
  idx.MarkBlock(2, Timestamp{200}, only_a);  // merges into [1,3)
  idx.MarkBlock(3, Timestamp{300}, both);
  idx.AdvanceCoveredEnd(5);  // 4 invalidated: nothing to index
  idx.MarkBlock(5, Timestamp{500}, only_a);
  ASSERT_EQ(idx.covered_end(), 6u);
  EXPECT_EQ(idx.run_count(), 3u);  // a: [1,4),[5,6); b: [3,4)

  auto next = idx.NextBlockWith(a, 1);
  ASSERT_TRUE(next.authoritative);
  EXPECT_EQ(next.block, 1u);
  next = idx.NextBlockWith(a, 4);
  ASSERT_TRUE(next.authoritative);
  EXPECT_EQ(next.block, 5u);
  next = idx.NextBlockWith(b, 4);
  ASSERT_TRUE(next.authoritative);
  EXPECT_FALSE(next.block.has_value());

  auto prev = idx.PrevBlockWith(b, 6);
  ASSERT_TRUE(prev.authoritative);
  EXPECT_EQ(prev.block, 3u);
  prev = idx.PrevBlockWith(b, 3);
  ASSERT_TRUE(prev.authoritative);
  EXPECT_FALSE(prev.block.has_value());
  prev = idx.PrevBlockWith(a, 6);
  ASSERT_TRUE(prev.authoritative);
  EXPECT_EQ(prev.block, 5u);
}

TEST(ExtentIndex, HolesMakeOverlappingQueriesNonAuthoritative) {
  ExtentIndex idx;
  const LogFileId a = 7;
  std::vector<LogFileId> ids = {a};
  idx.MarkBlock(1, Timestamp{100}, ids);
  idx.AddHole(2);  // unreadable
  idx.AdvanceCoveredEnd(3);
  idx.MarkBlock(3, Timestamp{300}, ids);

  // The hole could hide an occurrence between the marks.
  EXPECT_FALSE(idx.PrevBlockWith(a, 3).authoritative);
  EXPECT_FALSE(idx.NextBlockWith(a, 2).authoritative);
  // Queries fully on one side of the hole still rule.
  auto next = idx.NextBlockWith(a, 3);
  ASSERT_TRUE(next.authoritative);
  EXPECT_EQ(next.block, 3u);
  // Timestamp search gives up entirely in the presence of holes.
  EXPECT_FALSE(idx.LastBlockAtOrBefore(Timestamp{250}).authoritative);
}

// Runs hold 32-bit block numbers; a block past them is a hole, so the
// lookups it could answer fall back to the entrymap walk, and the index
// still serializes and restores.
TEST(ExtentIndex, BlocksPastThirtyTwoBitsBecomeHoles) {
  constexpr uint64_t kFar = uint64_t{1} << 32;
  const LogFileId a = 7;
  std::vector<LogFileId> ids = {a};
  ExtentIndex idx;
  idx.MarkBlock(1, Timestamp{100}, ids);
  idx.AdvanceCoveredEnd(kFar - 2);
  idx.MarkBlock(kFar - 2, Timestamp{200}, ids);  // the last block runs hold
  idx.MarkBlock(kFar + 5, Timestamp{300}, ids);
  EXPECT_EQ(idx.covered_end(), kFar + 6);
  EXPECT_EQ(idx.run_count(), 2u);
  EXPECT_EQ(idx.hole_count(), 1u);
  ExtentIndex::Lookup prev = idx.PrevBlockWith(a, kFar - 1);
  ASSERT_TRUE(prev.authoritative);
  EXPECT_EQ(prev.block, kFar - 2);
  EXPECT_FALSE(idx.PrevBlockWith(a, kFar + 6).authoritative);
  EXPECT_FALSE(idx.NextBlockWith(a, kFar - 1).authoritative);
  ASSERT_OK_AND_ASSIGN(ExtentIndex back,
                       ExtentIndex::Deserialize(idx.Serialize()));
  EXPECT_TRUE(back == idx);
}

TEST(ExtentIndex, TimestampSearchResolvesFragmentDips) {
  ExtentIndex idx;
  const LogFileId a = 7;
  std::vector<LogFileId> ids = {a};
  // Block 3 is fragment-led: its leading stamp is the base entry's (150),
  // dipping below block 2's 200. The last block leading <= t must still
  // be found on both sides of the dip.
  idx.MarkBlock(1, Timestamp{100}, ids);
  idx.MarkBlock(2, Timestamp{200}, ids);
  idx.MarkBlock(3, Timestamp{150}, ids);
  idx.MarkBlock(4, Timestamp{300}, ids);

  auto hit = idx.LastBlockAtOrBefore(Timestamp{120});
  ASSERT_TRUE(hit.authoritative);
  EXPECT_EQ(hit.block, 1u);
  hit = idx.LastBlockAtOrBefore(Timestamp{175});
  ASSERT_TRUE(hit.authoritative);
  EXPECT_EQ(hit.block, 3u);  // the dip block, not block 1
  hit = idx.LastBlockAtOrBefore(Timestamp{250});
  ASSERT_TRUE(hit.authoritative);
  EXPECT_EQ(hit.block, 3u);
  hit = idx.LastBlockAtOrBefore(Timestamp{300});
  ASSERT_TRUE(hit.authoritative);
  EXPECT_EQ(hit.block, 4u);
  hit = idx.LastBlockAtOrBefore(Timestamp{50});
  ASSERT_TRUE(hit.authoritative);
  EXPECT_FALSE(hit.block.has_value());
}

// Last block with a leading stamp <= t, by brute force over the marks.
std::optional<uint64_t> LastAtOrBeforeBrute(
    const std::vector<std::pair<uint64_t, Timestamp>>& stamps, Timestamp t) {
  std::optional<uint64_t> answer;
  for (const auto& [block, stamp] : stamps) {
    if (stamp <= t) {
      answer = block;
    }
  }
  return answer;
}

TEST(ExtentIndex, TimestampSearchMatchesBruteForceUnderClockRegressions) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ExtentIndex live;
    ExtentIndex restored;  // base + deltas, as a checkpoint restart builds
    std::vector<std::pair<uint64_t, Timestamp>> stamps;
    const std::vector<LogFileId> ids = {7};
    Timestamp clock = 1000;
    uint64_t block = 1;
    uint64_t checkpointed = 1;
    for (int i = 0; i < 600; ++i, ++block) {
      clock += static_cast<Timestamp>(rng.Below(50));
      Timestamp stamp = clock;
      switch (rng.Below(10)) {
        case 0:  // a fragment-led block dips to an earlier base stamp
          stamp = clock - static_cast<Timestamp>(rng.Below(400));
          break;
        case 1:  // the clock itself steps back
          clock -= static_cast<Timestamp>(rng.Below(300));
          stamp = clock;
          break;
        case 2:  // an unstamped (defensive-parse) block
          live.MarkBlock(block, std::nullopt, ids);
          continue;
        default:
          break;
      }
      live.MarkBlock(block, stamp, ids);
      stamps.emplace_back(block, stamp);
      if (rng.Below(50) == 0) {
        ASSERT_OK(restored.ApplyDelta(live.covered_end(),
                                      live.EncodeSince(checkpointed)));
        checkpointed = live.covered_end();
      }
    }
    ASSERT_OK(restored.ApplyDelta(live.covered_end(),
                                  live.EncodeSince(checkpointed)));
    ASSERT_OK_AND_ASSIGN(ExtentIndex reloaded,
                         ExtentIndex::Deserialize(live.Serialize()));
    Timestamp lowest = stamps.front().second;
    Timestamp highest = lowest;
    for (const auto& [b, stamp] : stamps) {
      lowest = std::min(lowest, stamp);
      highest = std::max(highest, stamp);
    }
    for (int q = 0; q < 400; ++q) {
      Timestamp t = lowest - 50 + static_cast<Timestamp>(rng.Below(
                                      static_cast<uint64_t>(highest - lowest) + 100));
      if (q % 4 == 0) {  // probe exact stamps and their neighbours too
        t = stamps[rng.Below(stamps.size())].second +
            static_cast<Timestamp>(rng.Below(3)) - 1;
      }
      const std::optional<uint64_t> want = LastAtOrBeforeBrute(stamps, t);
      for (const ExtentIndex* idx : {&live, &restored, &reloaded}) {
        ExtentIndex::Lookup hit = idx->LastBlockAtOrBefore(t);
        ASSERT_TRUE(hit.authoritative);
        ASSERT_EQ(hit.block, want) << "t=" << t;
      }
    }
  }
}

TEST(ExtentIndex, SerializeRoundTripsAndDetectsDamage) {
  ExtentIndex idx;
  const LogFileId a = 7;
  const LogFileId b = 123;
  std::vector<LogFileId> both = {a, b};
  std::vector<LogFileId> only_a = {a};
  Timestamp ts = 1'000'000;
  for (uint64_t blk = 1; blk <= 40; ++blk) {
    if (blk == 17) {
      idx.AddHole(blk);
      idx.AdvanceCoveredEnd(blk + 1);
      continue;
    }
    idx.MarkBlock(blk, ts, blk % 3 == 0 ? both : only_a);
    ts += 13;
  }
  Bytes blob = idx.Serialize();
  ASSERT_OK_AND_ASSIGN(ExtentIndex back, ExtentIndex::Deserialize(blob));
  EXPECT_TRUE(back == idx);
  EXPECT_EQ(ToString(back.Serialize()), ToString(blob));

  // One flipped byte anywhere must be caught by the crc.
  for (size_t i = 0; i < blob.size(); i += 7) {
    Bytes bad = blob;
    bad[i] ^= std::byte{0x01};
    EXPECT_FALSE(ExtentIndex::Deserialize(bad).ok()) << "byte " << i;
  }
  // Truncations at every length must fail, never crash or misparse.
  for (size_t len = 0; len < blob.size(); len += 5) {
    EXPECT_FALSE(
        ExtentIndex::Deserialize(std::span(blob).subspan(0, len)).ok())
        << "len " << len;
  }
}

// Grows `idx` by `blocks` blocks of a random three-file workload: runs
// that continue across calls, fragment-led timestamp dips, unstamped
// blocks, skipped (invalidated) blocks and holes.
void GrowRandomly(ExtentIndex* idx, Rng* rng, uint64_t blocks) {
  const uint64_t end = idx->covered_end() + blocks;
  while (idx->covered_end() < end) {
    const uint64_t b = idx->covered_end();
    switch (rng->Below(12)) {
      case 0:
        idx->AddHole(b);
        idx->AdvanceCoveredEnd(b + 1);
        break;
      case 1:
        idx->AdvanceCoveredEnd(b + 1);
        break;
      default: {
        std::vector<LogFileId> ids;
        if (rng->Chance(3, 4)) {
          ids.push_back(5);
        }
        for (LogFileId id : {LogFileId{9}, LogFileId{300}}) {
          if (rng->Chance(1, 3)) {
            ids.push_back(id);
          }
        }
        std::optional<Timestamp> ts;
        if (!rng->Chance(1, 8)) {
          ts = Timestamp{1'000'000} + static_cast<Timestamp>(b * 10) -
               static_cast<Timestamp>(rng->Below(30));
        }
        idx->MarkBlock(b, ts, ids);
      }
    }
  }
}

TEST(ExtentIndex, DeltasOverABaseEqualTheLiveIndex) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ExtentIndex live;
    GrowRandomly(&live, &rng, rng.Below(24));
    ExtentIndex restored;
    ASSERT_OK(restored.ApplyDelta(live.covered_end(), live.EncodeSince(1)));
    EXPECT_TRUE(restored == live);
    for (int k = 0; k < 8; ++k) {
      const uint64_t from = live.covered_end();
      GrowRandomly(&live, &rng, rng.Below(12));
      ASSERT_OK(
          restored.ApplyDelta(live.covered_end(), live.EncodeSince(from)));
      ASSERT_TRUE(restored == live) << "delta " << k;
    }
    EXPECT_EQ(ToString(restored.Serialize()), ToString(live.Serialize()));
    // A range ending before the index's coverage does not apply.
    EXPECT_FALSE(
        restored.ApplyDelta(restored.covered_end() - 1, Bytes{}).ok());
  }
}

// The serialized form is the checkpoint sidecar's on-media format: a
// fixed index must encode to the same bytes whatever the in-memory
// layout. The CRC was taken from the vector-of-runs index the compact
// one replaced.
TEST(ExtentIndex, SerializeMatchesTheGoldenCrc) {
  Rng rng(29);
  ExtentIndex idx;
  GrowRandomly(&idx, &rng, 3'000);
  const std::vector<LogFileId> ids = {5, 9};
  idx.AdvanceCoveredEnd(uint64_t{UINT32_MAX} - 3);
  idx.MarkBlock(uint64_t{UINT32_MAX} - 3, Timestamp{9'000'000}, ids);
  idx.MarkBlock(uint64_t{UINT32_MAX} - 2, Timestamp{9'000'100}, ids);
  idx.MarkBlock(uint64_t{UINT32_MAX} - 1, Timestamp{9'000'200}, {});
  const Bytes blob = idx.Serialize();
  EXPECT_EQ(blob.size(), 8458u);
  EXPECT_EQ(Crc32c(blob), 468600495u);
}

TEST(ExtentIndex, DeltaCostsTheIntervalNotTheVolume) {
  Rng rng(7);
  ExtentIndex live;
  GrowRandomly(&live, &rng, 20'000);
  const uint64_t from = live.covered_end();
  GrowRandomly(&live, &rng, 64);
  const size_t base = live.EncodeSince(1).size();
  const size_t delta = live.EncodeSince(from).size();
  EXPECT_GT(base, 50'000u);
  // About 2 bytes per stamped block plus a few per run and per file.
  EXPECT_LT(delta, 64u * 8);
}

// The index as plain per-file vectors of runs: what ExtentIndex answers,
// computed the obvious way.
struct RunModel {
  std::map<LogFileId, std::vector<std::pair<uint64_t, uint64_t>>> runs;
  std::vector<std::pair<uint64_t, Timestamp>> stamps;
  std::vector<uint64_t> holes;
  uint64_t covered_end = 1;

  void Mark(uint64_t block, std::optional<Timestamp> ts,
            const std::vector<LogFileId>& ids) {
    covered_end = block + 1;
    if (block >= UINT32_MAX) {
      holes.push_back(block);
      return;
    }
    for (LogFileId id : ids) {
      auto& list = runs[id];
      if (!list.empty() && list.back().second == block) {
        ++list.back().second;
      } else {
        list.emplace_back(block, block + 1);
      }
    }
    if (ts.has_value()) {
      stamps.emplace_back(block, *ts);
    }
  }
  bool HoleIn(uint64_t lo, uint64_t hi) const {
    return std::any_of(holes.begin(), holes.end(),
                       [&](uint64_t h) { return h >= lo && h < hi; });
  }
  ExtentIndex::Lookup Next(LogFileId id, uint64_t from) const {
    std::optional<uint64_t> answer;
    if (auto it = runs.find(id); it != runs.end()) {
      auto run = std::find_if(it->second.begin(), it->second.end(),
                              [&](const auto& r) { return r.second > from; });
      if (run != it->second.end()) {
        answer = std::max(run->first, from);
      }
    }
    if (HoleIn(from, answer.value_or(covered_end))) {
      return {};
    }
    return {true, answer};
  }
  ExtentIndex::Lookup Prev(LogFileId id, uint64_t before) const {
    before = std::min(before, covered_end);
    std::optional<uint64_t> answer;
    if (auto it = runs.find(id); it != runs.end()) {
      auto run = std::find_if(it->second.rbegin(), it->second.rend(),
                              [&](const auto& r) { return r.first < before; });
      if (run != it->second.rend()) {
        answer = std::min(run->second, before) - 1;
      }
    }
    if (HoleIn(answer.has_value() ? *answer + 1 : 1, before)) {
      return {};
    }
    return {true, answer};
  }
  ExtentIndex::Lookup Last(Timestamp t) const {
    if (!holes.empty()) {
      return {};
    }
    return {true, LastAtOrBeforeBrute(stamps, t)};
  }
};

void ExpectSameLookup(const ExtentIndex::Lookup& got,
                      const ExtentIndex::Lookup& want, const char* what,
                      uint64_t at) {
  EXPECT_EQ(got.authoritative, want.authoritative) << what << " " << at;
  if (got.authoritative && want.authoritative) {
    EXPECT_EQ(got.block, want.block) << what << " " << at;
  }
}

// Every lookup of the compact index matches the model: a file of 10 000
// runs (past many 64-run skip entries), a file of one run, a random file,
// holes (on odd seeds), and blocks up to 2^32 - 1, which becomes a hole.
// A copy rebuilt from EncodeSince deltas at random cuts answers the same.
TEST(ExtentIndex, CompactRunsMatchAReferenceModel) {
  constexpr LogFileId kMany = 11;  // every other block: 10 000 runs
  constexpr LogFileId kOne = 12;   // one run
  constexpr LogFileId kSome = 13;  // random
  constexpr LogFileId kNone = 14;  // never marked
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const bool holes = seed % 2 == 1;
    ExtentIndex live;
    ExtentIndex restored;
    RunModel model;
    uint64_t cut = 1;
    auto mark = [&](uint64_t block, std::optional<Timestamp> ts,
                    const std::vector<LogFileId>& ids) {
      live.MarkBlock(block, ts, ids);
      model.Mark(block, ts, ids);
      if (rng.Chance(1, 500)) {
        ASSERT_OK(restored.ApplyDelta(live.covered_end(),
                                      live.EncodeSince(cut)));
        cut = live.covered_end();
      }
    };
    for (uint64_t b = 1; b <= 20'000; ++b) {
      // Holes fall between kMany's runs and outside kOne's.
      if (holes && b % 2 == 1 && (b < 700 || b >= 900) &&
          rng.Chance(1, 1'000)) {
        live.AddHole(b);
        live.AdvanceCoveredEnd(b + 1);
        model.holes.push_back(b);
        model.covered_end = b + 1;
        continue;
      }
      std::vector<LogFileId> ids;
      if (b % 2 == 0) {
        ids.push_back(kMany);
      }
      if (b >= 700 && b < 900) {
        ids.push_back(kOne);
      }
      if (rng.Chance(1, 3)) {
        ids.push_back(kSome);
      }
      const Timestamp ts =
          Timestamp{1'000'000} + static_cast<Timestamp>(b * 10) -
          static_cast<Timestamp>(rng.Below(30));
      mark(b, rng.Chance(1, 10) ? std::nullopt : std::optional(ts), ids);
    }
    ASSERT_EQ(model.runs[kMany].size(), 10'000u);
    ASSERT_EQ(model.runs[kOne].size(), 1u);
    // The last blocks 32-bit runs can hold, then the first they cannot.
    live.AdvanceCoveredEnd(uint64_t{UINT32_MAX} - 2);
    model.covered_end = uint64_t{UINT32_MAX} - 2;
    for (uint64_t b = uint64_t{UINT32_MAX} - 2; b <= UINT32_MAX; ++b) {
      mark(b, Timestamp{9'000'000}, {kMany, kSome});
    }
    ASSERT_OK(
        restored.ApplyDelta(live.covered_end(), live.EncodeSince(cut)));
    EXPECT_TRUE(restored == live);
    EXPECT_EQ(ToString(restored.Serialize()), ToString(live.Serialize()));
    uint64_t runs = 0;
    for (const auto& [id, list] : model.runs) {
      runs += list.size();
    }
    EXPECT_EQ(live.run_count(), runs);

    for (const ExtentIndex* index : {&live, &restored}) {
      for (int q = 0; q < 3'000; ++q) {
        // Mostly around the runs, some past them up to the far blocks.
        const uint64_t at = rng.Chance(9, 10)
                                ? rng.Below(20'010)
                                : uint64_t{UINT32_MAX} - 4 + rng.Below(8);
        for (LogFileId id : {kMany, kOne, kSome, kNone}) {
          ExpectSameLookup(index->NextBlockWith(id, at), model.Next(id, at),
                           "next", at);
          ExpectSameLookup(index->PrevBlockWith(id, at), model.Prev(id, at),
                           "prev", at);
        }
        const auto t = static_cast<Timestamp>(1'000'000 + rng.Below(200'100));
        ExpectSameLookup(index->LastBlockAtOrBefore(t), model.Last(t), "last",
                         static_cast<uint64_t>(t));
      }
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

// A sidecar as the service writes it: each delta's pending nodes patch
// the previous record's.
struct Sidecar {
  ExtentIndex live;
  std::vector<CheckpointRecord> records;
  std::vector<size_t> ends;  // byte offset after each record
  Bytes bytes;

  void Add(CheckpointRecord record) {
    Bytes framed = records.empty() || record.from == 1
                       ? record.Encode()
                       : record.Encode(records.back().accumulator_nodes);
    bytes.insert(bytes.end(), framed.begin(), framed.end());
    ends.push_back(bytes.size());
    records.push_back(std::move(record));
  }
};

Sidecar MakeSidecar(Rng* rng, int deltas) {
  Sidecar out;
  uint64_t from = 1;
  for (int k = 0; k <= deltas; ++k) {
    GrowRandomly(&out.live, rng, 1 + rng->Below(20));
    CheckpointRecord record;
    record.volume_index = 3;
    record.from = from;
    record.covered_end = out.live.covered_end();
    record.max_timestamp = 1'234'567 + k;
    record.index_delta = out.live.EncodeSince(from);
    // A level-3 node that gains files and bits from record to record,
    // and a level-1 node that is new in each record.
    AccumulatorNodeState high;
    high.level = 3;
    if (k > 0) {
      high = out.records.back().accumulator_nodes[0];
    }
    const LogFileId id = static_cast<LogFileId>(2 * rng->Below(8));
    auto file = std::find_if(high.files.begin(), high.files.end(),
                             [id](const auto& f) { return f.first >= id; });
    if (file == high.files.end() || file->first != id) {
      file = high.files.emplace(file, id, Bytes(2));
    }
    file->second[rng->Below(2)] |= std::byte{0x10};
    AccumulatorNodeState low;
    low.level = 1;
    low.home = 16 * static_cast<uint64_t>(k);
    low.files.emplace_back(5, ToBytes("\x03"));
    record.accumulator_nodes = {high, low};
    if (k == 0 || rng->Chance(1, 3)) {
      record.catalog_records.emplace();
      record.catalog_records->push_back(ToBytes("record-" +
                                                std::to_string(k)));
    }
    from = record.covered_end;
    out.Add(std::move(record));
  }
  return out;
}

TEST(Checkpoint, StateRoundTripsAndDetectsDamage) {
  Rng rng(11);
  Sidecar sidecar = MakeSidecar(&rng, /*deltas=*/3);
  sidecar.records[1].catalog_records.reset();
  sidecar.records[2].catalog_records = std::vector<Bytes>{ToBytes("newest")};
  sidecar.records[3].catalog_records.reset();
  Sidecar built;
  for (const CheckpointRecord& record : sidecar.records) {
    built.Add(record);
  }
  const Bytes& blob = built.bytes;

  ASSERT_OK_AND_ASSIGN(CheckpointState back, CheckpointState::Decode(blob));
  EXPECT_EQ(back.volume_index, 3u);
  EXPECT_EQ(back.covered_end, sidecar.live.covered_end());
  EXPECT_EQ(back.max_timestamp, 1'234'567 + 3);
  EXPECT_TRUE(back.index == sidecar.live);
  EXPECT_EQ(back.accumulator_nodes, sidecar.records[3].accumulator_nodes);
  ASSERT_EQ(back.catalog_records.size(), 1u);
  EXPECT_EQ(ToString(back.catalog_records[0]), "newest");
  // Nodes unchanged since the previous record are not repeated.
  const CheckpointRecord& last = sidecar.records[3];
  EXPECT_LT(last.Encode(sidecar.records[2].accumulator_nodes).size(),
            last.Encode().size());

  // One flipped byte in any record discards the whole sidecar.
  for (size_t i = 0; i < blob.size(); i += 3) {
    Bytes bad = blob;
    bad[i] ^= std::byte{0x80};
    EXPECT_FALSE(CheckpointState::Decode(bad).ok()) << "byte " << i;
  }
  // A cut inside a record fails; a cut between records is a shorter,
  // valid sidecar.
  for (size_t len = 0; len < blob.size(); ++len) {
    const bool boundary = std::find(built.ends.begin(), built.ends.end(),
                                    len) != built.ends.end();
    EXPECT_EQ(CheckpointState::Decode(std::span(blob).subspan(0, len)).ok(),
              boundary)
        << "len " << len;
  }
}

TEST(Checkpoint, GapsAndStrayRecordsDiscardTheSidecar) {
  Rng rng(13);
  Sidecar sidecar = MakeSidecar(&rng, /*deltas=*/2);
  auto decodes = [](const std::vector<CheckpointRecord>& records) {
    Sidecar s;
    for (const CheckpointRecord& record : records) {
      s.Add(record);
    }
    return CheckpointState::Decode(s.bytes).ok();
  };
  const std::vector<CheckpointRecord>& r = sidecar.records;
  EXPECT_TRUE(decodes({r[0], r[1], r[2]}));
  EXPECT_FALSE(decodes({}));
  EXPECT_FALSE(decodes({r[1], r[2]}));        // no base
  EXPECT_FALSE(decodes({r[0], r[2]}));        // gap
  EXPECT_FALSE(decodes({r[0], r[1], r[1]}));  // replayed delta
  EXPECT_FALSE(decodes({r[0], r[0]}));        // a second base
  CheckpointRecord foreign = r[1];
  foreign.volume_index = 4;
  EXPECT_FALSE(decodes({r[0], foreign}));
  CheckpointRecord no_catalog = r[0];
  no_catalog.catalog_records.reset();
  EXPECT_FALSE(decodes({no_catalog}));
  // A delta patching a node the previous record does not hold.
  CheckpointRecord bare = r[0];
  bare.accumulator_nodes.clear();
  Bytes patched = bare.Encode();
  Bytes delta = r[1].Encode(r[0].accumulator_nodes);
  patched.insert(patched.end(), delta.begin(), delta.end());
  EXPECT_FALSE(CheckpointState::Decode(patched).ok());
}

// Seeded mutation loop over every checkpoint decoder: the framed sidecar
// (base and delta records) and the serialized extent index. Each case
// mutates bytes past the checksummed header, then recomputes the
// checksums, so the damage reaches the parsers. A decoder may only return
// a Status; under ASan/UBSan this also rules out overreads, overflow and
// huge allocations driven by decoded counts.
constexpr size_t kRecordHeader = 14;  // magic, version, length, crc
constexpr size_t kRecordCrcAt = 10;
constexpr size_t kIndexHeader = 10;  // magic, version, crc
constexpr size_t kIndexCrcAt = 6;

void Mutate(Rng* rng, Bytes* bytes, size_t lo, size_t hi) {
  const int edits = 1 + static_cast<int>(rng->Below(4));
  for (int e = 0; e < edits && lo < hi; ++e) {
    const size_t at = lo + rng->Below(hi - lo);
    switch (rng->Below(4)) {
      case 0:
        (*bytes)[at] ^= static_cast<std::byte>(1u << rng->Below(8));
        break;
      case 1:
        (*bytes)[at] = std::byte{0xFF};  // long varints, huge counts
        break;
      case 2:
        (*bytes)[at] = std::byte{0x00};
        break;
      default:
        (*bytes)[at] = static_cast<std::byte>(rng->Below(256));
    }
  }
}

TEST(CheckpointFuzz, MutatedRecordsOnlyReturnErrors) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Sidecar sidecar = MakeSidecar(&rng, static_cast<int>(rng.Below(4)));
    Bytes bytes = sidecar.bytes;
    // Damage one record's body (or, sometimes, its length) and reseal it.
    const size_t k = rng.Below(sidecar.ends.size());
    const size_t at = k == 0 ? 0 : sidecar.ends[k - 1];
    const size_t end = sidecar.ends[k];
    Mutate(&rng, &bytes, at + kRecordHeader, end);
    size_t len = end - at - kRecordHeader;
    if (rng.Chance(1, 8)) {
      len = rng.Below(bytes.size() - at - kRecordHeader + 1);
      StoreU32(bytes, at + 6, static_cast<uint32_t>(len));
    }
    StoreU32(bytes, at + kRecordCrcAt,
             Crc32c(std::span(bytes).subspan(at + kRecordHeader, len)));
    auto state = CheckpointState::Decode(bytes);
    if (state.ok()) {
      EXPECT_GE(state.value().covered_end, 1u);
    }

    Bytes index = sidecar.live.Serialize();
    Mutate(&rng, &index, kIndexHeader, index.size());
    StoreU32(index, kIndexCrcAt,
             Crc32c(std::span(index).subspan(kIndexHeader)));
    auto decoded = ExtentIndex::Deserialize(index);
    if (decoded.ok()) {
      EXPECT_GE(decoded.value().covered_end(), 1u);
    }
  }
}

// -- System-level invariants --

struct DualRig {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, 7);
  std::unique_ptr<MemoryWormDevice> media;
  std::unique_ptr<LogService> service;  // the writing service, index on
  uint16_t degree = 0;
  std::vector<std::string> paths;
  std::map<std::string, std::vector<Bytes>> truth;
  std::vector<std::pair<std::string, Timestamp>> stamps;

  static DualRig Make(uint32_t block_size, uint16_t degree, int files) {
    DualRig rig;
    MemoryWormOptions dev;
    dev.block_size = block_size;
    dev.capacity_blocks = 1 << 15;
    rig.media = std::make_unique<MemoryWormDevice>(dev);
    rig.degree = degree;
    LogServiceOptions options;
    options.entrymap_degree = degree;
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(rig.media.get()), rig.clock.get(),
        options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    for (int f = 0; f < files; ++f) {
      std::string path = "/f" + std::to_string(f);
      EXPECT_TRUE(rig.service->CreateLogFile(path).ok());
      rig.paths.push_back(path);
    }
    return rig;
  }

  // Random appends: size sweep forces single-block, multi-entry, and
  // fragment-chain blocks; some entries carry extra memberships (disabled
  // by tests whose ground truth tracks only the primary log file).
  void Workload(Rng* rng, int count, uint32_t max_entry, bool extras = true) {
    for (int i = 0; i < count; ++i) {
      const std::string& path = paths[rng->Below(paths.size())];
      Bytes payload = RandomPayload(rng, 1 + rng->Below(max_entry));
      WriteOptions opts;
      opts.timestamped = true;
      opts.force = rng->Chance(1, 4);
      if (extras && paths.size() > 1 && rng->Chance(1, 8)) {
        auto other = service->Resolve(paths[rng->Below(paths.size())]);
        ASSERT_TRUE(other.ok());
        opts.extra_memberships.push_back(other.value());
      }
      auto result = service->Append(path, payload, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      truth[path].push_back(payload);
      stamps.emplace_back(path, result.value().timestamp);
    }
  }

  // Recovers a read companion over the same media with the index on or
  // off. Requires a Force() first so media holds everything. `device`
  // (default: a plain view of the media) lets a test observe the reads.
  std::unique_ptr<LogService> Remount(
      bool with_index, std::unique_ptr<WormDevice> device = nullptr,
      size_t cache_blocks = LogServiceOptions{}.cache_blocks) {
    LogServiceOptions options;
    options.entrymap_degree = degree;
    options.enable_extent_index = with_index;
    options.cache_blocks = cache_blocks;
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(device != nullptr
                          ? std::move(device)
                          : std::make_unique<BorrowedDevice>(media.get()));
    auto recovered =
        LogService::Recover(std::move(devices), clock.get(), options, nullptr);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    return std::move(recovered).value();
  }
};

// I1: every volume-level locate agrees between the index fast path and
// the entrymap walk, for every id and every position.
TEST(IndexEquivalence, LocatesMatchTheWalkEverywhere) {
  Rng rng(0x1DE1);
  DualRig rig = DualRig::Make(/*block_size=*/512, /*degree=*/8, /*files=*/4);
  rig.Workload(&rng, 250, /*max_entry=*/700);
  ASSERT_OK(rig.service->Force());

  auto indexed = rig.Remount(/*with_index=*/true);
  auto walked = rig.Remount(/*with_index=*/false);
  LogVolume* vi = indexed->current_volume();
  LogVolume* vw = walked->current_volume();
  ASSERT_EQ(vi->end_block(), vw->end_block());
  const uint64_t end = vi->end_block();

  for (const std::string& path : rig.paths) {
    ASSERT_OK_AND_ASSIGN(LogFileId id, indexed->Resolve(path));
    ASSERT_OK_AND_ASSIGN(LogFileId id_w, walked->Resolve(path));
    ASSERT_EQ(id, id_w);
    for (uint64_t b = 1; b <= end; ++b) {
      ASSERT_OK_AND_ASSIGN(auto prev_i, vi->PrevBlockWith(id, b, nullptr));
      ASSERT_OK_AND_ASSIGN(auto prev_w, vw->PrevBlockWith(id, b, nullptr));
      EXPECT_EQ(prev_i, prev_w) << path << " prev before " << b;
      ASSERT_OK_AND_ASSIGN(auto next_i, vi->NextBlockWith(id, b, nullptr));
      ASSERT_OK_AND_ASSIGN(auto next_w, vw->NextBlockWith(id, b, nullptr));
      EXPECT_EQ(next_i, next_w) << path << " next from " << b;
    }
  }
  // Timestamp search across random probes, including misses and exact hits.
  for (int probe = 0; probe < 60; ++probe) {
    size_t pick = rng.Below(rig.stamps.size());
    Timestamp t = rig.stamps[pick].second + (rng.Chance(1, 2) ? 0 : 5);
    ASSERT_OK_AND_ASSIGN(auto by_time_i, vi->FindBlockByTime(t, nullptr));
    ASSERT_OK_AND_ASSIGN(auto by_time_w, vw->FindBlockByTime(t, nullptr));
    EXPECT_EQ(by_time_i, by_time_w) << "t=" << t;
  }
  // The warm path really is RAM-resident: repeating every locate adds no
  // device reads.
  const uint64_t reads_before = rig.media->stats().reads.load();
  for (const std::string& path : rig.paths) {
    ASSERT_OK_AND_ASSIGN(LogFileId id, indexed->Resolve(path));
    for (uint64_t b = 1; b <= end; b += 3) {
      ASSERT_OK(vi->PrevBlockWith(id, b, nullptr).status());
      ASSERT_OK(vi->NextBlockWith(id, b, nullptr).status());
    }
  }
  EXPECT_EQ(rig.media->stats().reads.load(), reads_before);
}

// I1 at the reader level: timestamp search through the public API agrees
// with linear-scan ground truth with the index on.
TEST(IndexEquivalence, ReaderTimestampSearchMatchesTruth) {
  Rng rng(0xBEE5);
  DualRig rig = DualRig::Make(/*block_size=*/256, /*degree=*/8, /*files=*/3);
  rig.Workload(&rng, 300, /*max_entry=*/400, /*extras=*/false);
  ASSERT_OK(rig.service->Force());

  std::map<std::string, std::vector<std::pair<Timestamp, size_t>>> per_path;
  std::map<std::string, size_t> counters;
  for (const auto& [path, ts] : rig.stamps) {
    per_path[path].emplace_back(ts, counters[path]++);
  }
  for (int probe = 0; probe < 40; ++probe) {
    size_t pick = rng.Below(rig.stamps.size());
    Timestamp t = rig.stamps[pick].second + (rng.Chance(1, 2) ? 0 : 3);
    for (const auto& [path, entries] : per_path) {
      std::optional<size_t> want;
      for (const auto& [ts, index] : entries) {
        if (ts <= t) {
          want = index;
        }
      }
      ASSERT_OK_AND_ASSIGN(auto reader, rig.service->OpenReader(path));
      ASSERT_OK(reader->SeekToTime(t));
      ASSERT_OK_AND_ASSIGN(auto record, reader->Prev());
      if (!want.has_value()) {
        EXPECT_FALSE(record.has_value()) << path << " t=" << t;
      } else {
        ASSERT_TRUE(record.has_value()) << path << " t=" << t;
        EXPECT_EQ(ToString(record->payload), ToString(rig.truth[path][*want]))
            << path << " t=" << t;
      }
    }
  }
}

// I2: the writer-maintained index and a scan-rebuilt one serialize
// byte-identically, and VerifyVolume cross-checks clean.
TEST(IndexConvergence, WriterAndScanBuiltIndexesAreByteIdentical) {
  Rng rng(0x5CA9);
  DualRig rig = DualRig::Make(/*block_size=*/512, /*degree=*/8, /*files=*/3);
  rig.Workload(&rng, 220, /*max_entry=*/900);
  ASSERT_OK(rig.service->Force());

  // The live service's index was built incrementally by the writer.
  LogVolume* live = rig.service->current_volume();
  ASSERT_OK(live->EnsureExtentIndex());
  const ExtentIndex* live_idx = live->extent_index();
  ASSERT_NE(live_idx, nullptr);
  ASSERT_EQ(live_idx->covered_end(), live->end_block());

  // A remount rebuilds purely by scanning media.
  auto remounted = rig.Remount(/*with_index=*/true);
  LogVolume* scan = remounted->current_volume();
  ASSERT_OK(scan->EnsureExtentIndex());
  const ExtentIndex* scan_idx = scan->extent_index();
  ASSERT_NE(scan_idx, nullptr);

  EXPECT_TRUE(*live_idx == *scan_idx);
  EXPECT_EQ(ToString(live_idx->Serialize()), ToString(scan_idx->Serialize()));

  // VerifyVolume's independent walk agrees with both.
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyVolume(live));
  EXPECT_TRUE(report.index_checked);
  EXPECT_TRUE(report.clean()) << (report.index_mismatches.empty()
                                      ? "other defect"
                                      : report.index_mismatches[0]);
}

// Lazy rebuild is safe under concurrent readers, each call holding the
// service's shared lock (the TSan lane runs this with real interleavings).
TEST(IndexConcurrency, ConcurrentColdLocatesBuildTheIndexOnce) {
  Rng rng(0xC0DE);
  DualRig rig = DualRig::Make(/*block_size=*/512, /*degree=*/8, /*files=*/4);
  rig.Workload(&rng, 150, /*max_entry=*/500, /*extras=*/false);
  ASSERT_OK(rig.service->Force());
  auto remounted = rig.Remount(/*with_index=*/true);

  // Expected per-path entry counts, precomputed so the worker threads
  // never touch the truth map (it is not thread-safe).
  std::vector<size_t> expect_count;
  for (const std::string& path : rig.paths) {
    expect_count.push_back(rig.truth[path].size());
  }

  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&remounted, &rig, &expect_count, w] {
      const std::string& path = rig.paths[w % rig.paths.size()];
      auto reader = remounted->OpenReader(path);
      ASSERT_TRUE(reader.ok());
      reader.value()->SeekToEnd();
      int seen = 0;
      while (true) {
        auto record = reader.value()->Prev();
        ASSERT_TRUE(record.ok()) << record.status().ToString();
        if (!record.value().has_value()) {
          break;
        }
        ++seen;
      }
      EXPECT_EQ(static_cast<size_t>(seen),
                expect_count[w % rig.paths.size()]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

// -- I3: index-planned read passes --

// A view of the media that records every device read pass as (first
// block, block count).
class PassRecorder : public BorrowedDevice {
 public:
  using BorrowedDevice::BorrowedDevice;
  Status ReadBlock(uint64_t i, std::span<std::byte> out) override {
    passes.emplace_back(i, 1);
    return BorrowedDevice::ReadBlock(i, out);
  }
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override {
    passes.emplace_back(first, count);
    return BorrowedDevice::ReadBlocks(first, count, out);
  }
  uint64_t blocks() const {
    uint64_t total = 0;
    for (const auto& pass : passes) {
      total += pass.second;
    }
    return total;
  }

  std::vector<std::pair<uint64_t, uint64_t>> passes;
};

// Smaller than every PlannedReadRig volume, so scans miss.
constexpr size_t kPlannedCacheBlocks = 48;

// A 4 KiB-block volume of 12 Zipf-skewed files: /f0 is the hottest and
// has two sublogs, 1 in 8 entries is also a member of a second file, and
// 1 in 40 is large enough to fragment across blocks.
DualRig PlannedReadRig(uint64_t seed) {
  Rng rng(seed);
  DualRig rig = DualRig::Make(/*block_size=*/4096, /*degree=*/16,
                              /*files=*/10);
  for (const char* sub : {"/f0/a", "/f0/b"}) {
    EXPECT_TRUE(rig.service->CreateLogFile(sub).ok());
    rig.paths.push_back(sub);
  }
  std::vector<double> cdf;
  double total = 0;
  for (size_t k = 0; k < rig.paths.size(); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf.push_back(total);
  }
  for (int i = 0; i < 3000; ++i) {
    size_t k = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble() * total) -
        cdf.begin());
    const std::string& path = rig.paths[std::min(k, rig.paths.size() - 1)];
    size_t size = rng.Chance(1, 40) ? 5000 + rng.Below(5000)
                                    : 64 + rng.Below(449);
    WriteOptions opts;
    opts.timestamped = true;
    opts.force = rng.Chance(1, 64);
    if (rng.Chance(1, 8)) {
      auto other = rig.service->Resolve(rig.paths[rng.Below(rig.paths.size())]);
      EXPECT_TRUE(other.ok());
      opts.extra_memberships.push_back(other.value());
    }
    auto result = rig.service->Append(path, RandomPayload(&rng, size), opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    rig.stamps.emplace_back(path, result.value().timestamp);
  }
  EXPECT_TRUE(rig.service->Force().ok());
  return rig;
}

std::string Describe(const Result<std::optional<LogEntryRecord>>& r) {
  if (!r.ok()) {
    return "error " + r.status().ToString();
  }
  if (!r.value().has_value()) {
    return "end";
  }
  const LogEntryRecord& e = *r.value();
  return std::to_string(e.position.block) + ":" +
         std::to_string(e.position.index_in_block) + " ts " +
         std::to_string(e.timestamp) + " len " +
         std::to_string(e.payload.size()) + " hash " +
         std::to_string(std::hash<std::string>{}(ToString(e.payload)));
}

// Seeks a reader of `id` to `t` (or, when t is 0, to the start) and
// describes up to `steps` Next (forward) or Prev results.
std::vector<std::string> Sweep(LogService* service, LogFileId id, Timestamp t,
                               bool forward, int steps = 32) {
  std::vector<std::string> out;
  auto reader = service->OpenReaderById(id);
  if (!reader.ok()) {
    return {"open " + reader.status().ToString()};
  }
  if (t == 0) {
    (*reader)->SeekToStart();
  } else {
    Status seek = (*reader)->SeekToTime(t);
    out.push_back(seek.ok() ? "seek" : "seek " + seek.ToString());
  }
  for (int i = 0; i < steps; ++i) {
    auto r = forward ? (*reader)->Next() : (*reader)->Prev();
    out.push_back(Describe(r));
    if (!r.ok() || !r.value().has_value()) {
      break;
    }
  }
  return out;
}

// Index-on and index-off read companions over the rig's media, each with
// a pass recorder and a cache smaller than the volume. Both caches start
// in the same state: the index build's full pass leaves the volume's tail
// cached, and the walk gets the same pass.
struct PlannedPair {
  PassRecorder* on = nullptr;
  PassRecorder* off = nullptr;
  std::unique_ptr<LogService> indexed;
  std::unique_ptr<LogService> walked;

  static PlannedPair Make(DualRig* rig) {
    PlannedPair pair;
    auto on = std::make_unique<PassRecorder>(rig->media.get());
    auto off = std::make_unique<PassRecorder>(rig->media.get());
    pair.on = on.get();
    pair.off = off.get();
    pair.indexed = rig->Remount(true, std::move(on), kPlannedCacheBlocks);
    pair.walked = rig->Remount(false, std::move(off), kPlannedCacheBlocks);
    EXPECT_TRUE(pair.vi()->EnsureExtentIndex().ok());
    EXPECT_NE(pair.vi()->extent_index(), nullptr);
    for (uint64_t b = 1; b < pair.vw()->end_block(); ++b) {
      (void)pair.vw()->GetBlock(b, nullptr);
    }
    pair.on->passes.clear();
    pair.off->passes.clear();
    return pair;
  }
  LogVolume* vi() { return indexed->current_volume(); }
  LogVolume* vw() { return walked->current_volume(); }
};

// Random (file, t) queries: SeekToTime then 32 Next, and SeekToTime then
// 32 Prev, return the same with the index on and off. With it on, every
// multi-block pass (only forward scans read ahead) ends at a block holding
// the scanned file, unless the index could not rule on the window — then
// the pass is the untrimmed window — and the indexed side reads no more
// blocks in total. Returns the number of untrimmed passes.
int CheckPlannedScans(DualRig* rig, Rng* rng, int queries) {
  PlannedPair pair = PlannedPair::Make(rig);
  LogVolume* vi = pair.vi();
  const uint64_t end = vi->end_block();
  const uint32_t window = vi->readahead_blocks();
  EXPECT_EQ(window, LogServiceOptions{}.readahead_blocks);
  std::vector<std::pair<LogFileId, uint64_t>> pass_ends;
  int untrimmed = 0;
  for (int q = 0; q < queries; ++q) {
    const std::string& path = rig->paths[rng->Below(rig->paths.size())];
    Timestamp t = rig->stamps[rng->Below(rig->stamps.size())].second +
                  (rng->Chance(1, 2) ? 0 : 3);
    auto id = pair.indexed->Resolve(path);
    EXPECT_TRUE(id.ok());
    for (bool forward : {true, false}) {
      const size_t first_pass = pair.on->passes.size();
      EXPECT_EQ(Sweep(pair.indexed.get(), *id, t, forward),
                Sweep(pair.walked.get(), *id, t, forward))
          << path << " t=" << t << (forward ? " Next" : " Prev");
      for (size_t i = first_pass; i < pair.on->passes.size(); ++i) {
        const auto [first, count] = pair.on->passes[i];
        if (count == 1) {
          continue;
        }
        EXPECT_TRUE(forward) << "readahead outside a forward scan";
        EXPECT_LE(count, window + 1u);
        const uint64_t limit = std::min<uint64_t>(first + window + 1, end);
        const ExtentIndex* idx = vi->PlanningIndex(*id, first, limit);
        if (idx == nullptr || !idx->PrevBlockWith(*id, limit).authoritative) {
          EXPECT_EQ(count, limit - first) << "fallback must read blindly";
          ++untrimmed;
        } else {
          pass_ends.emplace_back(*id, first + count - 1);
        }
      }
    }
  }
  EXPECT_LE(pair.on->blocks(), pair.off->blocks());
  EXPECT_FALSE(pass_ends.empty());
  // Ground truth from the walk: each planned pass ends at a file block.
  for (const auto& [id, last] : pass_ends) {
    auto holder = pair.vw()->NextBlockWith(id, last, nullptr);
    EXPECT_TRUE(holder.ok());
    EXPECT_EQ(holder.value(), std::optional<uint64_t>(last))
        << "pass read past file " << id << "'s last block in the window";
  }
  return untrimmed;
}

TEST(IndexPlannedReads, ScansMatchTheWalkAndEndPassesAtTheFile) {
  DualRig rig = PlannedReadRig(0x5CA7);
  Rng rng(0x9A55);
  EXPECT_EQ(CheckPlannedScans(&rig, &rng, 60), 0);
}

// A quarantined block is one the index cannot rule on: scans return what
// the walk returns, and a pass whose window spans it reads the untrimmed
// window.
TEST(IndexPlannedReads, QuarantinedBlockFallsBackToTheFullWindow) {
  DualRig rig = PlannedReadRig(0x0BAD);
  LogVolume* live = rig.service->current_volume();
  const uint64_t q = live->end_block() / 2;
  ASSERT_OK_AND_ASSIGN(LogFileId hot, rig.service->Resolve("/f0"));
  ASSERT_NE(live->PlanningIndex(hot, q - 1, q + 1), nullptr);
  ASSERT_OK(rig.service->QuarantineBlock(live->header().volume_index, q));
  ASSERT_OK(rig.service->Force());
  // Live, the index's burn-time marks predate the verdict: no plan spans q.
  EXPECT_EQ(live->PlanningIndex(hot, q - 1, q + 1), nullptr);
  EXPECT_NE(live->PlanningIndex(hot, q + 1, q + 2), nullptr);

  Rng rng(0xF00D);
  CheckPlannedScans(&rig, &rng, 40);

  // Remounted, the rebuild also records q as a hole. A forward-scan miss
  // whose window spans q reads the whole window.
  PlannedPair pair = PlannedPair::Make(&rig);
  LogVolume* vi = pair.vi();
  EXPECT_EQ(vi->extent_index()->hole_count(), 1u);
  const uint64_t b = q - 1;
  const uint64_t limit =
      std::min<uint64_t>(b + vi->readahead_blocks() + 1, vi->end_block());
  EXPECT_EQ(vi->PlanningIndex(hot, b, limit), nullptr);
  ASSERT_OK(vi->GetBlock(b, nullptr, hot).status());
  ASSERT_EQ(pair.on->passes.size(), 1u);
  EXPECT_EQ(pair.on->passes[0],
            (std::pair<uint64_t, uint64_t>(b, limit - b)));
}

// The volume-sequence and entrymap logs are not in the index: the index
// never plans their reads, so a miss reads the untrimmed window, and their
// scans and seeks return what the walk returns.
TEST(IndexPlannedReads, UntrackedLogsScanWithTheFullWindow) {
  DualRig rig = PlannedReadRig(0xE4A9);
  PlannedPair pair = PlannedPair::Make(&rig);
  LogVolume* vi = pair.vi();
  const uint32_t window = vi->readahead_blocks();
  uint64_t b = vi->end_block() / 3;  // cold: the cache holds the tail
  for (LogFileId id : {kEntrymapLogId, kVolumeSeqLogId}) {
    EXPECT_EQ(vi->PlanningIndex(id, b, b + 1), nullptr) << id;
    pair.on->passes.clear();
    ASSERT_OK(vi->GetBlock(b, nullptr, id).status());
    ASSERT_EQ(pair.on->passes.size(), 1u) << id;
    EXPECT_EQ(pair.on->passes[0],
              (std::pair<uint64_t, uint64_t>(b, window + 1)))
        << id;
    b += window + 1;
  }
  const Timestamp mid = rig.stamps[rig.stamps.size() / 2].second;
  for (LogFileId id : {kEntrymapLogId, kVolumeSeqLogId}) {
    std::vector<std::string> from_start =
        Sweep(pair.indexed.get(), id, 0, true, 400);
    EXPECT_GT(from_start.size(), 5u) << id;
    EXPECT_EQ(from_start, Sweep(pair.walked.get(), id, 0, true, 400)) << id;
    for (bool forward : {true, false}) {
      EXPECT_EQ(Sweep(pair.indexed.get(), id, mid, forward),
                Sweep(pair.walked.get(), id, mid, forward))
          << id << (forward ? " Next" : " Prev");
    }
  }
}

// A seek the index can place without the landing block reads nothing;
// the following Next and Prev return what the index-off walk returns. A
// seek into the staged tail still serves that block from memory.
TEST(IndexPlannedReads, SeekOntoABlockWithoutTheFileReadsNothing) {
  DualRig rig = PlannedReadRig(0x5EE4);
  PlannedPair pair = PlannedPair::Make(&rig);
  LogVolume* vi = pair.vi();
  LogVolume* vw = pair.vw();
  const ExtentIndex* idx = vi->extent_index();
  int seeks = 0;
  for (const char* path : {"/f3", "/f8", "/f0/b"}) {
    ASSERT_OK_AND_ASSIGN(LogFileId id, pair.indexed->Resolve(path));
    // A block without the file whose leading stamp lands the seek on it.
    std::optional<Timestamp> t;
    for (uint64_t b = vi->end_block() / 3; b < vi->end_block() && !t; ++b) {
      ExtentIndex::Lookup next = idx->NextBlockWith(id, b);
      if (!next.authoritative || next.block == b) {
        continue;
      }
      ASSERT_OK_AND_ASSIGN(ParsedBlock parsed, vw->GetBlock(b, nullptr));
      std::optional<Timestamp> lead = parsed.FirstTimestamp();
      if (lead.has_value() &&
          vi->FindBlockByTime(*lead, nullptr).value() ==
              std::optional<uint64_t>(b)) {
        t = lead;
      }
    }
    ASSERT_TRUE(t.has_value()) << path;
    for (bool forward : {true, false}) {
      VolumeCursor indexed(vi, id);
      VolumeCursor walked(vw, id);
      const size_t passes_before = pair.on->passes.size();
      OpStats stats;
      ASSERT_OK_AND_ASSIGN(bool found, indexed.SeekToTime(*t, &stats));
      EXPECT_TRUE(found);
      EXPECT_EQ(stats.blocks_read, 0u) << path;
      EXPECT_EQ(pair.on->passes.size(), passes_before) << path;
      ASSERT_OK_AND_ASSIGN(bool found_walked, walked.SeekToTime(*t, nullptr));
      EXPECT_EQ(found, found_walked);
      for (int i = 0; i < 32; ++i) {
        auto got = forward ? indexed.Next(nullptr) : indexed.Prev(nullptr);
        auto want = forward ? walked.Next(nullptr) : walked.Prev(nullptr);
        ASSERT_EQ(Describe(got), Describe(want))
            << path << (forward ? " Next " : " Prev ") << i;
        if (!got.ok() || !got.value().has_value()) {
          break;
        }
      }
      ++seeks;
    }
  }
  EXPECT_EQ(seeks, 6);

  // The staged tail: three unforced entries share the staging block.
  ASSERT_OK_AND_ASSIGN(LogFileId hot, rig.service->Resolve("/f0"));
  std::vector<Timestamp> staged;
  for (const char* text : {"one", "two", "three"}) {
    WriteOptions opts;
    opts.timestamped = true;
    ASSERT_OK_AND_ASSIGN(AppendResult appended,
                         rig.service->Append("/f0", AsBytes(text), opts));
    staged.push_back(appended.timestamp);
  }
  LogVolume* live = rig.service->current_volume();
  ASSERT_TRUE(live->writer()->has_staged_entries());
  const uint64_t reads_before = rig.media->stats().reads.load();
  VolumeCursor cursor(live, hot);
  OpStats stats;
  ASSERT_OK_AND_ASSIGN(bool found, cursor.SeekToTime(staged[1], &stats));
  EXPECT_TRUE(found);
  EXPECT_EQ(stats.blocks_read, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  ASSERT_OK_AND_ASSIGN(auto prev, cursor.Prev(nullptr));
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(ToString(prev->payload), "two");
  ASSERT_OK(cursor.Next(nullptr).status());  // "two" again
  ASSERT_OK_AND_ASSIGN(auto next, cursor.Next(nullptr));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(ToString(next->payload), "three");
  EXPECT_EQ(rig.media->stats().reads.load(), reads_before);
}

}  // namespace
}  // namespace clio
