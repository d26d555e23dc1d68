// Online scrubber tests (DESIGN.md §15): an injected bit flip is found
// within one pass and quarantined; unaffected log files keep serving while
// reads that cross the quarantined block fail fast; the scrub cursor and
// the quarantine set survive a restart; the background thread starts and
// stops cleanly under concurrent appends.
#include "src/scrub/scrubber.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/clio/chain.h"
#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/fault_injection.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

// A service over a fault-injecting device (no probabilistic faults; the
// tests flip bits deterministically) so the media can rot on command.
struct FaultFixture {
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, /*auto_tick=*/7);
  FaultInjectingWormDevice* device = nullptr;  // owned by the service
  std::unique_ptr<LogService> service;

  static FaultFixture Make(uint32_t block_size = 512,
                           uint64_t capacity_blocks = 8192,
                           bool enable_extent_index = true) {
    FaultFixture fx;
    MemoryWormOptions dev_options;
    dev_options.block_size = block_size;
    dev_options.capacity_blocks = capacity_blocks;
    auto device = std::make_unique<FaultInjectingWormDevice>(
        std::make_unique<MemoryWormDevice>(dev_options), FaultPolicy{},
        /*seed=*/1);
    fx.device = device.get();
    LogServiceOptions options;
    options.entrymap_degree = 8;
    options.enable_extent_index = enable_extent_index;
    auto service =
        LogService::Create(std::move(device), fx.clock.get(), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    fx.service = std::move(service).value();
    return fx;
  }
};

// Finds a burned block all of whose entries belong to `id` (a pure data
// block of that log file, not an entrymap/catalog block). 0 if none.
uint64_t FindDataBlockOf(LogService* service, LogFileId id) {
  LogVolume* volume = service->current_volume();
  for (uint64_t b = 1; b < volume->end_block(); ++b) {
    OpStats op;
    auto parsed = volume->GetBlock(b, &op);
    if (!parsed.ok() || parsed->entries().empty()) {
      continue;
    }
    bool all_ours = true;
    for (const ParsedEntry& e : parsed->entries()) {
      if (e.logfile_id != id) {
        all_ours = false;
        break;
      }
    }
    if (all_ours) {
      return b;
    }
  }
  return 0;
}

// Drains a log file, returning entries read before the first error.
Result<uint64_t> CountReadable(LogService* service, const char* path) {
  CLIO_ASSIGN_OR_RETURN(auto reader, service->OpenReader(path));
  uint64_t n = 0;
  for (;;) {
    auto next = reader->Next();
    if (!next.ok()) {
      return next.status();
    }
    if (!next->has_value()) {
      return n;
    }
    ++n;
  }
}

TEST(Scrub, BitFlipIsFoundQuarantinedAndDegradesOnlyCrossingReads) {
  auto fx = FaultFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  ASSERT_OK_AND_ASSIGN(LogFileId b_id, fx.service->CreateLogFile("/b"));
  Rng rng(20);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(
        fx.service->Append("/a", RandomPayload(&rng, 80), forced).status());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(
        fx.service->Append("/b", RandomPayload(&rng, 80), forced).status());
  }
  uint64_t victim = FindDataBlockOf(fx.service.get(), b_id);
  ASSERT_GT(victim, 0u) << "no pure /b data block burned";
  ASSERT_OK(fx.device->FlipBitOnMedia(victim, /*bit_index=*/1234));
  fx.service->cache().Erase({0, victim});

  Scrubber scrubber(fx.service.get(), ScrubOptions{});
  ASSERT_OK_AND_ASSIGN(Scrubber::PassStats stats, scrubber.RunOnce());
  EXPECT_GT(stats.blocks_scanned, 0u);
  EXPECT_EQ(stats.corrupt_blocks, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_TRUE(fx.service->catalog().IsQuarantined(0, victim));
  EXPECT_TRUE(fx.service->degraded());

  // Degraded mode: /a is untouched and fully readable; /b fails fast with
  // kCorrupt when its scan crosses the quarantined block; appends to both
  // keep working.
  ASSERT_OK_AND_ASSIGN(uint64_t a_read,
                       CountReadable(fx.service.get(), "/a"));
  EXPECT_EQ(a_read, 30u);
  auto b_read = CountReadable(fx.service.get(), "/b");
  ASSERT_FALSE(b_read.ok());
  EXPECT_EQ(b_read.status().code(), StatusCode::kCorrupt);
  ASSERT_OK(
      fx.service->Append("/a", RandomPayload(&rng, 40), forced).status());
  ASSERT_OK(
      fx.service->Append("/b", RandomPayload(&rng, 40), forced).status());

  // A second pass is quiet: the quarantined block is skipped, not
  // re-convicted or double-counted.
  ASSERT_OK_AND_ASSIGN(Scrubber::PassStats again, scrubber.RunOnce());
  EXPECT_EQ(again.corrupt_blocks, 0u);
  EXPECT_EQ(again.quarantined, 0u);
}

// clio.scrub.degraded is additive: each quarantined block adds one, and a
// destroyed service withdraws what it added, so the gauge ends where it
// started. The scrubber only reports verdicts; it never sets the gauge.
TEST(Scrub, DegradedGaugeCountsQuarantinesAndReturnsToItsStart) {
  auto degraded = [] {
    return ObsRegistry().Snapshot().gauge("clio.scrub.degraded");
  };
  const int64_t start = degraded();
  {
    auto fx = FaultFixture::Make();
    ASSERT_OK_AND_ASSIGN(LogFileId a_id, fx.service->CreateLogFile("/a"));
    ASSERT_OK_AND_ASSIGN(LogFileId b_id, fx.service->CreateLogFile("/b"));
    Rng rng(21);
    WriteOptions forced;
    forced.force = true;
    for (const char* path : {"/a", "/b"}) {
      for (int i = 0; i < 30; ++i) {
        ASSERT_OK(
            fx.service->Append(path, RandomPayload(&rng, 80), forced).status());
      }
    }
    for (LogFileId id : {a_id, b_id}) {
      const uint64_t victim = FindDataBlockOf(fx.service.get(), id);
      ASSERT_GT(victim, 0u) << "no pure data block of log file " << id;
      ASSERT_OK(fx.device->FlipBitOnMedia(victim, /*bit_index=*/1234));
      fx.service->cache().Erase({0, victim});
    }
    Scrubber scrubber(fx.service.get(), ScrubOptions{});
    ASSERT_OK_AND_ASSIGN(Scrubber::PassStats stats, scrubber.RunOnce());
    ASSERT_EQ(stats.quarantined, 2u);
    EXPECT_EQ(degraded(), start + 2);
  }
  EXPECT_EQ(degraded(), start);
}

TEST(Scrub, ChainMismatchConvictsTheForgedBlock) {
  auto fx = FaultFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(21);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(
        fx.service->Append("/a", RandomPayload(&rng, 80), forced).status());
  }
  // Forge a payload byte with a recomputed CRC: the block still parses,
  // only the chain can see it.
  uint64_t end = fx.service->current_volume()->end_block();
  uint64_t victim = 0;
  for (uint64_t b = 3; b + 3 < end && victim == 0; ++b) {
    OpStats op;
    auto parsed = fx.service->current_volume()->GetBlock(b, &op);
    if (!parsed.ok()) {
      continue;
    }
    for (const ParsedEntry& e : parsed->entries()) {
      if (!e.payload.empty()) {
        Bytes forged(parsed->image().begin(), parsed->image().end());
        size_t off = static_cast<size_t>(e.payload.data() -
                                         parsed->image().data());
        forged[off] ^= std::byte{0x01};
        StoreU32(forged, forged.size() - 4,
                 Crc32c(std::span<const std::byte>(forged.data(),
                                                   forged.size() - 4)));
        auto* mem = dynamic_cast<MemoryWormDevice*>(fx.device->base());
        ASSERT_NE(mem, nullptr);
        mem->Scribble(b, forged);
        fx.service->cache().Erase({0, b});
        victim = b;
        break;
      }
    }
  }
  ASSERT_GT(victim, 0u);

  Scrubber scrubber(fx.service.get(), ScrubOptions{});
  ASSERT_OK_AND_ASSIGN(Scrubber::PassStats stats, scrubber.RunOnce());
  EXPECT_GE(stats.chain_mismatches, 1u);
  EXPECT_GE(stats.quarantined, 1u);
  // The mismatch surfaces at the forged block's successor, which convicts
  // the forged block itself (its commit fed the accumulator).
  EXPECT_TRUE(fx.service->catalog().IsQuarantined(0, victim));
}

TEST(Scrub, CursorPersistsAcrossRestartAndResumesTheScan) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  uint64_t end = 0;
  uint64_t resume_at = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                           options));
    ASSERT_OK(service->CreateLogFile("/a").status());
    Rng rng(22);
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK(
          service->Append("/a", RandomPayload(&rng, 90), forced).status());
    }
    end = service->current_volume()->end_block();
    ASSERT_GT(end, 10u);
    resume_at = end / 2;
    ASSERT_OK(service->PersistScrubCursor(0, resume_at));
    // Catalog records ride the ordinary staged tail; force so the cursor
    // record is on media before the crash.
    ASSERT_OK(service->Force());
    auto cursor = service->catalog().scrub_cursor();
    ASSERT_TRUE(cursor.has_value());
    EXPECT_EQ(cursor->second, resume_at);
  }  // restart
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, &report));
  auto cursor = service->catalog().scrub_cursor();
  ASSERT_TRUE(cursor.has_value()) << "cursor lost across restart";
  EXPECT_EQ(cursor->first, 0u);
  EXPECT_EQ(cursor->second, resume_at);

  // The resumed pass picks up mid-volume (a few extra blocks may have been
  // burned by restart bookkeeping), then rewinds the cursor, so the NEXT
  // pass covers the whole volume again.
  Scrubber scrubber(service.get(), ScrubOptions{});
  uint64_t end_before = service->current_volume()->end_block();
  ASSERT_OK_AND_ASSIGN(Scrubber::PassStats resumed, scrubber.RunOnce());
  EXPECT_EQ(resumed.blocks_scanned, end_before - resume_at);
  EXPECT_EQ(resumed.corrupt_blocks, 0u);
  end_before = service->current_volume()->end_block();
  ASSERT_OK_AND_ASSIGN(Scrubber::PassStats full, scrubber.RunOnce());
  EXPECT_EQ(full.blocks_scanned, end_before - 1);
  EXPECT_EQ(scrubber.passes_completed(), 2u);
}

TEST(Scrub, QuarantineSurvivesRestart) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  uint64_t victim = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                           options));
    ASSERT_OK(service->CreateLogFile("/a").status());
    Rng rng(23);
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(
          service->Append("/a", RandomPayload(&rng, 80), forced).status());
    }
    victim = 3;
    ASSERT_OK(service->QuarantineBlock(0, victim));
    ASSERT_TRUE(service->degraded());
    ASSERT_OK(service->Force());  // land the verdict on media
  }  // restart
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, &report));
  EXPECT_TRUE(service->catalog().IsQuarantined(0, victim))
      << "quarantine verdict lost across restart";
  EXPECT_TRUE(service->degraded());
}

TEST(Scrub, BackgroundThreadScansUnderConcurrentAppends) {
  auto fx = FaultFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(24);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(
        fx.service->Append("/a", RandomPayload(&rng, 80), forced).status());
  }
  ScrubOptions opts;
  opts.interval_ms = 1;
  opts.blocks_per_tick = 8;
  opts.max_busy_yields = 2;
  Scrubber scrubber(fx.service.get(), opts);
  scrubber.Start();
  scrubber.Start();  // idempotent
  // The scrubber thread reads while the appends run; the service's own
  // lock orders them. Nightly CI stretches the loop through
  // CLIO_CHAOS_ITERATIONS (tests/test_util.h).
  for (int i = 0; i < testing::ScaledByChaos(200); ++i) {
    ASSERT_OK(
        fx.service->Append("/a", RandomPayload(&rng, 60), forced).status());
  }
  scrubber.Stop();
  scrubber.Stop();  // idempotent
  EXPECT_FALSE(fx.service->degraded());
  // And the media really is clean: a synchronous pass agrees.
  ASSERT_OK_AND_ASSIGN(Scrubber::PassStats stats, scrubber.RunOnce());
  EXPECT_EQ(stats.corrupt_blocks, 0u);
  EXPECT_EQ(stats.chain_mismatches, 0u);
}

// A transient read is no verdict on the block: the scrubber probes the
// same block again after a backoff, and once its retries run out it skips
// the block without convicting it; VerifyVolume returns the error.
TEST(Scrub, TransientReadsAreNeverAVerdict) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  auto device = std::make_unique<testing::FlakyBlockDevice>(&media);
  testing::FlakyBlockDevice* flaky = device.get();
  LogServiceOptions options;
  options.entrymap_degree = 8;
  auto created = LogService::Create(std::move(device), &clock, options);
  ASSERT_OK(created.status());
  std::unique_ptr<LogService> service = std::move(created).value();
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(25);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(service->Append("/a", RandomPayload(&rng, 80), forced).status());
  }
  const uint64_t burned = service->current_volume()->end_block() - 1;
  constexpr uint64_t kBlock = 5;
  Scrubber scrubber(service.get(), ScrubOptions{});
  // Two failures: the third probe reads the block, and the chain holds.
  // Five: the fourth retry fails too, and the block is skipped.
  for (int failures : {2, 5}) {
    SCOPED_TRACE(std::to_string(failures) + " failed reads");
    service->cache().Erase({0, kBlock});
    flaky->FailReads(kBlock, failures);
    ASSERT_OK_AND_ASSIGN(Scrubber::PassStats stats, scrubber.RunOnce());
    EXPECT_EQ(stats.retries, static_cast<uint64_t>(failures));
    EXPECT_EQ(stats.blocks_scanned, burned);
    EXPECT_EQ(stats.corrupt_blocks, 0u);
    EXPECT_EQ(stats.chain_mismatches, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
  }
  EXPECT_FALSE(service->degraded());
  service->cache().Erase({0, kBlock});
  flaky->FailReads(kBlock, 1);
  auto verified = VerifyVolume(service->current_volume());
  EXPECT_EQ(verified.status().code(), StatusCode::kUnavailable);
}

// The base blocks of the entries of `paths` that read back truncated.
std::set<uint64_t> TruncatedEntryBlocks(LogService* service,
                                        const std::vector<std::string>& paths) {
  std::set<uint64_t> blocks;
  for (const std::string& path : paths) {
    auto reader = service->OpenReader(path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    (*reader)->SeekToStart();
    for (;;) {
      auto record = (*reader)->Next();
      EXPECT_TRUE(record.ok()) << record.status().ToString();
      if (!record.ok() || !record->has_value()) {
        break;
      }
      if ((*record)->truncated) {
        blocks.insert((*record)->position.block);
      }
    }
  }
  return blocks;
}

// Reads `path` forward with Next from the start and backward with Prev
// from the end, and expects the backward list to be the forward list
// reversed, with the same payload, timestamp and truncation on every
// entry.
void ExpectReadsMirror(LogService* service, const std::string& path) {
  SCOPED_TRACE(path);
  using Read = std::tuple<Bytes, Timestamp, bool>;
  auto reader = service->OpenReader(path);
  ASSERT_OK(reader.status());
  auto read_all = [&](bool forward) {
    std::vector<Read> reads;
    for (;;) {
      auto record = forward ? (*reader)->Next() : (*reader)->Prev();
      EXPECT_TRUE(record.ok()) << record.status().ToString();
      if (!record.ok() || !record->has_value()) {
        return reads;
      }
      reads.emplace_back((*record)->payload, (*record)->timestamp,
                         (*record)->truncated);
    }
  };
  (*reader)->SeekToStart();
  const std::vector<Read> forward = read_all(true);
  (*reader)->SeekToEnd();
  std::vector<Read> backward = read_all(false);
  std::reverse(backward.begin(), backward.end());
  ASSERT_EQ(backward.size(), forward.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(backward[i], forward[i]) << "entry " << i;
  }
}

// VerifyVolume and the scrubber walk a volume with one classification and
// one chain accumulator, so on damaged media they convict the same
// corrupt blocks and count the same chain breaks, and an index rebuilt by
// the same walk passes verify's index check. Verify follows fragment
// chains by the reader's crossing rule, so it flags exactly the entries
// that read back truncated; the second input's payloads span 2-3 blocks.
// Seeded; nightly CI runs ten times the seeds through
// CLIO_CHAOS_ITERATIONS (tests/test_util.h).
TEST(Scrub, VerifyAndScrubAgreeOnDamagedMedia) {
  constexpr uint32_t kBlockSize = 512;
  uint64_t mismatches_seen = 0;
  uint64_t truncated_seen = 0;
  for (int input = 0; input < 2 * testing::ScaledByChaos(20); ++input) {
    const int seed = input / 2;
    const bool straddling = input % 2 == 1;
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 (straddling ? ", multi-block payloads" : ""));
    // Forced appends of the seed to /a and /b, then damage to distinct
    // blocks below the last two: only verify compares the walked chain
    // head with the recovered one, so the tail stays intact. Replays the
    // same volume and damage on every call.
    auto build_damaged = [&](FaultFixture* fx, bool enable_extent_index) {
      *fx = FaultFixture::Make(kBlockSize, /*capacity_blocks=*/8192,
                               enable_extent_index);
      ASSERT_OK(fx->service->CreateLogFile("/a").status());
      ASSERT_OK(fx->service->CreateLogFile("/b").status());
      Rng rng(seed);
      WriteOptions forced;
      forced.force = true;
      for (int i = 0; i < 80; ++i) {
        const char* path = rng.Chance(1, 2) ? "/a" : "/b";
        const Bytes payload = RandomPayload(
            &rng, straddling ? rng.Range(600, 1500) : rng.Range(20, 300));
        ASSERT_OK(fx->service->Append(path, payload, forced).status());
      }
      LogVolume* volume = fx->service->current_volume();
      auto* media = dynamic_cast<MemoryWormDevice*>(fx->device->base());
      ASSERT_NE(media, nullptr);
      std::vector<uint64_t> victims;
      for (uint64_t b = 1; b + 2 < volume->end_block(); ++b) {
        victims.push_back(b);
      }
      for (size_t i = victims.size(); i > 1; --i) {
        std::swap(victims[i - 1], victims[rng.Below(i)]);
      }
      size_t used = 0;
      for (uint64_t n = rng.Range(1, 3); n > 0; --n) {
        const uint64_t bit = rng.Below(8 * kBlockSize);
        ASSERT_OK(fx->device->FlipBitOnMedia(victims[used++], bit));
      }
      for (uint64_t n = rng.Range(1, 2); n > 0; --n) {
        ASSERT_OK(fx->device->InvalidateBlock(victims[used++]));
      }
      // Re-tag one block: a forged chain tag under a recomputed CRC parses.
      Bytes image(kBlockSize);
      ASSERT_OK(media->ReadBlock(victims[used], image));
      image[kBlockSize - 14] ^= std::byte{0x01};
      const std::span<const std::byte> covered(image.data(), kBlockSize - 4);
      StoreU32(image, kBlockSize - 4, Crc32c(covered));
      media->Scribble(victims[used++], image);
      for (size_t i = 0; i < used; ++i) {
        fx->service->cache().Erase({0, victims[i]});
      }
    };
    // The index starts off, so EnsureExtentIndex builds it by a walk.
    FaultFixture fx;
    ASSERT_NO_FATAL_FAILURE(
        build_damaged(&fx, /*enable_extent_index=*/false));
    LogVolume* volume = fx.service->current_volume();
    auto* media = dynamic_cast<MemoryWormDevice*>(fx.device->base());

    ASSERT_OK_AND_ASSIGN(VerifyReport verify, VerifyVolume(volume));
    const std::set<uint64_t> flagged(verify.broken_chain_blocks.begin(),
                                     verify.broken_chain_blocks.end());
    const std::set<uint64_t> truncated =
        TruncatedEntryBlocks(fx.service.get(), {"/a", "/b"});
    EXPECT_EQ(flagged, truncated)
        << ::testing::PrintToString(verify.broken_chains);
    truncated_seen += truncated.size();
    // Backward reads mirror forward ones on the damaged media, whether the
    // reader locates by block search (index off) or by the index the
    // writer kept (on), before the scrubber quarantines anything.
    FaultFixture indexed;
    ASSERT_NO_FATAL_FAILURE(
        build_damaged(&indexed, /*enable_extent_index=*/true));
    for (LogService* service : {fx.service.get(), indexed.service.get()}) {
      SCOPED_TRACE(service == fx.service.get() ? "index off" : "index on");
      for (const std::string path : {"/a", "/b"}) {
        ExpectReadsMirror(service, path);
      }
    }
    Scrubber scrubber(fx.service.get(), ScrubOptions{});
    ASSERT_OK_AND_ASSIGN(Scrubber::PassStats scrub, scrubber.RunOnce());
    // The scrubber's corrupt verdicts are the quarantined blocks that do
    // not parse: a chain conviction quarantines one that does.
    std::vector<uint64_t> corrupt_verdicts;
    for (const auto& [v, b] : fx.service->catalog().quarantined()) {
      Bytes raw(kBlockSize);
      ASSERT_OK(media->ReadBlock(b, raw));
      if (!ParsedBlock::Parse(BlockImage::Copy(raw)).ok()) {
        corrupt_verdicts.push_back(b);
      }
    }
    EXPECT_EQ(verify.corrupt_blocks, corrupt_verdicts);
    EXPECT_EQ(scrub.corrupt_blocks, verify.blocks_corrupt);
    EXPECT_EQ(scrub.chain_mismatches, verify.chain_mismatches.size());
    mismatches_seen += scrub.chain_mismatches;

    volume->EnableExtentIndex();
    ASSERT_OK(volume->EnsureExtentIndex());
    ASSERT_OK_AND_ASSIGN(VerifyReport rebuilt, VerifyVolume(volume));
    EXPECT_TRUE(rebuilt.index_checked);
    EXPECT_EQ(rebuilt.index_mismatches.size(), 0u);
  }
  EXPECT_GT(mismatches_seen, 0u);  // the re-tagged blocks broke the chain
  EXPECT_GT(truncated_seen, 0u);   // the damage cut fragment chains
}

}  // namespace
}  // namespace clio
