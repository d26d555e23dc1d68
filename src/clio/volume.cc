#include "src/clio/volume.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/clio/chain.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

// How far past an expected position we chase displaced entrymap entries or
// trailing garbage before giving up.
constexpr int kMaxDisplacementProbes = 16;

Bytes EmptyBitmap(uint32_t bitmap_bytes) {
  return Bytes(bitmap_bytes, std::byte{0});
}

bool AnyBitSet(const Bytes& bitmap) {
  return std::any_of(bitmap.begin(), bitmap.end(),
                     [](std::byte b) { return b != std::byte{0}; });
}

// Read-ahead of bulk internal reads (index rebuild, recovery), kept apart
// from the demand path's clio.cache.readahead_blocks.
Counter* RebuildReadaheadCounter() {
  static Counter* counter =
      ObsRegistry().counter("clio.index.rebuild_readahead_blocks");
  return counter;
}

}  // namespace

LogVolume::LogVolume(WormDevice* device, BlockCache* cache,
                     uint64_t cache_device_id, Catalog* catalog,
                     TimeSource* clock, const VolumeHeader& header,
                     uint32_t readahead_blocks)
    : device_(device),
      blocks_(device, cache, cache_device_id),
      catalog_(catalog),
      clock_(clock),
      header_(header),
      geometry_(header.entrymap_degree, device->capacity_blocks()),
      accumulator_(&geometry_),
      readahead_blocks_(readahead_blocks) {}

Result<std::unique_ptr<LogVolume>> LogVolume::Format(
    WormDevice* device, BlockCache* cache, uint64_t cache_device_id,
    Catalog* catalog, TimeSource* clock, NvramTail* nvram,
    const FormatOptions& options, uint32_t readahead_blocks) {
  auto end = device->QueryEnd();
  if (end.ok() && end.value() != 0) {
    return FailedPrecondition("device is not virgin; refusing to format");
  }
  VolumeHeader header;
  header.block_size = device->block_size();
  header.entrymap_degree = options.entrymap_degree;
  header.sequence_id = options.sequence_id;
  header.volume_index = options.volume_index;
  header.created_at = clock->Now();
  header.label = options.label;
  if (header.block_size < kMinBlockSize) {
    return InvalidArgument("block size below minimum");
  }
  if (header.entrymap_degree < 2 ||
      (header.entrymap_degree & (header.entrymap_degree - 1)) != 0) {
    return InvalidArgument("entrymap degree must be a power of two >= 2");
  }

  const Bytes header_image = header.Encode();
  CLIO_ASSIGN_OR_RETURN(uint64_t index, device->AppendBlock(header_image));
  if (index != 0) {
    return FailedPrecondition("volume header did not land in block 0");
  }

  std::unique_ptr<LogVolume> volume(new LogVolume(
      device, cache, cache_device_id, catalog, clock, header,
      readahead_blocks));
  volume->accumulator_ready_ = true;
  volume->end_block_ = 1;
  volume->chain_seed_ = ChainSeed(header_image);
  volume->writer_ = std::make_unique<LogVolumeWriter>(
      &volume->blocks_, header, &volume->geometry_, catalog, clock, nvram);
  CLIO_RETURN_IF_ERROR(volume->writer_->Restore(
      1, EntrymapAccumulator(&volume->geometry_), nullptr,
      header.chained() ? std::optional<uint64_t>(volume->chain_seed_)
                       : std::nullopt));
  return volume;
}

Result<uint64_t> LogVolume::LocateEnd(uint64_t head_end, uint64_t* examined,
                                      RecoveryReport::Passes* passes) {
  const uint64_t capacity = device_->capacity_blocks();
  const uint64_t window = uint64_t{readahead_blocks_} + 1;
  // One pass: how many blocks of [first, first + count) read before the
  // first one that failed, or the failure of `first` itself.
  auto run = [&](uint64_t first, uint64_t count,
                 uint64_t cache_below) -> Result<uint64_t> {
    CLIO_ASSIGN_OR_RETURN(std::span<const std::byte> read,
                          blocks_.ReadRun(first, count, cache_below));
    return read.size() / device_->block_size();
  };
  auto blocks_read = [](const Result<uint64_t>& pass) {
    return pass.ok() ? pass.value() : 0;
  };
  auto written = [&](uint64_t index) {
    ++*examined;
    ++passes->end_probes;
    return run(index, 1, /*cache_below=*/0).ok();
  };
  uint64_t lo;
  auto query = device_->QueryEnd();
  if (query.ok()) {
    // Trust but verify: a device end query may under-report (the paper
    // only promises the end "can be found"; the search below is the
    // authoritative fallback). The tail pass below reads past a short
    // answer, and the island probes then walk on from there.
    lo = query.value();
  } else {
    // Binary search for the first never-written block (§2.3.1: "binary
    // search is used", §3.4: cost log2 V), finishing with one pass over
    // its last window of candidates.
    lo = 0;
    uint64_t hi = capacity;
    while (hi - lo > window) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (written(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < hi) {
      ++passes->end_probes;
      const uint64_t got = blocks_read(run(lo, hi - lo, /*cache_below=*/0));
      *examined += std::min(got + 1, hi - lo);
      lo += got;
    }
  }
  // The tail pass: [lo - W, lo] in one read, caching what lies below lo
  // (the header pass already holds [1, head_end)).
  uint64_t end = lo;
  bool confirmed = false;
  const uint64_t first =
      std::max(lo > readahead_blocks_ ? lo - readahead_blocks_ : 0,
               std::min(head_end, lo));
  const uint64_t count = std::min(lo + 1, capacity) - first;
  if (count > 0) {
    ++passes->tail;
    const Result<uint64_t> tail = run(first, count, /*cache_below=*/lo);
    const uint64_t reached = first + blocks_read(tail);
    if (reached > lo) {
      ++*examined;
      end = lo + 1;  // lo is written: the end query under-reported
    } else if (reached == lo && lo < capacity) {
      // The pass read everything below lo and stopped at lo; lo's own
      // status decides. A pass of lo alone (depth 0) already holds it.
      Status at_lo = tail.status();
      if (first < lo) {
        ++passes->end_probes;
        at_lo = run(lo, 1, /*cache_below=*/0).status();
      }
      ++*examined;
      if (at_lo.code() == StatusCode::kNotWritten) {
        confirmed = true;
      } else {
        // Written, or unknown (a transient read): it may hold forced
        // entries, so it joins the region and the torn-tail check
        // re-reads it.
        end = lo + 1;
      }
    }
  }
  // Wild writes may have deposited readable garbage just past the frontier;
  // absorb nearby islands so they end up inside the recovered region. An
  // end confirmed unwritten needs no probes: a truthful end query already
  // counts every block that is not virgin, and an island past a confirmed
  // gap (hidden by a lying query, or missed by the binary search) is the
  // writer's (LogVolumeWriter::BurnBuilder invalidates and logs every
  // block a burn skips).
  for (int probe = 0; !confirmed && probe < kMaxDisplacementProbes &&
                      end + probe < capacity;
       ++probe) {
    if (written(end + probe)) {
      end = end + probe + 1;
      probe = -1;  // restart the window after the island
    }
  }
  // A header-pass block the probes then failed to read (a transient
  // fault) lies past the end: it must not stay cached.
  for (uint64_t b = end; b < head_end; ++b) {
    blocks_.Evict(b);
  }
  return end;
}

Result<std::unique_ptr<LogVolume>> LogVolume::Open(
    WormDevice* device, BlockCache* cache, uint64_t cache_device_id,
    Catalog* catalog, TimeSource* clock, NvramTail* nvram, bool writable,
    uint32_t readahead_blocks, RecoveryReport* report, bool replay_catalog,
    PendingCheckpoint* checkpoint) {
  RecoveryReport::StepMicros step_us;
  const uint64_t locate_start = TraceNowUs();

  // Step 0: the volume header fixes geometry for everything below. Its
  // pass also reads [1, W] into the cache: the catalog walk starts at
  // block 1, and the first entrymap nodes sit there.
  RecoveryReport::Passes passes;
  passes.head = 1;
  CachedBlockReader head_reader(device, cache, cache_device_id);
  CLIO_ASSIGN_OR_RETURN(
      std::span<const std::byte> head,
      head_reader.ReadRun(
          0,
          std::clamp<uint64_t>(device->capacity_blocks(), 1,
                               uint64_t{readahead_blocks} + 1),
          /*cache_below=*/UINT64_MAX));
  const uint64_t head_end = head.size() / device->block_size();
  Bytes header_block(head.begin(), head.begin() + device->block_size());
  CLIO_ASSIGN_OR_RETURN(VolumeHeader header,
                        VolumeHeader::Decode(header_block));

  std::unique_ptr<LogVolume> volume(new LogVolume(
      device, cache, cache_device_id, catalog, clock, header,
      readahead_blocks));
  volume->recovering_ = true;

  // Step 1: locate the end of the written portion.
  uint64_t examined = 0;
  CLIO_ASSIGN_OR_RETURN(uint64_t end,
                        volume->LocateEnd(head_end, &examined, &passes));
  if (end == 0) {
    return Corrupt("volume has a header but reports no written blocks");
  }
  volume->end_block_ = end;
  step_us.locate = TraceNowUs() - locate_start;
  if (report != nullptr) {
    report->end_location_reads = examined;
  }

  // Step 1b: a crash can leave torn garbage in the trailing blocks;
  // invalidate such blocks so every reader skips them (§2.3.2). Only
  // garbage: a transient read fails the restart, since the block may hold
  // forced entries.
  OpStats checks;
  auto get = [&](uint64_t b) { return volume->GetBlock(b, &checks); };
  std::vector<uint64_t> torn;
  VolumeWalk tail = VolumeWalk::Backward(end, kMaxDisplacementProbes);
  auto invalidate = [&](const WalkedBlock& w) {
    if (w.kind != BlockKind::kGarbage) {
      tail.Stop();
      return Status::Ok();
    }
    torn.push_back(w.block);
    return volume->blocks_.Invalidate(w.block);
  };
  CLIO_RETURN_IF_ERROR(tail.Run(get, invalidate));
  if (report != nullptr) {
    report->invalidated_blocks = torn.size();
  }

  // Steps 1c and 1d, back from the last valid block: was the volume
  // sealed, its newest timestamp, and the chain accumulator (chained
  // volumes only). Each valid block stores the accumulated tag over all
  // valid blocks BEFORE it, so the tag after the last valid block is its
  // stored tag advanced by its own commit — O(1) plus the invalidated
  // tail, no full rescan (a periodic scrub pass re-walks from the seed and
  // would expose a forged prefix this shortcut trusts).
  volume->chain_seed_ = ChainSeed(header_block);
  if (header.chained()) {
    volume->chain_head_tag_ = volume->chain_seed_;
  }
  bool seen_valid = false;
  bool stamped = false;
  bool tagged = !header.chained();
  VolumeWalk back = VolumeWalk::Backward(end, end);
  auto last_valid = [&](const WalkedBlock& w) {
    if (!w.parsed.has_value()) {
      return Status::Ok();
    }
    if (!seen_valid) {
      volume->sealed_ = w.parsed->volume_sealed();
      seen_valid = true;
    }
    stamped = stamped || volume->NoteTimestamps(*w.parsed);
    if (!tagged && w.parsed->chain_tag().has_value()) {
      const Sha256Digest commit = ChainBlockCommit(*w.parsed);
      volume->chain_head_tag_ = AdvanceChainTag(*w.parsed->chain_tag(), commit);
      tagged = true;
    }
    if (stamped && tagged) {
      back.Stop();
    }
    return Status::Ok();
  };
  CLIO_RETURN_IF_ERROR(back.Run(get, last_valid));
  passes.walk += checks.device_reads;

  // Steps 2 + 3: catalog replay and entrymap-tail reconstruction — from
  // the NVRAM checkpoint when one applies (replay only the suffix past
  // its coverage, DESIGN.md §17), else by the full §3.4 scan. Step 3 runs
  // before step 2 on the scan path: the catalog is needed to expand
  // sublog ancestor chains while rebuilding entrymap bitmaps; searches
  // during replay synthesize any entrymap info the not-yet-rebuilt
  // accumulator would have supplied.
  EntrymapAccumulator accumulator(&volume->geometry_);
  bool from_checkpoint = false;
  const uint64_t replay_start = TraceNowUs();
  if (checkpoint != nullptr && replay_catalog) {
    OpStats replay_stats;
    auto restored = volume->TryRestoreFromCheckpoint(
        checkpoint, end, &accumulator, &replay_stats, &step_us.decode_wait);
    passes.replay += replay_stats.device_reads;
    CLIO_RETURN_IF_ERROR(restored.status());
    from_checkpoint = restored.value();
    if (from_checkpoint && report != nullptr) {
      report->restored_checkpoint = true;
      report->checkpoint_replay_blocks =
          end - checkpoint->JoinState()->covered_end;
      report->tail_scan_blocks = replay_stats.blocks_read;
    }
  }
  if (!from_checkpoint) {
    OpStats catalog_stats;
    if (replay_catalog) {
      CLIO_RETURN_IF_ERROR(volume->ReplayCatalog(&catalog_stats));
    }
    if (report != nullptr) {
      report->catalog_replay_blocks = catalog_stats.blocks_read;
    }
    OpStats tail_stats;
    CLIO_RETURN_IF_ERROR(
        volume->RebuildAccumulator(&accumulator, &tail_stats));
    if (report != nullptr) {
      report->tail_scan_blocks = tail_stats.blocks_read;
    }
    passes.walk += catalog_stats.device_reads;
    passes.replay += tail_stats.device_reads;
  }
  volume->recovering_ = false;
  step_us.replay = TraceNowUs() - replay_start - step_us.decode_wait;
  if (report != nullptr) {
    report->device_passes = passes;
    report->step_us = step_us;
  }

  // Step 4: restore the NVRAM-staged tail block, if it is current.
  // The staged image may contain catalog records (e.g. a forced create);
  // one that does not parse is unusable.
  std::optional<ParsedBlock> staged;
  if (writable && nvram != nullptr && nvram->has_data() &&
      nvram->block_index() == end) {
    auto parsed = ParsedBlock::Parse(BlockImage::Copy(nvram->data()));
    if (parsed.ok()) {
      CLIO_RETURN_IF_ERROR(volume->ApplyBlockRecords(end, *parsed, nullptr));
      staged = std::move(parsed).value();
    }
    if (report != nullptr) {
      report->restored_nvram_tail = staged.has_value();
    }
  }

  volume->accumulator_ready_ = true;
  if (writable && !volume->sealed_) {
    volume->writer_ = std::make_unique<LogVolumeWriter>(
        &volume->blocks_, header, &volume->geometry_, catalog, clock, nvram);
    CLIO_RETURN_IF_ERROR(
        volume->writer_->Restore(end, std::move(accumulator),
                                 staged.has_value() ? &*staged : nullptr,
                                 volume->chain_head_tag_));
    for (uint64_t bad : torn) {
      volume->writer_->NoteBadBlock(bad);
    }
    // A checkpoint-restored index has replayed up to the staging block;
    // attach it so subsequent burns keep it current.
    if (volume->index_ != nullptr &&
        volume->index_->covered_end() == volume->writer_->staging_block()) {
      volume->writer_->set_extent_index(volume->index_.get());
    }
  } else {
    volume->accumulator_ = std::move(accumulator);
  }
  return volume;
}

bool LogVolume::NoteTimestamps(const ParsedBlock& parsed) {
  bool stamped = false;
  for (const ParsedEntry& e : parsed.entries()) {
    if (e.timestamp.has_value()) {
      recovered_max_timestamp_ =
          std::max(recovered_max_timestamp_, *e.timestamp);
      stamped = true;
    }
  }
  return stamped;
}

Status LogVolume::ApplyBlockRecords(uint64_t block, const ParsedBlock& parsed,
                                    OpStats* stats) {
  NoteTimestamps(parsed);
  for (size_t i = 0; i < parsed.entries().size(); ++i) {
    const ParsedEntry& e = parsed.entries()[i];
    if (e.logfile_id != kCatalogLogId || e.is_fragment()) {
      continue;
    }
    bool truncated = false;
    auto payload = AssembleEntryPayload(block, parsed, i, stats, &truncated);
    CLIO_RETURN_IF_ERROR(payload.status());
    // Data in corrupted blocks is assumed lost (§2.3.2).
    auto record = CatalogRecord::Decode(payload.value());
    if (!truncated && record.ok()) {
      CLIO_RETURN_IF_ERROR(catalog_->Apply(record.value()));
    }
  }
  return Status::Ok();
}

Status LogVolume::ReplayCatalog(OpStats* stats) {
  auto get = [&](uint64_t b) { return GetBlock(b, stats); };
  auto apply = [&](const WalkedBlock& w) {
    if (!w.parsed.has_value()) {
      return Status::Ok();
    }
    return ApplyBlockRecords(w.block, *w.parsed, stats);
  };
  for (uint64_t pos = 1;;) {
    CLIO_ASSIGN_OR_RETURN(std::optional<uint64_t> next,
                          NextBlockWith(kCatalogLogId, pos, stats));
    if (!next.has_value()) {
      return Status::Ok();
    }
    CLIO_RETURN_IF_ERROR(VolumeWalk(*next, *next + 1).Run(get, apply));
    pos = *next + 1;
  }
}

Status LogVolume::RebuildAccumulator(EntrymapAccumulator* acc,
                                     OpStats* stats) {
  const uint64_t end = end_block_;
  if (end <= 1) {
    return Status::Ok();
  }
  auto get = [&](uint64_t b) { return GetBlock(b, stats); };
  // Sets a walked block's bit in the level-`level` node at `home`.
  std::vector<LogFileId> ids;
  auto set_bits = [&](const WalkedBlock& w, int level, uint64_t home,
                      uint32_t bit) {
    BlockMarkIds(*catalog_, w, &ids);
    for (LogFileId id : ids) {
      acc->SetBit(level, home, id, bit);
    }
    return Status::Ok();
  };

  // Level 1: scan the blocks since the last written level-1 home, a
  // contiguous run read in read-ahead passes.
  const uint64_t h1 = ((end - 1) / geometry_.degree()) * geometry_.degree();
  auto level1 = [&](const WalkedBlock& w) {
    return set_bits(w, 1, geometry_.HomeFor(w.block, 1),
                    geometry_.SubgroupOf(w.block, 1));
  };
  VolumeWalk since_home(std::max<uint64_t>(h1, 1), end);
  CLIO_RETURN_IF_ERROR(since_home.Run(BulkRead(end, stats), level1));

  // Levels 2..k: fold in the level-(l-1) entrymap entries written since the
  // last level-l home, then the open level-(l-1) group itself.
  for (int level = 2; level <= geometry_.max_level(); ++level) {
    uint64_t step = geometry_.PowN(level - 1);
    uint64_t hl = ((end - 1) / geometry_.PowN(level)) * geometry_.PowN(level);
    uint64_t hlm1 = ((end - 1) / step) * step;
    for (uint64_t h = hl + step; h <= hlm1; h += step) {
      CLIO_ASSIGN_OR_RETURN(std::optional<EntrymapPayload> payload,
                            FetchEntrymap(level - 1, h, stats));
      if (payload.has_value()) {
        for (const EntrymapPayload::PerFile& f : payload->files) {
          if (AnyBitSet(f.bitmap)) {
            acc->SetBit(level, geometry_.HomeFor(h - step, level), f.id,
                        geometry_.SubgroupOf(h - step, level));
          }
        }
        continue;
      }
      // The node was never written (a garbage write displaced its home and
      // the crash hit before re-emission): recompute its contribution from
      // the blocks it covers, so the next higher-level node stays complete.
      const uint32_t bit = geometry_.SubgroupOf(h - step, level);
      const uint64_t node_home = geometry_.HomeFor(h - step, level);
      auto synthesize = [&](const WalkedBlock& w) {
        return set_bits(w, level, node_home, bit);
      };
      VolumeWalk covered(std::max<uint64_t>(h - step, 1), std::min(h, end));
      CLIO_RETURN_IF_ERROR(covered.Run(get, synthesize));
    }
    for (LogFileId id : acc->MarkedIds(level - 1,
                                        geometry_.HomeFor(hlm1, level - 1))) {
      acc->SetBit(level, geometry_.HomeFor(hlm1, level), id,
                  geometry_.SubgroupOf(hlm1, level));
    }
  }
  return Status::Ok();
}

Result<ParsedBlock> LogVolume::ScanBlock(uint64_t block, uint64_t limit,
                                         OpStats* stats, Counter* readahead) {
  // Degraded mode: a block the scrubber quarantined is known-corrupt; fail
  // fast with its address instead of re-reading and re-parsing garbage.
  if (catalog_->IsQuarantined(header_.volume_index, block)) {
    return Corrupt("quarantined block " + std::to_string(block) +
                   " (volume " + std::to_string(header_.volume_index) +
                   ", chain position " + std::to_string(block) + ")");
  }
  auto image = blocks_.FetchSequential(block, limit, readahead_blocks_, stats,
                                       readahead);
  if (!image.ok()) {
    return image.status();
  }
  return ParsedBlock::Parse(std::move(image).value());
}

VolumeWalk::ReadFn LogVolume::BulkRead(uint64_t limit, OpStats* stats) {
  return [this, limit, stats](uint64_t b) {
    return ScanBlock(b, limit, stats, RebuildReadaheadCounter());
  };
}

Result<bool> LogVolume::TryRestoreFromCheckpoint(PendingCheckpoint* pending,
                                                 uint64_t end,
                                                 EntrymapAccumulator* acc,
                                                 OpStats* stats,
                                                 uint64_t* wait_us) {
  auto join = [&](auto part) {
    const uint64_t start = TraceNowUs();
    auto* joined = part();
    *wait_us += TraceNowUs() - start;
    return joined;
  };
  const CheckpointState* ck = join([&] { return pending->JoinState(); });
  if (ck == nullptr || ck->volume_index != header_.volume_index ||
      ck->covered_end < 1 || ck->covered_end > end) {
    // Undecodable, a foreign volume, or coverage past the recovered end.
    return false;
  }

  // Catalog as of covered_end: the checkpoint carries the live catalog's
  // export records (same compaction that seeds a successor volume).
  for (const Bytes& encoded : ck->catalog_records) {
    auto record = CatalogRecord::Decode(encoded);
    if (!record.ok() || !catalog_->Apply(record.value()).ok()) {
      return false;
    }
  }
  acc->ImportPending(ck->accumulator_nodes);
  recovered_max_timestamp_ =
      std::max(recovered_max_timestamp_, ck->max_timestamp);

  // Replay [covered_end, end) with the same rules the writer applied
  // live. Emission boundaries crossed by the replay position mean the
  // node went to media before the block burned: drop it from the pending
  // state (FetchEntrymap finds it there; one lost to a displaced burn is
  // synthesized from below by GroupBitmap, exactly as after a full scan).
  std::vector<uint64_t> last_home(geometry_.max_level() + 1, 0);
  for (int level = 1; level <= geometry_.max_level(); ++level) {
    uint64_t n = geometry_.PowN(level);
    last_home[level] = ((ck->covered_end - 1) / n) * n;
  }
  // The suffix is indexed apart and appended to the decoded index after
  // the walk, so the index decode overlaps the replay.
  ExtentIndex suffix;
  std::vector<LogFileId> ids;
  auto replay = [&](const WalkedBlock& w) -> Status {
    for (int level = 1; level <= geometry_.max_level(); ++level) {
      uint64_t n = geometry_.PowN(level);
      uint64_t due = (w.block / n) * n;
      if (due > last_home[level]) {
        acc->Drop(level, due);
        last_home[level] = due;
      }
    }
    // Catalog records burned after the checkpoint: apply before computing
    // memberships so new sublogs' ancestor chains resolve.
    if (w.parsed.has_value()) {
      CLIO_RETURN_IF_ERROR(ApplyBlockRecords(w.block, *w.parsed, stats));
    }
    BlockMarkIds(*catalog_, w, &ids);
    if (!ids.empty()) {
      acc->Mark(w.block, ids);
    }
    IndexBlock(&suffix, w, ids);
    return Status::Ok();
  };
  // The suffix is read ahead of the walk in windows of up to one
  // checkpoint interval (at least a read-ahead pass; one block with
  // read-ahead off): a window pins what the header and tail passes
  // cached and reads the rest in one pass (CachedBlockReader::FetchRun),
  // so the replay is one device pass however small the cache. A
  // quarantined block starts no window, and a block the pass did not
  // reach (it stopped at a failed block) reads as the full scan reads it.
  const uint64_t pass_blocks =
      readahead_blocks_ == 0
          ? 1
          : std::max(pending->replay_pass_blocks(),
                     uint64_t{readahead_blocks_} + 1);
  std::vector<BlockImage> window;
  uint64_t window_first = ck->covered_end;
  auto read = [&](uint64_t b) -> Result<ParsedBlock> {
    const bool quarantined =
        catalog_->IsQuarantined(header_.volume_index, b);
    if (b - window_first >= window.size() && !quarantined) {
      window_first = b;
      window.assign(std::min(pass_blocks, end - b), BlockImage());
      stats->device_reads +=
          blocks_.FetchRun(b, window, RebuildReadaheadCounter());
    }
    BlockImage image;
    if (b - window_first < window.size()) {
      image = std::move(window[b - window_first]);
    }
    if (!image || quarantined) {
      return ScanBlock(b, end, stats, RebuildReadaheadCounter());
    }
    ++stats->blocks_read;
    return ParsedBlock::Parse(std::move(image));
  };
  VolumeWalk walk(ck->covered_end, end);
  CLIO_RETURN_IF_ERROR(walk.Run(read, replay));
  ExtentIndex* index = join([&] { return pending->JoinIndex(); });
  if (index == nullptr ||
      !index->ApplyDelta(end, suffix.EncodeSince(ck->covered_end)).ok()) {
    // The index did not decode: the full scan runs instead, from an
    // empty accumulator.
    acc->Clear();
    return false;
  }
  index_ = std::make_unique<ExtentIndex>(std::move(*index));
  index_enabled_ = true;
  index_ready_.store(true, std::memory_order_release);
  return true;
}

void LogVolume::EnableExtentIndex() {
  std::lock_guard<std::mutex> lock(index_build_mu_);
  index_enabled_ = true;
  if (index_ready_.load(std::memory_order_acquire)) {
    return;  // already built (checkpoint restore, or enabled twice)
  }
  if (end_block() == 1 && writer_ != nullptr) {
    // Fresh volume: nothing burned yet, so an empty index is complete.
    index_ = std::make_unique<ExtentIndex>();
    writer_->set_extent_index(index_.get());
    index_ready_.store(true, std::memory_order_release);
  }
}

Status LogVolume::EnsureExtentIndex() {
  if (!index_enabled_ || index_ready_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(index_build_mu_);
  if (index_ready_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  static Counter* rebuilds = ObsRegistry().counter("clio.index.rebuilds");
  auto idx = std::make_unique<ExtentIndex>();
  const uint64_t limit = end_block();
  OpStats stats;
  std::vector<LogFileId> ids;
  auto index_block = [&](const WalkedBlock& w) {
    BlockMarkIds(*catalog_, w, &ids);
    IndexBlock(idx.get(), w, ids);
    return Status::Ok();
  };
  // A transient read leaves the index off: the next locate tries again.
  VolumeWalk burned(1, limit);
  CLIO_RETURN_IF_ERROR(burned.Run(BulkRead(limit, &stats), index_block));
  if (writer_ != nullptr && idx->covered_end() == writer_->staging_block()) {
    writer_->set_extent_index(idx.get());
  }
  index_ = std::move(idx);
  rebuilds->Increment();
  index_ready_.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<CheckpointRecord> LogVolume::BuildCheckpointRecord(uint64_t from,
                                                          bool with_catalog) {
  if (writer_ == nullptr) {
    return FailedPrecondition("checkpoint requires a writable volume");
  }
  const ExtentIndex* idx = CoveringIndex(/*build=*/true);
  if (idx == nullptr) {
    return FailedPrecondition(
        "extent index has not caught up with the writer");
  }
  if (from < 1 || from > idx->covered_end()) {
    return InvalidArgument("checkpoint range starts past the index");
  }
  CheckpointRecord record;
  record.volume_index = header_.volume_index;
  record.from = from;
  record.covered_end = writer_->staging_block();
  record.max_timestamp =
      std::max(recovered_max_timestamp_, writer_->last_issued_timestamp());
  record.index_delta = idx->EncodeSince(from);
  record.accumulator_nodes = writer_->accumulator().ExportPending();
  if (with_catalog) {
    record.catalog_records.emplace();
    for (const CatalogRecord& entry : catalog_->ExportRecords()) {
      record.catalog_records->push_back(entry.Encode());
    }
  }
  return record;
}

const ExtentIndex* LogVolume::CoveringIndex(bool build) {
  if (build && !EnsureExtentIndex().ok()) {
    return nullptr;
  }
  const ExtentIndex* idx = extent_index();
  return idx != nullptr && idx->covered_end() == end_block() ? idx : nullptr;
}

const ExtentIndex* LogVolume::PlanningIndex(LogFileId id, uint64_t lo,
                                            uint64_t hi) {
  if (id == kVolumeSeqLogId || id == kEntrymapLogId) {
    return nullptr;  // untracked: the index holds no runs for them
  }
  const ExtentIndex* idx = CoveringIndex(/*build=*/false);
  if (idx == nullptr || hi > end_block()) {
    return nullptr;
  }
  // The index records burn-time memberships; a block quarantined since
  // must still be read (and fail) exactly as it would without the index.
  const auto& quarantined = catalog_->quarantined();
  auto q = quarantined.lower_bound({header_.volume_index, lo});
  if (q != quarantined.end() &&
      *q < std::make_pair(header_.volume_index, hi)) {
    return nullptr;
  }
  return idx;
}

Result<ParsedBlock> LogVolume::GetBlock(uint64_t block, OpStats* stats,
                                        std::optional<LogFileId> scanned) {
  if (block == 0) {
    return InvalidArgument("block 0 is the volume header");
  }
  if (writer_ != nullptr && writer_->has_staged_entries() &&
      block == writer_->staging_block()) {
    if (stats != nullptr) {
      ++stats->blocks_read;
      ++stats->cache_hits;  // staged tail lives in server memory
    }
    return ParsedBlock::Parse(writer_->StagedImage());
  }
  if (block >= end_block()) {
    return NotWritten("block " + std::to_string(block) +
                      " is past the written end");
  }
  // Readahead never crosses end_block(): the staging block is served from
  // memory above and unburned blocks would fail the device read. The
  // index ends the pass at the scanned file's last block in the window,
  // so blocks holding only other files are not read (DESIGN.md §12).
  // During recovery every miss reads the whole window: the walk's
  // entrymap nodes and catalog blocks lie ahead of it (DESIGN.md §17).
  uint64_t limit = block + 1;
  if ((scanned.has_value() || recovering_) && readahead_blocks_ > 0) {
    limit = std::min<uint64_t>(block + readahead_blocks_ + 1, end_block());
    const ExtentIndex* idx =
        scanned.has_value() ? PlanningIndex(*scanned, block, limit) : nullptr;
    if (idx != nullptr) {
      ExtentIndex::Lookup last = idx->PrevBlockWith(*scanned, limit);
      if (last.authoritative) {
        limit = std::max(last.block.value_or(block), block) + 1;
      }
    }
  }
  return ScanBlock(block, limit, stats,
                   recovering_ ? RebuildReadaheadCounter() : nullptr);
}

Result<Bytes> LogVolume::AssembleEntryPayload(
    uint64_t block, const ParsedBlock& parsed, size_t entry_index,
    OpStats* stats, bool* truncated, std::vector<PayloadSegment>* segments) {
  *truncated = false;
  Bytes out;
  // A segment's image keeps its block's frame cached while it lives.
  auto add = [&](const ParsedBlock& from, std::span<const std::byte> payload) {
    if (segments == nullptr) {
      out.insert(out.end(), payload.begin(), payload.end());
    } else if (!payload.empty()) {
      const BlockImage& image = from.shared_image();
      segments->push_back(
          {image, static_cast<uint32_t>(payload.data() - image.data()),
           static_cast<uint32_t>(payload.size())});
    }
  };
  add(parsed, parsed.entries()[entry_index].payload);
  std::optional<FragmentChain> chain;
  if (entry_index + 1 == parsed.entries().size()) {
    chain = FragmentChain::From(block, parsed);
  }
  if (!chain.has_value()) {
    return out;
  }
  VolumeWalk walk(block + 1, end_including_staged());
  auto get = [&](uint64_t b) { return GetBlock(b, stats); };
  auto follow = [&](const WalkedBlock& w) {
    switch (chain->Feed(w)) {
      case FragmentChain::Step::kPass:
        return Status::Ok();
      case FragmentChain::Step::kBroken:
        break;
      case FragmentChain::Step::kFragment:
        add(*w.parsed, chain->fragment().payload);
        if (chain->open()) {
          return Status::Ok();
        }
        break;
    }
    walk.Stop();
    return Status::Ok();
  };
  CLIO_RETURN_IF_ERROR(walk.Run(get, follow));
  // Open still: the chain broke, or the range ended before its last
  // fragment. Sealed: a crash cut the entry short.
  *truncated = chain->open() || chain->sealed();
  return out;
}

bool LogVolume::BlockHas(const ParsedBlock& block, LogFileId id) const {
  if (id == kVolumeSeqLogId) {
    return !block.entries().empty();
  }
  for (const ParsedEntry& e : block.entries()) {
    if (EntryBelongsTo(e, id)) {
      return true;
    }
  }
  return false;
}

bool LogVolume::EntryBelongsTo(const ParsedEntry& e, LogFileId id) const {
  if (catalog_->IsWithin(e.logfile_id, id)) {
    return true;
  }
  for (LogFileId extra : e.extra_ids) {
    if (catalog_->IsWithin(extra, id)) {
      return true;
    }
  }
  return false;
}

const EntrymapAccumulator& LogVolume::LiveAccumulator() const {
  return writer_ != nullptr ? writer_->accumulator() : accumulator_;
}

Result<std::optional<EntrymapPayload>> LogVolume::FetchEntrymap(
    int level, uint64_t home, OpStats* stats) {
  // The node can sit a few blocks past its home, displaced past invalid
  // and garbage blocks (§2.3.2), and its chunks can spill into the blocks
  // after it.
  std::optional<EntrymapPayload> merged;
  const uint64_t limit = end_including_staged();
  VolumeWalk window(home, std::min(limit, home + kMaxDisplacementProbes));
  auto get = [&](uint64_t b) { return GetBlock(b, stats); };
  auto collect = [&](const WalkedBlock& w) {
    if (!w.parsed.has_value()) {
      return Status::Ok();
    }
    bool found_here = false;
    bool passed_home = false;
    for (const ParsedEntry& e : w.parsed->entries()) {
      if (e.logfile_id != kEntrymapLogId || e.is_fragment() ||
          e.payload.empty()) {
        continue;
      }
      // Cheap level peek before a full decode.
      if (static_cast<uint8_t>(e.payload[0]) != level) {
        continue;
      }
      auto decoded = EntrymapPayload::Decode(e.payload,
                                             geometry_.bitmap_bytes());
      if (!decoded.ok()) {
        continue;
      }
      if (stats != nullptr) {
        ++stats->entrymap_entries_examined;
      }
      if (decoded.value().home_block > home) {
        passed_home = true;  // nodes are ordered: ours cannot be further on
        continue;
      }
      if (decoded.value().home_block != home) {
        continue;
      }
      found_here = true;
      if (!merged.has_value()) {
        merged = std::move(decoded).value();
      } else {
        for (auto& f : decoded.value().files) {
          merged->files.push_back(std::move(f));
        }
      }
    }
    // Done once the chunks stop, or when a later home's node appears
    // before ours: ours was never written.
    if (merged.has_value() ? !(found_here && w.parsed->entrymap_continues())
                           : passed_home) {
      window.Stop();
    }
    return Status::Ok();
  };
  if (!window.Run(get, collect).ok()) {
    return std::optional<EntrymapPayload>();  // unreadable: info missing
  }
  return merged;
}

Result<Bytes> LogVolume::GroupBitmap(LogFileId id, int level, uint64_t home,
                                     OpStats* stats) {
  const uint64_t limit = end_including_staged();
  if (home < limit) {
    CLIO_ASSIGN_OR_RETURN(std::optional<EntrymapPayload> payload,
                          FetchEntrymap(level, home, stats));
    if (payload.has_value()) {
      const EntrymapPayload::PerFile* f = payload->Find(id);
      return f != nullptr ? f->bitmap : EmptyBitmap(geometry_.bitmap_bytes());
    }
    // Missing: synthesize below.
  } else if (accumulator_ready_) {
    // Not on media: the node (if any) is pending in the accumulator, keyed
    // by its home block. (During recovery replay the accumulator does not
    // exist yet; synthesize.)
    Bytes bitmap = LiveAccumulator().BitmapOf(level, home, id);
    return bitmap.empty() ? EmptyBitmap(geometry_.bitmap_bytes()) : bitmap;
  }

  // Fallback (§2.3.2): assume the entrymap entry is absent and search the
  // lower levels / the blocks themselves.
  Bytes bitmap = EmptyBitmap(geometry_.bitmap_bytes());
  const uint64_t lo = home - geometry_.PowN(level);
  const uint64_t step = geometry_.PowN(level - 1);
  for (uint32_t bit = 0; bit < geometry_.degree(); ++bit) {
    uint64_t sub_lo = lo + bit * step;
    if (sub_lo >= limit) {
      break;
    }
    bool any = false;
    if (level == 1) {
      if (sub_lo >= 1) {
        CLIO_ASSIGN_OR_RETURN(std::optional<ParsedBlock> parsed,
                              ValidBlock(GetBlock(sub_lo, stats)));
        any = parsed.has_value() && BlockHas(*parsed, id);
      }
    } else {
      CLIO_ASSIGN_OR_RETURN(Bytes sub,
                            GroupBitmap(id, level - 1, sub_lo + step, stats));
      any = AnyBitSet(sub);
    }
    if (any) {
      bitmap[bit / 8] |= static_cast<std::byte>(1u << (bit % 8));
    }
  }
  return bitmap;
}

Result<std::optional<uint64_t>> LogVolume::Descend(LogFileId id, int level,
                                                   uint64_t lo, bool highest,
                                                   OpStats* stats) {
  if (level == 0) {
    return std::optional<uint64_t>(lo >= 1 ? std::optional<uint64_t>(lo)
                                           : std::nullopt);
  }
  CLIO_ASSIGN_OR_RETURN(
      Bytes bitmap, GroupBitmap(id, level, lo + geometry_.PowN(level), stats));
  const uint64_t step = geometry_.PowN(level - 1);
  const uint32_t n = geometry_.degree();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t bit = highest ? n - 1 - i : i;
    if (EntrymapPayload::TestBit(bitmap, bit)) {
      CLIO_ASSIGN_OR_RETURN(
          std::optional<uint64_t> r,
          Descend(id, level - 1, lo + bit * step, highest, stats));
      if (r.has_value()) {
        return r;
      }
    }
  }
  return std::optional<uint64_t>(std::nullopt);
}

Result<std::optional<uint64_t>> LogVolume::LinearFind(LogFileId id,
                                                      VolumeWalk walk,
                                                      OpStats* stats) {
  std::optional<uint64_t> found;
  auto get = [&](uint64_t b) { return GetBlock(b, stats); };
  CLIO_RETURN_IF_ERROR(walk.Run(get, [&](const WalkedBlock& w) {
    if (w.parsed.has_value() && BlockHas(*w.parsed, id)) {
      found = w.block;
      walk.Stop();
    }
    return Status::Ok();
  }));
  return found;
}

Result<std::optional<uint64_t>> LogVolume::PrevBlockWith(LogFileId id,
                                                         uint64_t before_block,
                                                         OpStats* stats) {
  const uint64_t staged_limit = end_including_staged();
  uint64_t before = std::min(before_block, staged_limit);
  if (before <= 1) {
    return std::optional<uint64_t>(std::nullopt);
  }
  // The volume sequence log is every block, and the entrymap log is found
  // by position, not by itself; both scan linearly.
  if (id == kVolumeSeqLogId || id == kEntrymapLogId) {
    return LinearFind(id, VolumeWalk::Backward(before, before), stats);
  }

  // The staged tail block is the nearest candidate if it qualifies.
  if (writer_ != nullptr && writer_->has_staged_entries() &&
      writer_->staging_block() < before) {
    auto staged = GetBlock(writer_->staging_block(), stats);
    if (staged.ok() && BlockHas(staged.value(), id)) {
      return std::optional<uint64_t>(writer_->staging_block());
    }
  }

  const uint64_t limit = std::min(before, end_block());
  if (limit <= 1) {
    return std::optional<uint64_t>(std::nullopt);
  }

  // RAM fast path: a ready index covering every burned block answers with
  // zero device reads; non-authoritative answers (a hole overlaps the
  // range) fall through to the entrymap walk, the source of truth.
  if (index_enabled_) {
    const ExtentIndex* idx = CoveringIndex(/*build=*/true);
    const ExtentIndex::Lookup hit =
        idx != nullptr ? idx->PrevBlockWith(id, limit) : ExtentIndex::Lookup{};
    (hit.authoritative ? lane_metrics_->index_hits
                       : lane_metrics_->index_misses)
        ->Increment();
    if (hit.authoritative) {
      return hit.block;
    }
  }
  const uint16_t n = geometry_.degree();

  // Level 1: the group containing the last candidate block.
  uint64_t h1 = geometry_.HomeFor(limit - 1, 1);
  CLIO_ASSIGN_OR_RETURN(Bytes bitmap, GroupBitmap(id, 1, h1, stats));
  uint32_t bit_excl = geometry_.SubgroupOf(limit - 1, 1) + 1;
  if (auto bit = EntrymapPayload::HighestSetBelow(bitmap, bit_excl)) {
    uint64_t candidate = h1 - n + *bit;
    if (candidate >= 1) {
      return std::optional<uint64_t>(candidate);
    }
  }
  uint64_t searched_lo = h1 - n;

  // Ascend; at each level examine only the subgroups not yet covered.
  for (int level = 2; level <= geometry_.max_level(); ++level) {
    if (searched_lo <= 1) {
      break;
    }
    uint64_t hl = geometry_.HomeFor(searched_lo - 1, level);
    CLIO_ASSIGN_OR_RETURN(Bytes bm, GroupBitmap(id, level, hl, stats));
    // Subgroups of [hl - N^level, hl) strictly below searched_lo. When
    // searched_lo sits exactly on the group's upper edge every bit
    // qualifies (SubgroupOf would wrap to 0 there).
    uint32_t excl = static_cast<uint32_t>(
        (searched_lo - (hl - geometry_.PowN(level))) /
        geometry_.PowN(level - 1));
    uint64_t step = geometry_.PowN(level - 1);
    std::optional<uint32_t> bit = EntrymapPayload::HighestSetBelow(bm, excl);
    while (bit.has_value()) {
      uint64_t sub_lo = hl - geometry_.PowN(level) + *bit * step;
      CLIO_ASSIGN_OR_RETURN(
          std::optional<uint64_t> r,
          Descend(id, level - 1, sub_lo, /*highest=*/true, stats));
      if (r.has_value()) {
        return r;
      }
      bit = EntrymapPayload::HighestSetBelow(bm, *bit);
    }
    searched_lo = hl - geometry_.PowN(level);
  }
  return std::optional<uint64_t>(std::nullopt);
}

Result<std::optional<uint64_t>> LogVolume::NextBlockWith(LogFileId id,
                                                         uint64_t from_block,
                                                         OpStats* stats) {
  const uint64_t staged_limit = end_including_staged();
  uint64_t from = std::max<uint64_t>(from_block, 1);
  if (from >= staged_limit) {
    return std::optional<uint64_t>(std::nullopt);
  }
  if (id == kVolumeSeqLogId || id == kEntrymapLogId) {
    return LinearFind(id, VolumeWalk(from, staged_limit), stats);
  }

  const uint64_t limit = end_block();
  const uint16_t n = geometry_.degree();
  bool search_burned = from < limit;

  // RAM fast path over the burned range; an authoritative "none" still
  // falls through to the staged-tail check below.
  if (search_burned && index_enabled_) {
    const ExtentIndex* idx = CoveringIndex(/*build=*/true);
    const ExtentIndex::Lookup hit =
        idx != nullptr ? idx->NextBlockWith(id, from) : ExtentIndex::Lookup{};
    (hit.authoritative ? lane_metrics_->index_hits
                       : lane_metrics_->index_misses)
        ->Increment();
    if (hit.authoritative) {
      if (hit.block.has_value()) {
        return hit.block;
      }
      search_burned = false;
    }
  }
  if (search_burned) {
    uint64_t h1 = geometry_.HomeFor(from, 1);
    CLIO_ASSIGN_OR_RETURN(Bytes bitmap, GroupBitmap(id, 1, h1, stats));
    if (auto bit = EntrymapPayload::LowestSetFrom(
            bitmap, geometry_.SubgroupOf(from, 1), n)) {
      return std::optional<uint64_t>(h1 - n + *bit);
    }
    uint64_t searched_hi = h1;
    for (int level = 2;
         level <= geometry_.max_level() && searched_hi < limit; ++level) {
      uint64_t hl = geometry_.HomeFor(searched_hi, level);
      CLIO_ASSIGN_OR_RETURN(Bytes bm, GroupBitmap(id, level, hl, stats));
      uint32_t bit_from = geometry_.SubgroupOf(searched_hi, level);
      uint64_t step = geometry_.PowN(level - 1);
      std::optional<uint32_t> bit =
          EntrymapPayload::LowestSetFrom(bm, bit_from, n);
      while (bit.has_value()) {
        uint64_t sub_lo = hl - geometry_.PowN(level) + *bit * step;
        if (sub_lo >= limit) {
          break;
        }
        CLIO_ASSIGN_OR_RETURN(
            std::optional<uint64_t> r,
            Descend(id, level - 1, sub_lo, /*highest=*/false, stats));
        if (r.has_value()) {
          return r;
        }
        bit = EntrymapPayload::LowestSetFrom(bm, *bit + 1, n);
      }
      searched_hi = hl;
    }
  }

  // Finally the staged tail block.
  if (writer_ != nullptr && writer_->has_staged_entries() &&
      writer_->staging_block() >= from) {
    auto staged = GetBlock(writer_->staging_block(), stats);
    if (staged.ok() && BlockHas(staged.value(), id)) {
      return std::optional<uint64_t>(writer_->staging_block());
    }
  }
  return std::optional<uint64_t>(std::nullopt);
}

Result<std::optional<uint64_t>> LogVolume::FindBlockByTime(Timestamp t,
                                                           OpStats* stats) {
  const uint64_t limit = end_including_staged();
  if (limit <= 1) {
    return std::optional<uint64_t>(std::nullopt);
  }

  // RAM fast path: the staged tail (if its leading stamp qualifies) is
  // the latest candidate; otherwise the index's monotone (block, leading
  // timestamp) vector answers for the burned range. Any scan hole makes
  // the timestamp vector non-authoritative and the bisection below runs.
  if (index_enabled_) {
    const ExtentIndex* idx = CoveringIndex(/*build=*/true);
    ExtentIndex::Lookup hit;
    if (idx != nullptr) {
      std::optional<Timestamp> staged_ts =
          writer_ != nullptr && writer_->has_staged_entries()
              ? writer_->staged_leading_timestamp()
              : std::nullopt;
      hit = staged_ts.has_value() && *staged_ts <= t
                ? ExtentIndex::Lookup{true, writer_->staging_block()}
                : idx->LastBlockAtOrBefore(t);
    }
    (hit.authoritative ? lane_metrics_->index_hits
                       : lane_metrics_->index_misses)
        ->Increment();
    if (hit.authoritative) {
      return hit.block;
    }
  }
  uint64_t lo = 1;
  uint64_t hi = limit;
  std::optional<uint64_t> answer;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    // Prefer probing an entrymap home block: the upper levels of this
    // search then reuse blocks that are likely already cached (§2.1).
    for (int level = geometry_.max_level(); level >= 1; --level) {
      uint64_t snapped = (mid / geometry_.PowN(level)) * geometry_.PowN(level);
      if (snapped > lo && snapped < hi) {
        mid = snapped;
        break;
      }
    }
    // Probe forward past skipped blocks for a leading timestamp.
    uint64_t probe = mid;
    std::optional<Timestamp> ts;
    while (probe < hi) {
      CLIO_ASSIGN_OR_RETURN(std::optional<ParsedBlock> parsed,
                            ValidBlock(GetBlock(probe, stats)));
      if (parsed.has_value()) {
        ts = parsed->FirstTimestamp();
        if (ts.has_value()) {
          break;
        }
      }
      ++probe;
    }
    if (!ts.has_value()) {
      hi = mid;
      continue;
    }
    if (*ts <= t) {
      answer = probe;
      lo = probe + 1;
    } else {
      hi = mid;
    }
  }
  return answer;
}

}  // namespace clio
