#include "src/clio/volume_writer.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/clio/chain.h"
#include "src/clio/cursor.h"
#include "src/clio/volume_walk.h"
#include "src/index/extent_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

// Give up on a burn after this many consecutive garbage-write faults.
constexpr int kMaxBurnAttempts = 8;

Bytes EncodeBadBlockRecord(uint64_t block) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU64(block);
  w.PutU8(1);  // reason: garbage write detected at append time
  return out;
}

}  // namespace

VolumeLaneMetrics::VolumeLaneMetrics(std::optional<uint32_t> lane)
    : appends(ObsRegistry().counter(
          LaneMetricName("clio.volume.appends", lane))),
      append_bytes(ObsRegistry().counter(
          LaneMetricName("clio.volume.append_bytes", lane))),
      append_us(ObsRegistry().histogram(
          LaneMetricName("clio.volume.append_us", lane))),
      index_hits(
          ObsRegistry().counter(LaneMetricName("clio.index.hits", lane))),
      index_misses(
          ObsRegistry().counter(LaneMetricName("clio.index.misses", lane))),
      queue_wait_us(ObsRegistry().histogram(
          LaneMetricName("clio.device.queue_wait_us", lane))) {}

const VolumeLaneMetrics* VolumeLaneMetrics::Standalone() {
  static const VolumeLaneMetrics* standalone = new VolumeLaneMetrics();
  return standalone;
}

LogVolumeWriter::LogVolumeWriter(CachedBlockReader* blocks,
                                 const VolumeHeader& header,
                                 const EntrymapGeometry* geometry,
                                 Catalog* catalog, TimeSource* clock,
                                 NvramTail* nvram)
    : blocks_(blocks),
      header_(header),
      geometry_(geometry),
      catalog_(catalog),
      clock_(clock),
      nvram_(nvram),
      accumulator_(geometry) {}

std::unique_ptr<BlockBuilder> LogVolumeWriter::NewBuilder() const {
  return std::make_unique<BlockBuilder>(header_.block_size, chain_tag_);
}

Status LogVolumeWriter::Restore(uint64_t next_block,
                                EntrymapAccumulator accumulator,
                                const ParsedBlock* staged,
                                std::optional<uint64_t> chain_tag) {
  staging_block_ = next_block;
  chain_tag_ = chain_tag;
  accumulator_ = std::move(accumulator);
  builder_.reset();
  pending_mark_ids_.clear();
  // The recovered accumulator covers [align_down(end-1, N^l), end) per
  // level; everything before that boundary is on media.
  last_home_emitted_.assign(geometry_->max_level() + 1, 0);
  for (int level = 1; level <= geometry_->max_level(); ++level) {
    uint64_t n = geometry_->PowN(level);
    last_home_emitted_[level] =
        next_block > 0 ? ((next_block - 1) / n) * n : 0;
  }
  if (staged != nullptr) {
    // Re-stage the partial tail block preserved in NVRAM across the crash,
    // with the tag it was staged with. It differs from `chain_tag`, which
    // Open re-derived from the last valid block, only if a valid block
    // burned before it was lost since; the stored tag shows that loss, so
    // no fragment chain crosses the lost block into this one.
    if (staged->chain_tag().has_value()) {
      chain_tag_ = staged->chain_tag();
    }
    builder_ = NewBuilder();
    builder_->SetFlags(staged->flags());
    for (const ParsedEntry& e : staged->entries()) {
      builder_->AddEntry(e.version, e.logfile_id, e.payload,
                         e.timestamp.value_or(0), e.client_sequence,
                         e.extra_ids);
      MarkPending(e.logfile_id);
      for (LogFileId extra : e.extra_ids) {
        MarkPending(extra);
      }
    }
  }
  if (builder_ == nullptr) {
    CLIO_RETURN_IF_ERROR(SealStrandedChain());
  }
  return Status::Ok();
}

Status LogVolumeWriter::SealStrandedChain() {
  // A crash can strand a fragment chain: the burned prefix ends in a block
  // flagged last-entry-continues while the completing fragment died in the
  // volatile staging buffer (a forced tail would have been restored above
  // and always begins with that fragment). The flag is burned into
  // write-once media and cannot be cleared, so seal the chain instead by
  // staging a zero-length terminator fragment as the next block's first
  // client entry. Readers return the burned prefix flagged truncated
  // (FragmentChain::sealed: no append writes an empty fragment), so no
  // payload changes — this only keeps the chain invariant (a continues
  // flag is followed by a fragment) intact once later appends burn past
  // the crash point. The walk back is a volume
  // walk (src/clio/volume_walk.h): a skipped block ends it unsealed, since
  // a valid block lost there would leave the entry silently shorter, and a
  // transient read fails the restart, as every other walk of Open does.
  auto read = [&](uint64_t b) -> Result<ParsedBlock> {
    CLIO_ASSIGN_OR_RETURN(BlockImage image, blocks_->Fetch(b, nullptr));
    return ParsedBlock::Parse(std::move(image));
  };
  CLIO_ASSIGN_OR_RETURN(std::optional<ParsedBlock> parsed,
                        OpenChainBefore(staging_block_, read));
  if (!parsed.has_value()) {
    return Status::Ok();
  }
  const ParsedEntry& last = parsed->entries().back();
  // The terminator carries the base entry's effective timestamp: its own
  // if the header persists one, else the block-resolution stamp readers
  // report for it. It may lead the staged block, where the time search
  // bisects on it.
  const Timestamp base_ts =
      EffectiveTimestamp(*parsed, parsed->entries().size() - 1).first;
  CLIO_RETURN_IF_ERROR(OpenFragmentBlock(/*min_payload=*/0));
  builder_->AddEntry(HeaderVersion::kFragment, last.logfile_id, {}, base_ts);
  AccountClientEntry(last.logfile_id, HeaderVersion::kFragment, 0);
  MarkPending(last.logfile_id);
  return Status::Ok();
}

Status LogVolumeWriter::OpenBuilder() {
  if (builder_ != nullptr) {
    return Status::Ok();
  }
  builder_ = NewBuilder();
  pending_mark_ids_.clear();
  if (last_home_emitted_.empty()) {
    last_home_emitted_.assign(geometry_->max_level() + 1, 0);
  }
  // Emit a node for every home boundary the staging position has crossed
  // (usually the boundary it sits on; more when a garbage write displaced
  // the landing past the home block, §2.3.2).
  bool emitted = false;
  for (int level = 1; level <= geometry_->max_level(); ++level) {
    uint64_t n = geometry_->PowN(level);
    uint64_t due = (staging_block_ / n) * n;
    if (due > last_home_emitted_[level]) {
      if (!emitted) {
        ++entrymap_upkeep_calls_;
        emitted = true;
      }
      CLIO_RETURN_IF_ERROR(EmitEntrymapNode(level, due));
      last_home_emitted_[level] = due;
    }
  }
  return Status::Ok();
}

Status LogVolumeWriter::OpenFragmentBlock(uint32_t min_payload) {
  for (int stalls = 0;; ++stalls) {
    if (builder_ != nullptr) {
      builder_->SetFlags(kFlagLastEntryContinues);
      CLIO_RETURN_IF_ERROR(BurnBuilder());
    }
    chain_open_ = true;
    Status opened = OpenBuilder();
    chain_open_ = false;
    CLIO_RETURN_IF_ERROR(opened);
    if (builder_->free_bytes() >= HeaderInlineSize(HeaderVersion::kFragment) +
                                      kSizeSlotBytes + min_payload) {
      return Status::Ok();
    }
    // Entrymap entries packed this block solid; the chain passes through
    // it. This can only recur as many times as there are tree levels.
    if (stalls > geometry_->max_level()) {
      return Internal("fragment chain made no progress");
    }
  }
}

Status LogVolumeWriter::EmitEntrymapNode(int level, uint64_t home) {
  static Counter* nodes = ObsRegistry().counter("clio.entrymap.nodes_emitted");
  nodes->Increment();
  const uint32_t per_file_bytes = 2 + geometry_->bitmap_bytes();
  // Largest encoded payload that fits a fresh block alongside a
  // timestamped header.
  const uint32_t max_chunk =
      header_.block_size - BlockFooterBytes(chain_tag_.has_value()) -
      kSizeSlotBytes - HeaderInlineSize(HeaderVersion::kTimestamped);

  EntrymapPayload payload = accumulator_.Take(level, home);
  // Split wide nodes into chunks that each fit in one block; chunks share
  // (level, home_block) and readers merge them.
  size_t emitted = 0;
  do {
    EntrymapPayload chunk;
    chunk.level = payload.level;
    chunk.home_block = payload.home_block;
    uint32_t budget = max_chunk - 11;  // level + home + count
    while (emitted < payload.files.size() && budget >= per_file_bytes) {
      chunk.files.push_back(payload.files[emitted]);
      ++emitted;
      budget -= per_file_bytes;
    }
    Bytes encoded = chunk.Encode();
    HeaderVersion v = builder_->empty() ? HeaderVersion::kTimestamped
                                        : HeaderVersion::kCompact;
    if (builder_->PayloadCapacity(v) < encoded.size()) {
      builder_->SetFlags(chain_open_
                             ? kFlagEntrymapContinues | kFlagLastEntryContinues
                             : kFlagEntrymapContinues);
      CLIO_RETURN_IF_ERROR(BurnBuilder());
      builder_ = NewBuilder();
      v = HeaderVersion::kTimestamped;
    }
    space_.entrymap_bytes +=
        HeaderInlineSize(v) + kSizeSlotBytes + encoded.size();
    const Timestamp node_ts = clock_->NowUnique();
    last_issued_timestamp_ = node_ts;
    builder_->AddEntry(v, kEntrymapLogId, encoded, node_ts);
  } while (emitted < payload.files.size());
  return Status::Ok();
}

Status LogVolumeWriter::BurnBuilder() {
  if (builder_ == nullptr) {
    return Status::Ok();
  }
  Bytes image = builder_->Finish();
  // One span per burn attempt: a retried burn shows up as several kBurn
  // spans in the trace, which is exactly the story a fault injection run
  // should tell.
  for (int attempt = 0; attempt < kMaxBurnAttempts; ++attempt) {
    StageTimer span(nullptr, TraceStage::kBurn);
    auto result = blocks_->Burn(image);
    if (result.ok()) {
      uint64_t actual = result.value();
      // If the burn landed past where the write head should have been,
      // garbage occupies the skipped blocks — a wild write while we were
      // not looking, or a torn burn whose invalidation was interrupted by
      // a power cut. Nothing in [staging_block_, actual) was burned by us,
      // so invalidate everything not already invalidated and record the
      // locations (§2.3.2).
      for (uint64_t skipped = staging_block_; skipped < actual; ++skipped) {
        if (blocks_->device()->BlockState(skipped) !=
            WormBlockState::kInvalidated) {
          CLIO_RETURN_IF_ERROR(blocks_->Invalidate(skipped));
          ++space_.invalidated_blocks;
          static Counter* bad = ObsRegistry().counter("clio.volume.bad_blocks");
          bad->Increment();
          pending_bad_blocks_.push_back(skipped);
        }
      }
      {
        std::vector<LogFileId> ids(pending_mark_ids_.begin(),
                                   pending_mark_ids_.end());
        if (!ids.empty()) {
          accumulator_.Mark(actual, ids);
        }
        if (extent_index_ != nullptr) {
          // Mirror the burn into the RAM extent index with the exact
          // membership set and leading timestamp a later scan of this
          // block would reconstruct — the two maintenance paths must
          // produce byte-identical indexes. Runs even with no client
          // memberships (entrymap-only blocks) so coverage advances.
          extent_index_->MarkBlock(actual, builder_->first_timestamp(), ids);
        }
      }
      space_.footer_bytes += builder_->footer_size();
      space_.padding_bytes += builder_->free_bytes();
      ++space_.blocks_burned;
      static Counter* burned =
          ObsRegistry().counter("clio.volume.blocks_burned");
      burned->Increment();
      if (chain_tag_.has_value()) {
        // Only a successfully burned, valid block advances the chain —
        // garbage and invalidated blocks are skipped by readers, so they
        // are skipped by the chain too (see src/clio/chain.h). The commit
        // comes from the builder's records, which are the image's.
        chain_tag_ = AdvanceChainTag(*chain_tag_, ChainBlockCommit(*builder_));
      }
      staging_block_ = actual + 1;
      builder_.reset();
      pending_mark_ids_.clear();
      if (nvram_ != nullptr) {
        nvram_->Clear();
      }
      return Status::Ok();
    }
    if (result.status().code() == StatusCode::kNoSpace) {
      return result.status();
    }
    // A garbage write landed in the target block (§2.3.2): invalidate it,
    // remember to log its location, and retry past it. Never trust the end
    // query below the staging block — everything before it is burned valid
    // data, and a device that under-reports its end must not trick us into
    // invalidating a good block.
    uint64_t bad = staging_block_;
    auto end = blocks_->device()->QueryEnd();
    if (end.ok() && end.value() > staging_block_) {
      bad = end.value() - 1;
    }
    CLIO_RETURN_IF_ERROR(blocks_->Invalidate(bad));
    ++space_.invalidated_blocks;
    static Counter* bad_blocks =
        ObsRegistry().counter("clio.volume.bad_blocks");
    bad_blocks->Increment();
    pending_bad_blocks_.push_back(bad);
    staging_block_ = bad + 1;
  }
  return Unavailable("burn failed after " + std::to_string(kMaxBurnAttempts) +
                     " attempts");
}

Status LogVolumeWriter::DrainBadBlockRecords() {
  if (draining_bad_blocks_ || pending_bad_blocks_.empty()) {
    return Status::Ok();
  }
  draining_bad_blocks_ = true;
  while (!pending_bad_blocks_.empty()) {
    uint64_t bad = pending_bad_blocks_.front();
    pending_bad_blocks_.pop_front();
    WriteOptions opts;
    opts.timestamped = true;
    auto result = Append(kBadBlockLogId, EncodeBadBlockRecord(bad), opts);
    if (!result.ok()) {
      pending_bad_blocks_.push_front(bad);
      draining_bad_blocks_ = false;
      return result.status();
    }
  }
  draining_bad_blocks_ = false;
  return Status::Ok();
}

void LogVolumeWriter::MarkPending(LogFileId id) {
  catalog_->VisitSelfAndAncestors(id, [&](LogFileId a) {
    // An id already pending came with its ancestors.
    return pending_mark_ids_.insert(a).second;
  });
}

void LogVolumeWriter::AccountClientEntry(LogFileId id, HeaderVersion v,
                                         size_t payload_size) {
  uint64_t header_cost = HeaderInlineSize(v) + kSizeSlotBytes;
  switch (id) {
    case kCatalogLogId:
      space_.catalog_bytes += header_cost + payload_size;
      break;
    case kBadBlockLogId:
      space_.badblock_bytes += header_cost + payload_size;
      break;
    default:
      space_.client_header_bytes += header_cost;
      space_.client_payload_bytes += payload_size;
      break;
  }
}

Result<AppendResult> LogVolumeWriter::Append(LogFileId id,
                                             std::span<const std::byte> payload,
                                             const WriteOptions& options) {
  lane_metrics_->appends->Increment();
  lane_metrics_->append_bytes->Increment(payload.size());
  StageTimer timer(lane_metrics_->append_us, TraceStage::kVolumeAppend);
  if (sealed_) {
    return FailedPrecondition("volume is sealed");
  }
  CLIO_ASSIGN_OR_RETURN(LogFileInfo info, catalog_->Info(id));
  if (info.sealed) {
    return FailedPrecondition("log file is sealed");
  }
  CLIO_RETURN_IF_ERROR(DrainBadBlockRecords());

  for (LogFileId extra : options.extra_memberships) {
    CLIO_ASSIGN_OR_RETURN(LogFileInfo extra_info, catalog_->Info(extra));
    if (extra_info.sealed) {
      return FailedPrecondition("extra membership log file is sealed");
    }
  }
  const uint32_t n_extra =
      static_cast<uint32_t>(options.extra_memberships.size());
  if (n_extra > 255) {
    return InvalidArgument("at most 255 extra memberships per entry");
  }

  CLIO_RETURN_IF_ERROR(OpenBuilder());

  HeaderVersion v;
  if (n_extra > 0) {
    v = HeaderVersion::kMulti;
  } else if (options.client_sequence.has_value()) {
    v = HeaderVersion::kComplete;
  } else if (options.timestamped || builder_->empty()) {
    v = HeaderVersion::kTimestamped;
  } else {
    v = HeaderVersion::kCompact;
  }

  // Make room for at least the header; a fresh block always has room.
  if (builder_->free_bytes() <
      HeaderInlineSize(v, n_extra) + kSizeSlotBytes) {
    CLIO_RETURN_IF_ERROR(BurnBuilder());
    CLIO_RETURN_IF_ERROR(OpenBuilder());
    if (builder_->empty() && v == HeaderVersion::kCompact) {
      v = HeaderVersion::kTimestamped;  // first entry of a block
    }
  }

  // Stamp the entry only now: OpenBuilder may have emitted entrymap
  // entries, and timestamps must be non-decreasing in physical order for
  // the time search (§2.1) to bisect on block-leading timestamps.
  const Timestamp ts = clock_->NowUnique();
  last_issued_timestamp_ = ts;

  AppendResult out;
  out.timestamp = ts;
  out.position = EntryPosition{header_.volume_index, staging_block_,
                               builder_->entry_count()};

  std::span<const std::byte> remaining = payload;
  size_t cap = builder_->PayloadCapacity(v, n_extra);
  size_t take = std::min(cap, remaining.size());
  builder_->AddEntry(v, id, remaining.first(take), ts,
                     options.client_sequence, options.extra_memberships);
  AccountClientEntry(id, v, take);
  space_.client_header_bytes += 2 * n_extra;  // the extra id list
  // Membership set: the target log file and its ancestors, plus any extra
  // memberships (and their ancestors) the client named (§2.1).
  MarkPending(id);
  for (LogFileId extra : options.extra_memberships) {
    MarkPending(extra);
  }
  remaining = remaining.subspan(take);

  // Fragment the overflow across subsequent blocks (paper footnote 7).
  while (!remaining.empty()) {
    CLIO_RETURN_IF_ERROR(OpenFragmentBlock(/*min_payload=*/1));
    size_t n = std::min<size_t>(
        builder_->PayloadCapacity(HeaderVersion::kFragment), remaining.size());
    builder_->AddEntry(HeaderVersion::kFragment, id, remaining.first(n), ts);
    AccountClientEntry(id, HeaderVersion::kFragment, n);
    // Continuation blocks are marked with the base log file's lineage only,
    // NOT the extra memberships: a kFragment header persists just the base
    // id, so this is exactly the set a later scan of the block can
    // reconstruct — and the index maintenance paths must stay
    // byte-identical. Readers of an extra membership position on the base
    // block (the kMulti header), so they never need the continuations.
    MarkPending(id);
    remaining = remaining.subspan(n);
  }

  if (options.force) {
    CLIO_RETURN_IF_ERROR(Force());
  }
  return out;
}

Status LogVolumeWriter::Force() {
  if (builder_ == nullptr || builder_->empty()) {
    return Status::Ok();
  }
  static Counter* forces = ObsRegistry().counter("clio.volume.forces");
  static Histogram* force_us = ObsRegistry().histogram("clio.volume.force_us");
  forces->Increment();
  StageTimer timer(force_us, TraceStage::kForce);
  if (nvram_ != nullptr) {
    // Rewritable tail: restage the current partial image; nothing burns.
    return nvram_->Store(staging_block_, builder_->Finish());
  }
  ++space_.forced_partial_burns;
  return BurnBuilder();
}

Status LogVolumeWriter::Seal() {
  if (sealed_) {
    return Status::Ok();
  }
  CLIO_RETURN_IF_ERROR(OpenBuilder());
  builder_->SetFlags(kFlagVolumeSealed);
  CLIO_RETURN_IF_ERROR(BurnBuilder());
  if (nvram_ != nullptr) {
    nvram_->Clear();
  }
  sealed_ = true;
  return Status::Ok();
}

bool LogVolumeWriter::AlmostFull(size_t payload_size) const {
  uint64_t needed_blocks =
      payload_size / header_.block_size + 2 + geometry_->max_level();
  uint64_t capacity = blocks_->device()->capacity_blocks();
  return staging_block_ + needed_blocks >= capacity;
}

BlockImage LogVolumeWriter::StagedImage() const {
  if (builder_ == nullptr || builder_->empty()) {
    return BlockImage();
  }
  return BlockImage::Copy(builder_->Finish());
}

}  // namespace clio
