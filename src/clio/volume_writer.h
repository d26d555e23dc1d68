// The append path of one log volume.
//
// Entries accumulate in a staging BlockBuilder for the tail block; a block
// is burned to the WORM device when full, when a write is forced under the
// pure-WORM policy, or when the volume is sealed. The writer is also
// responsible for:
//  - emitting entrymap entries when the staging position reaches a home
//    block (§2.1),
//  - upgrading the first entry of every block to a timestamped header,
//  - fragmenting entries larger than the remaining block space (footnote 7),
//  - surviving garbage appends: the scribbled block is invalidated, its
//    location is logged in the bad-block log, and the burn retries past it
//    (§2.3.2) — displacing any entrymap home that block was meant to be,
//  - NVRAM tail staging so forced writes need not burn partial blocks
//    (§2.3.1).
#ifndef SRC_CLIO_VOLUME_WRITER_H_
#define SRC_CLIO_VOLUME_WRITER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "src/clio/block_format.h"
#include "src/clio/cached_reader.h"
#include "src/clio/catalog.h"
#include "src/clio/entrymap.h"
#include "src/clio/types.h"
#include "src/clio/volume_header.h"
#include "src/device/nvram_tail.h"
#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace clio {

class ExtentIndex;  // src/index/extent_index.h

struct AppendResult {
  Timestamp timestamp = 0;
  EntryPosition position;
};

// Where every burned byte went, for the §3.5 space-overhead experiments.
struct SpaceAccounting {
  uint64_t client_payload_bytes = 0;
  uint64_t client_header_bytes = 0;  // inline headers + size-index slots
  uint64_t entrymap_bytes = 0;       // whole entrymap records incl. slots
  uint64_t catalog_bytes = 0;
  uint64_t badblock_bytes = 0;
  uint64_t padding_bytes = 0;  // burned free space (forced partial blocks)
  uint64_t footer_bytes = 0;
  uint64_t blocks_burned = 0;
  uint64_t forced_partial_burns = 0;
  uint64_t invalidated_blocks = 0;

  SpaceAccounting& operator+=(const SpaceAccounting& s) {
    client_payload_bytes += s.client_payload_bytes;
    client_header_bytes += s.client_header_bytes;
    entrymap_bytes += s.entrymap_bytes;
    catalog_bytes += s.catalog_bytes;
    badblock_bytes += s.badblock_bytes;
    padding_bytes += s.padding_bytes;
    footer_bytes += s.footer_bytes;
    blocks_burned += s.blocks_burned;
    forced_partial_burns += s.forced_partial_burns;
    invalidated_blocks += s.invalidated_blocks;
    return *this;
  }
};

// The per-partition metrics a volume records, resolved for one lane
// (LaneMetricName, DESIGN.md §11): "<name>.p<i>" on partition i, "<name>"
// on a standalone service. The owning LogService holds the set and
// re-resolves it in place when it is assigned a partition, so its volumes
// and writers keep a pointer.
struct VolumeLaneMetrics {
  explicit VolumeLaneMetrics(std::optional<uint32_t> lane = std::nullopt);
  // The standalone set, for volumes outside any service.
  static const VolumeLaneMetrics* Standalone();

  Counter* appends = nullptr;
  Counter* append_bytes = nullptr;
  Histogram* append_us = nullptr;
  Counter* index_hits = nullptr;
  Counter* index_misses = nullptr;
  // Submit to start of each device call, 0 when it ran inline (§12).
  Histogram* queue_wait_us = nullptr;
};

class LogVolumeWriter {
 public:
  // `nvram` may be null: forced writes then burn partial blocks (pure-WORM
  // policy). With NVRAM, forced writes restage the tail block instead.
  LogVolumeWriter(CachedBlockReader* blocks, const VolumeHeader& header,
                  const EntrymapGeometry* geometry, Catalog* catalog,
                  TimeSource* clock, NvramTail* nvram);

  LogVolumeWriter(const LogVolumeWriter&) = delete;
  LogVolumeWriter& operator=(const LogVolumeWriter&) = delete;

  // Positions the writer: `next_block` is where the next burn will land
  // (1 for a fresh volume, the recovered end otherwise); `accumulator`
  // carries the open-group bitmaps (empty for fresh). The entries of
  // `staged`, a block recovered from NVRAM, are re-staged.
  // On a chained (v2) volume `chain_tag` is the accumulated tag over every
  // valid block below `next_block` (the seed for a fresh volume); nullopt
  // keeps the writer unchained for v1 volumes.
  Status Restore(uint64_t next_block, EntrymapAccumulator accumulator,
                 const ParsedBlock* staged,
                 std::optional<uint64_t> chain_tag = std::nullopt);

  // Appends one entry to `id`. Returns the server timestamp assigned to the
  // entry (its unique id within the sequence for synchronous writers) and
  // its position. Fails with kNoSpace when the volume cannot take the
  // entry; the caller (volume sequence) then rolls to a successor volume.
  Result<AppendResult> Append(LogFileId id, std::span<const std::byte> payload,
                              const WriteOptions& options);

  // Makes everything appended so far durable (§2.3.1). Pure WORM: burn the
  // partial tail block. NVRAM: restage the tail image.
  Status Force();

  // Burns the tail with the volume-sealed flag; no appends accepted after.
  Status Seal();

  // True if appending `payload_size` more bytes may not fit on the device;
  // the sequence uses this to roll volumes before hitting kNoSpace.
  bool AlmostFull(size_t payload_size) const;

  bool sealed() const { return sealed_; }

  // Queues a corrupted-block location discovered outside the append path
  // (recovery finds torn tail blocks this way) for logging to the bad-block
  // log file on the next append.
  void NoteBadBlock(uint64_t block) { pending_bad_blocks_.push_back(block); }

  // Device block the staging buffer will burn to.
  uint64_t staging_block() const { return staging_block_; }
  bool has_staged_entries() const {
    return builder_ != nullptr && !builder_->empty();
  }
  // Current image of the staged (partial) tail block, for live readers.
  BlockImage StagedImage() const;

  const EntrymapAccumulator& accumulator() const { return accumulator_; }
  const SpaceAccounting& space() const { return space_; }

  // Accumulated chain tag over every valid burned block (the tag the NEXT
  // burned block will carry); nullopt on an unchained (v1) volume. This is
  // the chain HEAD a VERIFY_CHAIN reply reports.
  std::optional<uint64_t> chain_tag() const { return chain_tag_; }

  // Total time (us of TimeSource progression) spent maintaining + logging
  // entrymap information, for the §3.2 breakdown bench.
  uint64_t entrymap_upkeep_calls() const { return entrymap_upkeep_calls_; }

  // Attaches the volume's RAM extent index (src/index/extent_index.h);
  // every subsequent burn marks it with the same membership set fed to
  // the entrymap accumulator. Null detaches. The owning LogVolume only
  // attaches an index whose coverage has caught up with the staging
  // position, so the index stays a faithful mirror.
  void set_extent_index(ExtentIndex* index) { extent_index_ = index; }

  // The lane the append metrics record into (never null).
  void set_lane_metrics(const VolumeLaneMetrics* metrics) {
    lane_metrics_ = metrics;
  }

  // Leading timestamp of the staged (partial) tail block, if any — what
  // the block's FirstTimestamp() will be once burned. Lets the timestamp
  // fast path consult the staged tail without parsing its image.
  std::optional<Timestamp> staged_leading_timestamp() const {
    return builder_ != nullptr ? builder_->first_timestamp() : std::nullopt;
  }

  // Largest timestamp this writer has stamped into any entry (client,
  // entrymap, catalog, bad-block). Checkpoints persist it so recovery can
  // floor the unique clock without rescanning covered blocks.
  Timestamp last_issued_timestamp() const { return last_issued_timestamp_; }

 private:
  // A staging builder carrying the current chain tag (v2 footer) when the
  // volume is chained, a plain v1 builder otherwise.
  std::unique_ptr<BlockBuilder> NewBuilder() const;
  Status OpenBuilder();  // starts a block; emits due entrymap entries
  Status BurnBuilder();
  // Emits the level-`level` entrymap node homed at `home` into the current
  // builder (possibly spilling across blocks).
  Status EmitEntrymapNode(int level, uint64_t home);
  void AccountClientEntry(LogFileId id, HeaderVersion v, size_t payload_size);
  // Adds `id` and its ancestors to the open block's membership set.
  void MarkPending(LogFileId id);
  Status DrainBadBlockRecords();
  // Burns the open block, if any, flagged last-entry-continues, and opens
  // the chain's next block with room for a fragment of `min_payload`
  // bytes. An entrymap node that fills a block opened in the chain burns
  // it entrymap-only with the chain kept open (a pass-through block).
  Status OpenFragmentBlock(uint32_t min_payload);
  // Stages a zero-length terminator fragment when a crash left the burned
  // log ending in a dangling last-entry-continues flag (see Restore).
  Status SealStrandedChain();

  CachedBlockReader* blocks_;
  VolumeHeader header_;
  const EntrymapGeometry* geometry_;
  Catalog* catalog_;
  TimeSource* clock_;
  NvramTail* nvram_;

  std::unique_ptr<BlockBuilder> builder_;
  uint64_t staging_block_ = 1;
  std::optional<uint64_t> chain_tag_;
  std::set<LogFileId> pending_mark_ids_;
  EntrymapAccumulator accumulator_;
  // Home block of the last node emitted per level. Emission happens when
  // the staging position *crosses* a home boundary, not only when it lands
  // exactly on one — a garbage write can make the landing skip the home
  // block itself (§2.3.2: the node then goes to the next good block).
  std::vector<uint64_t> last_home_emitted_;
  std::deque<uint64_t> pending_bad_blocks_;
  bool draining_bad_blocks_ = false;
  bool sealed_ = false;
  bool chain_open_ = false;  // opening a block inside OpenFragmentBlock

  SpaceAccounting space_;
  uint64_t entrymap_upkeep_calls_ = 0;
  ExtentIndex* extent_index_ = nullptr;  // not owned; may be null
  const VolumeLaneMetrics* lane_metrics_ = VolumeLaneMetrics::Standalone();
  Timestamp last_issued_timestamp_ = kTimestampMin;
};

}  // namespace clio

#endif  // SRC_CLIO_VOLUME_WRITER_H_
