// LogVolume: one write-once volume of a log volume sequence.
//
// Owns the read/search machinery for the volume and (if writable) its
// LogVolumeWriter. The search tree over entrymap entries (paper §2.1,
// Fig. 2) is implemented here:
//
//  - PrevBlockWith / NextBlockWith locate the nearest block before/after a
//    position that holds entries of a given log file, by ascending the
//    entrymap levels away from the start position and descending again at
//    the first set bit — examining 2k-1 entrymap entries for a distance of
//    N^k blocks (paper Table 1 / Fig. 3);
//  - FindBlockByTime binary-searches block-leading timestamps, snapping
//    probes to entrymap home blocks, which are the blocks most likely to be
//    cached (§2.1);
//  - Open() performs the §2.3.1/§3.4 recovery: locate the end of the
//    written portion (device query, else binary search), replay the catalog
//    log, reconstruct the un-logged tail of the entrymap accumulators, and
//    restore any NVRAM-staged tail block. It reads by plan: one pass for
//    the header window, one for the tail window, one read of the block it
//    stopped at (island probes only when that read does not confirm the
//    end), and read-ahead passes for the rest, so a restart costs device
//    passes, not blocks (DESIGN.md §17).
//
// Entrymap information is treated as what the paper says it is — a
// redundant cache: a missing or displaced entrymap entry degrades searches
// to the level below (ultimately to linear block scans) but never affects
// correctness.
#ifndef SRC_CLIO_VOLUME_H_
#define SRC_CLIO_VOLUME_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/clio/block_format.h"
#include "src/clio/cached_reader.h"
#include "src/clio/catalog.h"
#include "src/clio/entrymap.h"
#include "src/clio/types.h"
#include "src/clio/volume_header.h"
#include "src/clio/volume_walk.h"
#include "src/clio/volume_writer.h"
#include "src/device/block_device.h"
#include "src/device/nvram_tail.h"
#include "src/index/checkpoint.h"
#include "src/index/extent_index.h"
#include "src/util/time.h"

namespace clio {

// What Open() did, for the Figure-4 initialization experiments.
struct RecoveryReport {
  // Step 1: blocks examined while finding the written end (the binary
  // search, when the device cannot report its end, plus the reads at and
  // past the end).
  uint64_t end_location_reads = 0;
  uint64_t tail_scan_blocks = 0;     // step 2: entrymap reconstruction
  uint64_t catalog_replay_blocks = 0;  // step 3 (approximate: via OpStats)
  uint64_t invalidated_blocks = 0;   // trailing garbage burned to 1s
  bool restored_nvram_tail = false;
  // Checkpointed fast restart (DESIGN.md §17): the NVRAM checkpoint was
  // accepted and only [checkpoint.covered_end, end) was replayed.
  bool restored_checkpoint = false;
  uint64_t checkpoint_replay_blocks = 0;

  // Every device read call Open made, failed probes included, by step of
  // the read plan (DESIGN.md §17). A restart costs passes, not blocks.
  struct Passes {
    uint64_t head = 0;        // the header window [0, W]
    // The binary search, the read of `lo` alone and the island probes.
    uint64_t end_probes = 0;
    uint64_t tail = 0;        // the tail window [lo - W, lo]
    uint64_t walk = 0;        // tail checks, catalog walk, max timestamp
    // Step 2, the entrymap tail rebuild, or the checkpoint replay (an
    // abandoned one included): up to W + 1 contiguous blocks per pass.
    uint64_t replay = 0;

    uint64_t total() const { return head + end_probes + tail + walk + replay; }
    Passes& operator+=(const Passes& o) {
      head += o.head;
      end_probes += o.end_probes;
      tail += o.tail;
      walk += o.walk;
      replay += o.replay;
      return *this;
    }
  };
  Passes device_passes;

  // Wall time of the restart's steps, in microseconds (DESIGN.md §17).
  // LogService::Recover fills `decode` and `open_delay`; Open the others.
  struct StepMicros {
    uint64_t decode = 0;       // the sidecar decode, on Recover's thread
    uint64_t open_delay = 0;   // Recover entry to the opening helper's start
    uint64_t decode_wait = 0;  // Open, on the helper, joining the decode
    uint64_t locate = 0;       // the header pass and the end location
    uint64_t replay = 0;       // checkpoint replay or full scan, no wait
  };
  StepMicros step_us;
};

class LogVolume {
 public:
  struct FormatOptions {
    uint16_t entrymap_degree = 16;
    uint64_t sequence_id = 0;
    uint32_t volume_index = 0;
    std::string label;
  };

  // Formats a fresh volume on an empty device (burns the header block).
  // `readahead_blocks` is the forward-scan read-ahead depth (see
  // readahead_blocks()).
  static Result<std::unique_ptr<LogVolume>> Format(
      WormDevice* device, BlockCache* cache, uint64_t cache_device_id,
      Catalog* catalog, TimeSource* clock, NvramTail* nvram,
      const FormatOptions& options, uint32_t readahead_blocks);

  // Opens an existing volume, running crash recovery. `writable` volumes
  // get a writer positioned at the recovered end. The catalog is replayed
  // from the volume's catalog log into `catalog` unless `replay_catalog`
  // is false — on-demand remounts (LogService::VolumeForRead) skip the
  // replay because every record of an old volume is already in the live
  // catalog (exported forward at roll time), and mutating the shared
  // catalog would race with concurrent shared-lock readers.
  //
  // `checkpoint` (if given) is the NVRAM checkpoint sidecar, which
  // another thread may still be decoding while Open finds the end; Open
  // joins its records at step 2 and its extent index after replaying the
  // suffix. When the sidecar decoded, matches this volume and its
  // coverage is not past the recovered end, recovery restores catalog +
  // accumulator + extent index (moved out of the decoded state) from it
  // and replays only [covered_end, end) instead of the full §3.4 scan. A
  // stale, damaged or unusable checkpoint silently falls back to the scan.
  //
  // `readahead_blocks` (W) is the volume's read-ahead depth, in force from
  // the start, and recovery reads by plan with it (DESIGN.md §17): the
  // header pass reads [0, W], the end search's tail pass reads
  // [lo - W, lo] where lo is the device's reported end, and every other
  // recovery fetch that misses the cache reads up to W + 1 blocks ahead,
  // never past the recovered end. 0 reads one block per pass.
  static Result<std::unique_ptr<LogVolume>> Open(
      WormDevice* device, BlockCache* cache, uint64_t cache_device_id,
      Catalog* catalog, TimeSource* clock, NvramTail* nvram, bool writable,
      uint32_t readahead_blocks, RecoveryReport* report,
      bool replay_catalog = true,
      PendingCheckpoint* checkpoint = nullptr);

  const VolumeHeader& header() const { return header_; }
  const EntrymapGeometry& geometry() const { return geometry_; }
  Catalog* catalog() { return catalog_; }
  LogVolumeWriter* writer() { return writer_.get(); }
  TimeSource* clock() { return clock_; }

  // Exclusive upper bound of burned blocks.
  uint64_t end_block() const {
    return writer_ != nullptr ? writer_->staging_block() : end_block_;
  }
  // Same, but counting the staged (not yet burned) tail block if non-empty.
  uint64_t end_including_staged() const {
    return end_block() +
           (writer_ != nullptr && writer_->has_staged_entries() ? 1 : 0);
  }

  bool sealed() const { return sealed_; }
  void MarkSealed() { sealed_ = true; }

  // Chain accumulator over every valid burned block of this v2 volume
  // (nullopt on unchained v1 volumes): the writer's live tag when
  // writable, the value recovered by Open() when read-only. This is the
  // tag the NEXT burned block would carry.
  std::optional<uint64_t> chain_head_tag() const {
    return writer_ != nullptr ? writer_->chain_tag() : chain_head_tag_;
  }
  // trunc8(SHA256(header block image)) — tag_0 of the chain.
  uint64_t chain_seed() const { return chain_seed_; }

  // Largest entry timestamp found on media during recovery (0 if none);
  // the service floors its clock here so timestamps stay unique.
  Timestamp recovered_max_timestamp() const {
    return recovered_max_timestamp_;
  }

  // Fetches and decodes one block (cache- and staged-tail-aware).
  // kNotWritten / kInvalidated / kCorrupt surface to the caller.
  // `scanned` names the log file a forward scan is reading, and `wanted`
  // the entries of it the scan still wants, this block's included. A cache
  // miss then reads, in the same device pass, the file's following blocks
  // as the extent index knows them: each at most ReadBridge() blocks past
  // the previous one, the pass within ReadSpan() blocks, and no further
  // than the wanted-th file block, counting the missed block as the first.
  // Where the index cannot rule (PlanningIndex, or a lookup that is not
  // authoritative) and during recovery, the miss reads the blind window of
  // readahead_blocks() + 1 blocks (DESIGN.md §12). Point lookups and
  // backward scans leave `scanned` unset and read one block.
  Result<ParsedBlock> GetBlock(uint64_t block, OpStats* stats,
                               std::optional<LogFileId> scanned =
                                   std::nullopt,
                               uint64_t wanted = kUnboundedWant);

  // Forward-scan readahead depth W: the blind window a miss reads where
  // the index cannot plan is W + 1 blocks, and the planned pass's bounds
  // derive from it. 0 disables readahead. Fixed by Format / Open; the
  // owning LogService passes LogServiceOptions::readahead_blocks.
  uint32_t readahead_blocks() const { return readahead_blocks_; }
  // The planned pass's bounds (DESIGN.md §12): the longest gap it bridges
  // between two of the file's blocks, 7W/8 (at least 1), and the most
  // blocks it reads, 3W, but no more than half the buffer pool's frames
  // unless the blind window is longer (a pass the cache cannot hold evicts
  // its own blocks before the scan reaches them).
  uint64_t ReadBridge() const {
    return std::max<uint64_t>(1, uint64_t{readahead_blocks_} * 7 / 8);
  }
  uint64_t ReadSpan() const { return read_span_; }

  // The extent index when it may plan reads of `id` over the burned
  // blocks [lo, hi) without touching the device: it is ready and covers
  // every burned block, it tracks `id` (not the volume-sequence or
  // entrymap log), and no block of the range is quarantined. nullptr
  // means read as if there were no index. Holes in the range still make
  // the index's own lookups non-authoritative.
  const ExtentIndex* PlanningIndex(LogFileId id, uint64_t lo, uint64_t hi);

  // Nearest block strictly before `before_block` containing entries of
  // `id` (or of a sublog of `id`); nullopt if none on this volume.
  Result<std::optional<uint64_t>> PrevBlockWith(LogFileId id,
                                                uint64_t before_block,
                                                OpStats* stats);

  // Nearest block at or after `from_block` containing entries of `id`.
  Result<std::optional<uint64_t>> NextBlockWith(LogFileId id,
                                                uint64_t from_block,
                                                OpStats* stats);

  // Last block whose first (mandatory) timestamp is <= t; nullopt if the
  // volume's data all postdates t.
  Result<std::optional<uint64_t>> FindBlockByTime(Timestamp t,
                                                  OpStats* stats);

  // -- RAM extent index (src/index/, DESIGN.md §17). --

  // Turns the extent index on for this volume. A fresh volume (nothing
  // burned yet) gets an empty, complete index attached to its writer
  // immediately; an opened volume defers the build to the first locate
  // (EnsureExtentIndex), unless Open() already restored one from a
  // checkpoint.
  void EnableExtentIndex();

  // Builds the index by scanning the burned blocks, if enabled and not
  // built yet; a no-op once ready. Safe under the service's SHARED lock:
  // concurrent builders serialize on an internal mutex, and the burn path
  // (which mutates the index) runs only under the EXCLUSIVE lock.
  Status EnsureExtentIndex();

  // The ready index, or nullptr while disabled / not yet built.
  const ExtentIndex* extent_index() const {
    return index_ready_.load(std::memory_order_acquire) ? index_.get()
                                                        : nullptr;
  }

  // Checkpoint record covering [from, staging block): the index's growth
  // since `from` (from == 1 gives a base), the accumulator's pending
  // nodes, and the catalog export when `with_catalog`. Costs O(files +
  // delta) plus the catalog. Requires a writable volume whose index has
  // caught up with the staging position.
  Result<CheckpointRecord> BuildCheckpointRecord(uint64_t from,
                                                 bool with_catalog);

  // The lane this volume's index and append metrics record into (never
  // null; the standalone lane until the owning service sets its own).
  void set_lane_metrics(const VolumeLaneMetrics* metrics) {
    lane_metrics_ = metrics;
    blocks_.set_lane_metrics(metrics);
    if (writer_ != nullptr) {
      writer_->set_lane_metrics(metrics);
    }
  }

  // Membership test including kMulti extra memberships (§2.1).
  bool EntryBelongsTo(const ParsedEntry& e, LogFileId id) const;

  // Full payload of entry `entry_index` of `parsed` (which was read from
  // `block`), following its fragment chain into subsequent blocks across
  // the skipped blocks a chain may cross (FragmentChain). Sets *truncated
  // if the chain breaks or runs past the end; a transient read fails.
  //
  // When `segments` is non-null the payload is returned by REFERENCE
  // instead: one PayloadSegment per fragment, each holding the parsed
  // block's image (shared, immutable; holding it pins the cache frame),
  // and the returned flat Bytes stays empty (DESIGN.md §16). Callers choose
  // exactly one representation.
  Result<Bytes> AssembleEntryPayload(uint64_t block, const ParsedBlock& parsed,
                                     size_t entry_index, OpStats* stats,
                                     bool* truncated,
                                     std::vector<PayloadSegment>* segments
                                     = nullptr);

 private:
  LogVolume(WormDevice* device, BlockCache* cache, uint64_t cache_device_id,
            Catalog* catalog, TimeSource* clock, const VolumeHeader& header,
            uint32_t readahead_blocks);

  // Recovery steps (§3.4). LocateEnd finds the written end after the
  // header pass cached [1, head_end); it reports the blocks it examined
  // and its passes.
  Result<uint64_t> LocateEnd(uint64_t head_end, uint64_t* examined,
                             RecoveryReport::Passes* passes);
  Status ReplayCatalog(OpStats* stats);
  Status RebuildAccumulator(EntrymapAccumulator* acc, OpStats* stats);

  // The one gate between a search, a read plan or a checkpoint and the
  // extent index: the index when it is built and covers every burned
  // block, else nullptr (the entrymap and the media rule). `build` first
  // builds it if enabled; a failed build reads as absent.
  const ExtentIndex* CoveringIndex(bool build);

  // Checkpointed fast restart: restores catalog/accumulator/index state
  // from the decoded sidecar (taking its index) and replays only
  // [covered_end, end). Joins the records before the replay and the index
  // after it, adding the time blocked to `*wait_us`. Returns false when
  // the checkpoint does not apply to this volume (a sidecar that did not
  // decode, stale coverage, wrong volume, a catalog record that does not
  // decode or apply) — the caller then runs the full scan. An error (a
  // transient read) fails the restart.
  Result<bool> TryRestoreFromCheckpoint(PendingCheckpoint* pending,
                                        uint64_t end,
                                        EntrymapAccumulator* acc,
                                        OpStats* stats, uint64_t* wait_us);

  // Raises recovered_max_timestamp() to the block's entry stamps; false
  // when it has none.
  bool NoteTimestamps(const ParsedBlock& parsed);
  // Recovery's view of one block read from `block`: notes its stamps and
  // applies its catalog records (the catalog walk, the checkpoint replay
  // and the NVRAM-staged tail).
  Status ApplyBlockRecords(uint64_t block, const ParsedBlock& parsed,
                           OpStats* stats);

  // Quarantine-aware fetch+parse of a burned block: a miss reads the pass
  // [block, plan_end()) in one device call, its speculative blocks charged
  // to `readahead` (null: the demand path's clio.cache.readahead_blocks).
  // GetBlock reads through it.
  template <typename PlanEnd>
  Result<ParsedBlock> ScanBlock(uint64_t block, const PlanEnd& plan_end,
                                OpStats* stats, Counter* readahead);
  // The end of the blind window from `block`: readahead_blocks() + 1
  // blocks, never reaching `limit`.
  uint64_t WindowEnd(uint64_t block, uint64_t limit) const {
    return std::min(block + readahead_blocks_ + 1, limit);
  }
  // The end of a forward scan's pass from a miss at `block` (see GetBlock).
  uint64_t PlanPass(LogFileId id, uint64_t block, uint64_t wanted);
  // The bulk walks' read (index rebuild, checkpoint replay, level-1 tail
  // scan): ScanBlock over the blind window below `limit`, charged to
  // clio.index.rebuild_readahead_blocks.
  VolumeWalk::ReadFn BulkRead(uint64_t limit, OpStats* stats);

  // The entrymap entry (merged chunks) for (level, home), following
  // displacement past invalidated blocks. nullopt = info missing.
  Result<std::optional<EntrymapPayload>> FetchEntrymap(int level,
                                                       uint64_t home,
                                                       OpStats* stats);

  // Bitmap of `id` covering the level-`level` group that ends at `home`,
  // from media, the live accumulator, or (if missing) synthesized from the
  // level below.
  Result<Bytes> GroupBitmap(LogFileId id, int level, uint64_t home,
                            OpStats* stats);

  // Highest (else lowest) block holding `id` within the aligned closed
  // group [lo, lo + N^level); level 0 means `lo` itself (certified by the
  // caller's bitmap bit).
  Result<std::optional<uint64_t>> Descend(LogFileId id, int level,
                                          uint64_t lo, bool highest,
                                          OpStats* stats);

  // The first block of `walk` holding `id`: the linear scan of the
  // volume sequence log and the entrymap log.
  Result<std::optional<uint64_t>> LinearFind(LogFileId id, VolumeWalk walk,
                                             OpStats* stats);

  // Does this parsed block contain an entry belonging to log file `id`?
  bool BlockHas(const ParsedBlock& block, LogFileId id) const;
  const EntrymapAccumulator& LiveAccumulator() const;

  WormDevice* device_;
  CachedBlockReader blocks_;
  Catalog* catalog_;
  TimeSource* clock_;
  VolumeHeader header_;
  EntrymapGeometry geometry_;

  std::unique_ptr<LogVolumeWriter> writer_;  // null for read-only volumes
  EntrymapAccumulator accumulator_;          // used when read-only
  bool accumulator_ready_ = false;
  uint64_t end_block_ = 1;  // burned end for read-only volumes
  const uint32_t readahead_blocks_;
  const uint64_t read_span_;  // ReadSpan()
  // Set while Open() runs: a cache miss then reads ahead like a scan.
  bool recovering_ = false;
  bool sealed_ = false;
  Timestamp recovered_max_timestamp_ = 0;
  std::optional<uint64_t> chain_head_tag_;  // read-only chained volumes
  uint64_t chain_seed_ = 0;

  // RAM extent index state. `index_` is written under index_build_mu_
  // (lazy build) or the service's EXCLUSIVE lock (burn path, checkpoint
  // restore during Open); readers gate on the acquire-loaded ready flag.
  bool index_enabled_ = false;
  std::atomic<bool> index_ready_{false};
  mutable std::mutex index_build_mu_;
  std::unique_ptr<ExtentIndex> index_;
  const VolumeLaneMetrics* lane_metrics_ = VolumeLaneMetrics::Standalone();
};

}  // namespace clio

#endif  // SRC_CLIO_VOLUME_H_
