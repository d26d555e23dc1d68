// RAM-resident per-logfile extent index over one volume's burned blocks.
//
// The on-device entrymap tree (paper Fig. 2, DESIGN.md §3) answers "which
// block near X holds log file F" in O(log_N V) *device reads* — the right
// trade for 1987 optical platters, the wrong one for a hot server whose
// locate working set fits in RAM. The extent index is a redundant,
// in-memory acceleration structure: for every log file it keeps the
// sorted block runs that contain entries of that file, plus every
// block's leading timestamp for timestamp search, both in the
// checkpoint codec's own varint form with skip tables. Hot
// locates resolve against it with zero device reads; any question it
// cannot answer authoritatively (cold volume, scan holes from quarantined
// or unparseable blocks) falls back to the entrymap walk, which remains
// the source of truth (DESIGN.md §17).
//
// The index is maintained two ways, and both must produce byte-identical
// state for the same media — the chaos suite serializes and compares:
//  - incrementally: LogVolumeWriter calls MarkBlock for every block it
//    burns, with the same membership set it feeds the entrymap
//    accumulator;
//  - by scan: LogVolume rebuilds lazily on first locate (or checkpoint
//    replay) by walking blocks in order and calling MarkBlock with the
//    memberships parsed back from media.
#ifndef SRC_INDEX_EXTENT_INDEX_H_
#define SRC_INDEX_EXTENT_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/clio/types.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace clio {

class ExtentIndex {
 public:
  // Answer to a point lookup. `authoritative == false` means the index
  // cannot rule on this query (a hole overlaps the searched range) and
  // the caller must fall back to the entrymap walk; when true, `block`
  // is the walk's answer, including the authoritative "no such block"
  // (nullopt).
  struct Lookup {
    bool authoritative = false;
    std::optional<uint64_t> block;
  };

  // Records a burned block: `ids` is the block's tracked-membership set
  // (each entry's log file plus ancestors plus extra memberships — the
  // same set the entrymap accumulator marks). Ids the entrymap does not
  // track (the volume-sequence and entrymap logs themselves) are
  // ignored. `leading_timestamp` is the block's first entry's stamp as
  // written (present for every writer-produced block, absent only for
  // defensive parses); every stamped block joins the timestamp vector —
  // fragment-led blocks dip below their neighbors (DESIGN.md §8), which
  // LastBlockAtOrBefore resolves. Blocks must be marked in increasing
  // order; re-marking an already-covered block is a no-op. A block at or
  // past 2^32 - 1 is recorded as a hole, not as runs or a stamp (the hole
  // already makes every time search fall back to the walk).
  void MarkBlock(uint64_t block, std::optional<Timestamp> leading_timestamp,
                 std::span<const LogFileId> ids);

  // Advances the covered frontier past blocks with nothing to index
  // (invalidated / skipped). Lookups are only served when the covered
  // frontier equals the volume's end-of-log.
  void AdvanceCoveredEnd(uint64_t end);

  // Records a block the scan could not classify (quarantined or
  // unparseable garbage). Queries whose answer could hide inside a hole
  // return non-authoritative.
  void AddHole(uint64_t block);

  // First block NOT covered by the index; starts at 1 (block 0 is the
  // volume header and never indexed).
  uint64_t covered_end() const { return covered_end_; }

  // Highest indexed block < `before` holding `id`, mirroring
  // LogVolume::PrevBlockWith over the burned range.
  Lookup PrevBlockWith(LogFileId id, uint64_t before) const;

  // Lowest indexed block >= `from` holding `id`.
  Lookup NextBlockWith(LogFileId id, uint64_t from) const;

  // Last block whose recorded leading timestamp is <= t, mirroring
  // LogVolume::FindBlockByTime over the burned range.
  Lookup LastBlockAtOrBefore(Timestamp t) const;

  // Approximate resident size, total extent-run count, hole count.
  size_t bytes() const;
  uint64_t run_count() const;
  size_t hole_count() const { return holes_.size(); }

  bool operator==(const ExtentIndex& other) const;

  // True when this index records at least everything `required` does:
  // every run, every (block, leading timestamp) pair, and every hole.
  // This is the verify-time bar — like the entrymap, the index may carry
  // STALE state for blocks invalidated out-of-band after burning (the
  // walk re-reads candidates, so stale marks cost a read, never an
  // answer), but state the media has and the index lacks would make
  // entries invisible to the fast path.
  bool CoversAtLeast(const ExtentIndex& required) const;

  // Stable binary form (covered_end + EncodeSince(1) + crc32c); two
  // equal indexes serialize byte-identically. Used by the chaos suite's
  // convergence check.
  Bytes Serialize() const;
  static Result<ExtentIndex> Deserialize(std::span<const std::byte> blob);

  // Delta codec of the checkpoint sidecar (src/index/checkpoint.h).
  // Blocks burn once and in order, so the index only grows at its tail:
  // EncodeSince(from) encodes what it holds over [from, covered_end()) —
  // every file's runs clipped to that range, and the stamps and holes at
  // or past `from` — in O(files + delta). ApplyDelta(to, delta) appends
  // an encoding taken with from == covered_end() and moves covered_end()
  // to `to`; a clipped run starting at `from` extends the file's last
  // run when that run ends there, so base + deltas == the live index.
  // Every decoded count is bounded by the bytes left. On error the index
  // is partly applied and must be discarded. `bytes_to_follow` is the
  // encoded size of the deltas the caller will apply after this one: the
  // records reserve room for them in proportion, so a restore from a base
  // and its deltas grows each buffer once instead of copying it midway.
  // The index holds runs and stamps as these records, so EncodeSince
  // copies them past the first run and stamp it re-bases, and ApplyDelta
  // validates them and appends them.
  Bytes EncodeSince(uint64_t from) const;
  Status ApplyDelta(uint64_t to, std::span<const std::byte> delta,
                    uint64_t bytes_to_follow = 0);

 private:
  // Blocks are held in 32 bits. A block at or past kRunBlockLimit is
  // recorded as a hole instead, so lookups across it fall back to the
  // entrymap walk.
  static constexpr uint64_t kRunBlockLimit = UINT32_MAX;
  // Closed runs per skip-table entry: a lookup decodes at most this many.
  static constexpr uint64_t kSkipStride = 64;

  // A closed run every kSkipStride: the offset of its record in
  // FileRuns::closed, and its start block.
  struct Skip {
    uint64_t offset;
    uint32_t block;
  };

  // One log file's blocks: disjoint, sorted half-open [start, end) runs,
  // kept in the delta codec's own form (DESIGN.md §17). Every run but the
  // last is closed: `closed` holds them as EncodeSince(1) writes them, a
  // varint gap from the previous run's end (from block 1 for the first)
  // and a varint length, so a restart's decode appends bytes and a base
  // encode copies them. The last run stays open as two integers, so a
  // mark extends it in O(1). open_end == 0 means the file has no runs.
  struct FileRuns {
    Bytes closed;
    std::vector<Skip> skips;  // closed run 0, kSkipStride, 2 kSkipStride..
    uint64_t closed_runs = 0;
    uint32_t closed_end = 1;  // end of the last closed run
    uint32_t open_start = 0;
    uint32_t open_end = 0;

    bool empty() const { return open_end == 0; }
    uint64_t run_count() const { return closed_runs + (empty() ? 0 : 1); }
    // Closes the open run, if any, appending its record to `closed`.
    void CloseOpen();
    // Closes the open run and opens [start, end).
    void Open(uint32_t start, uint32_t end) {
      CloseOpen();
      open_start = start;
      open_end = end;
    }
    bool operator==(const FileRuns& other) const {
      return closed == other.closed && open_start == other.open_start &&
             open_end == other.open_end;
    }
  };
  class RunIter;

  // Every kSkipStride-th stamp: the offset of its record in stamp_log_,
  // its block and stamp, and the lowest stamp of its group (it and the
  // kSkipStride - 1 stamps after it).
  struct StampGroup {
    uint64_t offset;
    Timestamp first;
    Timestamp min;
    uint32_t block;
  };
  class StampIter;

  bool HoleIn(uint64_t lo, uint64_t hi) const;  // any hole in [lo, hi)?
  // The runs of `id`, the table grown to hold it.
  FileRuns& FileOf(LogFileId id);
  // The runs of `id`, nullptr when it has none.
  const FileRuns* FindFile(LogFileId id) const;
  void EncodeSince(uint64_t from, ByteWriter* writer) const;
  // Appends a stamp, its record re-encoded against the last one.
  void AddStamp(uint32_t block, Timestamp stamp);
  // Opens a group at the stamp whose record starts at `offset`.
  void OpenStampGroup(uint64_t offset, uint32_t block, Timestamp stamp);
  // Re-files the last group among the group minima after its min fell.
  void NoteLastGroupMin();

  // Indexed by log file id, as far as the largest id marked; an id with
  // no runs has an empty entry. A mark is then one load per id.
  std::vector<FileRuns> files_;
  // One stamp per stamped block, increasing in block, kept like the runs
  // in the delta codec's form: per stamp a varint block delta and a
  // zigzag varint stamp delta from the previous stamp (from block 1 and
  // stamp 0 for the first). Timestamps are non-monotone where
  // fragment-led blocks dip (their leading stamp is the base entry's) or
  // the clock stepped back.
  Bytes stamp_log_;
  std::vector<StampGroup> stamp_groups_;
  uint64_t stamp_count_ = 0;
  uint32_t last_stamp_block_ = 1;  // the last stamp, (1, 0) before any
  Timestamp last_stamp_ = 0;
  // The suffix minima of the group minima: every group whose min is
  // strictly below all later groups' mins, in order, so their mins
  // increase. The last block with a stamp <= t lies in the last group
  // whose min is <= t, which is always one of them: LastBlockAtOrBefore
  // bisects them, then decodes that group. Derived from the stamps;
  // never serialized or compared.
  std::vector<uint32_t> group_minima_;
  std::vector<uint64_t> holes_;  // sorted
  uint64_t covered_end_ = 1;
};

}  // namespace clio

#endif  // SRC_INDEX_EXTENT_INDEX_H_
