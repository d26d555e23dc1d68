// The entrymap log file (paper §2.1, Figure 2).
//
// Every N-th block of the volume carries a level-1 entrymap entry: for each
// active log file with entries in the previous N blocks, an N-bit bitmap
// saying which of those blocks contain them. Every N^2-th block carries a
// level-2 entry whose bitmap covers groups of N blocks, and so on. Together
// the entrymap entries form a search tree of degree N over the volume; the
// information is purely redundant (it could be recomputed by scanning every
// block) and exists only to make far-back lookups cheap.
//
// This file provides:
//  - EntrymapGeometry: the home-block / group / subgroup arithmetic;
//  - EntrymapPayload:  the on-device encoding of one entrymap entry;
//  - EntrymapAccumulator: the writer-side (and recovery-side) in-memory
//    bitmaps for groups whose nodes have not been emitted yet, keyed by
//    (level, home block) so that burns displaced past a home boundary
//    (§2.3.2) never mix marks of adjacent groups.
#ifndef SRC_CLIO_ENTRYMAP_H_
#define SRC_CLIO_ENTRYMAP_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/clio/types.h"
#include "src/index/checkpoint.h"
#include "src/util/status.h"

namespace clio {

// Whether entries of this log file are tracked in entrymap bitmaps. The
// volume sequence log would set every bit (every block holds entries), and
// the entrymap log describes itself by position; both are excluded
// (paper footnote 6).
constexpr bool EntrymapTracks(LogFileId id) {
  return id != kVolumeSeqLogId && id != kEntrymapLogId;
}

class EntrymapGeometry {
 public:
  // `degree` (N) must be a power of two >= 2. Levels are capped so that
  // N^max_level does not exceed the device capacity (there is no point in
  // a tree level wider than the volume).
  EntrymapGeometry(uint16_t degree, uint64_t capacity_blocks);

  uint16_t degree() const { return degree_; }
  int max_level() const { return max_level_; }
  uint32_t bitmap_bytes() const { return (degree_ + 7u) / 8u; }

  // N^level (level in [0, max_level]).
  uint64_t PowN(int level) const { return powers_[level]; }

  // True if `block` is the home block of a level-`level` entrymap entry.
  bool IsHome(uint64_t block, int level) const {
    return block > 0 && block % PowN(level) == 0;
  }

  // Highest level whose home block this is (0 = not a home block).
  int HomeLevel(uint64_t block) const;

  // Home block of the level-`level` group containing `block`: the group is
  // [home - N^level, home) and its entrymap entry is written *at* `home`.
  uint64_t HomeFor(uint64_t block, int level) const {
    uint64_t n = PowN(level);
    return (block / n + 1) * n;
  }

  uint64_t GroupStart(uint64_t home, int level) const {
    return home - PowN(level);
  }

  // Which bit of a level-`level` bitmap covers `block`: the index of
  // `block`'s N^(level-1)-subgroup within its N^level group.
  uint32_t SubgroupOf(uint64_t block, int level) const {
    return static_cast<uint32_t>((block % PowN(level)) / PowN(level - 1));
  }

 private:
  uint16_t degree_;
  int max_level_;
  std::vector<uint64_t> powers_;  // powers_[i] = N^i
};

// Decoded entrymap entry: one (level, home block) node of the search tree,
// holding a bitmap per log file. Large nodes may be split into several
// payloads with the same (level, home); readers merge them.
struct EntrymapPayload {
  struct PerFile {
    LogFileId id = kNoLogFileId;
    Bytes bitmap;  // bitmap_bytes() bytes, bit b = subgroup b has entries
  };

  uint8_t level = 0;
  uint64_t home_block = 0;
  std::vector<PerFile> files;

  Bytes Encode() const;
  static Result<EntrymapPayload> Decode(std::span<const std::byte> payload,
                                        uint32_t bitmap_bytes);

  // Bitmap lookup for one log file; nullptr if this payload has no bitmap
  // for it (= no entries in the covered group).
  const PerFile* Find(LogFileId id) const;

  static bool TestBit(const Bytes& bitmap, uint32_t bit);
  // Highest set bit strictly below `bit_exclusive`, or nullopt.
  static std::optional<uint32_t> HighestSetBelow(const Bytes& bitmap,
                                                 uint32_t bit_exclusive);
  // Lowest set bit at or above `bit_inclusive`, or nullopt.
  static std::optional<uint32_t> LowestSetFrom(const Bytes& bitmap,
                                               uint32_t bit_inclusive,
                                               uint32_t nbits);
};

// Writer-side bitmaps for groups whose entrymap nodes are not yet on
// media, keyed by (level, home block). Mark() is called for every entry
// placed in a block; Take() harvests one node when its home boundary is
// crossed. Recovery rebuilds an identical accumulator from the device
// (paper §2.3.1 / §3.4 step 2).
class EntrymapAccumulator {
 public:
  explicit EntrymapAccumulator(const EntrymapGeometry* geometry);

  // Records that log files `ids` (an entry's log file plus its ancestor
  // sublogs) have entry bytes in `block`. Untracked ids are skipped.
  void Mark(uint64_t block, std::span<const LogFileId> ids);

  // Directly set one subgroup bit of the node homed at `home` (used by
  // recovery when folding lower-level entrymap entries upward).
  void SetBit(int level, uint64_t home, LogFileId id, uint32_t bit);

  // Harvest the node homed at `home` into a payload and drop it. Files
  // with all-zero bitmaps are omitted; the payload may legitimately be
  // empty (quiet group).
  EntrymapPayload Take(int level, uint64_t home);

  // Drops the node homed at `home` without harvesting it: the checkpoint
  // replay crosses homes whose nodes went to media before it.
  void Drop(int level, uint64_t home);

  // Bitmap of `id` in the pending node homed at `home` (empty if none).
  Bytes BitmapOf(int level, uint64_t home, LogFileId id) const;

  // Log files with at least one bit set in the node homed at `home`.
  std::vector<LogFileId> MarkedIds(int level, uint64_t home) const;

  void Clear();

  // Snapshot / restore of the pending state, in the recovery checkpoint's
  // form (src/index/checkpoint.h). Export returns every pending node in
  // (level, home) order with its per-file bitmaps; Import replaces the
  // current pending state with a previously exported snapshot.
  std::vector<AccumulatorNodeState> ExportPending() const;
  void ImportPending(std::span<const AccumulatorNodeState> nodes);

 private:
  // One pending node, flat: the marked log files in ascending order and
  // their bitmaps packed back to back in the same order, bitmap_bytes()
  // each. A mark is a binary search over a short id array.
  struct Node {
    std::vector<LogFileId> ids;
    Bytes bitmaps;
  };

  // The node a level last marked, with each id's index in it: a mark
  // then finds a bitmap without searching the node. slot[id] is 1 + the
  // index of `id` in the node's ids, 0 when absent. Only Mark keeps the
  // slots current; every other change to the node drops the cursor.
  struct MarkCursor {
    std::optional<uint64_t> home;  // the node's, while the slots hold
    Node* node = nullptr;          // valid while `home` is set
    std::vector<uint16_t> slot;
  };

  // The bitmap of `id` in `node`, created all-zero if absent.
  std::span<std::byte> BitmapIn(Node& node, LogFileId id) const;
  // The bitmap of the node's i-th id.
  std::span<const std::byte> BitmapAt(const Node& node, size_t i) const;
  // Points the level's cursor at the node homed at `home`, its slots
  // current from the node's `from`-th id on (from all when it moves).
  void PlaceCursor(int level, uint64_t home, Node& node, size_t from);
  // Merges sorted ids absent from `node` into it with all-zero bitmaps;
  // returns the first index whose id changed.
  size_t MergeIds(Node& node, std::span<const LogFileId> fresh) const;
  // Forgets the level's cursor if it is on the node homed at `home`.
  void DropCursor(int level, uint64_t home);

  const EntrymapGeometry* geometry_;
  std::map<std::pair<int, uint64_t>, Node> pending_;  // by (level, home)
  std::vector<MarkCursor> cursors_;                   // by level, from 1
  std::vector<LogFileId> fresh_;  // Mark's ids new to a node, reused
};

}  // namespace clio

#endif  // SRC_CLIO_ENTRYMAP_H_
