// VolumeCursor: bidirectional iteration over the entries of one log file
// within one volume. Implements the paper's read model (§2): a log file
// opened for reading yields its entry sequence "either subsequent to, or
// prior to, any previous point in time". Fragmented entries are reassembled
// transparently; entries stored with compact headers get their effective
// timestamp from the nearest preceding persisted timestamp (block
// resolution, §2.1).
//
// The cursor models a *gap* between entries, like a bidirectional iterator:
// after Next() returns entry E, Prev() returns E again. A cursor at the end
// of a live log keeps working as a tail: further appends make further
// Next() calls succeed.
#ifndef SRC_CLIO_CURSOR_H_
#define SRC_CLIO_CURSOR_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "src/clio/types.h"
#include "src/clio/volume.h"

namespace clio {

class VolumeCursor {
 public:
  // The cursor reads entries of `id`, including entries of its sublogs.
  VolumeCursor(LogVolume* volume, LogFileId id)
      : volume_(volume), id_(id) {}

  LogFileId logfile_id() const { return id_; }
  // Moves the cursor onto another LogVolume object for the same volume (a
  // remount), keeping the gap position.
  void Rebind(LogVolume* volume) { volume_ = volume; }

  // Zero-copy mode: records carry their payload as PayloadSegments
  // referencing pinned block images instead of a flat copy (DESIGN.md
  // §16). Callers that enable this must consume records via
  // segments/CopyPayload, not .payload.
  void set_collect_segments(bool on) { collect_segments_ = on; }

  // Position before the first / after the last entry currently present.
  void SeekToStart() { state_ = State::kAtStart; }
  void SeekToEnd() { state_ = State::kAtEnd; }

  // Positions the gap so Prev() returns the last entry with effective
  // timestamp <= t and Next() the first after it. Returns false (cursor at
  // start) if everything on this volume postdates t.
  Result<bool> SeekToTime(Timestamp t, OpStats* stats);

  // Next / previous entry of the log file; nullopt at the respective end.
  Result<std::optional<LogEntryRecord>> Next(OpStats* stats);
  Result<std::optional<LogEntryRecord>> Prev(OpStats* stats);

 private:
  enum class State { kAtStart, kAtEnd, kPositioned };

  // Sentinel for "scan this block from its last entry".
  static constexpr size_t kScanAll = SIZE_MAX;

  Result<LogEntryRecord> MakeRecord(uint64_t block, const ParsedBlock& parsed,
                                    size_t index, OpStats* stats);

  bool Matches(const ParsedEntry& e) const;
  bool IsOwnFragment(const ParsedEntry& e) const;
  // Ok to skip an unreadable block (anonymous garbage), or the failure
  // itself when the block is quarantined (degraded mode, DESIGN.md §15).
  Status TolerateBlockFailure(uint64_t block, const Status& failure) const;

  // Base entry whose fragment chain covers fragments seen in `block`.
  Result<std::optional<EntryPosition>> FindFragmentBase(uint64_t block,
                                                        OpStats* stats);

  // Turns kAtEnd into a concrete gap at the current end of the volume.
  void MaterializeEnd();

  LogVolume* volume_;
  LogFileId id_;
  bool collect_segments_ = false;
  State state_ = State::kAtStart;
  // Valid when kPositioned: the gap sits immediately before entry `index_`
  // of `block_` (index_ may exceed the block's entry count = gap at the
  // block's end).
  uint64_t block_ = 0;
  size_t index_ = 0;
};

// Effective timestamp of entry `index`: its own persisted timestamp, or the
// nearest preceding one in the block (the writer guarantees the block's
// first entry carries one). Second member is "exact".
std::pair<Timestamp, bool> EffectiveTimestamp(const ParsedBlock& parsed,
                                              size_t index);

}  // namespace clio

#endif  // SRC_CLIO_CURSOR_H_
