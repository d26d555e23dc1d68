#include "src/clio/cursor.h"

#include <algorithm>

namespace clio {

std::pair<Timestamp, bool> EffectiveTimestamp(const ParsedBlock& parsed,
                                              size_t index) {
  if (parsed.entries()[index].timestamp.has_value()) {
    return {*parsed.entries()[index].timestamp, true};
  }
  for (size_t i = index; i > 0; --i) {
    const auto& ts = parsed.entries()[i - 1].timestamp;
    if (ts.has_value()) {
      return {*ts, false};
    }
  }
  return {0, false};
}

bool VolumeCursor::Matches(const ParsedEntry& e) const {
  return !e.is_fragment() && volume_->EntryBelongsTo(e, id_);
}

// Anonymous media garbage is skipped (§2.3.2: readers cannot tell garbage
// from data, so they tolerate it), but a QUARANTINED block is a recorded
// verdict — the scrubber proved this block once held real entries and is
// now rotten. Scans that need it fail fast with the quarantine status
// instead of silently dropping entries (DESIGN.md §15 degraded mode). A
// transient read is no verdict on the block: it fails too, and a retry
// reads the block again.
Status VolumeCursor::TolerateBlockFailure(uint64_t block,
                                          const Status& failure) const {
  if (failure.code() == StatusCode::kUnavailable) {
    return failure;
  }
  Catalog* catalog = volume_->catalog();
  if (catalog != nullptr &&
      catalog->IsQuarantined(volume_->header().volume_index, block)) {
    return failure;
  }
  return Status::Ok();
}

Result<LogEntryRecord> VolumeCursor::MakeRecord(uint64_t block,
                                                const ParsedBlock& parsed,
                                                size_t index, OpStats* stats) {
  const ParsedEntry& e = parsed.entries()[index];
  LogEntryRecord record;
  record.logfile_id = e.logfile_id;
  auto [ts, exact] = EffectiveTimestamp(parsed, index);
  record.timestamp = ts;
  record.timestamp_exact = exact;
  record.client_sequence = e.client_sequence;
  record.extra_memberships = e.extra_ids;
  record.position = EntryPosition{volume_->header().volume_index, block,
                                  static_cast<uint32_t>(index)};
  bool truncated = false;
  CLIO_ASSIGN_OR_RETURN(
      record.payload,
      volume_->AssembleEntryPayload(block, parsed, index, stats, &truncated,
                                    collect_segments_ ? &record.segments
                                                      : nullptr));
  record.truncated = truncated;
  return record;
}

void VolumeCursor::MaterializeEnd() {
  LogVolumeWriter* writer = volume_->writer();
  if (writer != nullptr && writer->has_staged_entries()) {
    block_ = writer->staging_block();
    index_ = kScanAll;  // clamped to the staged entry count on first scan
  } else {
    block_ = volume_->end_block();
    index_ = 0;
  }
  state_ = State::kPositioned;
}

Result<std::optional<LogEntryRecord>> VolumeCursor::Next(OpStats* stats,
                                                          uint64_t wanted) {
  if (state_ == State::kAtEnd) {
    MaterializeEnd();
  }
  if (state_ == State::kAtStart) {
    CLIO_ASSIGN_OR_RETURN(std::optional<uint64_t> first,
                          volume_->NextBlockWith(id_, 1, stats));
    if (!first.has_value()) {
      return std::optional<LogEntryRecord>(std::nullopt);  // stay at start
    }
    state_ = State::kPositioned;
    block_ = *first;
    index_ = 0;
  }

  while (true) {
    auto parsed = volume_->GetBlock(block_, stats, id_, wanted);
    if (parsed.ok()) {
      const auto& entries = parsed.value().entries();
      size_t from = index_ == kScanAll ? entries.size() : index_;
      for (size_t i = from; i < entries.size(); ++i) {
        if (Matches(entries[i])) {
          CLIO_ASSIGN_OR_RETURN(LogEntryRecord record,
                                MakeRecord(block_, parsed.value(), i, stats));
          index_ = i + 1;
          return std::optional<LogEntryRecord>(std::move(record));
        }
      }
      if (index_ == kScanAll) {
        index_ = entries.size();
      }
    } else {
      CLIO_RETURN_IF_ERROR(TolerateBlockFailure(block_, parsed.status()));
    }
    CLIO_ASSIGN_OR_RETURN(std::optional<uint64_t> next,
                          volume_->NextBlockWith(id_, block_ + 1, stats));
    if (!next.has_value()) {
      // Leave the gap where it is: if this is the live tail block, entries
      // appended later extend it and a future Next() picks them up.
      return std::optional<LogEntryRecord>(std::nullopt);
    }
    block_ = *next;
    index_ = 0;
  }
}

Result<std::optional<LogEntryRecord>> VolumeCursor::Prev(OpStats* stats) {
  if (state_ == State::kAtStart) {
    return std::optional<LogEntryRecord>(std::nullopt);
  }
  if (state_ == State::kAtEnd) {
    MaterializeEnd();
  }

  while (true) {
    if (index_ > 0) {
      // A continuation fragment is skipped: the walk back reaches its
      // chain's base, whose block must read like any other.
      auto parsed = volume_->GetBlock(block_, stats);
      if (parsed.ok()) {
        const auto& entries = parsed.value().entries();
        for (size_t i = std::min(index_, entries.size()); i > 0; --i) {
          if (Matches(entries[i - 1])) {
            CLIO_ASSIGN_OR_RETURN(
                LogEntryRecord record,
                MakeRecord(block_, parsed.value(), i - 1, stats));
            index_ = i - 1;
            return std::optional<LogEntryRecord>(std::move(record));
          }
        }
      } else {
        CLIO_RETURN_IF_ERROR(TolerateBlockFailure(block_, parsed.status()));
      }
    }
    CLIO_ASSIGN_OR_RETURN(std::optional<uint64_t> prev,
                          volume_->PrevBlockWith(id_, block_, stats));
    if (!prev.has_value()) {
      state_ = State::kAtStart;
      return std::optional<LogEntryRecord>(std::nullopt);
    }
    block_ = *prev;
    index_ = kScanAll;
  }
}

Result<bool> VolumeCursor::SeekToTime(Timestamp t, OpStats* stats) {
  CLIO_ASSIGN_OR_RETURN(std::optional<uint64_t> block,
                        volume_->FindBlockByTime(t, stats));
  if (!block.has_value()) {
    state_ = State::kAtStart;
    return false;
  }
  // A block the extent index rules out for this file is not read: where
  // the gap sits among its foreign entries cannot change what Next or Prev
  // return. The gap goes where Next would step past it — the start of the
  // file's next block, or the burned end — and Prev walks back from there.
  if (const ExtentIndex* idx =
          volume_->PlanningIndex(id_, *block, *block + 1)) {
    ExtentIndex::Lookup next = idx->NextBlockWith(id_, *block);
    if (next.authoritative && next.block != block) {
      state_ = State::kPositioned;
      block_ = next.block.value_or(volume_->end_block());
      index_ = 0;
      return true;
    }
  }
  CLIO_ASSIGN_OR_RETURN(std::optional<ParsedBlock> parsed,
                        ValidBlock(volume_->GetBlock(*block, stats)));
  if (!parsed.has_value()) {
    state_ = State::kAtStart;
    return false;
  }
  // Gap after the last entry (of any log file) with effective ts <= t;
  // entries are written in timestamp order, so scan from the back.
  const auto& entries = parsed->entries();
  state_ = State::kPositioned;
  block_ = *block;
  index_ = 0;
  for (size_t i = entries.size(); i > 0; --i) {
    auto [ts, exact] = EffectiveTimestamp(*parsed, i - 1);
    (void)exact;
    if (ts <= t) {
      index_ = i;
      break;
    }
  }
  return true;
}

}  // namespace clio
