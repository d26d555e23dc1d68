#include "src/index/extent_index.h"

#include <algorithm>

#include "src/util/crc32c.h"

namespace clio {
namespace {

constexpr uint32_t kIndexMagic = 0xC110'1DE1;
constexpr uint16_t kIndexVersion = 1;

// The entrymap does not track the volume-sequence or entrymap logs
// (src/clio/entrymap.h); the extent index mirrors that, so the linear
// locate paths for those ids stay untouched.
bool Tracked(LogFileId id) {
  return id != kVolumeSeqLogId && id != kEntrymapLogId;
}

// Unsigned LEB128. The serialized form is dominated by small deltas
// (consecutive runs, consecutive timestamps), so varints keep checkpoint
// records compact enough to rewrite into NVRAM frequently.
void PutVarint(ByteWriter* w, uint64_t v) {
  while (v >= 0x80) {
    w->PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w->PutU8(static_cast<uint8_t>(v));
}

bool GetVarint(ByteReader* r, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte = r->GetU8();
    if (r->failed()) {
      return false;
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Capacity for a decoded vector of `n` elements that is about to grow: a
// checkpoint restore replays the suffix past covered_end through
// MarkBlock, and an exact-size vector would reallocate and copy on its
// first append.
uint64_t WithHeadroom(uint64_t n) { return n + n / 8 + 16; }

}  // namespace

void ExtentIndex::MarkBlock(uint64_t block,
                            std::optional<Timestamp> leading_timestamp,
                            std::span<const LogFileId> ids) {
  if (block < covered_end_) {
    return;  // already covered (idempotent re-mark)
  }
  for (LogFileId id : ids) {
    if (!Tracked(id)) {
      continue;
    }
    RunList& runs = runs_[id];
    if (!runs.empty() && runs.back().second == block) {
      runs.back().second = block + 1;
    } else {
      runs.emplace_back(block, block + 1);
    }
  }
  if (leading_timestamp.has_value()) {
    leading_ts_.emplace_back(block, *leading_timestamp);
    prefix_max_ts_.push_back(prefix_max_ts_.empty()
                                 ? *leading_timestamp
                                 : std::max(prefix_max_ts_.back(),
                                            *leading_timestamp));
  }
  covered_end_ = block + 1;
}

void ExtentIndex::AdvanceCoveredEnd(uint64_t end) {
  covered_end_ = std::max(covered_end_, end);
}

void ExtentIndex::AddHole(uint64_t block) {
  if (holes_.empty() || holes_.back() < block) {
    holes_.push_back(block);
  }
}

bool ExtentIndex::HoleIn(uint64_t lo, uint64_t hi) const {
  auto it = std::lower_bound(holes_.begin(), holes_.end(), lo);
  return it != holes_.end() && *it < hi;
}

ExtentIndex::Lookup ExtentIndex::PrevBlockWith(LogFileId id,
                                               uint64_t before) const {
  before = std::min(before, covered_end_);
  auto it = runs_.find(id);
  if (it == runs_.end() || it->second.empty() ||
      it->second.front().first >= before) {
    // Authoritative "nothing before" unless a hole below `before` could
    // hide an earlier occurrence.
    if (HoleIn(1, before)) {
      return Lookup{};
    }
    return Lookup{true, std::nullopt};
  }
  const RunList& runs = it->second;
  // Last run starting strictly below `before`.
  auto r = std::upper_bound(
      runs.begin(), runs.end(), before,
      [](uint64_t b, const std::pair<uint64_t, uint64_t>& run) {
        return b <= run.first;
      });
  --r;
  uint64_t answer = std::min(r->second, before) - 1;
  if (HoleIn(answer + 1, before)) {
    return Lookup{};  // a hole between answer and `before` could be later
  }
  return Lookup{true, answer};
}

ExtentIndex::Lookup ExtentIndex::NextBlockWith(LogFileId id,
                                               uint64_t from) const {
  auto it = runs_.find(id);
  const RunList* runs = it == runs_.end() ? nullptr : &it->second;
  uint64_t answer_limit = covered_end_;  // exclusive bound for hole check
  std::optional<uint64_t> answer;
  if (runs != nullptr) {
    // First run ending strictly above `from`.
    auto r = std::lower_bound(
        runs->begin(), runs->end(), from,
        [](const std::pair<uint64_t, uint64_t>& run, uint64_t f) {
          return run.second <= f;
        });
    if (r != runs->end()) {
      answer = std::max(r->first, from);
      answer_limit = *answer;
    }
  }
  if (HoleIn(from, answer_limit)) {
    return Lookup{};  // a hole before the answer could be earlier
  }
  return Lookup{true, answer};
}

ExtentIndex::Lookup ExtentIndex::LastBlockAtOrBefore(Timestamp t) const {
  if (!holes_.empty()) {
    // Timestamp search has no per-id range to bound the hole check, so
    // any hole makes the vector non-authoritative.
    return Lookup{};
  }
  // Every entry in a block has effective timestamp >= the block's leading
  // stamp (later entries are stamped later; a fragment inherits its base,
  // the block's minimum), so the seek target is exactly the LAST block
  // whose leading stamp is <= t. Leading stamps are non-monotone where
  // fragment-led blocks dip, so bisect the monotone prefix-max shadow —
  // below it every block qualifies — then sweep the (short, dip-only)
  // remainder for later qualifiers.
  size_t base = static_cast<size_t>(
      std::upper_bound(prefix_max_ts_.begin(), prefix_max_ts_.end(), t) -
      prefix_max_ts_.begin());
  std::optional<uint64_t> answer;
  if (base > 0) {
    answer = leading_ts_[base - 1].first;
  }
  for (size_t j = base; j < leading_ts_.size(); ++j) {
    if (leading_ts_[j].second <= t) {
      answer = leading_ts_[j].first;
    }
  }
  return Lookup{true, answer};
}

size_t ExtentIndex::bytes() const {
  size_t total = sizeof(*this);
  for (const auto& [id, runs] : runs_) {
    total += sizeof(id) + sizeof(RunList) +
             runs.size() * sizeof(std::pair<uint64_t, uint64_t>);
  }
  total += leading_ts_.size() * sizeof(std::pair<uint64_t, Timestamp>);
  total += prefix_max_ts_.size() * sizeof(Timestamp);
  total += holes_.size() * sizeof(uint64_t);
  return total;
}

uint64_t ExtentIndex::run_count() const {
  uint64_t total = 0;
  for (const auto& [id, runs] : runs_) {
    total += runs.size();
  }
  return total;
}

bool ExtentIndex::operator==(const ExtentIndex& other) const {
  // prefix_max_ts_ is derived from leading_ts_, so it needs no comparing.
  return covered_end_ == other.covered_end_ && runs_ == other.runs_ &&
         leading_ts_ == other.leading_ts_ && holes_ == other.holes_;
}

bool ExtentIndex::CoversAtLeast(const ExtentIndex& required) const {
  if (covered_end_ < required.covered_end_) {
    return false;
  }
  for (const auto& [id, req_runs] : required.runs_) {
    auto it = runs_.find(id);
    if (it == runs_.end()) {
      if (!req_runs.empty()) {
        return false;
      }
      continue;
    }
    const RunList& have = it->second;
    size_t h = 0;
    for (const auto& [start, end] : req_runs) {
      // Runs are disjoint and sorted on both sides; advance to the run
      // that could contain [start, end) and demand full containment.
      while (h < have.size() && have[h].second <= start) {
        ++h;
      }
      if (h >= have.size() || have[h].first > start || have[h].second < end) {
        return false;
      }
    }
  }
  // Required stamps must be present verbatim (a missing or altered stamp
  // would redirect the time search).
  size_t mine = 0;
  for (const auto& stamp : required.leading_ts_) {
    while (mine < leading_ts_.size() && leading_ts_[mine].first < stamp.first) {
      ++mine;
    }
    if (mine >= leading_ts_.size() || leading_ts_[mine] != stamp) {
      return false;
    }
  }
  // Required holes must be present: dropping one would claim authority
  // over a range whose contents are unknown.
  size_t hole = 0;
  for (uint64_t h : required.holes_) {
    while (hole < holes_.size() && holes_[hole] < h) {
      ++hole;
    }
    if (hole >= holes_.size() || holes_[hole] != h) {
      return false;
    }
  }
  return true;
}

Bytes ExtentIndex::Serialize() const {
  Bytes body_bytes;
  ByteWriter body(&body_bytes);
  PutVarint(&body, covered_end_);
  PutVarint(&body, runs_.size());
  for (const auto& [id, runs] : runs_) {
    PutVarint(&body, id);
    PutVarint(&body, runs.size());
    uint64_t prev = 0;
    for (const auto& [start, end] : runs) {
      PutVarint(&body, start - prev);
      PutVarint(&body, end - start);
      prev = end;
    }
  }
  PutVarint(&body, leading_ts_.size());
  uint64_t prev_block = 0;
  Timestamp prev_ts = 0;
  for (const auto& [block, ts] : leading_ts_) {
    PutVarint(&body, block - prev_block);
    PutVarint(&body, ZigZag(ts - prev_ts));
    prev_block = block;
    prev_ts = ts;
  }
  PutVarint(&body, holes_.size());
  uint64_t prev_hole = 0;
  for (uint64_t hole : holes_) {
    PutVarint(&body, hole - prev_hole);
    prev_hole = hole;
  }

  Bytes out_bytes;
  ByteWriter out(&out_bytes);
  out.PutU32(kIndexMagic);
  out.PutU16(kIndexVersion);
  out.PutU32(Crc32c(body_bytes));
  out.PutBytes(body_bytes);
  return out_bytes;
}

Result<ExtentIndex> ExtentIndex::Deserialize(std::span<const std::byte> blob) {
  ByteReader r(blob);
  if (r.GetU32() != kIndexMagic || r.GetU16() != kIndexVersion || r.failed()) {
    return Corrupt("extent index: bad magic/version");
  }
  uint32_t crc = r.GetU32();
  if (r.failed() || crc != Crc32c(blob.subspan(r.pos()))) {
    return Corrupt("extent index: checksum mismatch");
  }

  ExtentIndex index;
  uint64_t covered_end = 0;
  uint64_t file_count = 0;
  if (!GetVarint(&r, &covered_end) || !GetVarint(&r, &file_count) ||
      file_count > kMaxLogFileId + 1) {
    return Corrupt("extent index: truncated header");
  }
  index.covered_end_ = covered_end;
  for (uint64_t f = 0; f < file_count; ++f) {
    uint64_t id = 0;
    uint64_t run_count = 0;
    if (!GetVarint(&r, &id) || id > kMaxLogFileId ||
        !GetVarint(&r, &run_count) || run_count > covered_end) {
      return Corrupt("extent index: bad file record");
    }
    RunList runs;
    runs.reserve(WithHeadroom(run_count));
    uint64_t prev = 0;
    for (uint64_t i = 0; i < run_count; ++i) {
      uint64_t gap = 0;
      uint64_t len = 0;
      if (!GetVarint(&r, &gap) || !GetVarint(&r, &len) || len == 0) {
        return Corrupt("extent index: bad run");
      }
      uint64_t start = prev + gap;
      runs.emplace_back(start, start + len);
      prev = start + len;
    }
    index.runs_.emplace(static_cast<LogFileId>(id), std::move(runs));
  }
  uint64_t ts_count = 0;
  if (!GetVarint(&r, &ts_count) || ts_count > covered_end) {
    return Corrupt("extent index: bad timestamp vector");
  }
  index.leading_ts_.reserve(WithHeadroom(ts_count));
  index.prefix_max_ts_.reserve(WithHeadroom(ts_count));
  uint64_t prev_block = 0;
  Timestamp prev_ts = 0;
  for (uint64_t i = 0; i < ts_count; ++i) {
    uint64_t block_delta = 0;
    uint64_t ts_delta = 0;
    if (!GetVarint(&r, &block_delta) || !GetVarint(&r, &ts_delta)) {
      return Corrupt("extent index: bad timestamp entry");
    }
    prev_block += block_delta;
    prev_ts += UnZigZag(ts_delta);
    index.leading_ts_.emplace_back(prev_block, prev_ts);
    index.prefix_max_ts_.push_back(
        index.prefix_max_ts_.empty()
            ? prev_ts
            : std::max(index.prefix_max_ts_.back(), prev_ts));
  }
  uint64_t hole_count = 0;
  if (!GetVarint(&r, &hole_count) || hole_count > covered_end) {
    return Corrupt("extent index: bad hole vector");
  }
  uint64_t prev_hole = 0;
  for (uint64_t i = 0; i < hole_count; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(&r, &delta)) {
      return Corrupt("extent index: bad hole entry");
    }
    prev_hole += delta;
    index.holes_.push_back(prev_hole);
  }
  if (r.remaining() != 0) {
    return Corrupt("extent index: trailing bytes");
  }
  return index;
}

}  // namespace clio
