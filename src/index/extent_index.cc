#include "src/index/extent_index.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "src/util/crc32c.h"

namespace clio {
namespace {

constexpr uint32_t kIndexMagic = 0xC110'1DE1;
constexpr uint16_t kIndexVersion = 2;

// The entrymap does not track the volume-sequence or entrymap logs
// (src/clio/entrymap.h); the extent index mirrors that, so the linear
// locate paths for those ids stay untouched.
bool Tracked(LogFileId id) {
  return id != kVolumeSeqLogId && id != kEntrymapLogId;
}

// Unsigned LEB128. The serialized form is dominated by small deltas
// (consecutive runs, consecutive timestamps), so varints keep checkpoint
// records compact enough to rewrite into NVRAM frequently. The writer
// stages them in a local buffer and appends it in chunks: a compaction
// encodes hundreds of thousands, and a push_back per byte costs more
// than the varint.
class VarintWriter {
 public:
  explicit VarintWriter(ByteWriter* out) : out_(out) {}
  VarintWriter(const VarintWriter&) = delete;
  VarintWriter& operator=(const VarintWriter&) = delete;
  ~VarintWriter() { Flush(); }

  void Put(uint64_t v) {
    if (static_cast<size_t>(buf_.end() - p_) < kMaxVarintBytes) {
      Flush();
    }
    uint8_t* p = p_;
    while (v >= 0x80) {
      *p++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<uint8_t>(v);
    p_ = p;
  }

 private:
  static constexpr size_t kMaxVarintBytes = 10;

  void Flush() {
    out_->PutBytes(std::as_bytes(std::span<const uint8_t>(buf_.data(), p_)));
    p_ = buf_.data();
  }

  ByteWriter* out_;
  std::array<uint8_t, 4096> buf_;
  uint8_t* p_ = buf_.data();
};

// Reads varints straight off the bytes: a restart decodes hundreds of
// thousands of them, nearly all one byte long.
class VarintReader {
 public:
  explicit VarintReader(std::span<const std::byte> data)
      : p_(reinterpret_cast<const uint8_t*>(data.data())),
        end_(p_ + data.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool Get(uint64_t* out) {
    if (p_ != end_ && *p_ < 0x80) {
      *out = *p_++;
      return true;
    }
    uint64_t v = 0;
    for (int shift = 0; shift < 64 && p_ != end_; shift += 7) {
      const uint8_t byte = *p_++;
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Makes room for `n` more decoded elements, for what the deltas still to
// come are expected to add (`n` scaled by `follow` / `delta` bytes), and
// headroom: a checkpoint restore replays the suffix past covered_end
// through MarkBlock, and an exact-size vector would reallocate and copy
// on its first append. `n` is bounded by the bytes left to decode and
// `follow` by the caller's buffer, so a crafted count cannot reserve
// more than the records could fill.
template <typename T>
void Reserve(std::vector<T>* v, uint64_t n, uint64_t follow, size_t delta) {
  const uint64_t later = n == 0 ? 0 : n * follow / delta;
  const uint64_t need = v->size() + n + later;
  if (v->capacity() < need) {
    v->reserve(need + need / 8 + 16);
  }
}

// Ordering for bisecting the stamps, kept in increasing block order, at
// a block.
bool StampedBefore(const std::pair<uint64_t, Timestamp>& stamp,
                   uint64_t block) {
  return stamp.first < block;
}

}  // namespace

ExtentIndex::RunList& ExtentIndex::RunsOf(LogFileId id) {
  if (id >= runs_.size()) {
    runs_.resize(size_t{id} + 1);
  }
  return runs_[id];
}

const ExtentIndex::RunList* ExtentIndex::FindRuns(LogFileId id) const {
  return id < runs_.size() && !runs_[id].empty() ? &runs_[id] : nullptr;
}

void ExtentIndex::MarkBlock(uint64_t block,
                            std::optional<Timestamp> leading_timestamp,
                            std::span<const LogFileId> ids) {
  if (block < covered_end_) {
    return;  // already covered (idempotent re-mark)
  }
  if (block >= kRunBlockLimit) {
    AddHole(block);
    ids = {};
  }
  for (LogFileId id : ids) {
    if (!Tracked(id)) {
      continue;
    }
    RunList& runs = RunsOf(id);
    const auto at = static_cast<uint32_t>(block);
    if (!runs.empty() && runs.back().second == at) {
      runs.back().second = at + 1;
    } else {
      runs.emplace_back(at, at + 1);
    }
  }
  if (leading_timestamp.has_value()) {
    AddStamp(block, *leading_timestamp);
  }
  covered_end_ = block + 1;
}

void ExtentIndex::AddStamp(uint64_t block, Timestamp stamp) {
  leading_ts_.emplace_back(block, stamp);
  // Earlier stamps at or above this one stop being suffix minima.
  while (!suffix_min_ts_.empty() && suffix_min_ts_.back().second >= stamp) {
    suffix_min_ts_.pop_back();
  }
  suffix_min_ts_.emplace_back(block, stamp);
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
  const RunList* found = FindRuns(id);
  if (found == nullptr || found->front().first >= before) {
    // Authoritative "nothing before" unless a hole below `before` could
    // hide an earlier occurrence.
    if (HoleIn(1, before)) {
      return Lookup{};
    }
    return Lookup{true, std::nullopt};
  }
  const RunList& runs = *found;
  // Last run starting strictly below `before`.
  auto r = std::upper_bound(
      runs.begin(), runs.end(), before,
      [](uint64_t b, const Run& run) { return b <= run.first; });
  --r;
  uint64_t answer = std::min<uint64_t>(r->second, before) - 1;
  if (HoleIn(answer + 1, before)) {
    return Lookup{};  // a hole between answer and `before` could be later
  }
  return Lookup{true, answer};
}

ExtentIndex::Lookup ExtentIndex::NextBlockWith(LogFileId id,
                                               uint64_t from) const {
  const RunList* runs = FindRuns(id);
  uint64_t answer_limit = covered_end_;  // exclusive bound for hole check
  std::optional<uint64_t> answer;
  if (runs != nullptr) {
    // First run ending strictly above `from`.
    auto r = std::lower_bound(
        runs->begin(), runs->end(), from,
        [](const Run& run, uint64_t f) { return run.second <= f; });
    if (r != runs->end()) {
      answer = std::max<uint64_t>(r->first, from);
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
  // whose leading stamp is <= t. Every later block stamps above t, so that
  // block is a suffix minimum, and the suffix minima increase in stamp:
  // it is the last of them at or below t, found by bisection.
  auto after = std::upper_bound(
      suffix_min_ts_.begin(), suffix_min_ts_.end(), t,
      [](Timestamp target, const Stamp& s) { return target < s.second; });
  if (after == suffix_min_ts_.begin()) {
    return Lookup{true, std::nullopt};
  }
  return Lookup{true, std::prev(after)->first};
}

size_t ExtentIndex::bytes() const {
  size_t total = sizeof(*this) + runs_.size() * sizeof(RunList);
  for (const RunList& runs : runs_) {
    total += runs.size() * sizeof(Run);
  }
  total += (leading_ts_.size() + suffix_min_ts_.size()) * sizeof(Stamp);
  total += holes_.size() * sizeof(uint64_t);
  return total;
}

uint64_t ExtentIndex::run_count() const {
  uint64_t total = 0;
  for (const RunList& runs : runs_) {
    total += runs.size();
  }
  return total;
}

bool ExtentIndex::operator==(const ExtentIndex& other) const {
  // suffix_min_ts_ is derived from leading_ts_, so it needs no comparing;
  // the tables may differ in length by ids without runs.
  const size_t ids = std::max(runs_.size(), other.runs_.size());
  for (size_t id = 0; id < ids; ++id) {
    const RunList* mine = FindRuns(static_cast<LogFileId>(id));
    const RunList* theirs = other.FindRuns(static_cast<LogFileId>(id));
    if ((mine == nullptr) != (theirs == nullptr) ||
        (mine != nullptr && *mine != *theirs)) {
      return false;
    }
  }
  return covered_end_ == other.covered_end_ &&
         leading_ts_ == other.leading_ts_ && holes_ == other.holes_;
}

bool ExtentIndex::CoversAtLeast(const ExtentIndex& required) const {
  if (covered_end_ < required.covered_end_) {
    return false;
  }
  for (size_t id = 0; id < required.runs_.size(); ++id) {
    const RunList& req_runs = required.runs_[id];
    if (req_runs.empty()) {
      continue;
    }
    const RunList* found = FindRuns(static_cast<LogFileId>(id));
    if (found == nullptr) {
      return false;
    }
    const RunList& have = *found;
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
  VarintWriter(&body).Put(covered_end_);
  EncodeSince(1, &body);

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
  const std::span<const std::byte> body = blob.subspan(r.pos());
  VarintReader in(body);
  uint64_t covered_end = 0;
  if (!in.Get(&covered_end)) {
    return Corrupt("extent index: truncated header");
  }
  ExtentIndex index;
  CLIO_RETURN_IF_ERROR(index.ApplyDelta(
      covered_end, body.subspan(body.size() - in.remaining())));
  return index;
}

Bytes ExtentIndex::EncodeSince(uint64_t from) const {
  Bytes out;
  ByteWriter w(&out);
  EncodeSince(from, &w);
  return out;
}

// Every position is a varint offset from the previous one, starting at
// `from`; stamps are zigzag deltas starting at 0.
void ExtentIndex::EncodeSince(uint64_t from, ByteWriter* writer) const {
  VarintWriter out(writer);
  uint64_t files = 0;
  for (const RunList& runs : runs_) {
    files += !runs.empty() && runs.back().second > from;
  }
  out.Put(files);
  for (uint64_t id = 0; id < runs_.size(); ++id) {
    const RunList& runs = runs_[id];
    // Walk back from the tail: a delta encodes a few runs per file, and
    // bisecting every file's whole list would touch O(files log runs)
    // cold lines instead.
    auto first = runs.end();
    while (first != runs.begin() && std::prev(first)->second > from) {
      --first;
    }
    if (first == runs.end()) {
      continue;
    }
    out.Put(id);
    out.Put(static_cast<uint64_t>(runs.end() - first));
    uint64_t prev = from;
    for (auto run = first; run != runs.end(); ++run) {
      const uint64_t start = std::max<uint64_t>(run->first, from);
      out.Put(start - prev);
      out.Put(run->second - start);
      prev = run->second;
    }
  }
  auto ts = std::lower_bound(leading_ts_.begin(), leading_ts_.end(), from,
                             StampedBefore);
  out.Put(static_cast<uint64_t>(leading_ts_.end() - ts));
  uint64_t prev_block = from;
  uint64_t prev_ts = 0;
  for (; ts != leading_ts_.end(); ++ts) {
    const uint64_t stamp = static_cast<uint64_t>(ts->second);
    out.Put(ts->first - prev_block);
    out.Put(ZigZag(static_cast<int64_t>(stamp - prev_ts)));
    prev_block = ts->first;
    prev_ts = stamp;
  }
  auto hole = std::lower_bound(holes_.begin(), holes_.end(), from);
  out.Put(static_cast<uint64_t>(holes_.end() - hole));
  uint64_t prev_hole = from;
  for (; hole != holes_.end(); ++hole) {
    out.Put(*hole - prev_hole);
    prev_hole = *hole;
  }
}

Status ExtentIndex::ApplyDelta(uint64_t to, std::span<const std::byte> delta,
                               uint64_t bytes_to_follow) {
  VarintReader in(delta);
  const uint64_t from = covered_end_;
  uint64_t file_count = 0;
  if (to < from || !in.Get(&file_count) ||
      file_count > in.remaining()) {
    return Corrupt("extent index delta: bad header");
  }
  std::optional<LogFileId> prev_id;
  for (uint64_t f = 0; f < file_count; ++f) {
    uint64_t id = 0;
    uint64_t run_count = 0;
    if (!in.Get(&id) || id > kMaxLogFileId ||
        (prev_id.has_value() && id <= *prev_id) ||
        !in.Get(&run_count) || run_count == 0 ||
        run_count > in.remaining()) {
      return Corrupt("extent index delta: bad file record");
    }
    prev_id = static_cast<LogFileId>(id);
    RunList& runs = RunsOf(*prev_id);
    Reserve(&runs, run_count, bytes_to_follow, delta.size());
    uint64_t prev = from;
    for (uint64_t i = 0; i < run_count; ++i) {
      uint64_t gap = 0;
      uint64_t len = 0;
      // Only the first run may touch `from`; later ones are separated
      // by a gap, as MarkBlock leaves them.
      if (!in.Get(&gap) || gap > to - prev || (i > 0 && gap == 0) ||
          !in.Get(&len) || len == 0 || len > to - prev - gap ||
          prev + gap + len > kRunBlockLimit) {
        return Corrupt("extent index delta: bad run");
      }
      const auto start = static_cast<uint32_t>(prev + gap);
      const auto end = static_cast<uint32_t>(start + len);
      if (!runs.empty() && runs.back().second == start) {
        runs.back().second = end;
      } else {
        runs.emplace_back(start, end);
      }
      prev = end;
    }
  }
  uint64_t ts_count = 0;
  if (!in.Get(&ts_count) || ts_count > in.remaining()) {
    return Corrupt("extent index delta: bad timestamp vector");
  }
  Reserve(&leading_ts_, ts_count, bytes_to_follow, delta.size());
  Reserve(&suffix_min_ts_, ts_count, bytes_to_follow, delta.size());
  uint64_t prev_block = from;
  uint64_t prev_ts = 0;
  for (uint64_t i = 0; i < ts_count; ++i) {
    uint64_t block_delta = 0;
    uint64_t ts_delta = 0;
    if (!in.Get(&block_delta) || block_delta >= to - prev_block ||
        (i > 0 && block_delta == 0) || !in.Get(&ts_delta)) {
      return Corrupt("extent index delta: bad timestamp entry");
    }
    prev_block += block_delta;
    prev_ts += static_cast<uint64_t>(UnZigZag(ts_delta));
    AddStamp(prev_block, static_cast<Timestamp>(prev_ts));
  }
  uint64_t hole_count = 0;
  if (!in.Get(&hole_count) || hole_count > in.remaining()) {
    return Corrupt("extent index delta: bad hole vector");
  }
  uint64_t prev_hole = from;
  for (uint64_t i = 0; i < hole_count; ++i) {
    uint64_t gap = 0;
    if (!in.Get(&gap) || gap >= to - prev_hole || (i > 0 && gap == 0)) {
      return Corrupt("extent index delta: bad hole entry");
    }
    prev_hole += gap;
    holes_.push_back(prev_hole);
  }
  if (in.remaining() != 0) {
    return Corrupt("extent index delta: trailing bytes");
  }
  covered_end_ = to;
  return Status::Ok();
}

}  // namespace clio
