#include "src/index/extent_index.h"

#include <algorithm>
#include <array>
#include <cstring>
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

  // Appends bytes already in varint form.
  void PutEncoded(std::span<const std::byte> bytes) {
    Flush();
    out_->PutBytes(bytes);
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
  const uint8_t* position() const { return p_; }

  // Two varints; both one byte long is the common case.
  bool GetPair(uint64_t* a, uint64_t* b) {
    if (end_ - p_ >= 2 && ((p_[0] | p_[1]) & 0x80) == 0) {
      *a = p_[0];
      *b = p_[1];
      p_ += 2;
      return true;
    }
    return Get(a) && Get(b);
  }

  // Eight (gap, length) pairs at once, the records of a busy file's
  // runs: when all sixteen varints are one byte long and nonzero, and
  // their sum is at most `budget`, adds the sum to *end and returns true.
  // Otherwise reads nothing.
  bool GetEightShortPairs(uint64_t budget, uint64_t* end) {
    constexpr uint64_t kHigh = 0x8080'8080'8080'8080;
    constexpr uint64_t kOnes = 0x0101'0101'0101'0101;
    constexpr uint64_t kLow16 = 0x00FF'00FF'00FF'00FF;
    if (end_ - p_ < 16) {
      return false;
    }
    uint64_t w0 = 0;
    uint64_t w1 = 0;
    std::memcpy(&w0, p_, 8);
    std::memcpy(&w1, p_ + 8, 8);
    // No byte has its high bit, and none is zero (with no high bits, a
    // byte borrows when one is subtracted only if it is zero).
    if (((w0 | w1) & kHigh) != 0 || (((w0 - kOnes) | (w1 - kOnes)) & kHigh) != 0) {
      return false;
    }
    uint64_t sum = w0 + w1;  // bytewise: each byte is below 0x80
    sum = (sum & kLow16) + ((sum >> 8) & kLow16);
    sum = (sum * 0x0001'0001'0001'0001) >> 48;
    if (sum > budget) {
      return false;
    }
    *end += sum;
    p_ += 16;
    return true;
  }

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

// A varint the index wrote itself, or validated on the way in.
uint64_t GetTrusted(const uint8_t** p) {
  if (**p < 0x80) {
    return *(*p)++;
  }
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *(*p)++;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
  }
}

void AppendVarint(Bytes* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::byte>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<std::byte>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Makes room for `n` more decoded elements, for what the deltas still to
// come are expected to add (`n` scaled by `follow` / `delta` bytes), and
// headroom: a checkpoint restore appends the replayed suffix after the
// deltas, and an exact-size vector would reallocate and copy on its first
// append. `n` is bounded by the bytes left to decode and `follow` by the
// caller's buffer, so a crafted count cannot reserve more than the
// records could fill.
template <typename T>
void Reserve(std::vector<T>* v, uint64_t n, uint64_t follow, size_t delta) {
  const uint64_t later = n == 0 ? 0 : n * follow / delta;
  const uint64_t need = v->size() + n + later;
  if (v->capacity() < need) {
    v->reserve(need + need / 8 + 16);
  }
}

}  // namespace

void ExtentIndex::FileRuns::CloseOpen() {
  if (empty()) {
    return;
  }
  if (closed_runs % kSkipStride == 0) {
    skips.push_back({closed.size(), open_start});
  }
  if (closed.capacity() == 0) {
    closed.reserve(16);  // a few records before the first regrowth
  }
  AppendVarint(&closed, open_start - closed_end);
  AppendVarint(&closed, open_end - open_start);
  ++closed_runs;
  closed_end = open_end;
}

// A file's runs in block order: the closed ones decoded off their
// records, then the open one.
class ExtentIndex::RunIter {
 public:
  // Before the closed run of skip entry `skip` (the first run when the
  // file has no skips), or before the open run when `skip` is kOpenRun.
  static constexpr size_t kOpenRun = SIZE_MAX;
  RunIter(const FileRuns& file, size_t skip)
      : file_(file),
        p_(reinterpret_cast<const uint8_t*>(file.closed.data())),
        closed_end_(p_ + file.closed.size()) {
    if (skip == kOpenRun) {
      p_ = closed_end_;
      next_index_ = file.closed_runs;
    } else if (skip < file.skips.size()) {
      p_ += file.skips[skip].offset;
      rebase_ = file.skips[skip].block;
      next_index_ = skip * kSkipStride;
    }
  }

  // Moves to the next run; false past the last.
  bool Next() {
    index_ = next_index_++;
    if (p_ != closed_end_) {
      const uint64_t gap = GetTrusted(&p_);
      start_ = rebase_ != 0 ? rebase_ : end_ + gap;
      rebase_ = 0;
      end_ = start_ + GetTrusted(&p_);
      return true;
    }
    if (open_ || file_.empty()) {
      return false;
    }
    open_ = true;
    start_ = file_.open_start;
    end_ = file_.open_end;
    return true;
  }

  uint64_t start() const { return start_; }
  uint64_t end() const { return end_; }
  uint64_t index() const { return index_; }  // among the file's runs
  bool open() const { return open_; }
  // The records of the closed runs after the current one.
  std::span<const std::byte> rest() const {
    return std::as_bytes(std::span<const uint8_t>(p_, closed_end_));
  }

 private:
  const FileRuns& file_;
  const uint8_t* p_;
  const uint8_t* const closed_end_;
  uint64_t rebase_ = 0;  // the next run's start, from a skip entry
  uint64_t start_ = 0;
  uint64_t end_ = 1;  // the first run's gap counts from block 1
  uint64_t index_ = 0;
  uint64_t next_index_ = 0;
  bool open_ = false;
};

// The stamps in block order from a group's first.
class ExtentIndex::StampIter {
 public:
  // Before the first stamp of group `group` (of the first stamp when
  // there are no groups).
  StampIter(const ExtentIndex& index, size_t group)
      : p_(reinterpret_cast<const uint8_t*>(index.stamp_log_.data())),
        end_(p_ + index.stamp_log_.size()) {
    if (group < index.stamp_groups_.size()) {
      const StampGroup& g = index.stamp_groups_[group];
      p_ += g.offset;
      rebase_ = true;
      block_ = g.block;
      stamp_ = static_cast<uint64_t>(g.first);
    }
  }

  // Moves to the next stamp; false past the last.
  bool Next() {
    if (p_ == end_) {
      return false;
    }
    const uint64_t block_delta = GetTrusted(&p_);
    const uint64_t stamp_delta = GetTrusted(&p_);
    if (!rebase_) {
      block_ += block_delta;
      stamp_ += static_cast<uint64_t>(UnZigZag(stamp_delta));
    }
    rebase_ = false;
    return true;
  }

  uint64_t block() const { return block_; }
  Timestamp stamp() const { return static_cast<Timestamp>(stamp_); }
  // The records of the stamps after the current one.
  std::span<const std::byte> rest() const {
    return std::as_bytes(std::span<const uint8_t>(p_, end_));
  }

 private:
  const uint8_t* p_;
  const uint8_t* const end_;
  bool rebase_ = false;  // the next record's values come from its group
  uint64_t block_ = 1;   // the first record counts from block 1, stamp 0
  uint64_t stamp_ = 0;
};

namespace {

// The last skip entry starting at or below `block` (0 when none does, and
// for a file without skips): a run before it ends below its start.
template <typename Skips>
size_t SkipAtOrBelow(const Skips& skips, uint64_t block) {
  auto after = std::upper_bound(
      skips.begin(), skips.end(), block,
      [](uint64_t b, const auto& skip) { return b < skip.block; });
  return after == skips.begin()
             ? 0
             : static_cast<size_t>(after - skips.begin()) - 1;
}

}  // namespace

ExtentIndex::FileRuns& ExtentIndex::FileOf(LogFileId id) {
  if (id >= files_.size()) {
    files_.resize(size_t{id} + 1);
  }
  return files_[id];
}

const ExtentIndex::FileRuns* ExtentIndex::FindFile(LogFileId id) const {
  return id < files_.size() && !files_[id].empty() ? &files_[id] : nullptr;
}

void ExtentIndex::MarkBlock(uint64_t block,
                            std::optional<Timestamp> leading_timestamp,
                            std::span<const LogFileId> ids) {
  if (block < covered_end_) {
    return;  // already covered (idempotent re-mark)
  }
  covered_end_ = block + 1;
  if (block >= kRunBlockLimit) {
    AddHole(block);
    return;
  }
  const auto at = static_cast<uint32_t>(block);
  for (LogFileId id : ids) {
    if (!Tracked(id)) {
      continue;
    }
    FileRuns& file = FileOf(id);
    if (file.open_end == at) {
      file.open_end = at + 1;
    } else {
      file.Open(at, at + 1);
    }
  }
  if (leading_timestamp.has_value()) {
    AddStamp(at, *leading_timestamp);
  }
}

void ExtentIndex::AddStamp(uint32_t block, Timestamp stamp) {
  const uint64_t offset = stamp_log_.size();
  AppendVarint(&stamp_log_, block - last_stamp_block_);
  AppendVarint(&stamp_log_,
               ZigZag(static_cast<int64_t>(static_cast<uint64_t>(stamp) -
                                           static_cast<uint64_t>(last_stamp_))));
  if (stamp_count_ % kSkipStride == 0) {
    OpenStampGroup(offset, block, stamp);
  } else if (stamp < stamp_groups_.back().min) {
    stamp_groups_.back().min = stamp;
    NoteLastGroupMin();
  }
  ++stamp_count_;
  last_stamp_block_ = block;
  last_stamp_ = stamp;
}

void ExtentIndex::OpenStampGroup(uint64_t offset, uint32_t block,
                                 Timestamp stamp) {
  stamp_groups_.push_back({offset, stamp, stamp, block});
  group_minima_.push_back(static_cast<uint32_t>(stamp_groups_.size() - 1));
  NoteLastGroupMin();
}

void ExtentIndex::NoteLastGroupMin() {
  // Earlier groups whose min is at or above the last group's stop being
  // suffix minima; the last group is always one.
  const uint32_t last = group_minima_.back();
  group_minima_.pop_back();
  while (!group_minima_.empty() &&
         stamp_groups_[group_minima_.back()].min >= stamp_groups_[last].min) {
    group_minima_.pop_back();
  }
  group_minima_.push_back(last);
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
  const FileRuns* file = FindFile(id);
  // A file's first run is its first skip entry's, or its open run.
  if (file == nullptr || (file->skips.empty() ? file->open_start
                                              : file->skips.front().block) >=
                             before) {
    // Authoritative "nothing before" unless a hole below `before` could
    // hide an earlier occurrence.
    if (HoleIn(1, before)) {
      return Lookup{};
    }
    return Lookup{true, std::nullopt};
  }
  // The last run starting strictly below `before`: the open run, or one
  // at most a skip stride past the last skip entry below `before`.
  uint64_t last_end = file->open_end;
  if (file->open_start >= before) {
    RunIter run(*file, SkipAtOrBelow(file->skips, before - 1));
    while (run.Next() && run.start() < before) {
      last_end = run.end();
    }
  }
  uint64_t answer = std::min(last_end, before) - 1;
  if (HoleIn(answer + 1, before)) {
    return Lookup{};  // a hole between answer and `before` could be later
  }
  return Lookup{true, answer};
}

ExtentIndex::Lookup ExtentIndex::NextBlockWith(LogFileId id,
                                               uint64_t from) const {
  const FileRuns* file = FindFile(id);
  uint64_t answer_limit = covered_end_;  // exclusive bound for hole check
  std::optional<uint64_t> answer;
  if (file != nullptr) {
    // The first run ending strictly above `from`: the open run when every
    // closed one ends at or below it, else one at most a skip stride past
    // the last skip entry at or below `from`.
    RunIter run(*file, file->closed_end <= from
                           ? RunIter::kOpenRun
                           : SkipAtOrBelow(file->skips, from));
    while (run.Next()) {
      if (run.end() > from) {
        answer = std::max(run.start(), from);
        answer_limit = *answer;
        break;
      }
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
  // whose leading stamp is <= t. It lies in the last group whose min is
  // <= t; every later group's min is above t, so that group is a suffix
  // minimum, and the suffix minima increase in min: it is the last of
  // them at or below t, found by bisection, and then decoded.
  auto after = std::upper_bound(
      group_minima_.begin(), group_minima_.end(), t,
      [this](Timestamp target, uint32_t group) {
        return target < stamp_groups_[group].min;
      });
  if (after == group_minima_.begin()) {
    return Lookup{true, std::nullopt};
  }
  StampIter stamp(*this, *std::prev(after));
  std::optional<uint64_t> answer;
  for (uint64_t i = 0; i < kSkipStride && stamp.Next(); ++i) {
    if (stamp.stamp() <= t) {
      answer = stamp.block();
    }
  }
  return Lookup{true, answer};
}

size_t ExtentIndex::bytes() const {
  size_t total = sizeof(*this) + files_.size() * sizeof(FileRuns);
  for (const FileRuns& file : files_) {
    total += file.closed.size() + file.skips.size() * sizeof(Skip);
  }
  total += stamp_log_.size() + stamp_groups_.size() * sizeof(StampGroup) +
           group_minima_.size() * sizeof(uint32_t);
  total += holes_.size() * sizeof(uint64_t);
  return total;
}

uint64_t ExtentIndex::run_count() const {
  uint64_t total = 0;
  for (const FileRuns& file : files_) {
    total += file.run_count();
  }
  return total;
}

bool ExtentIndex::operator==(const ExtentIndex& other) const {
  // The skips and stamp groups are derived, so they need no comparing;
  // the tables may differ in length by ids without runs.
  const size_t ids = std::max(files_.size(), other.files_.size());
  for (size_t id = 0; id < ids; ++id) {
    const FileRuns* mine = FindFile(static_cast<LogFileId>(id));
    const FileRuns* theirs = other.FindFile(static_cast<LogFileId>(id));
    if ((mine == nullptr) != (theirs == nullptr) ||
        (mine != nullptr && !(*mine == *theirs))) {
      return false;
    }
  }
  return covered_end_ == other.covered_end_ &&
         stamp_log_ == other.stamp_log_ && holes_ == other.holes_;
}

bool ExtentIndex::CoversAtLeast(const ExtentIndex& required) const {
  if (covered_end_ < required.covered_end_) {
    return false;
  }
  for (size_t id = 0; id < required.files_.size(); ++id) {
    if (required.files_[id].empty()) {
      continue;
    }
    const FileRuns* found = FindFile(static_cast<LogFileId>(id));
    if (found == nullptr) {
      return false;
    }
    RunIter need(required.files_[id], 0);
    RunIter have(*found, 0);
    bool more = have.Next();
    while (need.Next()) {
      // Runs are disjoint and sorted on both sides; advance to the run
      // that could contain the required one and demand full containment.
      while (more && have.end() <= need.start()) {
        more = have.Next();
      }
      if (!more || have.start() > need.start() || have.end() < need.end()) {
        return false;
      }
    }
  }
  // Required stamps must be present verbatim (a missing or altered stamp
  // would redirect the time search).
  StampIter mine(*this, 0);
  StampIter need(required, 0);
  bool more = mine.Next();
  while (need.Next()) {
    while (more && mine.block() < need.block()) {
      more = mine.Next();
    }
    if (!more || mine.block() != need.block() ||
        mine.stamp() != need.stamp()) {
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
// `from`; stamps are zigzag deltas starting at 0. A file's runs past the
// first it encodes are its closed records as they stand, then its open
// run: only the first run's gap is re-based on `from`.
void ExtentIndex::EncodeSince(uint64_t from, ByteWriter* writer) const {
  VarintWriter out(writer);
  uint64_t files = 0;
  for (const FileRuns& file : files_) {
    files += !file.empty() && file.open_end > from;
  }
  out.Put(files);
  for (uint64_t id = 0; id < files_.size(); ++id) {
    const FileRuns& file = files_[id];
    if (file.empty() || file.open_end <= from) {
      continue;
    }
    // A delta's `from` is recent, so most files skip straight to their
    // open run; a base starts at the first run.
    RunIter run(file, file.closed_end <= from
                          ? RunIter::kOpenRun
                          : SkipAtOrBelow(file.skips, from));
    while (run.Next() && run.end() <= from) {
    }
    out.Put(id);
    out.Put(file.run_count() - run.index());
    const uint64_t start = std::max(run.start(), from);
    out.Put(start - from);
    out.Put(run.end() - start);
    if (!run.open()) {
      out.PutEncoded(run.rest());
      out.Put(file.open_start - file.closed_end);
      out.Put(file.open_end - file.open_start);
    }
  }
  // The stamps at or past `from`: the first re-based on (from, 0), the
  // rest copied.
  const bool stamps = stamp_count_ > 0 && last_stamp_block_ >= from;
  const size_t group = stamps ? SkipAtOrBelow(stamp_groups_, from) : 0;
  StampIter stamp(*this, group);
  uint64_t first = stamp_count_;  // the first stamp at or past `from`
  if (stamps) {
    first = group * kSkipStride;
    while (stamp.Next() && stamp.block() < from) {
      ++first;
    }
  }
  out.Put(stamp_count_ - first);
  if (first < stamp_count_) {
    out.Put(stamp.block() - from);
    out.Put(ZigZag(stamp.stamp()));
    out.PutEncoded(stamp.rest());
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
  const uint64_t bound = std::min(to, kRunBlockLimit);  // runs end by it
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
    FileRuns& file = FileOf(*prev_id);
    // The run read last, [start, end). Only the first run may touch
    // `from`; later ones are separated by a gap, as MarkBlock leaves them.
    uint64_t start = 0;
    uint64_t end = from;
    auto next_run = [&](bool first) {
      uint64_t gap = 0;
      uint64_t len = 0;
      if (!in.GetPair(&gap, &len) || (!first && gap == 0) || len == 0 ||
          gap > bound - end || len > bound - end - gap) {
        return false;
      }
      start = end + gap;
      end = start + len;
      return true;
    };
    if (from >= bound || !next_run(/*first=*/true)) {
      return Corrupt("extent index delta: bad run");
    }
    // The first run extends the open run or opens one; each later run
    // closes the one before it.
    if (file.open_end == start) {
      file.open_end = static_cast<uint32_t>(end);
    } else {
      file.Open(static_cast<uint32_t>(start), static_cast<uint32_t>(end));
    }
    if (run_count == 1) {
      continue;
    }
    // Run 0 closes re-encoded, as its gap counts from `from`. The records
    // of runs 1 .. n-2 are closed records as they stand (a gap from the
    // previous run's end, a length): they are validated here and
    // appended in one copy, and only the skip table is built per run.
    const uint8_t* const copied = in.position();  // run 1's record
    if (!next_run(/*first=*/false)) {
      return Corrupt("extent index delta: bad run");
    }
    file.Open(static_cast<uint32_t>(start), static_cast<uint32_t>(end));
    const size_t copy_at = file.closed.size();  // where run 1's lands
    const uint8_t* record = copied;             // the open run's record
    uint64_t closed_runs = file.closed_runs;
    uint64_t closed_end = file.closed_end;
    for (uint64_t i = 2; i < run_count; ++i) {
      // Eight runs at a time while none of them closes onto a skip entry.
      const uint64_t phase = closed_runs % kSkipStride;
      if (run_count - i >= 8 && phase != 0 && phase <= kSkipStride - 8 &&
          in.GetEightShortPairs(bound - end, &end)) {
        const uint8_t* last = in.position() - 2;
        start = end - last[1];
        closed_end = start - last[0];
        closed_runs += 8;
        record = last;
        i += 7;
        continue;
      }
      const uint8_t* at = in.position();
      const uint64_t closing = start;
      closed_end = end;
      if (!next_run(/*first=*/false)) {
        return Corrupt("extent index delta: bad run");
      }
      if (closed_runs % kSkipStride == 0) {
        file.skips.push_back({copy_at + static_cast<size_t>(record - copied),
                              static_cast<uint32_t>(closing)});
      }
      ++closed_runs;
      record = at;
    }
    if (run_count > 2) {
      const size_t bytes = static_cast<size_t>(record - copied);
      Reserve(&file.closed, bytes, bytes_to_follow, delta.size());
      file.closed.insert(file.closed.end(),
                         reinterpret_cast<const std::byte*>(copied),
                         reinterpret_cast<const std::byte*>(record));
      file.closed_runs = closed_runs;
      file.closed_end = static_cast<uint32_t>(closed_end);
      file.open_start = static_cast<uint32_t>(start);
      file.open_end = static_cast<uint32_t>(end);
    }
  }
  uint64_t ts_count = 0;
  if (!in.Get(&ts_count) || ts_count > in.remaining()) {
    return Corrupt("extent index delta: bad timestamp vector");
  }
  // The stamp read last. The first is re-encoded against the last stamp
  // kept; the records after it are kept records as they stand (a block
  // delta and a stamp delta from the previous stamp), so they are
  // validated here and appended in one copy, up to the first block past
  // the runs' 32 bits, whose stamps MarkBlock keeps none of either.
  uint64_t block = from;
  uint64_t stamp = 0;
  auto next_stamp = [&](bool first) {
    uint64_t block_delta = 0;
    uint64_t stamp_delta = 0;
    if (!in.GetPair(&block_delta, &stamp_delta) ||
        block_delta >= to - block || (!first && block_delta == 0)) {
      return false;
    }
    block += block_delta;
    stamp += static_cast<uint64_t>(UnZigZag(stamp_delta));
    return true;
  };
  if (ts_count > 0) {
    if (!next_stamp(/*first=*/true)) {
      return Corrupt("extent index delta: bad timestamp entry");
    }
    bool kept = block < kRunBlockLimit;
    if (kept) {
      AddStamp(static_cast<uint32_t>(block), static_cast<Timestamp>(stamp));
    }
    const uint8_t* const copied = in.position();
    const uint8_t* copied_end = copied;
    const size_t copy_at = stamp_log_.size();
    uint64_t count = stamp_count_;
    for (uint64_t i = 1; i < ts_count; ++i) {
      const uint8_t* at = in.position();
      if (!next_stamp(/*first=*/false)) {
        return Corrupt("extent index delta: bad timestamp entry");
      }
      kept = kept && block < kRunBlockLimit;
      if (!kept) {
        continue;
      }
      const auto ts = static_cast<Timestamp>(stamp);
      if (count % kSkipStride == 0) {
        OpenStampGroup(copy_at + static_cast<size_t>(at - copied),
                       static_cast<uint32_t>(block), ts);
      } else if (ts < stamp_groups_.back().min) {
        stamp_groups_.back().min = ts;
        NoteLastGroupMin();
      }
      ++count;
      copied_end = in.position();
      last_stamp_block_ = static_cast<uint32_t>(block);
      last_stamp_ = ts;
    }
    const size_t bytes = static_cast<size_t>(copied_end - copied);
    Reserve(&stamp_log_, bytes, bytes_to_follow, delta.size());
    stamp_log_.insert(stamp_log_.end(),
                      reinterpret_cast<const std::byte*>(copied),
                      reinterpret_cast<const std::byte*>(copied_end));
    stamp_count_ = count;
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
