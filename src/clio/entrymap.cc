#include "src/clio/entrymap.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obs/metrics.h"

namespace clio {

EntrymapGeometry::EntrymapGeometry(uint16_t degree,
                                   uint64_t capacity_blocks)
    : degree_(degree) {
  assert(degree >= 2 && (degree & (degree - 1)) == 0);
  powers_.push_back(1);
  while (powers_.back() <= capacity_blocks / degree) {
    powers_.push_back(powers_.back() * degree);
  }
  // At least one level so tiny test volumes still have a tree.
  if (powers_.size() == 1) {
    powers_.push_back(degree);
  }
  max_level_ = static_cast<int>(powers_.size()) - 1;
}

int EntrymapGeometry::HomeLevel(uint64_t block) const {
  if (block == 0) {
    return 0;
  }
  int level = 0;
  while (level < max_level_ && block % PowN(level + 1) == 0) {
    ++level;
  }
  return level;
}

Bytes EntrymapPayload::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.PutU8(level);
  w.PutU64(home_block);
  w.PutU16(static_cast<uint16_t>(files.size()));
  for (const PerFile& f : files) {
    w.PutU16(f.id);
    w.PutBytes(f.bitmap);
  }
  return out;
}

Result<EntrymapPayload> EntrymapPayload::Decode(
    std::span<const std::byte> payload, uint32_t bitmap_bytes) {
  ByteReader r(payload);
  EntrymapPayload p;
  p.level = r.GetU8();
  p.home_block = r.GetU64();
  uint16_t n = r.GetU16();
  p.files.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    PerFile f;
    f.id = r.GetU16();
    auto bits = r.GetBytes(bitmap_bytes);
    f.bitmap.assign(bits.begin(), bits.end());
    p.files.push_back(std::move(f));
  }
  if (r.failed() || p.level == 0) {
    return Corrupt("malformed entrymap payload");
  }
  return p;
}

const EntrymapPayload::PerFile* EntrymapPayload::Find(LogFileId id) const {
  for (const PerFile& f : files) {
    if (f.id == id) {
      return &f;
    }
  }
  return nullptr;
}

bool EntrymapPayload::TestBit(const Bytes& bitmap, uint32_t bit) {
  size_t byte = bit / 8;
  if (byte >= bitmap.size()) {
    return false;
  }
  return (static_cast<uint8_t>(bitmap[byte]) >> (bit % 8)) & 1u;
}

std::optional<uint32_t> EntrymapPayload::HighestSetBelow(
    const Bytes& bitmap, uint32_t bit_exclusive) {
  uint32_t limit = std::min<uint32_t>(bit_exclusive,
                                      static_cast<uint32_t>(bitmap.size()) * 8);
  for (uint32_t bit = limit; bit > 0; --bit) {
    if (TestBit(bitmap, bit - 1)) {
      return bit - 1;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> EntrymapPayload::LowestSetFrom(const Bytes& bitmap,
                                                       uint32_t bit_inclusive,
                                                       uint32_t nbits) {
  uint32_t limit = std::min<uint32_t>(nbits,
                                      static_cast<uint32_t>(bitmap.size()) * 8);
  for (uint32_t bit = bit_inclusive; bit < limit; ++bit) {
    if (TestBit(bitmap, bit)) {
      return bit;
    }
  }
  return std::nullopt;
}

EntrymapAccumulator::EntrymapAccumulator(const EntrymapGeometry* geometry)
    : geometry_(geometry) {}

std::span<std::byte> EntrymapAccumulator::BitmapIn(Node& node,
                                                   LogFileId id) const {
  const size_t width = geometry_->bitmap_bytes();
  auto it = std::lower_bound(node.ids.begin(), node.ids.end(), id);
  const size_t i = static_cast<size_t>(it - node.ids.begin());
  if (it == node.ids.end() || *it != id) {
    node.ids.insert(it, id);
    node.bitmaps.insert(node.bitmaps.begin() + i * width, width,
                        std::byte{0});
  }
  return std::span<std::byte>(node.bitmaps).subspan(i * width, width);
}

void EntrymapAccumulator::PlaceCursor(int level, uint64_t home, Node& node,
                                      size_t from) {
  MarkCursor& cursor = cursors_[level - 1];
  if (cursor.home != home) {
    cursor.slot.assign(kMaxLogFileId + 1, 0);
    cursor.home = home;
    cursor.node = &node;
    from = 0;
  }
  for (size_t i = from; i < node.ids.size(); ++i) {
    if (node.ids[i] <= kMaxLogFileId) {
      cursor.slot[node.ids[i]] = static_cast<uint16_t>(i + 1);
    }
  }
}

size_t EntrymapAccumulator::MergeIds(Node& node,
                                     std::span<const LogFileId> fresh) const {
  const size_t width = geometry_->bitmap_bytes();
  size_t old = node.ids.size();
  size_t out = old + fresh.size();
  node.ids.resize(out);
  node.bitmaps.resize(out * width);
  // From the back, so every id and bitmap moves once.
  for (size_t j = fresh.size(); j > 0;) {
    --out;
    if (old > 0 && node.ids[old - 1] > fresh[j - 1]) {
      --old;
      node.ids[out] = node.ids[old];
      std::memcpy(&node.bitmaps[out * width], &node.bitmaps[old * width],
                  width);
    } else {
      --j;
      node.ids[out] = fresh[j];
      std::memset(&node.bitmaps[out * width], 0, width);
    }
  }
  return out;  // the first index that changed
}

void EntrymapAccumulator::DropCursor(int level, uint64_t home) {
  if (static_cast<size_t>(level) <= cursors_.size() &&
      cursors_[level - 1].home == home) {
    cursors_[level - 1].home.reset();
  }
}

std::span<const std::byte> EntrymapAccumulator::BitmapAt(const Node& node,
                                                         size_t i) const {
  const size_t width = geometry_->bitmap_bytes();
  return std::span<const std::byte>(node.bitmaps).subspan(i * width, width);
}

namespace {

bool AnySet(std::span<const std::byte> bitmap) {
  return std::any_of(bitmap.begin(), bitmap.end(),
                     [](std::byte b) { return b != std::byte{0}; });
}

}  // namespace

void EntrymapAccumulator::SetBit(int level, uint64_t home, LogFileId id,
                                 uint32_t bit) {
  assert(level >= 1 && level <= geometry_->max_level());
  DropCursor(level, home);
  BitmapIn(pending_[{level, home}], id)[bit / 8] |=
      static_cast<std::byte>(1u << (bit % 8));
}

void EntrymapAccumulator::Mark(uint64_t block,
                               std::span<const LogFileId> ids) {
  static Counter* marks = ObsRegistry().counter("clio.entrymap.marks");
  marks->Increment();
  const size_t width = geometry_->bitmap_bytes();
  cursors_.resize(geometry_->max_level());
  for (int level = 1; level <= geometry_->max_level(); ++level) {
    const uint32_t bit = geometry_->SubgroupOf(block, level);
    const std::byte mask = static_cast<std::byte>(1u << (bit % 8));
    // One node lookup per level; the node is created only once a tracked
    // id marks it, so untracked ids leave no empty node behind.
    const uint64_t home = geometry_->HomeFor(block, level);
    Node* node = nullptr;
    MarkCursor& cursor = cursors_[level - 1];
    // The ids new to the node join it in one merge, not one shifting
    // insert each.
    fresh_.clear();
    bool beyond = false;  // an id past the cursor's range
    for (LogFileId id : ids) {
      if (!EntrymapTracks(id)) {
        continue;
      }
      if (node == nullptr) {
        node = cursor.home == home ? cursor.node : &pending_[{level, home}];
        PlaceCursor(level, home, *node, node->ids.size());
      }
      if (id > kMaxLogFileId) {
        beyond = true;
      } else if (cursor.slot[id] == 0) {
        fresh_.push_back(id);
      }
    }
    if (node == nullptr) {
      continue;
    }
    if (!fresh_.empty()) {
      std::sort(fresh_.begin(), fresh_.end());
      fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
      PlaceCursor(level, home, *node, MergeIds(*node, fresh_));
    }
    for (LogFileId id : ids) {
      if (EntrymapTracks(id) && id <= kMaxLogFileId) {
        node->bitmaps[(cursor.slot[id] - 1u) * width + bit / 8] |= mask;
      }
    }
    if (beyond) {
      // Not catalog ids, so no slots: search, after the slotted ones.
      DropCursor(level, home);
      for (LogFileId id : ids) {
        if (id > kMaxLogFileId) {
          BitmapIn(*node, id)[bit / 8] |= mask;
        }
      }
    }
  }
}

EntrymapPayload EntrymapAccumulator::Take(int level, uint64_t home) {
  assert(level >= 1 && level <= geometry_->max_level());
  EntrymapPayload payload;
  payload.level = static_cast<uint8_t>(level);
  payload.home_block = home;
  auto it = pending_.find({level, home});
  if (it != pending_.end()) {
    const Node& node = it->second;
    for (size_t i = 0; i < node.ids.size(); ++i) {
      std::span<const std::byte> bitmap = BitmapAt(node, i);
      if (AnySet(bitmap)) {
        payload.files.push_back(
            {node.ids[i], Bytes(bitmap.begin(), bitmap.end())});
      }
    }
    pending_.erase(it);
    DropCursor(level, home);
  }
  return payload;
}

void EntrymapAccumulator::Drop(int level, uint64_t home) {
  pending_.erase({level, home});
  DropCursor(level, home);
}

Bytes EntrymapAccumulator::BitmapOf(int level, uint64_t home,
                                    LogFileId id) const {
  auto it = pending_.find({level, home});
  if (it == pending_.end()) {
    return {};
  }
  const Node& node = it->second;
  auto f = std::lower_bound(node.ids.begin(), node.ids.end(), id);
  if (f == node.ids.end() || *f != id) {
    return {};
  }
  std::span<const std::byte> bitmap =
      BitmapAt(node, static_cast<size_t>(f - node.ids.begin()));
  return Bytes(bitmap.begin(), bitmap.end());
}

std::vector<LogFileId> EntrymapAccumulator::MarkedIds(int level,
                                                      uint64_t home) const {
  std::vector<LogFileId> ids;
  auto it = pending_.find({level, home});
  if (it == pending_.end()) {
    return ids;
  }
  const Node& node = it->second;
  for (size_t i = 0; i < node.ids.size(); ++i) {
    if (AnySet(BitmapAt(node, i))) {
      ids.push_back(node.ids[i]);
    }
  }
  return ids;
}

void EntrymapAccumulator::Clear() {
  cursors_.clear();
  pending_.clear();
}

std::vector<AccumulatorNodeState> EntrymapAccumulator::ExportPending() const {
  std::vector<AccumulatorNodeState> nodes;
  nodes.reserve(pending_.size());
  for (const auto& [key, node] : pending_) {
    AccumulatorNodeState out;
    out.level = static_cast<uint32_t>(key.first);
    out.home = key.second;
    out.files.reserve(node.ids.size());
    for (size_t i = 0; i < node.ids.size(); ++i) {
      std::span<const std::byte> bitmap = BitmapAt(node, i);
      out.files.emplace_back(node.ids[i], Bytes(bitmap.begin(), bitmap.end()));
    }
    nodes.push_back(std::move(out));
  }
  return nodes;
}

void EntrymapAccumulator::ImportPending(
    std::span<const AccumulatorNodeState> nodes) {
  cursors_.clear();
  pending_.clear();
  for (const AccumulatorNodeState& in : nodes) {
    Node& node = pending_[{static_cast<int>(in.level), in.home}];
    for (const auto& [id, bitmap] : in.files) {
      // A later duplicate replaces an earlier one; a bitmap of the wrong
      // width is cut or zero-filled to the geometry's.
      std::span<std::byte> slot = BitmapIn(node, id);
      std::fill(slot.begin(), slot.end(), std::byte{0});
      std::copy_n(bitmap.begin(), std::min(bitmap.size(), slot.size()),
                  slot.begin());
    }
  }
}

}  // namespace clio
