#include "src/clio/block_format.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/crc32c.h"

namespace clio {
namespace {

constexpr uint16_t kVersionMask = 0x000F;

uint16_t EncodeBaseHeader(HeaderVersion v, LogFileId id) {
  return static_cast<uint16_t>((static_cast<uint16_t>(v) & kVersionMask) |
                               (static_cast<uint16_t>(id & kMaxLogFileId)
                                << 4));
}

bool IsAllOnes(std::span<const std::byte> block) {
  for (std::byte b : block) {
    if (b != std::byte{0xFF}) {
      return false;
    }
  }
  return true;
}

}  // namespace

BlockBuilder::BlockBuilder(uint32_t block_size,
                           std::optional<uint64_t> chain_tag)
    : block_size_(block_size), chain_tag_(chain_tag) {
  assert(block_size >= kMinBlockSize);
  data_.reserve(block_size);
}

uint32_t BlockBuilder::FreeBytes() const {
  uint32_t fixed = footer_size() +
                   kSizeSlotBytes * static_cast<uint32_t>(sizes_.size());
  uint32_t used = static_cast<uint32_t>(data_.size());
  if (used + fixed >= block_size_) {
    return 0;
  }
  return block_size_ - used - fixed;
}

uint32_t BlockBuilder::PayloadCapacity(HeaderVersion v,
                                       uint32_t extra_members) const {
  uint32_t free = FreeBytes();
  uint32_t need = HeaderInlineSize(v, extra_members) + kSizeSlotBytes;
  return free > need ? free - need : 0;
}

void BlockBuilder::AddEntry(HeaderVersion v, LogFileId id,
                            std::span<const std::byte> payload, Timestamp ts,
                            std::optional<uint32_t> seq,
                            std::span<const LogFileId> extras) {
  assert(payload.size() <=
         PayloadCapacity(v, static_cast<uint32_t>(extras.size())));
  assert(extras.size() <= 255);
  uint32_t header_size =
      HeaderInlineSize(v, static_cast<uint32_t>(extras.size()));
  uint32_t record_size = header_size + static_cast<uint32_t>(payload.size());
  assert(record_size <= 0xFFFF);

  size_t off = data_.size();
  data_.resize(off + header_size);
  std::span<std::byte> hdr(data_.data() + off, header_size);
  StoreU16(hdr, 0, EncodeBaseHeader(v, id));
  if (v != HeaderVersion::kCompact) {
    StoreI64(hdr, 2, ts);
  }
  if (v == HeaderVersion::kComplete) {
    StoreU32(hdr, 10, seq.value_or(0));
  }
  if (v == HeaderVersion::kMulti) {
    hdr[10] = static_cast<std::byte>(extras.size());
    for (size_t i = 0; i < extras.size(); ++i) {
      StoreU16(hdr, 11 + 2 * i, extras[i]);
    }
  }
  data_.insert(data_.end(), payload.begin(), payload.end());
  sizes_.push_back(static_cast<uint16_t>(record_size));
  if (v == HeaderVersion::kFragment && sizes_.size() == 1) {
    flags_ |= kFlagFirstEntryIsFragment;
  }
  if (sizes_.size() == 1 && v != HeaderVersion::kCompact) {
    first_timestamp_ = ts;
  }
}

Bytes BlockBuilder::Finish() const {
  const uint32_t footer = footer_size();
  Bytes block(block_size_, std::byte{0});
  std::copy(data_.begin(), data_.end(), block.begin());
  std::span<std::byte> b(block);
  // Size index: slot for entry i sits at block_size - footer - 2*(i+1),
  // i.e. s_1 nearest the footer (paper Fig. 1 shows s_k ... s_2 s_1).
  for (size_t i = 0; i < sizes_.size(); ++i) {
    StoreU16(b, block_size_ - footer - kSizeSlotBytes * (i + 1), sizes_[i]);
  }
  StoreU16(b, block_size_ - footer, static_cast<uint16_t>(sizes_.size()));
  StoreU16(b, block_size_ - footer + 2, flags_);
  StoreU16(b, block_size_ - footer + 4, static_cast<uint16_t>(data_.size()));
  if (chain_tag_.has_value()) {
    StoreU64(b, block_size_ - 14, *chain_tag_);
  }
  StoreU16(b, block_size_ - 6, chain_tag_ ? kBlockMagicV2 : kBlockMagic);
  uint32_t crc = Crc32c(std::span<const std::byte>(block.data(),
                                                   block_size_ - 4));
  StoreU32(b, block_size_ - 4, crc);
  return block;
}

Result<ParsedEntry> ParseEntryRecord(std::span<const std::byte> record) {
  const uint32_t record_size = static_cast<uint32_t>(record.size());
  if (record_size < 2 || record_size > 0xFFFF) {
    return Corrupt("entry record has impossible size");
  }
  uint16_t base = LoadU16(record, 0);
  ParsedEntry entry;
  entry.version = static_cast<HeaderVersion>(base & kVersionMask);
  entry.logfile_id = static_cast<LogFileId>(base >> 4);
  entry.offset = 0;
  entry.record_size = record_size;
  uint32_t header_size = HeaderInlineSize(entry.version);
  if (entry.version == HeaderVersion::kMulti) {
    if (record_size < 11) {
      return Corrupt("multi-membership header truncated");
    }
    uint32_t n = static_cast<uint8_t>(record[10]);
    header_size = HeaderInlineSize(entry.version, n);
    if (record_size < header_size) {
      return Corrupt("multi-membership id list truncated");
    }
    entry.timestamp = LoadI64(record, 2);
    entry.extra_ids.reserve(n);
    for (uint32_t e = 0; e < n; ++e) {
      entry.extra_ids.push_back(LoadU16(record, 11 + 2 * e));
    }
  }
  switch (entry.version) {
    case HeaderVersion::kCompact:
    case HeaderVersion::kMulti:  // decoded above (variable-length header)
      break;
    case HeaderVersion::kFragment:
      if (record_size < 10) {
        return Corrupt("fragment header truncated");
      }
      entry.timestamp = LoadI64(record, 2);
      break;
    case HeaderVersion::kComplete:
      if (record_size < 14) {
        return Corrupt("complete header truncated");
      }
      entry.timestamp = LoadI64(record, 2);
      entry.client_sequence = LoadU32(record, 10);
      break;
    case HeaderVersion::kTimestamped:
      if (record_size < 10) {
        return Corrupt("timestamped header truncated");
      }
      entry.timestamp = LoadI64(record, 2);
      break;
    default:
      return Corrupt("unknown header version " +
                     std::to_string(static_cast<int>(entry.version)));
  }
  if (record_size < header_size) {
    return Corrupt("record smaller than its header");
  }
  entry.payload = record.subspan(header_size);
  return entry;
}

Result<ParsedBlock> ParsedBlock::Parse(BlockImage block) {
  if (block.size() < kMinBlockSize) {
    return Corrupt("short or missing block image");
  }
  const std::span<const std::byte> b = block.bytes();
  const uint32_t bs = static_cast<uint32_t>(b.size());
  if (IsAllOnes(b)) {
    return Invalidated("block burned to all 1s");
  }
  const uint16_t magic = LoadU16(b, bs - 6);
  if (magic != kBlockMagic && magic != kBlockMagicV2) {
    return Corrupt("bad block magic");
  }
  const bool chained = magic == kBlockMagicV2;
  const uint32_t footer = BlockFooterBytes(chained);
  uint32_t stored_crc = LoadU32(b, bs - 4);
  uint32_t computed = Crc32c(b.first(bs - 4));
  if (stored_crc != computed) {
    return Corrupt("block CRC mismatch");
  }

  ParsedBlock parsed;
  parsed.image_ = std::move(block);
  uint32_t count = LoadU16(b, bs - footer);
  parsed.flags_ = LoadU16(b, bs - footer + 2);
  uint32_t used = LoadU16(b, bs - footer + 4);
  parsed.used_ = static_cast<uint16_t>(used);
  if (chained) {
    parsed.chain_tag_ = LoadU64(b, bs - 14);
  }
  uint32_t index_bytes = kSizeSlotBytes * count;
  if (used + index_bytes + footer > bs) {
    return Corrupt("block framing exceeds block size");
  }

  parsed.entries_.reserve(count);
  uint32_t off = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t record_size = LoadU16(b, bs - footer - kSizeSlotBytes * (i + 1));
    if (record_size < 2 || off + record_size > used) {
      return Corrupt("entry " + std::to_string(i) + " overruns block");
    }
    CLIO_ASSIGN_OR_RETURN(ParsedEntry entry,
                          ParseEntryRecord(b.subspan(off, record_size)));
    entry.offset = off;
    parsed.entries_.push_back(std::move(entry));
    off += record_size;
  }
  return parsed;
}

std::optional<Timestamp> ParsedBlock::FirstTimestamp() const {
  if (entries_.empty()) {
    return std::nullopt;
  }
  return entries_.front().timestamp;
}

}  // namespace clio
