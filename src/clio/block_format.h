// On-device block format (paper Figure 1).
//
// Entries are packed from the front of the block; their sizes live in an
// index that grows backwards from the block's trailer, so a block can be
// scanned forwards or backwards knowing nothing but its own bytes:
//
//   | entry 1 | entry 2 | ... | entry k | pad | s_k ... s_2 s_1 | footer |
//
// Each entry is an inline header (2/10/14 bytes depending on version)
// followed by payload bytes. The 12-byte v1 footer carries the entry
// count, block flags, the used-byte watermark, a magic, and a CRC32C over
// the whole block; a block burned to all 1s (an invalidated block,
// §2.3.2) or one containing garbage fails validation and is skipped by
// readers.
//
// The 20-byte v2 footer (magic kBlockMagicV2) additionally carries an
// 8-byte CHAIN TAG: the SHA-256-derived accumulator over every valid
// block burned before this one, seeded from the volume header
// (src/clio/chain.h, DESIGN.md §15). Magic and CRC sit at the same
// offsets from the end in both versions, so Parse dispatches on the magic
// value and v1 volumes stay readable.
#ifndef SRC_CLIO_BLOCK_FORMAT_H_
#define SRC_CLIO_BLOCK_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/clio/types.h"
#include "src/util/status.h"

namespace clio {

// Block flag bits.
constexpr uint16_t kFlagLastEntryContinues = 1u << 0;  // spills into next blk
constexpr uint16_t kFlagFirstEntryIsFragment = 1u << 1;
constexpr uint16_t kFlagEntrymapContinues = 1u << 2;   // home-block overflow
constexpr uint16_t kFlagVolumeSealed = 1u << 3;        // last block of volume

constexpr uint32_t kBlockFooterSize = 12;    // v1
constexpr uint32_t kBlockFooterSizeV2 = 20;  // v1 + 8-byte chain tag
constexpr uint32_t kSizeSlotBytes = 2;
constexpr uint16_t kBlockMagic = 0xC110;    // v1: unchained footer
constexpr uint16_t kBlockMagicV2 = 0xC111;  // v2: chained footer

// Footer bytes a block of the given flavour spends.
constexpr uint32_t BlockFooterBytes(bool chained) {
  return chained ? kBlockFooterSizeV2 : kBlockFooterSize;
}

// Minimum block size that leaves room for a footer, one size slot and one
// timestamped entry with a byte of payload.
constexpr uint32_t kMinBlockSize = 64;

// Incrementally packs one block. The builder is deliberately snapshotable:
// Finish() is const, so the writer can burn a *prefix* image of a partial
// block to NVRAM on a forced write and keep appending afterwards (§2.3.1).
class BlockBuilder {
 public:
  // When `chain_tag` is present the block gets a v2 footer carrying it;
  // the tag is fixed at construction because BurnBuilder snapshots one
  // Finish() image and retries IT across bad blocks — a retried burn must
  // not change the bytes it is retrying.
  explicit BlockBuilder(uint32_t block_size,
                        std::optional<uint64_t> chain_tag = std::nullopt);

  uint32_t block_size() const { return block_size_; }
  uint32_t entry_count() const { return static_cast<uint32_t>(sizes_.size()); }
  bool empty() const { return sizes_.empty(); }
  uint16_t flags() const { return flags_; }

  // Timestamp of the first entry added, when its header persists one —
  // the builder-side twin of ParsedBlock::FirstTimestamp(), so the
  // writer can feed the extent index without re-parsing its own image.
  std::optional<Timestamp> first_timestamp() const { return first_timestamp_; }
  std::optional<uint64_t> chain_tag() const { return chain_tag_; }
  uint32_t footer_size() const {
    return BlockFooterBytes(chain_tag_.has_value());
  }

  // The packed entry records, back to back in append order, and their
  // sizes: what the block's chain commit hashes (src/clio/chain.h).
  std::span<const std::byte> records() const { return data_; }
  std::span<const uint16_t> record_sizes() const { return sizes_; }

  // Bytes still unclaimed by entries, their size slots, and the footer;
  // this is what burns as internal padding if the block is forced early.
  uint32_t free_bytes() const { return FreeBytes(); }

  // Payload bytes a new entry with this header could store in this block;
  // 0 if not even the header fits. `extra_members` sizes kMulti headers.
  uint32_t PayloadCapacity(HeaderVersion v, uint32_t extra_members = 0) const;

  // Appends an entry record. The payload must fit (PayloadCapacity).
  // For kTimestamped/kComplete/kMulti headers `ts` is persisted; `seq`
  // only for kComplete; `extras` only for kMulti.
  void AddEntry(HeaderVersion v, LogFileId id,
                std::span<const std::byte> payload, Timestamp ts = 0,
                std::optional<uint32_t> seq = std::nullopt,
                std::span<const LogFileId> extras = {});

  void SetFlags(uint16_t flag_bits) { flags_ |= flag_bits; }

  // Serializes the current contents into a full block image (padded,
  // trailer index, footer, CRC).
  Bytes Finish() const;

 private:
  uint32_t FreeBytes() const;

  uint32_t block_size_;
  std::optional<uint64_t> chain_tag_;  // presence selects the v2 footer
  Bytes data_;                  // packed entries, grows forward
  std::vector<uint16_t> sizes_;  // record sizes in append order
  uint16_t flags_ = 0;
  std::optional<Timestamp> first_timestamp_;
};

// One decoded entry record.
struct ParsedEntry {
  HeaderVersion version = HeaderVersion::kCompact;
  LogFileId logfile_id = kNoLogFileId;
  uint32_t offset = 0;       // start of the record within the block
  uint32_t record_size = 0;  // header + payload bytes in this block
  std::optional<Timestamp> timestamp;
  std::optional<uint32_t> client_sequence;
  std::vector<LogFileId> extra_ids;    // kMulti extra memberships
  std::span<const std::byte> payload;  // points into the block image

  bool is_fragment() const { return version == HeaderVersion::kFragment; }
};

// Decodes ONE entry record from its raw bytes (header + payload, exactly
// as packed into a block). Shared by ParsedBlock::Parse and client-side
// inclusion-proof verification (src/clio/chain.h), which receives record
// bytes over the wire without the surrounding block. `offset` in the
// result is 0; `payload` points into `record`.
Result<ParsedEntry> ParseEntryRecord(std::span<const std::byte> record);

// A validated, decoded block. Owns (shares) the underlying block image so
// payload spans stay valid.
class ParsedBlock {
 public:
  // Validates magic and CRC and decodes every entry.
  //  - all-1s block          -> kInvalidated
  //  - bad magic/CRC/framing -> kCorrupt
  static Result<ParsedBlock> Parse(BlockImage block);

  const std::vector<ParsedEntry>& entries() const { return entries_; }
  uint16_t flags() const { return flags_; }
  bool last_entry_continues() const {
    return (flags_ & kFlagLastEntryContinues) != 0;
  }
  bool first_entry_is_fragment() const {
    return (flags_ & kFlagFirstEntryIsFragment) != 0;
  }
  bool entrymap_continues() const {
    return (flags_ & kFlagEntrymapContinues) != 0;
  }
  bool volume_sealed() const { return (flags_ & kFlagVolumeSealed) != 0; }
  // Entrymap entries alone, flagged last-entry-continues: entrymap nodes
  // filled this block while a fragment chain was open, and the chain
  // resumes in the next block.
  bool passes_chain_through() const {
    return last_entry_continues() &&
           std::all_of(entries_.begin(), entries_.end(),
                       [](const ParsedEntry& e) {
                         return e.logfile_id == kEntrymapLogId &&
                                !e.is_fragment();
                       });
  }

  // The v2 footer's accumulated chain tag over all valid predecessor
  // blocks; nullopt for v1 (unchained) blocks.
  std::optional<uint64_t> chain_tag() const { return chain_tag_; }
  uint16_t used_bytes() const { return used_; }
  std::span<const std::byte> image() const { return image_.bytes(); }
  // The block image itself, for zero-copy payload segments that must keep
  // the bytes alive past this ParsedBlock (see PayloadSegment).
  const BlockImage& shared_image() const { return image_; }

  // Timestamp of the block's first entry. The writer guarantees the first
  // entry of every block is timestamped (§2.1), so this is present for any
  // block it produced; defensive None otherwise.
  std::optional<Timestamp> FirstTimestamp() const;

 private:
  BlockImage image_;
  std::vector<ParsedEntry> entries_;
  uint16_t flags_ = 0;
  uint16_t used_ = 0;
  std::optional<uint64_t> chain_tag_;
};

}  // namespace clio

#endif  // SRC_CLIO_BLOCK_FORMAT_H_
