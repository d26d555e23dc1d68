// Shared types and constants of the Clio log service.
#ifndef SRC_CLIO_TYPES_H_
#define SRC_CLIO_TYPES_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/cache/block_image.h"
#include "src/util/bytes.h"
#include "src/util/time.h"

namespace clio {

// A local log file id: a 12-bit index into the volume sequence's catalog
// (paper §2.2). Ids 0-3 are reserved for the service's own log files.
using LogFileId = uint16_t;

constexpr LogFileId kVolumeSeqLogId = 0;  // "/": every entry belongs to it
constexpr LogFileId kEntrymapLogId = 1;   // location bitmaps (§2.1)
constexpr LogFileId kCatalogLogId = 2;    // log-file attributes (§2.2)
constexpr LogFileId kBadBlockLogId = 3;   // corrupted-block records (§2.3.2)
constexpr LogFileId kFirstClientLogId = 4;
constexpr LogFileId kMaxLogFileId = 0x0FFF;  // 12-bit field
constexpr LogFileId kNoLogFileId = 0xFFFF;

// Log entry header forms (4-bit version field, §2.2). The v1 header is the
// paper's minimal 4-byte form: 2 bytes on the entry itself
// (version + logfile id) plus the 2-byte size slot in the block trailer
// index. v3 is the paper's "complete, 14-byte" header (§3.2).
enum class HeaderVersion : uint8_t {
  kCompact = 1,      // version+id (2 B inline)
  kTimestamped = 2,  // + 64-bit server timestamp (10 B inline)
  kComplete = 3,     // + 32-bit client sequence number (14 B inline)
  kMulti = 4,        // timestamped + extra log-file memberships (the §2.1
                     // "a log entry [may] be a member of more than one log
                     // file"); 11 + 2*n B inline
  kFragment = 5,     // continuation fragment; carries the base entry's
                     // timestamp so a block that starts with a fragment
                     // still starts with a timestamp (10 B inline)
};

// Returns the inline (on-block) byte size of a header of this version.
// kMulti headers carry `extra_members` additional 2-byte log file ids.
constexpr uint32_t HeaderInlineSize(HeaderVersion v,
                                    uint32_t extra_members = 0) {
  switch (v) {
    case HeaderVersion::kCompact:
      return 2;
    case HeaderVersion::kTimestamped:
      return 10;
    case HeaderVersion::kComplete:
      return 14;
    case HeaderVersion::kMulti:
      return 11 + 2 * extra_members;
    case HeaderVersion::kFragment:
      return 10;
  }
  return 2;
}

// Per-write options.
struct WriteOptions {
  // Persist a server timestamp in the entry header. Synchronous writers get
  // the timestamp back and can use it as the entry's unique id (§2.1).
  // Regardless of this flag, the first entry of every block is forced to a
  // timestamped header so time search resolves to single blocks.
  bool timestamped = false;
  // Optional client-chosen sequence number, persisted in a kComplete
  // header; the (sequence, client timestamp) pair identifies entries
  // written asynchronously (§2.1).
  std::optional<uint32_t> client_sequence;
  // Additional log files this entry belongs to, beyond the one it is
  // appended to and that one's ancestors (§2.1: membership in more than
  // one log file; "these subsets are usually distinct" but need not be).
  std::vector<LogFileId> extra_memberships;
  // Force the entry (and everything before it) to non-volatile storage
  // before returning, as on a transaction commit (§2.3.1).
  bool force = false;
};

// Stable address of an entry: volume index in the sequence, device block
// of the entry's *first* fragment, and ordinal within that block.
struct EntryPosition {
  uint32_t volume_index = 0;
  uint64_t block = 0;
  uint32_t index_in_block = 0;

  auto operator<=>(const EntryPosition&) const = default;
};

// One contiguous slice of an entry's payload, referencing the block image
// it was parsed from instead of copying it (DESIGN.md §16). `image` keeps
// the (immutable, write-once) block bytes alive for as long as the segment
// exists, and pins their cache frame: the block stays cached until the
// segment is consumed. A non-fragmented entry has one segment; each
// continuation fragment adds one.
struct PayloadSegment {
  BlockImage image;
  uint32_t offset = 0;
  uint32_t length = 0;

  std::span<const std::byte> view() const {
    return image.bytes().subspan(offset, length);
  }
};

// A log entry as returned to readers.
struct LogEntryRecord {
  LogFileId logfile_id = kNoLogFileId;
  // Server receive timestamp. For entries stored with a compact header this
  // is the nearest preceding persisted timestamp (block resolution, §2.1).
  Timestamp timestamp = 0;
  bool timestamp_exact = false;  // true iff persisted in this entry's header
  std::optional<uint32_t> client_sequence;
  std::vector<LogFileId> extra_memberships;
  Bytes payload;
  // Zero-copy representation (readers in zero-copy mode): when non-empty,
  // `segments` — not `payload`, which is left empty — is the authoritative
  // payload, as borrowed views into pinned block images. The two forms are
  // mutually exclusive; payload_size()/CopyPayload() work on either.
  std::vector<PayloadSegment> segments;
  EntryPosition position;
  // True if part of the entry's fragment chain was lost to corruption; the
  // payload holds whatever survived (§2.3.2: surface the useful remainder).
  bool truncated = false;

  size_t payload_size() const {
    size_t total = payload.size();
    for (const PayloadSegment& s : segments) {
      total += s.length;
    }
    return total;
  }
  // The payload as one contiguous buffer, copying segments if needed.
  Bytes CopyPayload() const {
    Bytes out = payload;
    for (const PayloadSegment& s : segments) {
      auto v = s.view();
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
};

// Per-operation cost counters. The paper's tables are expressed in these
// units (entrymap log entries examined, disk blocks read, cache hits);
// every read/search API can fill one.
struct OpStats {
  uint64_t blocks_read = 0;     // block fetches (cache or device)
  uint64_t cache_hits = 0;
  uint64_t device_reads = 0;    // fetches that went to the device
  uint64_t entrymap_entries_examined = 0;

  void Reset() { *this = OpStats{}; }
  OpStats& operator+=(const OpStats& o) {
    blocks_read += o.blocks_read;
    cache_hits += o.cache_hits;
    device_reads += o.device_reads;
    entrymap_entries_examined += o.entrymap_entries_examined;
    return *this;
  }
};

// Attributes of one log file, reconstructed from the catalog log (§2.2).
struct LogFileInfo {
  LogFileId id = kNoLogFileId;
  uint64_t unique_id = 0;  // distinct from every id ever used on the sequence
  std::string name;        // path component, e.g. "smith"
  LogFileId parent = kNoLogFileId;  // sublog parent; kVolumeSeqLogId for "/x"
  uint32_t permissions = 0644;
  Timestamp created_at = 0;
  bool sealed = false;  // no further appends accepted
  // Which partition of a partitioned deployment owns this log file's
  // entries (src/partition/). Persisted in the kCreate catalog record so a
  // retried append re-routes to the same volume sequence after a restart.
  // Always 0 on an unpartitioned service.
  uint32_t home_partition = 0;
};

}  // namespace clio

#endif  // SRC_CLIO_TYPES_H_
