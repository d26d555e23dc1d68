// The catalog log file (paper §2.2).
//
// Per-entry headers stay 4 bytes because everything that is an attribute of
// a log file *as a whole* — name, parent sublog, permissions, creation
// time — is recorded once in the catalog log file, and every later change
// is logged there too. The in-memory Catalog below is the server's cached
// table of log-file descriptors, (re)built by replaying catalog records;
// the 12-bit local-logfile-id in each entry header is an index into it.
//
// The catalog also implements the sublog naming hierarchy (§2.1): log file
// "/mail/smith" is a sublog of "/mail", and an entry logged in the sublog
// is a member of every ancestor. "/" itself names the volume sequence log.
#ifndef SRC_CLIO_CATALOG_H_
#define SRC_CLIO_CATALOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/clio/types.h"
#include "src/util/status.h"

namespace clio {

// The quarantine set is bounded: a device rotting faster than this is
// beyond salvaging block by block, and an unbounded set would let a
// corrupt catalog log exhaust server memory. Overflow drops the oldest
// information (the records stay on media; only the cache is bounded).
constexpr size_t kMaxQuarantinedBlocks = 4096;

// One record in the catalog log file.
struct CatalogRecord {
  enum class Op : uint8_t {
    kCreate = 1,
    kSetPermissions = 2,
    kRename = 3,
    kSeal = 4,
    // Scrubber state (DESIGN.md §15), persisted through the catalog log so
    // quarantine decisions and scan progress survive restarts. Decoders
    // that predate these ops reject the record as "unknown catalog op" and
    // catalog replay skips it — old servers simply run unquarantined.
    kQuarantine = 5,    // volume_index/block: known-corrupt burned block
    kScrubCursor = 6,   // volume_index/block: scan resumes here
  };

  Op op = Op::kCreate;
  LogFileId subject = kNoLogFileId;
  // kCreate fields:
  uint64_t unique_id = 0;
  LogFileId parent = kNoLogFileId;
  uint32_t permissions = 0;
  Timestamp created_at = 0;
  std::string name;  // kCreate: component name; kRename: the new name
  // kCreate only: owning partition of a partitioned deployment
  // (src/partition/). Encoded as a trailing field so records burned by
  // older servers (which never wrote it) still decode — absent reads as 0.
  uint32_t home_partition = 0;
  // kQuarantine / kScrubCursor fields:
  uint32_t volume_index = 0;
  uint64_t block = 0;

  Bytes Encode() const;
  static Result<CatalogRecord> Decode(std::span<const std::byte> payload);
};

class Catalog {
 public:
  Catalog();

  // -- Mutation (each returns the record to append to the catalog log). --

  // Creates a log file as a child (sublog) of `parent`. Assigns the next
  // free 12-bit id and a sequence-unique 64-bit id. `home_partition` is
  // recorded verbatim (0 on unpartitioned services).
  Result<CatalogRecord> Create(std::string_view name, LogFileId parent,
                               uint32_t permissions, Timestamp now,
                               uint32_t home_partition = 0);
  Result<CatalogRecord> SetPermissions(LogFileId id, uint32_t permissions);
  Result<CatalogRecord> Rename(LogFileId id, std::string_view new_name);
  Result<CatalogRecord> Seal(LogFileId id);

  // Marks a burned block as known-corrupt (scrubber verdict); readers
  // crossing it fail fast with kCorrupt (LogVolume::GetBlock).
  Result<CatalogRecord> Quarantine(uint32_t volume_index, uint64_t block);
  // Records scrub progress so a restarted server resumes scanning at the
  // cursor instead of block 0.
  Result<CatalogRecord> RecordScrubCursor(uint32_t volume_index,
                                          uint64_t block);

  // Replays a record read back from the catalog log (recovery, or opening a
  // successor volume). Idempotent for records already applied.
  Status Apply(const CatalogRecord& record);

  // -- Lookup. --

  bool Exists(LogFileId id) const {
    return id <= kMaxLogFileId && table_[id].has_value();
  }
  Result<LogFileInfo> Info(LogFileId id) const;

  // Resolves an absolute path ("/", "/mail", "/mail/smith").
  Result<LogFileId> Resolve(std::string_view path) const;

  // Full path of a log file, for diagnostics.
  Result<std::string> PathOf(LogFileId id) const;

  // Calls visit(id) on `id` itself, then on its ancestors up to and
  // including the root volume sequence log, until visit returns false or
  // the chain ends. These are the log files an entry written to `id` is a
  // member of (§2.1).
  template <typename Visit>
  void VisitSelfAndAncestors(LogFileId id, Visit visit) const {
    for (LogFileId cur = id; Exists(cur); cur = table_[cur]->parent) {
      if (!visit(cur) || cur == kVolumeSeqLogId) {
        return;
      }
    }
  }

  // True if `descendant` == `ancestor` or lies below it in the hierarchy.
  bool IsWithin(LogFileId descendant, LogFileId ancestor) const;

  // Children (sublogs) of a log file, name -> id.
  std::map<std::string, LogFileId> Children(LogFileId id) const;

  // Every client-visible log file, in id order.
  std::vector<LogFileInfo> All() const;

  // -- Scrubber state. Reads run under the service's SHARED lock; all
  // mutation goes through Apply under the EXCLUSIVE lock (the same
  // discipline as the log-file table). --

  bool IsQuarantined(uint32_t volume_index, uint64_t block) const {
    return !quarantined_.empty() &&
           quarantined_.count({volume_index, block}) > 0;
  }
  const std::set<std::pair<uint32_t, uint64_t>>& quarantined() const {
    return quarantined_;
  }
  // Quarantine records dropped because the bounded set was full.
  uint64_t quarantine_dropped() const { return quarantine_dropped_; }
  // Latest persisted scrub position, nullopt if never recorded.
  std::optional<std::pair<uint32_t, uint64_t>> scrub_cursor() const {
    return scrub_cursor_;
  }

  // Records that re-create the current state, used to seed the catalog log
  // of a successor volume so each volume is self-describing.
  std::vector<CatalogRecord> ExportRecords() const;

  // Bumped by every Apply and rollback: a checkpoint delta re-exports the
  // catalog only when this moved since the previous record.
  uint64_t generation() const { return generation_; }

  // Undoes a just-applied Create when appending its record to the catalog
  // log failed, keeping the cached table consistent with the media.
  void RemoveForRollback(LogFileId id);

 private:
  Result<LogFileId> NextFreeId() const;

  std::vector<std::optional<LogFileInfo>> table_;  // indexed by LogFileId
  std::map<LogFileId, std::map<std::string, LogFileId>> children_;
  uint64_t next_unique_id_ = 1;
  std::set<std::pair<uint32_t, uint64_t>> quarantined_;
  uint64_t quarantine_dropped_ = 0;
  std::optional<std::pair<uint32_t, uint64_t>> scrub_cursor_;
  uint64_t generation_ = 0;
};

// Path component validation: nonempty, no '/', and clients may not use the
// reserved '@' prefix (the service's own logs are "@entrymap", "@catalog",
// "@badblocks").
Status ValidateComponent(std::string_view name);

}  // namespace clio

#endif  // SRC_CLIO_CATALOG_H_
