// PartitionRouter: which partition owns which log file.
//
// A partitioned deployment (see partitioned_service.h) runs N independent
// volume sequences behind one server. Every log file is pinned to exactly
// one of them — its HOME partition — at creation time, and the assignment
// is persisted in the file's kCreate catalog record (LogFileInfo::
// home_partition), so it survives restarts: a retried append always
// re-routes to the same partition, which is what keeps the per-partition
// (client_id, request_seq) dedup windows correct.
//
// This class is the in-memory routing table: path -> home partition.
// Default assignment hashes the path (FNV-1a), so files spread evenly with
// no coordination; tests and capacity planners can override with an
// explicit placement. The table is rebuilt on recovery by scanning every
// partition's catalog (the records are the durable form; this map is only
// the cache).
//
// Thread safety: internally synchronized by one mutex, held only for a map
// lookup or update. It is a leaf lock: nothing is called while holding
// it, so lock order is trivially acyclic.
#ifndef SRC_PARTITION_PARTITION_ROUTER_H_
#define SRC_PARTITION_PARTITION_ROUTER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace clio {

class PartitionRouter {
 public:
  explicit PartitionRouter(uint32_t partition_count)
      : partition_count_(partition_count) {}

  PartitionRouter(const PartitionRouter&) = delete;
  PartitionRouter& operator=(const PartitionRouter&) = delete;

  uint32_t partition_count() const { return partition_count_; }

  // Default (hash) route for a path not yet assigned: FNV-1a over the
  // path bytes, mod the partition count. Deterministic across restarts
  // and processes, but only the PERSISTED assignment is authoritative —
  // an explicitly placed file hashes wherever it likes.
  uint32_t HashRoute(std::string_view path) const;

  // The recorded home of `path`, if one is known.
  std::optional<uint32_t> Lookup(std::string_view path) const;

  // Records `path`'s home. Idempotent for the same partition; a different
  // partition is corruption (two catalogs claim the same path) unless the
  // entry was Forget()ten first.
  Status Learn(std::string_view path, uint32_t partition);

  // Drops a recorded route (rollback of a failed create).
  void Forget(std::string_view path);

  // Snapshot of every known route, for tests and diagnostics.
  std::map<std::string, uint32_t> Routes() const;

 private:
  const uint32_t partition_count_;
  mutable std::mutex mu_;
  std::map<std::string, uint32_t, std::less<>> routes_;
};

}  // namespace clio

#endif  // SRC_PARTITION_PARTITION_ROUTER_H_
