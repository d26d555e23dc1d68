// PartitionedLogService: N independent volume sequences behind one server.
//
// The paper's volume sequence (§2.1) has a single write head: every append
// funnels through one VolumeWriter, so a server saturates at one device's
// burn bandwidth no matter how many clients it serves. This subsystem
// scales writes horizontally WITHOUT changing the media format: it runs N
// complete, unmodified LogServices side by side — each with its own
// WormDevice chain, volume writer, entrymap, block cache and (in the net
// server) group-commit batcher — and pins every log file to exactly one of
// them at creation time.
//
// Routing. A log file's HOME partition is chosen at create time (hash of
// the path by default; tests and capacity planners may place explicitly)
// and persisted in its kCreate catalog record, so the assignment survives
// restarts and a retried append always lands on the same partition — which
// is what keeps per-partition (client_id, request_seq) dedup exact. The
// in-memory PartitionRouter is rebuilt on recovery from the union of the
// partitions' catalogs.
//
// Namespace. Paths are global; ids are per-partition-local (all wire
// addressing is by path). A leaf is created only on its home partition.
// Its proper ancestors are MIRRORED onto that partition (each mirror
// carrying the ancestor's own original home id), because within one
// LogService an entry is a member of its ancestors (§2.1) and the parent
// chain must resolve locally. Reading an interior log file such as "/mail"
// therefore means merging the partitions where it exists — which is
// exactly what OpenReader returns (see PartitionedLogReader).
//
// Time. All partitions share one TimeSource; NowUnique() is a CAS loop, so
// timestamps are globally unique and ordered across partitions, which is
// what makes the cross-partition merge-by-timestamp well defined.
//
// Concurrency. Every LogService locks for itself (DESIGN.md §12), so each
// call here routes and then calls the OWNING partition, which takes its
// own lock: appends to different partitions never contend. Multi-lane
// frontends (src/net/) that batch reach through partition(i) and hold a
// LogService::WriteHandle for the batch.
//
// Serving. The server (src/net/) serves one of these; a plain
// LogService is served as a one-partition view (Wrap). The router knows
// only the paths it has learned, so once a LogService is being served,
// create log files through the server or this class, never on the
// LogService directly.
#ifndef SRC_PARTITION_PARTITIONED_SERVICE_H_
#define SRC_PARTITION_PARTITIONED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/types.h"
#include "src/device/block_device.h"
#include "src/partition/partition_router.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace clio {

class PartitionedLogReader;

struct PartitionedServiceOptions {
  // Template applied to every partition. `sequence_id`, when nonzero, is
  // the BASE id: partition p's sequence gets base + p (a fresh base is
  // derived from the clock when 0). `label` gets "/p<i>" appended.
  LogServiceOptions base;

  // Per-lane NVRAM tails: partition p gets lane_nvram[p] when present,
  // else base.nvram. Sharing one tail across lanes would cross-wire their
  // staged blocks and checkpoints, so deployments wanting crash-safe tails
  // and checkpointed restarts must hand each lane its own.
  std::vector<NvramTail*> lane_nvram;
};

class PartitionedLogService {
 public:
  // Creates a brand-new partitioned deployment, one empty device per
  // partition. `devices.size()` fixes the partition count for the life of
  // the deployment (it is implied by the set of volume sequences mounted,
  // not stored anywhere).
  static Result<std::unique_ptr<PartitionedLogService>> Create(
      std::vector<std::unique_ptr<WormDevice>> devices, TimeSource* clock,
      const PartitionedServiceOptions& options);

  // Re-opens after a crash/restart: `devices[p]` holds partition p's volume
  // chain in order. Recovers each partition independently (appending one
  // RecoveryReport per partition to `reports` if non-null), verifies the
  // recovered sequence ids are pairwise distinct (catching a mis-mounted
  // chain), and rebuilds the router from the partitions' catalogs.
  static Result<std::unique_ptr<PartitionedLogService>> Recover(
      std::vector<std::vector<std::unique_ptr<WormDevice>>> devices,
      TimeSource* clock, const PartitionedServiceOptions& options,
      std::vector<RecoveryReport>* reports);

  // A one-partition view over a LogService the caller keeps owning; it
  // must outlive the view. The router learns the service's catalog exactly
  // as Recover does, so a catalog naming another partition (the volume was
  // one partition of a larger deployment) is kCorrupt.
  static Result<std::unique_ptr<PartitionedLogService>> Wrap(
      LogService* service);

  PartitionedLogService(const PartitionedLogService&) = delete;
  PartitionedLogService& operator=(const PartitionedLogService&) = delete;

  uint32_t partition_count() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  LogService* partition(uint32_t i) { return partitions_[i]; }
  PartitionRouter& router() { return *router_; }
  const PartitionRouter& router() const { return *router_; }
  TimeSource* clock() { return clock_; }

  // Creates a log file on `placement` (explicit) or its hash partition,
  // mirroring any not-yet-present ancestors onto that partition first.
  // Returns the home partition chosen; `id`, when non-null, receives the
  // leaf's id on it. Intermediate components must already exist somewhere
  // in the deployment, matching LogService.
  Result<uint32_t> CreateLogFile(std::string_view path,
                                 uint32_t permissions = 0644,
                                 std::optional<uint32_t> placement
                                 = std::nullopt,
                                 LogFileId* id = nullptr);

  // Routes to the owning partition and appends under that partition's
  // exclusive lock only — appends to other partitions proceed in parallel.
  Result<AppendResult> Append(std::string_view path,
                              std::span<const std::byte> payload,
                              const WriteOptions& options = {});

  // Forces every partition (in index order, each under its own lock).
  Status Force();

  Result<LogFileInfo> Stat(std::string_view path) const;

  // The recorded home partition of `path`, nullopt if unknown ("/" has no
  // home: it exists on every partition).
  std::optional<uint32_t> RouteOf(std::string_view path) const {
    return router_->Lookup(path);
  }

  // Opens a merged reader over every partition where `path` resolves
  // (its home plus any partitions holding it as a mirrored ancestor).
  Result<std::unique_ptr<PartitionedLogReader>> OpenReader(
      std::string_view path);

  // Inclusion proof for the entry of `path` with exact timestamp `t`
  // (LogService::BuildChainProof), built under the owning partition's
  // SHARED lock only. A path with no route (missing, or "/") probes each
  // partition and returns the first answer that is not kNotFound.
  Result<ChainProof> BuildChainProof(std::string_view path, Timestamp t);

 private:
  explicit PartitionedLogService(TimeSource* clock) : clock_(clock) {}

  // Appends `part` as the next partition and assigns it that index.
  void AddPartition(LogService* part);

  // Rebuilds the router from the partitions' catalogs, the durable routing
  // table. Mirrored ancestors carry their original home id, so every
  // partition that knows a path agrees on its home (disagreement is
  // corruption, caught by Learn).
  Status LearnRoutes();

  // Mirrors `path`'s proper ancestors onto partition `home` (each with its
  // own original home id). Caller holds create_mu_.
  Status MirrorAncestors(std::string_view path, uint32_t home);

  TimeSource* clock_;
  // Owned by Create/Recover; empty for a Wrap view.
  std::vector<std::unique_ptr<LogService>> owned_;
  std::vector<LogService*> partitions_;
  std::unique_ptr<PartitionRouter> router_;
  // Serializes CreateLogFile end to end, so two concurrent creates of the
  // same path cannot race the router and split-brain onto two partitions.
  // Creates are rare; appends and reads never take this.
  std::mutex create_mu_;
};

// Merge-by-timestamp reader over one log file's per-partition readers.
//
// Entries of one log file live on one partition, but an INTERIOR log file
// ("/mail", or "/" itself) spans every partition holding a descendant, so
// its merged stream interleaves partitions. The shared clock hands out
// globally unique, monotone timestamps, so merging per-partition streams
// by (timestamp, partition index) yields one totally ordered stream.
//
// The merge is advance-and-undo, exploiting the cursor gap model
// (cursor.h: after Next() returns E, Prev() returns E again): Next()
// advances every source, keeps the minimum, and backs the losers up with
// Prev(); Prev() mirrors with the maximum and Next(). No entries are
// buffered, so a reader holds no payload memory between calls and
// interleaved Next/Prev behave exactly like a single-partition reader.
//
// Each per-source call takes that partition's SHARED lock itself, one
// source at a time (never nested), so a merged read never blocks appends
// on partitions it is not currently touching.
class PartitionedLogReader {
 public:
  // One reader per partition holding the log file, in partition order.
  explicit PartitionedLogReader(
      std::vector<std::unique_ptr<LogReader>> sources)
      : sources_(std::move(sources)) {}

  size_t source_count() const { return sources_.size(); }

  // Zero-copy mode, forwarded to every per-partition reader (see
  // LogReader::set_zero_copy). Records produced by the merge then carry
  // PayloadSegments from whichever partition they came from.
  void set_zero_copy(bool on) {
    for (auto& source : sources_) {
      source->set_zero_copy(on);
    }
  }

  void SeekToStart();
  void SeekToEnd();
  Status SeekToTime(Timestamp t, OpStats* stats = nullptr);

  Result<std::optional<LogEntryRecord>> Next(OpStats* stats = nullptr);
  Result<std::optional<LogEntryRecord>> Prev(OpStats* stats = nullptr);

  // Point lookups probe sources in order and return the first hit; the
  // shared clock guarantees at most one source can match a timestamp.
  Result<std::optional<LogEntryRecord>> FindByTimestamp(Timestamp t,
                                                        OpStats* stats
                                                        = nullptr);
  Result<std::optional<LogEntryRecord>> FindByClientId(uint32_t sequence,
                                                       Timestamp client_time,
                                                       Timestamp max_skew,
                                                       OpStats* stats
                                                       = nullptr);

 private:
  std::vector<std::unique_ptr<LogReader>> sources_;
};

}  // namespace clio

#endif  // SRC_PARTITION_PARTITIONED_SERVICE_H_
