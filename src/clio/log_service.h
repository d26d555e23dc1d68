// LogService: the public face of Clio.
//
// Manages a log volume sequence (paper §2.1): one or more write-once
// volumes totally ordered by time of writing, with the newest volume online
// for appends and the older ones read-only. Provides the log-file
// namespace (create/resolve/list sublogs), appends, cross-volume readers,
// time- and unique-id-based lookup, and crash recovery.
#ifndef SRC_CLIO_LOG_SERVICE_H_
#define SRC_CLIO_LOG_SERVICE_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/clio/catalog.h"
#include "src/clio/chain.h"
#include "src/clio/cursor.h"
#include "src/clio/types.h"
#include "src/clio/volume.h"
#include "src/device/block_device.h"
#include "src/device/nvram_tail.h"
#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace clio {

struct LogServiceOptions {
  uint16_t entrymap_degree = 16;  // N (paper recommends 16-32, §3.4)
  size_t cache_blocks = 4096;     // buffer-pool size, in blocks
  std::string label;
  uint64_t sequence_id = 0;  // 0: derive one from the clock
  NvramTail* nvram = nullptr;  // optional rewritable tail staging (§2.3.1)
  // Most blocks fetched past a cache miss during a forward scan, in the
  // same device pass; the extent index trims the pass to end at the
  // scanned file's last block in the window (DESIGN.md §12). 0 disables
  // readahead.
  uint32_t readahead_blocks = 32;
  // RAM extent index (DESIGN.md §17): hot locates resolve in memory with
  // zero device reads, falling back to the entrymap walk on index miss.
  bool enable_extent_index = true;
  // Blocks burned between checkpoint records written to the NVRAM sidecar
  // (restart then replays only the post-checkpoint suffix). 0 disables
  // checkpointing; no NVRAM also disables it.
  uint64_t checkpoint_interval_blocks = 256;
};

// Supplies a fresh device when the current volume fills and the sequence
// needs a successor (paper §2.1: "a previously unused successor volume is
// loaded").
using VolumeFactory =
    std::function<Result<std::unique_ptr<WormDevice>>(uint32_t volume_index)>;

// Re-supplies the device of an archived volume when a reader needs it
// (paper §2.1: previous volumes "may be made available on demand, either
// automatically or manually" — this is the automatic path; think of it as
// asking the jukebox, or an operator, for the platter).
using VolumeMounter =
    std::function<Result<std::unique_ptr<WormDevice>>(uint32_t volume_index)>;

class LogReader;

// The service's reader/writer lock (see LogService's Concurrency notes).
// It prefers writers: once a writer waits, new readers queue behind it, so
// a stream of overlapping reads cannot starve appends. The price is that a
// thread must never take the lock again while holding it, shared or not:
// its second acquisition would wait on the writer that waits on the first.
// Debug builds assert this. Meets SharedMutex for std::shared_lock and
// std::unique_lock.
class ServiceLock {
 public:
  ServiceLock();
  ~ServiceLock();
  ServiceLock(const ServiceLock&) = delete;
  ServiceLock& operator=(const ServiceLock&) = delete;

  void lock();
  void unlock();
  void lock_shared();
  void unlock_shared();

 private:
  pthread_rwlock_t rw_;
};

class LogService {
 public:
  // Creates a brand-new volume sequence on an empty device.
  static Result<std::unique_ptr<LogService>> Create(
      std::unique_ptr<WormDevice> first_device, TimeSource* clock,
      const LogServiceOptions& options);

  // Re-opens an existing sequence after a crash or restart. `devices` must
  // hold the sequence's volumes in order. Runs the §2.3.1 recovery on each
  // and records its device passes into clio.recovery.device_passes on
  // `lane` (LaneMetricName): the partition a PartitionedLogService will
  // assign the service, nullopt for a standalone one.
  static Result<std::unique_ptr<LogService>> Recover(
      std::vector<std::unique_ptr<WormDevice>> devices, TimeSource* clock,
      const LogServiceOptions& options, RecoveryReport* report,
      std::optional<uint32_t> lane = std::nullopt);

  ~LogService();

  LogService(const LogService&) = delete;
  LogService& operator=(const LogService&) = delete;

  void set_volume_factory(VolumeFactory factory) {
    volume_factory_ = std::move(factory);
  }
  void set_volume_mounter(VolumeMounter mounter) {
    volume_mounter_ = std::move(mounter);
  }

  // Unmounts an old (sealed, non-newest) volume: its device is released and
  // its cached blocks dropped. Readers that later need it, including ones
  // positioned on it, trigger the volume mounter; without one they fail
  // with kUnavailable.
  Status TakeVolumeOffline(uint32_t index);
  bool VolumeOnline(uint32_t index) const {
    return index < volume_slots_.size() &&
           volume_slots_[index].load(std::memory_order_acquire) != nullptr;
  }
  uint64_t on_demand_mounts() const {
    return on_demand_mounts_.load(std::memory_order_relaxed);
  }

  // -- Namespace (all paths absolute, e.g. "/mail/smith"). --

  // Creates a log file; intermediate components must already exist (the
  // parent becomes the sublog's parent, §2.1). `home_partition` is
  // persisted in the catalog record (see LogFileInfo); a standalone
  // service always passes 0.
  Result<LogFileId> CreateLogFile(std::string_view path,
                                  uint32_t permissions = 0644,
                                  uint32_t home_partition = 0);
  Result<LogFileId> Resolve(std::string_view path) const;
  Result<LogFileInfo> Stat(std::string_view path) const;
  Result<std::map<std::string, LogFileId>> List(std::string_view path) const;
  Status SetPermissions(std::string_view path, uint32_t permissions);
  Status SealLogFile(std::string_view path);

  // -- Writing. --

  Result<AppendResult> Append(LogFileId id, std::span<const std::byte> payload,
                              const WriteOptions& options = {});
  Result<AppendResult> Append(std::string_view path,
                              std::span<const std::byte> payload,
                              const WriteOptions& options = {});

  // Forces all buffered log data to non-volatile storage.
  Status Force();

  // -- Reading. --

  // Opens a reader positioned at the start, end, or a point in time.
  Result<std::unique_ptr<LogReader>> OpenReader(std::string_view path);
  Result<std::unique_ptr<LogReader>> OpenReaderById(LogFileId id);

  // -- Integrity (DESIGN.md §15). --

  // Builds a single-entry inclusion proof for the entry of `path` whose
  // exact persisted timestamp is `t`: the entry's raw record, the record
  // hashes of its block, and the commit of every later valid block up to
  // the chain head, checking stored-tag linkage at every step (a forged
  // block fails the build with kCorrupt rather than producing a proof
  // that papers over it). kFailedPrecondition on v1 volumes.
  Result<ChainProof> BuildChainProof(std::string_view path, Timestamp t);

  // Marks a burned block known-corrupt (the scrubber's verdict): readers
  // crossing it fail fast with kCorrupt; unaffected log files keep
  // serving. The verdict is applied to the cached catalog first and then
  // persisted as a catalog record — if the persist append fails the
  // in-memory verdict STANDS (the media is already in trouble; the record
  // is re-exported at the next volume roll) and the error is returned so
  // the caller can count it. A block already quarantined is left as is.
  Status QuarantineBlock(uint32_t volume_index, uint64_t block);

  // Persists scrub progress so a restarted server resumes scanning at the
  // cursor instead of block 0.
  Status PersistScrubCursor(uint32_t volume_index, uint64_t block);

  // The persisted scrub progress (volume index, next block), if any.
  std::optional<std::pair<uint32_t, uint64_t>> ScrubCursor() const;

  // The scrubber's view of one burned block: the parsed block, or why
  // there is none — kOutOfRange (no such volume, volume offline, or past
  // the burned end; never mounts), kFailedPrecondition (quarantined), or
  // the read's kInvalidated, kUnavailable (transient) or kCorrupt.
  Result<ParsedBlock> ProbeBlock(uint32_t volume_index, uint64_t block) const;

  // Tag 0 of the volume's hash chain; nullopt on an unchained v1 volume.
  // kOutOfRange: no such volume; kUnavailable: offline (never mounts).
  Result<std::optional<uint64_t>> ChainSeed(uint32_t volume_index) const;

  // Degraded mode: at least one block is quarantined, i.e. some stored
  // data is known lost. Reads crossing a quarantined block return
  // kCorrupt; everything else keeps serving.
  bool degraded() const;

  // -- Concurrency (DESIGN.md §12). --
  //
  // Every public call takes the service's reader/writer lock itself:
  // SHARED for reads (namespace and scrub queries, degraded, TotalSpace,
  // OpenReader*, BuildChainProof, and LogReader calls that read volumes),
  // EXCLUSIVE for mutations. Write-once media make the split safe: nothing
  // at or below the durable end changes, so a read needs only a consistent
  // view of where that end is.
  //
  // A WriteHandle holds the EXCLUSIVE side across several mutations that
  // must form one critical section (a group-commit batch: stage every
  // member, force once, promote the dedup stamps that force covered).
  // Move-only; destroying it releases the lock. The lock is not recursive,
  // so the holder calls only the handle and the unsynchronized accessors
  // below, never the service's other methods. The same holds for the
  // volume factory and mounter callbacks, which run under the lock.
  class WriteHandle {
   public:
    Result<AppendResult> Append(std::string_view path,
                                std::span<const std::byte> payload,
                                const WriteOptions& options = {});
    Status Force();

   private:
    friend class LogService;
    explicit WriteHandle(LogService* service)
        : service_(service), lock_(service->mu_) {}

    LogService* service_;
    std::unique_lock<ServiceLock> lock_;
  };
  WriteHandle LockForWrite() { return WriteHandle(this); }

  // -- Introspection. --

  // UNSYNCHRONIZED raw accessors, for single-threaded callers (tests,
  // PartitionedLogService construction, offline verification, benches)
  // and WriteHandle holders.
  const Catalog& catalog() const { return catalog_; }
  BlockCache& cache() { return *cache_; }
  size_t volume_count() const { return volumes_.size(); }
  LogVolume* volume(size_t index) { return volumes_[index].get(); }
  LogVolume* current_volume() { return volumes_.back().get(); }

  TimeSource* clock() { return clock_; }

  // Aggregated space accounting across all volumes (§3.5 experiments).
  SpaceAccounting TotalSpace() const;

  // The partition this service serves as, assigned by PartitionedLogService
  // (Create, Recover, Wrap); nullopt for a standalone service. It names the
  // service's metric lane (DESIGN.md §11): per-partition metrics — its
  // volumes', its scrubber's, its group-commit batcher's — record once,
  // into "<name>.p<i>", or into "<name>" when standalone.
  std::optional<uint32_t> partition_index() const { return partition_index_; }
  // Moves the service onto partition `index`'s lane, carrying its degraded
  // contribution along. Call before the service is shared.
  void AssignPartition(uint32_t index);

 private:
  friend class LogReader;

  // The buffer pool's frames are `block_bytes`, the first volume's block
  // size (a successor of another size reads uncached).
  LogService(TimeSource* clock, const LogServiceOptions& options,
             uint32_t block_bytes);

  // Unlocked bodies of public calls; the caller holds mu_.
  Result<AppendResult> AppendLocked(LogFileId id,
                                    std::span<const std::byte> payload,
                                    const WriteOptions& options);
  Result<AppendResult> AppendLocked(std::string_view path,
                                    std::span<const std::byte> payload,
                                    const WriteOptions& options);
  Status ForceLocked();
  // Appends a record to the current volume's catalog log.
  Status AppendCatalogRecord(const CatalogRecord& record);
  // The volume at `index`, mounting it on demand if it is offline.
  Result<LogVolume*> VolumeForRead(size_t index);

  Status CheckPermission(LogFileId id, uint32_t needed_bits) const;
  // kNotFound for an unknown id, else the read-permission check.
  Status CheckReadable(LogFileId id) const;
  Status RollToNewVolume();
  // Points a volume entering service at this service's metric lane and
  // applies the extent-index configuration.
  void ConfigureVolume(LogVolume* volume);
  // Writes a checkpoint record to the NVRAM sidecar when enough blocks
  // burned since the last attempt: a delta over the blocks since the
  // previous record, or a fresh base once the deltas would outgrow a
  // quarter of the base. Failures are counted and back off one interval:
  // a checkpoint is an accelerator, never required for correctness.
  void MaybeWriteCheckpoint();

  TimeSource* clock_;
  LogServiceOptions options_;
  Catalog catalog_;
  std::unique_ptr<BlockCache> cache_;
  std::vector<std::unique_ptr<WormDevice>> devices_;
  std::vector<std::unique_ptr<LogVolume>> volumes_;  // null = offline
  // Lock-free mirror of volumes_ for shared-lock readers: slot i publishes
  // volumes_[i].get() (nullptr = offline). A deque so push_back (under the
  // exclusive lock) never moves existing atomics out from under readers.
  // Slot stores happen under mount_mu_ (on-demand mount) or the exclusive
  // lock (roll / offline); slot loads are acquire-ordered.
  mutable std::deque<std::atomic<LogVolume*>> volume_slots_;
  std::vector<SpaceAccounting> sealed_space_;  // space of sealed volumes
  VolumeFactory volume_factory_;
  VolumeMounter volume_mounter_;
  std::atomic<uint64_t> on_demand_mounts_{0};
  // See partition_index(); every volume points at lane_metrics_.
  std::optional<uint32_t> partition_index_;
  VolumeLaneMetrics lane_metrics_;
  // This service's contribution to its lane of the clio.scrub.degraded
  // gauge (the health plane's quarantine signal): +1 per quarantined
  // block, withdrawn in the destructor so an in-process recover does not
  // double-count.
  int64_t degraded_gauge_contrib_ = 0;
  void BumpDegradedGauge(int64_t delta);
  // Covered end of the newest checkpoint record for the current volume,
  // and the staging block at which the next attempt is due (a failed
  // attempt backs off a full interval too).
  uint64_t last_checkpoint_block_ = 0;
  uint64_t next_checkpoint_block_ = 0;
  // The sidecar as this service wrote it: the base's bytes (0 means the
  // next record must be a base), the bytes of the deltas after it, and
  // the catalog generation and pending nodes the newest record saw.
  size_t sidecar_base_bytes_ = 0;
  size_t sidecar_delta_bytes_ = 0;
  uint64_t sidecar_catalog_generation_ = 0;
  std::vector<AccumulatorNodeState> sidecar_nodes_;
  // Serializes on-demand mounting among shared-lock readers (VolumeForRead
  // misses); never held across a device read.
  mutable std::mutex mount_mu_;
  mutable ServiceLock mu_;  // the service lock (see Concurrency)
};

// Cross-volume reader for one log file. Iterates the sequence's volumes in
// order, delegating to a VolumeCursor within each. Calls that read the
// volumes take the service's SHARED lock; a reader is used by one thread
// at a time.
class LogReader {
 public:
  LogReader(LogService* service, LogFileId id);

  LogFileId logfile_id() const { return id_; }

  // Zero-copy mode (DESIGN.md §16): returned records carry PayloadSegments
  // into pinned block images instead of flat payload copies. Only enable
  // when every consumer of this reader's records goes through
  // segments/CopyPayload (the net server's reply encoder does).
  void set_zero_copy(bool on) {
    zero_copy_ = on;
    if (cursor_.has_value()) {
      cursor_->set_collect_segments(on);
    }
  }

  void SeekToStart();  // reader-local, like SeekToEnd
  void SeekToEnd();
  // Position so Prev() yields the last entry with timestamp <= t.
  Status SeekToTime(Timestamp t, OpStats* stats = nullptr);

  Result<std::optional<LogEntryRecord>> Next(OpStats* stats = nullptr);
  Result<std::optional<LogEntryRecord>> Prev(OpStats* stats = nullptr);

  // Locates an entry written asynchronously and identified by the client's
  // (sequence number, timestamp) pair (§2.1). `max_skew` bounds the
  // client/server clock disagreement; the search window is
  // [client_time - max_skew, client_time + max_skew].
  Result<std::optional<LogEntryRecord>> FindByClientId(uint32_t sequence,
                                                       Timestamp client_time,
                                                       Timestamp max_skew,
                                                       OpStats* stats
                                                       = nullptr);

  // Locates the entry a synchronous writer identified by its returned
  // timestamp (§2.1: "this timestamp can subsequently be used to
  // efficiently locate the log entry"). nullopt if no entry of this log
  // file carries exactly that timestamp.
  Result<std::optional<LogEntryRecord>> FindByTimestamp(Timestamp t,
                                                        OpStats* stats
                                                        = nullptr);

 private:
  friend class LogService;

  // Unlocked bodies; the caller holds the service lock.
  Status SeekToTimeLocked(Timestamp t, OpStats* stats);
  Result<std::optional<LogEntryRecord>> NextLocked(OpStats* stats);
  Result<std::optional<LogEntryRecord>> FindByTimestampLocked(Timestamp t,
                                                              OpStats* stats);
  Status EnsureCursor(size_t volume_index);
  // Points the cursor at the volume now serving its index (one taken
  // offline since the last call is gone; a remount is a new object),
  // keeping the gap position.
  Status RebindCursor();

  LogService* service_;
  LogFileId id_;
  size_t volume_index_;
  bool zero_copy_ = false;
  std::optional<VolumeCursor> cursor_;
  enum class Edge { kStart, kEnd, kNone } pending_edge_ = Edge::kStart;
};

}  // namespace clio

#endif  // SRC_CLIO_LOG_SERVICE_H_
