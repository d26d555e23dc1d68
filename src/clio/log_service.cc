#include "src/clio/log_service.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "src/obs/trace.h"

namespace clio {
namespace {

// A failed rwlock call leaves the service lock unusable; stop at once.
void CheckRw(int rc, const char* what) {
  if (rc != 0) {
    std::fprintf(stderr, "ServiceLock: %s: %s\n", what, std::strerror(rc));
    std::abort();
  }
}

#ifndef NDEBUG
// Service locks the calling thread holds, to catch a re-acquisition.
thread_local std::vector<const ServiceLock*> held_service_locks;
#endif

void NoteAcquire([[maybe_unused]] const ServiceLock* lock) {
#ifndef NDEBUG
  assert(std::find(held_service_locks.begin(), held_service_locks.end(),
                   lock) == held_service_locks.end() &&
         "a thread re-took a LogService lock it already holds");
  held_service_locks.push_back(lock);
#endif
}

void NoteRelease([[maybe_unused]] const ServiceLock* lock) {
#ifndef NDEBUG
  auto it = std::find(held_service_locks.begin(), held_service_locks.end(),
                      lock);
  assert(it != held_service_locks.end());
  held_service_locks.erase(it);
#endif
}

constexpr uint32_t kReadBit = 0400;
constexpr uint32_t kWriteBit = 0200;

// Splits "/a/b/c" into ("/a/b", "c"); "/a" into ("/", "a").
Status SplitPath(std::string_view path, std::string* parent,
                 std::string* name) {
  if (path.size() < 2 || path.front() != '/') {
    return InvalidArgument("path must be absolute and non-root");
  }
  size_t slash = path.rfind('/');
  *name = std::string(path.substr(slash + 1));
  *parent = slash == 0 ? "/" : std::string(path.substr(0, slash));
  return Status::Ok();
}

}  // namespace

ServiceLock::ServiceLock() {
  pthread_rwlockattr_t attr;
  CheckRw(pthread_rwlockattr_init(&attr), "attr init");
  CheckRw(pthread_rwlockattr_setkind_np(
              &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP),
          "attr setkind");
  CheckRw(pthread_rwlock_init(&rw_, &attr), "init");
  pthread_rwlockattr_destroy(&attr);
}

ServiceLock::~ServiceLock() { pthread_rwlock_destroy(&rw_); }

void ServiceLock::lock() {
  NoteAcquire(this);
  CheckRw(pthread_rwlock_wrlock(&rw_), "wrlock");
}

void ServiceLock::unlock() {
  NoteRelease(this);
  CheckRw(pthread_rwlock_unlock(&rw_), "unlock");
}

void ServiceLock::lock_shared() {
  NoteAcquire(this);
  CheckRw(pthread_rwlock_rdlock(&rw_), "rdlock");
}

void ServiceLock::unlock_shared() { unlock(); }

LogService::LogService(TimeSource* clock, const LogServiceOptions& options,
                       uint32_t block_bytes)
    : clock_(clock),
      options_(options),
      cache_(std::make_unique<BlockCache>(options.cache_blocks, block_bytes)),
      next_checkpoint_block_(options.checkpoint_interval_blocks) {
  if (options_.sequence_id == 0) {
    options_.sequence_id = static_cast<uint64_t>(clock_->NowUnique()) | 1u;
  }
}

LogService::~LogService() {
  if (degraded_gauge_contrib_ != 0) {
    BumpDegradedGauge(-degraded_gauge_contrib_);
  }
}

// The health plane's quarantine signal (SloRules::Defaults'
// "scrub-quarantine" rule reads it): a count of known-lost blocks across
// live services, kept additive so the lanes fold into the process-wide
// total and a breach stays pinned to its lane. Quarantines are rare, so
// the lane's gauge is looked up per call.
void LogService::BumpDegradedGauge(int64_t delta) {
  ObsRegistry()
      .gauge(LaneMetricName("clio.scrub.degraded", partition_index_))
      ->Add(delta);
  degraded_gauge_contrib_ += delta;
}

void LogService::AssignPartition(uint32_t index) {
  const int64_t degraded = degraded_gauge_contrib_;
  if (degraded != 0) {
    BumpDegradedGauge(-degraded);
  }
  partition_index_ = index;
  lane_metrics_ = VolumeLaneMetrics(index);
  if (degraded != 0) {
    BumpDegradedGauge(degraded);
  }
}

void LogService::ConfigureVolume(LogVolume* volume) {
  volume->set_lane_metrics(&lane_metrics_);
  if (options_.enable_extent_index) {
    volume->EnableExtentIndex();
  }
}

void LogService::MaybeWriteCheckpoint() {
  if (options_.nvram == nullptr || !options_.enable_extent_index ||
      options_.checkpoint_interval_blocks == 0) {
    return;
  }
  LogVolume* volume = current_volume();
  if (volume->writer() == nullptr || volume->sealed()) {
    return;
  }
  const uint64_t staging = volume->writer()->staging_block();
  static Gauge* age = ObsRegistry().gauge("clio.index.checkpoint_age_blocks");
  if (staging < next_checkpoint_block_) {
    age->Set(static_cast<int64_t>(staging - last_checkpoint_block_));
    return;
  }
  static Counter* failures =
      ObsRegistry().counter("clio.index.checkpoint_failures");
  static Counter* written =
      ObsRegistry().counter("clio.index.checkpoints_written");
  static Counter* bytes =
      ObsRegistry().counter("clio.index.checkpoint_bytes");
  // Success or not, the next attempt waits a full interval: a failing
  // index build must not rescan the volume on every append.
  next_checkpoint_block_ = staging + options_.checkpoint_interval_blocks;
  bool base = sidecar_base_bytes_ == 0;
  auto record = volume->BuildCheckpointRecord(
      base ? 1 : last_checkpoint_block_,
      base || catalog_.generation() != sidecar_catalog_generation_);
  Bytes blob;
  if (record.ok()) {
    blob = base ? record.value().Encode()
                : record.value().Encode(sidecar_nodes_);
    if (!base &&
        sidecar_delta_bytes_ + blob.size() > sidecar_base_bytes_ / 4) {
      base = true;  // compact: the deltas would outgrow a quarter base
      record = volume->BuildCheckpointRecord(1, /*with_catalog=*/true);
      if (record.ok()) {
        blob = record.value().Encode();
      }
    }
  }
  if (!record.ok()) {
    failures->Increment();
    return;
  }
  if (base) {
    options_.nvram->StoreCheckpoint(blob);
    sidecar_base_bytes_ = blob.size();
    sidecar_delta_bytes_ = 0;
  } else {
    options_.nvram->AppendCheckpoint(blob);
    sidecar_delta_bytes_ += blob.size();
  }
  sidecar_catalog_generation_ = catalog_.generation();
  sidecar_nodes_ = std::move(record.value().accumulator_nodes);
  last_checkpoint_block_ = staging;
  age->Set(0);
  written->Increment();
  bytes->Increment(blob.size());
}

Result<std::unique_ptr<LogService>> LogService::Create(
    std::unique_ptr<WormDevice> first_device, TimeSource* clock,
    const LogServiceOptions& options) {
  std::unique_ptr<LogService> service(
      new LogService(clock, options, first_device->block_size()));
  LogVolume::FormatOptions format;
  format.entrymap_degree = service->options_.entrymap_degree;
  format.sequence_id = service->options_.sequence_id;
  format.volume_index = 0;
  format.label = service->options_.label;
  CLIO_ASSIGN_OR_RETURN(
      auto volume,
      LogVolume::Format(first_device.get(), service->cache_.get(),
                        /*cache_device_id=*/0, &service->catalog_, clock,
                        service->options_.nvram, format,
                        service->options_.readahead_blocks));
  service->ConfigureVolume(volume.get());
  service->devices_.push_back(std::move(first_device));
  service->volumes_.push_back(std::move(volume));
  service->volume_slots_.emplace_back(service->volumes_.back().get());
  return service;
}

Result<std::unique_ptr<LogService>> LogService::Recover(
    std::vector<std::unique_ptr<WormDevice>> devices, TimeSource* clock,
    const LogServiceOptions& options, RecoveryReport* report,
    std::optional<uint32_t> lane) {
  const uint64_t entered_us = TraceNowUs();
  if (devices.empty()) {
    return InvalidArgument("recover requires at least one volume device");
  }
  std::unique_ptr<LogService> service(
      new LogService(clock, options, devices.front()->block_size()));
  // The NVRAM sidecar may hold a checkpoint for the newest volume; only
  // the writable volume consumes it, at step 2 of its Open. A blob that
  // fails to decode (torn battery RAM) is simply ignored and the
  // full-scan recovery runs.
  std::optional<PendingCheckpoint> checkpoint;
  if (options.nvram != nullptr && options.enable_extent_index &&
      options.nvram->has_checkpoint()) {
    checkpoint.emplace(options.checkpoint_interval_blocks);
  }
  uint64_t sequence_id = 0;
  RecoveryReport total;  // summed over the volumes
  auto open_volumes = [&]() -> Status {
    for (size_t i = 0; i < devices.size(); ++i) {
      bool writable = i + 1 == devices.size();
      RecoveryReport volume_report;
      CLIO_ASSIGN_OR_RETURN(
          auto volume,
          LogVolume::Open(devices[i].get(), service->cache_.get(),
                          /*cache_device_id=*/i, &service->catalog_, clock,
                          writable ? options.nvram : nullptr, writable,
                          service->options_.readahead_blocks, &volume_report,
                          /*replay_catalog=*/true,
                          writable && checkpoint ? &*checkpoint : nullptr));
      if (volume->header().volume_index != i) {
        return Corrupt("volume " + std::to_string(i) +
                       " carries wrong sequence position");
      }
      if (i == 0) {
        sequence_id = volume->header().sequence_id;
        service->options_.sequence_id = sequence_id;
      } else if (volume->header().sequence_id != sequence_id) {
        return Corrupt("volume " + std::to_string(i) +
                       " belongs to a different volume sequence");
      }
      total.end_location_reads += volume_report.end_location_reads;
      total.tail_scan_blocks += volume_report.tail_scan_blocks;
      total.catalog_replay_blocks += volume_report.catalog_replay_blocks;
      total.invalidated_blocks += volume_report.invalidated_blocks;
      total.restored_nvram_tail |= volume_report.restored_nvram_tail;
      total.restored_checkpoint |= volume_report.restored_checkpoint;
      total.checkpoint_replay_blocks += volume_report.checkpoint_replay_blocks;
      total.device_passes += volume_report.device_passes;
      total.step_us.decode_wait += volume_report.step_us.decode_wait;
      total.step_us.locate += volume_report.step_us.locate;
      total.step_us.replay += volume_report.step_us.replay;
      if (volume_report.restored_checkpoint) {
        static Counter* restored =
            ObsRegistry().counter("clio.index.checkpoints_restored");
        restored->Increment();
        // The restored coverage is as fresh as a just-written checkpoint;
        // the next record starts a new base.
        const uint64_t covered_end = checkpoint->JoinState()->covered_end;
        service->last_checkpoint_block_ = covered_end;
        service->next_checkpoint_block_ =
            covered_end + options.checkpoint_interval_blocks;
      }
      service->ConfigureVolume(volume.get());
      service->volumes_.push_back(std::move(volume));
      service->volume_slots_.emplace_back(service->volumes_.back().get());
      service->devices_.push_back(std::move(devices[i]));
    }
    return Status::Ok();
  };
  if (checkpoint.has_value()) {
    // Overlap the decode with the drive (DESIGN.md §17): a helper thread
    // opens the volumes while this one decodes, and the writable volume's
    // Open waits for the decoded records at step 2 and for the index
    // after its replay. The decoded state is allocated here, by the
    // thread that keeps the service: allocated on the helper, it would
    // stay in the helper's malloc arena after the service is gone.
    // Nothing writes the sidecar before the decode ends.
    Status opened;
    std::thread opener([&] {
      total.step_us.open_delay = TraceNowUs() - entered_us;
      opened = open_volumes();
    });
    checkpoint->Decode(options.nvram->checkpoint());
    opener.join();
    CLIO_RETURN_IF_ERROR(opened);
    total.step_us.decode = checkpoint->decode_us();
  } else {
    CLIO_RETURN_IF_ERROR(open_volumes());
  }
  ObsRegistry()
      .counter(LaneMetricName("clio.recovery.device_passes", lane))
      ->Increment(total.device_passes.total());
  // The step ledger, once per restart; the decode steps only when a
  // sidecar decode ran.
  auto record = [&](std::string_view name, uint64_t us) {
    ObsRegistry().histogram(LaneMetricName(name, lane))->Record(us);
  };
  if (checkpoint.has_value()) {
    record("clio.recovery.decode_us", total.step_us.decode);
    record("clio.recovery.decode_wait_us", total.step_us.decode_wait);
    record("clio.recovery.open_delay_us", total.step_us.open_delay);
  }
  record("clio.recovery.locate_us", total.step_us.locate);
  record("clio.recovery.replay_us", total.step_us.replay);
  if (report != nullptr) {
    *report = total;
  }
  // Timestamps must stay unique across the reboot (§2.1): floor the clock
  // at the largest timestamp found on media.
  Timestamp max_ts = 0;
  for (auto& v : service->volumes_) {
    max_ts = std::max(max_ts, v->recovered_max_timestamp());
  }
  if (max_ts > 0) {
    clock->FloorUnique(max_ts);
  }
  if (!service->catalog_.quarantined().empty()) {
    service->BumpDegradedGauge(
        static_cast<int64_t>(service->catalog_.quarantined().size()));
  }
  return service;
}

Status LogService::CheckPermission(LogFileId id, uint32_t needed_bits) const {
  CLIO_ASSIGN_OR_RETURN(LogFileInfo info, catalog_.Info(id));
  if ((info.permissions & needed_bits) != needed_bits) {
    return PermissionDenied("log file " + info.name +
                            " lacks required permission bits");
  }
  return Status::Ok();
}

Status LogService::AppendCatalogRecord(const CatalogRecord& record) {
  WriteOptions opts;
  opts.timestamped = true;
  return current_volume()
      ->writer()
      ->Append(kCatalogLogId, record.Encode(), opts)
      .status();
}

Result<LogFileId> LogService::CreateLogFile(std::string_view path,
                                            uint32_t permissions,
                                            uint32_t home_partition) {
  std::unique_lock lock(mu_);
  std::string parent_path;
  std::string name;
  CLIO_RETURN_IF_ERROR(SplitPath(path, &parent_path, &name));
  CLIO_ASSIGN_OR_RETURN(LogFileId parent, catalog_.Resolve(parent_path));
  CLIO_ASSIGN_OR_RETURN(
      CatalogRecord record,
      catalog_.Create(name, parent, permissions, clock_->Now(),
                      home_partition));
  Status appended = AppendCatalogRecord(record);
  if (!appended.ok()) {
    catalog_.RemoveForRollback(record.subject);
    return appended;
  }
  return record.subject;
}

Result<LogFileId> LogService::Resolve(std::string_view path) const {
  std::shared_lock lock(mu_);
  return catalog_.Resolve(path);
}

Result<LogFileInfo> LogService::Stat(std::string_view path) const {
  std::shared_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  return catalog_.Info(id);
}

Result<std::map<std::string, LogFileId>> LogService::List(
    std::string_view path) const {
  std::shared_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  return catalog_.Children(id);
}

Status LogService::SetPermissions(std::string_view path,
                                  uint32_t permissions) {
  std::unique_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  CLIO_ASSIGN_OR_RETURN(CatalogRecord record,
                        catalog_.SetPermissions(id, permissions));
  return AppendCatalogRecord(record);
}

Status LogService::SealLogFile(std::string_view path) {
  std::unique_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  CLIO_ASSIGN_OR_RETURN(CatalogRecord record, catalog_.Seal(id));
  return AppendCatalogRecord(record);
}

Status LogService::RollToNewVolume() {
  if (!volume_factory_) {
    return NoSpace("volume full and no successor volume factory configured");
  }
  LogVolume* current = current_volume();
  if (current->writer() != nullptr) {
    sealed_space_.push_back(current->writer()->space());
    CLIO_RETURN_IF_ERROR(current->writer()->Seal());
  }
  current->MarkSealed();

  uint32_t next_index = static_cast<uint32_t>(volumes_.size());
  CLIO_ASSIGN_OR_RETURN(std::unique_ptr<WormDevice> device,
                        volume_factory_(next_index));
  LogVolume::FormatOptions format;
  format.entrymap_degree = options_.entrymap_degree;
  format.sequence_id = options_.sequence_id;
  format.volume_index = next_index;
  format.label = options_.label;
  CLIO_ASSIGN_OR_RETURN(
      auto volume,
      LogVolume::Format(device.get(), cache_.get(),
                        /*cache_device_id=*/next_index, &catalog_, clock_,
                        options_.nvram, format, options_.readahead_blocks));
  // Seed the successor's catalog log so the new volume is self-describing
  // (each log file is "totally contained in one log volume sequence").
  WriteOptions opts;
  opts.timestamped = true;
  for (const CatalogRecord& record : catalog_.ExportRecords()) {
    auto appended = volume->writer()->Append(kCatalogLogId, record.Encode(),
                                             opts);
    if (!appended.ok()) {
      return appended.status();
    }
  }
  ConfigureVolume(volume.get());
  // The sidecar checkpoint described the sealed predecessor; recovery
  // validates volume_index before trusting one, but clearing keeps the
  // sidecar from carrying a stale record across the roll.
  if (options_.nvram != nullptr) {
    options_.nvram->ClearCheckpoint();
  }
  last_checkpoint_block_ = 0;
  next_checkpoint_block_ = options_.checkpoint_interval_blocks;
  sidecar_base_bytes_ = 0;
  devices_.push_back(std::move(device));
  volumes_.push_back(std::move(volume));
  volume_slots_.emplace_back(volumes_.back().get());
  return Status::Ok();
}

Result<AppendResult> LogService::Append(LogFileId id,
                                        std::span<const std::byte> payload,
                                        const WriteOptions& options) {
  std::unique_lock lock(mu_);
  return AppendLocked(id, payload, options);
}

Result<AppendResult> LogService::Append(std::string_view path,
                                        std::span<const std::byte> payload,
                                        const WriteOptions& options) {
  std::unique_lock lock(mu_);
  return AppendLocked(path, payload, options);
}

Status LogService::Force() {
  std::unique_lock lock(mu_);
  return ForceLocked();
}

Result<AppendResult> LogService::WriteHandle::Append(
    std::string_view path, std::span<const std::byte> payload,
    const WriteOptions& options) {
  return service_->AppendLocked(path, payload, options);
}

Status LogService::WriteHandle::Force() { return service_->ForceLocked(); }

Result<AppendResult> LogService::AppendLocked(
    LogFileId id, std::span<const std::byte> payload,
    const WriteOptions& options) {
  if (id < kFirstClientLogId) {
    return PermissionDenied("service log files are not client-writable");
  }
  CLIO_RETURN_IF_ERROR(CheckPermission(id, kWriteBit));
  for (LogFileId extra : options.extra_memberships) {
    if (extra < kFirstClientLogId) {
      return PermissionDenied("cannot add membership in a service log file");
    }
    CLIO_RETURN_IF_ERROR(CheckPermission(extra, kWriteBit));
  }

  LogVolume* volume = current_volume();
  if (volume->writer() == nullptr || volume->sealed() ||
      volume->writer()->AlmostFull(payload.size())) {
    CLIO_RETURN_IF_ERROR(RollToNewVolume());
    volume = current_volume();
  }
  auto result = volume->writer()->Append(id, payload, options);
  if (!result.ok() && result.status().code() == StatusCode::kNoSpace) {
    CLIO_RETURN_IF_ERROR(RollToNewVolume());
    result = current_volume()->writer()->Append(id, payload, options);
  }
  if (result.ok()) {
    MaybeWriteCheckpoint();
  }
  return result;
}

Result<AppendResult> LogService::AppendLocked(
    std::string_view path, std::span<const std::byte> payload,
    const WriteOptions& options) {
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  return AppendLocked(id, payload, options);
}

Status LogService::ForceLocked() {
  LogVolume* volume = current_volume();
  if (volume->writer() == nullptr) {
    return Status::Ok();
  }
  return volume->writer()->Force();
}

// The exclusive lock guarantees no reader is inside the LogVolume being
// destroyed; a reader positioned on it rebinds on its next call
// (LogReader::RebindCursor).
Status LogService::TakeVolumeOffline(uint32_t index) {
  std::unique_lock lock(mu_);
  if (index >= volumes_.size()) {
    return InvalidArgument("no such volume");
  }
  if (index + 1 == volumes_.size()) {
    return FailedPrecondition("the newest volume must stay online");
  }
  if (volumes_[index] == nullptr) {
    return Status::Ok();  // already offline
  }
  cache_->EraseDevice(index);
  volume_slots_[index].store(nullptr, std::memory_order_release);
  volumes_[index].reset();
  devices_[index].reset();
  return Status::Ok();
}

// Shared-lock safe: concurrent readers race only on the slot load; a miss
// funnels through mount_mu_, and the loser of the race finds the volume
// already mounted on recheck.
Result<LogVolume*> LogService::VolumeForRead(size_t index) {
  if (index >= volume_slots_.size()) {
    return InvalidArgument("no such volume");
  }
  if (LogVolume* online =
          volume_slots_[index].load(std::memory_order_acquire)) {
    return online;
  }
  if (!volume_mounter_) {
    return Unavailable("volume " + std::to_string(index) +
                       " is offline and no volume mounter is configured");
  }
  std::lock_guard<std::mutex> mount_lock(mount_mu_);
  if (LogVolume* online =
          volume_slots_[index].load(std::memory_order_acquire)) {
    return online;  // another reader mounted it while we waited
  }
  CLIO_ASSIGN_OR_RETURN(std::unique_ptr<WormDevice> device,
                        volume_mounter_(static_cast<uint32_t>(index)));
  RecoveryReport report;
  CLIO_ASSIGN_OR_RETURN(
      auto volume,
      LogVolume::Open(device.get(), cache_.get(), index, &catalog_, clock_,
                      nullptr, /*writable=*/false, options_.readahead_blocks,
                      &report, /*replay_catalog=*/false));
  if (volume->header().sequence_id != options_.sequence_id ||
      volume->header().volume_index != index) {
    return Corrupt("mounted device holds the wrong volume");
  }
  ConfigureVolume(volume.get());
  on_demand_mounts_.fetch_add(1, std::memory_order_relaxed);
  devices_[index] = std::move(device);
  volumes_[index] = std::move(volume);
  volume_slots_[index].store(volumes_[index].get(),
                             std::memory_order_release);
  return volumes_[index].get();
}

Status LogService::CheckReadable(LogFileId id) const {
  if (!catalog_.Exists(id)) {
    return NotFound("no such log file id");
  }
  return id == kVolumeSeqLogId ? Status::Ok() : CheckPermission(id, kReadBit);
}

Result<std::unique_ptr<LogReader>> LogService::OpenReader(
    std::string_view path) {
  std::shared_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  CLIO_RETURN_IF_ERROR(CheckReadable(id));
  return std::make_unique<LogReader>(this, id);
}

Result<std::unique_ptr<LogReader>> LogService::OpenReaderById(LogFileId id) {
  std::shared_lock lock(mu_);
  CLIO_RETURN_IF_ERROR(CheckReadable(id));
  return std::make_unique<LogReader>(this, id);
}

Result<ChainProof> LogService::BuildChainProof(std::string_view path,
                                               Timestamp t) {
  std::shared_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(LogFileId id, catalog_.Resolve(path));
  CLIO_RETURN_IF_ERROR(CheckReadable(id));
  LogReader reader(this, id);
  CLIO_ASSIGN_OR_RETURN(auto found, reader.FindByTimestampLocked(t, nullptr));
  if (!found.has_value()) {
    return NotFound("no entry of " + std::string(path) + " at timestamp " +
                    std::to_string(t));
  }
  const EntryPosition& pos = found->position;
  CLIO_ASSIGN_OR_RETURN(LogVolume* volume, VolumeForRead(pos.volume_index));
  if (!volume->header().chained()) {
    return FailedPrecondition("volume " + std::to_string(pos.volume_index) +
                              " predates hash chaining (v1 format)");
  }
  OpStats stats;
  CLIO_ASSIGN_OR_RETURN(ParsedBlock proven, volume->GetBlock(pos.block,
                                                             &stats));
  if (!proven.chain_tag().has_value()) {
    return Corrupt("block " + std::to_string(pos.block) +
                   " carries no chain tag in a chained volume");
  }
  if (pos.index_in_block >= proven.entries().size()) {
    return Internal("entry position past the block's entry count");
  }

  ChainProof proof;
  proof.volume_index = pos.volume_index;
  proof.block = pos.block;
  proof.entry_index = pos.index_in_block;
  proof.count = static_cast<uint16_t>(proven.entries().size());
  proof.flags = proven.flags();
  proof.used = proven.used_bytes();
  proof.prev_tag = *proven.chain_tag();
  std::span<const std::byte> image(proven.image());
  proof.record_hashes.reserve(proven.entries().size());
  for (const ParsedEntry& e : proven.entries()) {
    proof.record_hashes.push_back(
        ChainRecordHash(image.subspan(e.offset, e.record_size)));
  }
  const ParsedEntry& e = proven.entries()[pos.index_in_block];
  auto record = image.subspan(e.offset, e.record_size);
  proof.record.assign(record.begin(), record.end());

  // Walk from the proven block to the head: every valid block must store
  // the tag accumulated so far. That one test also crosses skipped blocks
  // (§15): a gap is crossed only if no valid block was lost in it. A gap
  // at the end has no block after it; the head tag takes that block's
  // place. A transient read fails the proof with kUnavailable.
  uint64_t acc = AdvanceChainTag(proof.prev_tag, ChainBlockCommit(proven));
  const uint64_t end = volume->end_including_staged();
  auto get = [&](uint64_t b) { return volume->GetBlock(b, &stats); };
  bool gap = false;
  auto link = [&](const WalkedBlock& w) {
    gap = !w.parsed.has_value();
    if (gap) {
      return Status::Ok();
    }
    if (w.parsed->chain_tag() != acc) {
      return Corrupt("chain mismatch at block " + std::to_string(w.block) +
                     " while building proof");
    }
    if (proof.links.size() >= kMaxProofLinks) {
      return FailedPrecondition("proof from block " +
                                std::to_string(pos.block) +
                                " would exceed the link cap");
    }
    proof.links.push_back(ChainBlockCommit(*w.parsed));
    acc = AdvanceChainTag(acc, proof.links.back());
    return Status::Ok();
  };
  CLIO_RETURN_IF_ERROR(VolumeWalk(pos.block + 1, end).Run(get, link));
  if (gap && volume->chain_head_tag() != acc) {
    return Corrupt("chain head does not follow the walk from block " +
                   std::to_string(pos.block) + ": a block at the end was lost");
  }
  proof.head_tag = acc;
  proof.head_block = end;
  return proof;
}

Status LogService::QuarantineBlock(uint32_t volume_index, uint64_t block) {
  std::unique_lock lock(mu_);
  if (catalog_.IsQuarantined(volume_index, block)) {
    return Status::Ok();
  }
  CLIO_ASSIGN_OR_RETURN(CatalogRecord record,
                        catalog_.Quarantine(volume_index, block));
  // Drop any cached copy so every future read funnels through GetBlock's
  // quarantine check instead of serving stale cached bytes.
  cache_->Erase({volume_index, block});
  CLIO_RETURN_IF_ERROR(AppendCatalogRecord(record));
  BumpDegradedGauge(1);
  return Status::Ok();
}

Status LogService::PersistScrubCursor(uint32_t volume_index, uint64_t block) {
  std::unique_lock lock(mu_);
  CLIO_ASSIGN_OR_RETURN(CatalogRecord record,
                        catalog_.RecordScrubCursor(volume_index, block));
  return AppendCatalogRecord(record);
}

std::optional<std::pair<uint32_t, uint64_t>> LogService::ScrubCursor() const {
  std::shared_lock lock(mu_);
  return catalog_.scrub_cursor();
}

bool LogService::degraded() const {
  std::shared_lock lock(mu_);
  return !catalog_.quarantined().empty();
}

Result<ParsedBlock> LogService::ProbeBlock(uint32_t volume_index,
                                           uint64_t block) const {
  std::shared_lock lock(mu_);
  LogVolume* volume =
      volume_index < volume_slots_.size()
          ? volume_slots_[volume_index].load(std::memory_order_acquire)
          : nullptr;
  if (volume == nullptr || block == 0 || block >= volume->end_block()) {
    return OutOfRange("no burned block " + std::to_string(block) +
                      " on an online volume " +
                      std::to_string(volume_index));
  }
  if (catalog_.IsQuarantined(volume_index, block)) {
    return FailedPrecondition("block " + std::to_string(block) +
                              " is already quarantined");
  }
  OpStats stats;
  return volume->GetBlock(block, &stats);
}

Result<std::optional<uint64_t>> LogService::ChainSeed(
    uint32_t volume_index) const {
  std::shared_lock lock(mu_);
  if (volume_index >= volume_slots_.size()) {
    return OutOfRange("no volume " + std::to_string(volume_index));
  }
  LogVolume* volume =
      volume_slots_[volume_index].load(std::memory_order_acquire);
  if (volume == nullptr) {
    return Unavailable("volume " + std::to_string(volume_index) +
                       " is offline");
  }
  if (!volume->header().chained()) {
    return std::optional<uint64_t>();
  }
  return std::optional<uint64_t>(volume->chain_seed());
}

SpaceAccounting LogService::TotalSpace() const {
  std::shared_lock lock(mu_);
  SpaceAccounting total;
  for (const SpaceAccounting& s : sealed_space_) {
    total += s;
  }
  LogVolume* last = const_cast<LogService*>(this)->volumes_.back().get();
  if (last->writer() != nullptr) {
    total += last->writer()->space();
  }
  return total;
}

// ---------------------------------------------------------------------------
// LogReader

LogReader::LogReader(LogService* service, LogFileId id)
    : service_(service), id_(id), volume_index_(0) {}

void LogReader::SeekToStart() {
  pending_edge_ = Edge::kStart;
  cursor_.reset();
}

void LogReader::SeekToEnd() {
  pending_edge_ = Edge::kEnd;
  cursor_.reset();
}

Status LogReader::EnsureCursor(size_t volume_index) {
  CLIO_ASSIGN_OR_RETURN(LogVolume * volume,
                        service_->VolumeForRead(volume_index));
  volume_index_ = volume_index;
  cursor_.emplace(volume, id_);
  cursor_->set_collect_segments(zero_copy_);
  return Status::Ok();
}

Status LogReader::RebindCursor() {
  CLIO_ASSIGN_OR_RETURN(LogVolume * volume,
                        service_->VolumeForRead(volume_index_));
  cursor_->Rebind(volume);
  return Status::Ok();
}

Result<std::optional<LogEntryRecord>> LogReader::Next(OpStats* stats) {
  std::shared_lock lock(service_->mu_);
  return NextLocked(stats);
}

Result<std::optional<LogEntryRecord>> LogReader::NextLocked(OpStats* stats) {
  if (pending_edge_ == Edge::kStart) {
    CLIO_RETURN_IF_ERROR(EnsureCursor(0));
    cursor_->SeekToStart();
    pending_edge_ = Edge::kNone;
  } else if (pending_edge_ == Edge::kEnd) {
    CLIO_RETURN_IF_ERROR(EnsureCursor(service_->volume_count() - 1));
    cursor_->SeekToEnd();
    pending_edge_ = Edge::kNone;
  } else {
    CLIO_RETURN_IF_ERROR(RebindCursor());
  }
  while (true) {
    CLIO_ASSIGN_OR_RETURN(std::optional<LogEntryRecord> record,
                          cursor_->Next(stats));
    if (record.has_value()) {
      return record;
    }
    if (volume_index_ + 1 >= service_->volume_count()) {
      return std::optional<LogEntryRecord>(std::nullopt);
    }
    CLIO_RETURN_IF_ERROR(EnsureCursor(volume_index_ + 1));
    cursor_->SeekToStart();
  }
}

Result<std::optional<LogEntryRecord>> LogReader::Prev(OpStats* stats) {
  std::shared_lock lock(service_->mu_);
  if (pending_edge_ == Edge::kStart) {
    return std::optional<LogEntryRecord>(std::nullopt);
  }
  if (pending_edge_ == Edge::kEnd) {
    CLIO_RETURN_IF_ERROR(EnsureCursor(service_->volume_count() - 1));
    cursor_->SeekToEnd();
    pending_edge_ = Edge::kNone;
  } else {
    CLIO_RETURN_IF_ERROR(RebindCursor());
  }
  while (true) {
    CLIO_ASSIGN_OR_RETURN(std::optional<LogEntryRecord> record,
                          cursor_->Prev(stats));
    if (record.has_value()) {
      return record;
    }
    if (volume_index_ == 0) {
      return std::optional<LogEntryRecord>(std::nullopt);
    }
    CLIO_RETURN_IF_ERROR(EnsureCursor(volume_index_ - 1));
    cursor_->SeekToEnd();
  }
}

Status LogReader::SeekToTime(Timestamp t, OpStats* stats) {
  std::shared_lock lock(service_->mu_);
  return SeekToTimeLocked(t, stats);
}

Status LogReader::SeekToTimeLocked(Timestamp t, OpStats* stats) {
  for (size_t v = service_->volume_count(); v > 0; --v) {
    CLIO_RETURN_IF_ERROR(EnsureCursor(v - 1));
    CLIO_ASSIGN_OR_RETURN(bool positioned, cursor_->SeekToTime(t, stats));
    if (positioned) {
      pending_edge_ = Edge::kNone;
      return Status::Ok();
    }
  }
  SeekToStart();
  return Status::Ok();
}

Result<std::optional<LogEntryRecord>> LogReader::FindByTimestamp(
    Timestamp t, OpStats* stats) {
  std::shared_lock lock(service_->mu_);
  return FindByTimestampLocked(t, stats);
}

Result<std::optional<LogEntryRecord>> LogReader::FindByTimestampLocked(
    Timestamp t, OpStats* stats) {
  CLIO_RETURN_IF_ERROR(SeekToTimeLocked(t - 1, stats));
  while (true) {
    CLIO_ASSIGN_OR_RETURN(std::optional<LogEntryRecord> record,
                          NextLocked(stats));
    if (!record.has_value() || record->timestamp > t) {
      return std::optional<LogEntryRecord>(std::nullopt);
    }
    if (record->timestamp == t && record->timestamp_exact) {
      return record;
    }
  }
}

Result<std::optional<LogEntryRecord>> LogReader::FindByClientId(
    uint32_t sequence, Timestamp client_time, Timestamp max_skew,
    OpStats* stats) {
  std::shared_lock lock(service_->mu_);
  CLIO_RETURN_IF_ERROR(SeekToTimeLocked(client_time - max_skew - 1, stats));
  const Timestamp upper = client_time + max_skew;
  while (true) {
    CLIO_ASSIGN_OR_RETURN(std::optional<LogEntryRecord> record,
                          NextLocked(stats));
    if (!record.has_value() || record->timestamp > upper) {
      return std::optional<LogEntryRecord>(std::nullopt);
    }
    if (record->client_sequence.has_value() &&
        *record->client_sequence == sequence) {
      return record;
    }
  }
}

}  // namespace clio
