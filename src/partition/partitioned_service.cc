#include "src/partition/partitioned_service.h"

#include <algorithm>
#include <utility>

namespace clio {

namespace {

// Per-partition variant of the shared option template: sequence ids are
// assigned by the caller; the label identifies the partition.
LogServiceOptions PartitionOptions(const LogServiceOptions& base, uint32_t p) {
  LogServiceOptions o = base;
  if (!o.label.empty()) {
    o.label += "/p" + std::to_string(p);
  } else {
    o.label = "p" + std::to_string(p);
  }
  return o;
}

}  // namespace

Result<std::unique_ptr<PartitionedLogService>> PartitionedLogService::Create(
    std::vector<std::unique_ptr<WormDevice>> devices, TimeSource* clock,
    const PartitionedServiceOptions& options) {
  if (devices.empty()) {
    return InvalidArgument("a partitioned service needs at least one device");
  }
  auto svc =
      std::unique_ptr<PartitionedLogService>(new PartitionedLogService(clock));
  // One base, partitions offset from it: sequence ids must differ so a
  // mis-mounted chain is caught at recovery, and the low byte leaves room
  // for 256 partitions under one clock draw.
  uint64_t base = options.base.sequence_id;
  if (base == 0) {
    base = (static_cast<uint64_t>(clock->NowUnique()) << 8) | 1;
  }
  for (size_t p = 0; p < devices.size(); ++p) {
    LogServiceOptions o =
        PartitionOptions(options.base, static_cast<uint32_t>(p));
    o.sequence_id = base + p;
    if (p < options.lane_nvram.size()) {
      o.nvram = options.lane_nvram[p];
    }
    CLIO_ASSIGN_OR_RETURN(auto part, LogService::Create(std::move(devices[p]),
                                                        clock, o));
    svc->AddPartition(part.get());
    svc->owned_.push_back(std::move(part));
  }
  CLIO_RETURN_IF_ERROR(svc->LearnRoutes());
  return svc;
}

Result<std::unique_ptr<PartitionedLogService>> PartitionedLogService::Recover(
    std::vector<std::vector<std::unique_ptr<WormDevice>>> devices,
    TimeSource* clock, const PartitionedServiceOptions& options,
    std::vector<RecoveryReport>* reports) {
  if (devices.empty()) {
    return InvalidArgument("a partitioned service needs at least one device");
  }
  auto svc =
      std::unique_ptr<PartitionedLogService>(new PartitionedLogService(clock));
  for (size_t p = 0; p < devices.size(); ++p) {
    LogServiceOptions o =
        PartitionOptions(options.base, static_cast<uint32_t>(p));
    o.sequence_id = 0;  // adopt whatever the media carries
    if (p < options.lane_nvram.size()) {
      o.nvram = options.lane_nvram[p];
    }
    RecoveryReport report;
    CLIO_ASSIGN_OR_RETURN(
        auto part,
        LogService::Recover(std::move(devices[p]), clock, o, &report,
                            /*lane=*/static_cast<uint32_t>(p)));
    if (reports != nullptr) {
      reports->push_back(report);
    }
    svc->AddPartition(part.get());
    svc->owned_.push_back(std::move(part));
  }
  // Each partition is its own volume sequence; two equal ids mean the same
  // chain (or a copy) was mounted twice.
  for (size_t i = 0; i < svc->partitions_.size(); ++i) {
    for (size_t j = i + 1; j < svc->partitions_.size(); ++j) {
      if (svc->partitions_[i]->volume(0)->header().sequence_id ==
          svc->partitions_[j]->volume(0)->header().sequence_id) {
        return Corrupt("partitions " + std::to_string(i) + " and " +
                       std::to_string(j) +
                       " recovered the same volume sequence id");
      }
    }
  }
  CLIO_RETURN_IF_ERROR(svc->LearnRoutes());
  return svc;
}

Result<std::unique_ptr<PartitionedLogService>> PartitionedLogService::Wrap(
    LogService* service) {
  auto svc = std::unique_ptr<PartitionedLogService>(
      new PartitionedLogService(service->clock()));
  svc->AddPartition(service);
  CLIO_RETURN_IF_ERROR(svc->LearnRoutes());
  return svc;
}

// The one place a service learns its partition index, which is also its
// metric lane (LogService::partition_index).
void PartitionedLogService::AddPartition(LogService* part) {
  part->AssignPartition(partition_count());
  partitions_.push_back(part);
}

Status PartitionedLogService::LearnRoutes() {
  router_ = std::make_unique<PartitionRouter>(partition_count());
  for (LogService* part : partitions_) {
    for (const LogFileInfo& info : part->catalog().All()) {
      CLIO_ASSIGN_OR_RETURN(std::string path, part->catalog().PathOf(info.id));
      CLIO_RETURN_IF_ERROR(router_->Learn(path, info.home_partition));
    }
  }
  return Status::Ok();
}

Result<uint32_t> PartitionedLogService::CreateLogFile(
    std::string_view path, uint32_t permissions,
    std::optional<uint32_t> placement, LogFileId* id) {
  if (placement.has_value() && *placement >= partition_count()) {
    return InvalidArgument("placement " + std::to_string(*placement) +
                           " out of range: " +
                           std::to_string(partition_count()) + " partitions");
  }
  if (path == "/") {
    return AlreadyExists("'/' names the volume sequence log");
  }
  std::lock_guard<std::mutex> create_lock(create_mu_);
  if (auto existing = router_->Lookup(path)) {
    if (placement.has_value() && *placement != *existing) {
      return FailedPrecondition("log file '" + std::string(path) +
                                "' already lives on partition " +
                                std::to_string(*existing));
    }
    return AlreadyExists("log file '" + std::string(path) +
                         "' already exists");
  }
  uint32_t home =
      placement.has_value() ? *placement : router_->HashRoute(path);
  CLIO_RETURN_IF_ERROR(MirrorAncestors(path, home));
  CLIO_ASSIGN_OR_RETURN(LogFileId created,
                        partitions_[home]->CreateLogFile(path, permissions,
                                                         home));
  if (id != nullptr) {
    *id = created;
  }
  CLIO_RETURN_IF_ERROR(router_->Learn(path, home));
  return home;
}

Status PartitionedLogService::MirrorAncestors(std::string_view path,
                                              uint32_t home) {
  // Proper ancestors, root excluded, parent-before-child: "/a/b/c" visits
  // "/a" then "/a/b". Each must already exist somewhere (matching the
  // single-service rule that intermediate components are created first).
  for (size_t pos = path.find('/', 1); pos != std::string_view::npos;
       pos = path.find('/', pos + 1)) {
    std::string_view ancestor = path.substr(0, pos);
    auto ancestor_home = router_->Lookup(ancestor);
    if (!ancestor_home.has_value()) {
      return NotFound("log file '" + std::string(ancestor) +
                      "' does not exist");
    }
    if (*ancestor_home == home) {
      continue;  // native to the target partition
    }
    if (partitions_[home]->Resolve(ancestor).ok()) {
      continue;  // already mirrored by an earlier create
    }
    CLIO_ASSIGN_OR_RETURN(LogFileInfo info,
                          partitions_[*ancestor_home]->Stat(ancestor));
    CLIO_RETURN_IF_ERROR(partitions_[home]
                             ->CreateLogFile(ancestor, info.permissions,
                                             *ancestor_home)
                             .status());
  }
  return Status::Ok();
}

Result<AppendResult> PartitionedLogService::Append(
    std::string_view path, std::span<const std::byte> payload,
    const WriteOptions& options) {
  uint32_t target = 0;
  if (path != "/") {  // "/" has no single home; its direct appends land on 0
    auto route = router_->Lookup(path);
    if (!route.has_value()) {
      return NotFound("log file '" + std::string(path) + "' does not exist");
    }
    target = *route;
  }
  return partitions_[target]->Append(path, payload, options);
}

Status PartitionedLogService::Force() {
  Status first = Status::Ok();
  for (LogService* part : partitions_) {
    Status st = part->Force();
    if (!st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

Result<LogFileInfo> PartitionedLogService::Stat(std::string_view path) const {
  uint32_t target = 0;
  if (path != "/") {
    auto route = router_->Lookup(path);
    if (!route.has_value()) {
      return NotFound("log file '" + std::string(path) + "' does not exist");
    }
    target = *route;
  }
  return partitions_[target]->Stat(path);
}

Result<std::unique_ptr<PartitionedLogReader>>
PartitionedLogService::OpenReader(std::string_view path) {
  std::vector<std::unique_ptr<LogReader>> sources;
  for (LogService* part : partitions_) {
    auto reader = part->OpenReader(path);
    if (!reader.ok()) {
      if (reader.status().code() == StatusCode::kNotFound) {
        continue;  // this partition holds none of the log file's entries
      }
      return reader.status();
    }
    sources.push_back(std::move(reader).value());
  }
  if (sources.empty()) {
    return NotFound("log file '" + std::string(path) + "' does not exist");
  }
  return std::make_unique<PartitionedLogReader>(std::move(sources));
}

Result<ChainProof> PartitionedLogService::BuildChainProof(
    std::string_view path, Timestamp t) {
  if (std::optional<uint32_t> home = RouteOf(path)) {
    return partitions_[*home]->BuildChainProof(path, t);
  }
  for (LogService* part : partitions_) {
    auto proof = part->BuildChainProof(path, t);
    if (proof.ok() || proof.status().code() != StatusCode::kNotFound) {
      return proof;
    }
  }
  return NotFound("no entry of " + std::string(path) + " at timestamp " +
                  std::to_string(t) + " on any partition");
}

// -- PartitionedLogReader --

void PartitionedLogReader::SeekToStart() {
  for (auto& source : sources_) {
    source->SeekToStart();
  }
}

void PartitionedLogReader::SeekToEnd() {
  for (auto& source : sources_) {
    source->SeekToEnd();
  }
}

Status PartitionedLogReader::SeekToTime(Timestamp t, OpStats* stats) {
  for (auto& source : sources_) {
    CLIO_RETURN_IF_ERROR(source->SeekToTime(t, stats));
  }
  return Status::Ok();
}

namespace {

// Merge order: (timestamp, source index). Timestamps from the shared clock
// are unique when exact; block-resolution (inexact) ones can tie, and the
// source index breaks the tie the same way on both merge directions.
bool MergesBefore(const LogEntryRecord& a, size_t ai, const LogEntryRecord& b,
                  size_t bi) {
  if (a.timestamp != b.timestamp) {
    return a.timestamp < b.timestamp;
  }
  return ai < bi;
}

}  // namespace

Result<std::optional<LogEntryRecord>> PartitionedLogReader::Next(
    OpStats* stats, uint64_t wanted) {
  // Advance-and-undo: step every source forward, keep the minimum, back
  // the others up. The cursor gap model (Next then Prev returns the same
  // entry) makes the undo exact.
  std::vector<std::optional<LogEntryRecord>> advanced(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    auto next = sources_[i]->Next(stats, wanted);
    if (!next.ok()) {
      // Roll back the sources already stepped so the merge position is
      // unchanged; a rollback failure is unreported (the blocks were just
      // read, so re-reading them is as good as a read can get).
      for (size_t j = 0; j < i; ++j) {
        if (advanced[j].has_value()) {
          (void)sources_[j]->Prev();
        }
      }
      return next.status();
    }
    advanced[i] = std::move(next).value();
  }
  std::optional<size_t> winner;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (advanced[i].has_value() &&
        (!winner.has_value() ||
         MergesBefore(*advanced[i], i, *advanced[*winner], *winner))) {
      winner = i;
    }
  }
  if (!winner.has_value()) {
    return std::optional<LogEntryRecord>{};
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (i != *winner && advanced[i].has_value()) {
      auto undone = sources_[i]->Prev();
      if (!undone.ok()) {
        return undone.status();
      }
    }
  }
  return std::move(advanced[*winner]);
}

Result<std::optional<LogEntryRecord>> PartitionedLogReader::Prev(
    OpStats* stats) {
  // Mirror of Next(): step every source backward, keep the MAXIMUM (ties
  // to the highest index, so Next-then-Prev round-trips), undo the rest.
  std::vector<std::optional<LogEntryRecord>> stepped(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    auto prev = sources_[i]->Prev(stats);
    if (!prev.ok()) {
      for (size_t j = 0; j < i; ++j) {
        if (stepped[j].has_value()) {
          (void)sources_[j]->Next();
        }
      }
      return prev.status();
    }
    stepped[i] = std::move(prev).value();
  }
  std::optional<size_t> winner;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (stepped[i].has_value() &&
        (!winner.has_value() ||
         !MergesBefore(*stepped[i], i, *stepped[*winner], *winner))) {
      winner = i;
    }
  }
  if (!winner.has_value()) {
    return std::optional<LogEntryRecord>{};
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (i != *winner && stepped[i].has_value()) {
      auto undone = sources_[i]->Next();
      if (!undone.ok()) {
        return undone.status();
      }
    }
  }
  return std::move(stepped[*winner]);
}

Result<std::optional<LogEntryRecord>> PartitionedLogReader::FindByTimestamp(
    Timestamp t, OpStats* stats) {
  for (auto& source : sources_) {
    auto found = source->FindByTimestamp(t, stats);
    if (!found.ok()) {
      return found.status();
    }
    if (found.value().has_value()) {
      return std::move(found).value();
    }
  }
  return std::optional<LogEntryRecord>{};
}

Result<std::optional<LogEntryRecord>> PartitionedLogReader::FindByClientId(
    uint32_t sequence, Timestamp client_time, Timestamp max_skew,
    OpStats* stats) {
  for (auto& source : sources_) {
    auto found =
        source->FindByClientId(sequence, client_time, max_skew, stats);
    if (!found.ok()) {
      return found.status();
    }
    if (found.value().has_value()) {
      return std::move(found).value();
    }
  }
  return std::optional<LogEntryRecord>{};
}

}  // namespace clio
