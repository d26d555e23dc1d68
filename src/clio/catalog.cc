#include "src/clio/catalog.h"

#include <algorithm>

namespace clio {

Bytes CatalogRecord::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.PutU8(static_cast<uint8_t>(op));
  w.PutU16(subject);
  switch (op) {
    case Op::kCreate:
      w.PutU64(unique_id);
      w.PutU16(parent);
      w.PutU32(permissions);
      w.PutI64(created_at);
      w.PutString(name);
      // Trailing field: decoders that predate it stop at the name, so the
      // record stays readable by them; see the header comment.
      w.PutU32(home_partition);
      break;
    case Op::kSetPermissions:
      w.PutU32(permissions);
      break;
    case Op::kRename:
      w.PutString(name);
      break;
    case Op::kSeal:
      break;
    case Op::kQuarantine:
    case Op::kScrubCursor:
      w.PutU32(volume_index);
      w.PutU64(block);
      break;
  }
  return out;
}

Result<CatalogRecord> CatalogRecord::Decode(
    std::span<const std::byte> payload) {
  ByteReader r(payload);
  CatalogRecord rec;
  rec.op = static_cast<Op>(r.GetU8());
  rec.subject = r.GetU16();
  switch (rec.op) {
    case Op::kCreate:
      rec.unique_id = r.GetU64();
      rec.parent = r.GetU16();
      rec.permissions = r.GetU32();
      rec.created_at = r.GetI64();
      rec.name = r.GetString();
      // Records from before partitioning end at the name; they read as
      // home partition 0.
      if (!r.failed() && r.remaining() >= 4) {
        rec.home_partition = r.GetU32();
      }
      break;
    case Op::kSetPermissions:
      rec.permissions = r.GetU32();
      break;
    case Op::kRename:
      rec.name = r.GetString();
      break;
    case Op::kSeal:
      break;
    case Op::kQuarantine:
    case Op::kScrubCursor:
      rec.volume_index = r.GetU32();
      rec.block = r.GetU64();
      break;
    default:
      return Corrupt("unknown catalog op");
  }
  if (r.failed()) {
    return Corrupt("truncated catalog record");
  }
  return rec;
}

Status ValidateComponent(std::string_view name) {
  if (name.empty()) {
    return InvalidArgument("empty path component");
  }
  if (name.find('/') != std::string_view::npos) {
    return InvalidArgument("path component contains '/'");
  }
  if (name.front() == '@') {
    return InvalidArgument("'@' prefix is reserved for service log files");
  }
  return Status::Ok();
}

Catalog::Catalog() : table_(kMaxLogFileId + 1) {
  // The four service log files exist on every volume sequence from birth.
  auto reserve = [&](LogFileId id, std::string name) {
    LogFileInfo info;
    info.id = id;
    info.unique_id = id;  // unique ids 0-3 reserved alongside local ids
    info.name = std::move(name);
    info.parent = id == kVolumeSeqLogId ? kNoLogFileId : kVolumeSeqLogId;
    info.permissions = 0444;
    table_[id] = info;
    if (id != kVolumeSeqLogId) {
      children_[kVolumeSeqLogId][table_[id]->name] = id;
    }
  };
  reserve(kVolumeSeqLogId, "");
  reserve(kEntrymapLogId, "@entrymap");
  reserve(kCatalogLogId, "@catalog");
  reserve(kBadBlockLogId, "@badblocks");
  next_unique_id_ = kFirstClientLogId;
}

Result<LogFileId> Catalog::NextFreeId() const {
  for (LogFileId id = kFirstClientLogId; id <= kMaxLogFileId; ++id) {
    if (!table_[id].has_value()) {
      return id;
    }
  }
  return NoSpace("all 4096 local log file ids in use");
}

Result<CatalogRecord> Catalog::Create(std::string_view name,
                                      LogFileId parent, uint32_t permissions,
                                      Timestamp now,
                                      uint32_t home_partition) {
  CLIO_RETURN_IF_ERROR(ValidateComponent(name));
  if (!Exists(parent)) {
    return NotFound("parent log file does not exist");
  }
  if (table_[parent]->sealed) {
    return FailedPrecondition("parent log file is sealed");
  }
  auto it = children_.find(parent);
  if (it != children_.end() && it->second.count(std::string(name)) > 0) {
    return AlreadyExists("log file '" + std::string(name) + "' exists");
  }
  CLIO_ASSIGN_OR_RETURN(LogFileId id, NextFreeId());

  CatalogRecord rec;
  rec.op = CatalogRecord::Op::kCreate;
  rec.subject = id;
  rec.unique_id = next_unique_id_;
  rec.parent = parent;
  rec.permissions = permissions;
  rec.created_at = now;
  rec.name = std::string(name);
  rec.home_partition = home_partition;
  CLIO_RETURN_IF_ERROR(Apply(rec));
  return rec;
}

Result<CatalogRecord> Catalog::SetPermissions(LogFileId id,
                                              uint32_t permissions) {
  if (!Exists(id)) {
    return NotFound("no such log file");
  }
  CatalogRecord rec;
  rec.op = CatalogRecord::Op::kSetPermissions;
  rec.subject = id;
  rec.permissions = permissions;
  CLIO_RETURN_IF_ERROR(Apply(rec));
  return rec;
}

Result<CatalogRecord> Catalog::Rename(LogFileId id,
                                      std::string_view new_name) {
  CLIO_RETURN_IF_ERROR(ValidateComponent(new_name));
  if (!Exists(id) || id < kFirstClientLogId) {
    return NotFound("no such client log file");
  }
  const LogFileInfo& info = *table_[id];
  auto& siblings = children_[info.parent];
  if (siblings.count(std::string(new_name)) > 0) {
    return AlreadyExists("sibling with that name exists");
  }
  CatalogRecord rec;
  rec.op = CatalogRecord::Op::kRename;
  rec.subject = id;
  rec.name = std::string(new_name);
  CLIO_RETURN_IF_ERROR(Apply(rec));
  return rec;
}

Result<CatalogRecord> Catalog::Seal(LogFileId id) {
  if (!Exists(id) || id < kFirstClientLogId) {
    return NotFound("no such client log file");
  }
  CatalogRecord rec;
  rec.op = CatalogRecord::Op::kSeal;
  rec.subject = id;
  CLIO_RETURN_IF_ERROR(Apply(rec));
  return rec;
}

Result<CatalogRecord> Catalog::Quarantine(uint32_t volume_index,
                                          uint64_t block) {
  CatalogRecord rec;
  rec.op = CatalogRecord::Op::kQuarantine;
  rec.subject = kBadBlockLogId;
  rec.volume_index = volume_index;
  rec.block = block;
  CLIO_RETURN_IF_ERROR(Apply(rec));
  return rec;
}

Result<CatalogRecord> Catalog::RecordScrubCursor(uint32_t volume_index,
                                                 uint64_t block) {
  CatalogRecord rec;
  rec.op = CatalogRecord::Op::kScrubCursor;
  rec.subject = kBadBlockLogId;
  rec.volume_index = volume_index;
  rec.block = block;
  CLIO_RETURN_IF_ERROR(Apply(rec));
  return rec;
}

Status Catalog::Apply(const CatalogRecord& record) {
  ++generation_;
  if (record.subject > kMaxLogFileId) {
    return Corrupt("catalog subject id out of range");
  }
  switch (record.op) {
    case CatalogRecord::Op::kCreate: {
      if (table_[record.subject].has_value()) {
        // Replay of a record we already hold (e.g. volume-seed records).
        return Status::Ok();
      }
      if (record.parent > kMaxLogFileId ||
          !table_[record.parent].has_value()) {
        return Corrupt("catalog create with unknown parent");
      }
      LogFileInfo info;
      info.id = record.subject;
      info.unique_id = record.unique_id;
      info.name = record.name;
      info.parent = record.parent;
      info.permissions = record.permissions;
      info.created_at = record.created_at;
      info.home_partition = record.home_partition;
      table_[record.subject] = info;
      children_[record.parent][record.name] = record.subject;
      next_unique_id_ = std::max(next_unique_id_, record.unique_id + 1);
      return Status::Ok();
    }
    case CatalogRecord::Op::kSetPermissions:
      if (!table_[record.subject].has_value()) {
        return Corrupt("catalog setperm on unknown log file");
      }
      table_[record.subject]->permissions = record.permissions;
      return Status::Ok();
    case CatalogRecord::Op::kRename: {
      if (!table_[record.subject].has_value()) {
        return Corrupt("catalog rename of unknown log file");
      }
      LogFileInfo& info = *table_[record.subject];
      children_[info.parent].erase(info.name);
      info.name = record.name;
      children_[info.parent][info.name] = info.id;
      return Status::Ok();
    }
    case CatalogRecord::Op::kSeal:
      if (!table_[record.subject].has_value()) {
        return Corrupt("catalog seal of unknown log file");
      }
      table_[record.subject]->sealed = true;
      return Status::Ok();
    case CatalogRecord::Op::kQuarantine: {
      std::pair<uint32_t, uint64_t> key{record.volume_index, record.block};
      if (quarantined_.count(key) == 0 &&
          quarantined_.size() >= kMaxQuarantinedBlocks) {
        ++quarantine_dropped_;  // set is bounded; the record stays on media
        return Status::Ok();
      }
      quarantined_.insert(key);
      return Status::Ok();
    }
    case CatalogRecord::Op::kScrubCursor:
      scrub_cursor_ = {record.volume_index, record.block};
      return Status::Ok();
  }
  return Corrupt("unknown catalog op");
}

Result<LogFileInfo> Catalog::Info(LogFileId id) const {
  if (!Exists(id)) {
    return NotFound("no such log file id");
  }
  return *table_[id];
}

Result<LogFileId> Catalog::Resolve(std::string_view path) const {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("path must be absolute");
  }
  LogFileId current = kVolumeSeqLogId;
  size_t pos = 1;
  while (pos < path.size()) {
    size_t slash = path.find('/', pos);
    std::string_view component = slash == std::string_view::npos
                                     ? path.substr(pos)
                                     : path.substr(pos, slash - pos);
    if (component.empty()) {
      return InvalidArgument("empty path component in '" + std::string(path) +
                             "'");
    }
    auto dir = children_.find(current);
    if (dir == children_.end()) {
      return NotFound("no such log file: " + std::string(path));
    }
    auto child = dir->second.find(std::string(component));
    if (child == dir->second.end()) {
      return NotFound("no such log file: " + std::string(path));
    }
    current = child->second;
    pos = slash == std::string_view::npos ? path.size() : slash + 1;
  }
  return current;
}

Result<std::string> Catalog::PathOf(LogFileId id) const {
  if (!Exists(id)) {
    return NotFound("no such log file id");
  }
  if (id == kVolumeSeqLogId) {
    return std::string("/");
  }
  std::vector<std::string_view> parts;
  LogFileId cur = id;
  while (cur != kVolumeSeqLogId) {
    parts.push_back(table_[cur]->name);
    cur = table_[cur]->parent;
  }
  std::string path;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    path += '/';
    path += *it;
  }
  return path;
}

bool Catalog::IsWithin(LogFileId descendant, LogFileId ancestor) const {
  bool within = false;
  VisitSelfAndAncestors(descendant, [&](LogFileId id) {
    within = id == ancestor;
    return !within;
  });
  return within;
}

std::map<std::string, LogFileId> Catalog::Children(LogFileId id) const {
  auto it = children_.find(id);
  if (it == children_.end()) {
    return {};
  }
  return it->second;
}

std::vector<LogFileInfo> Catalog::All() const {
  std::vector<LogFileInfo> out;
  for (const auto& slot : table_) {
    if (slot.has_value() && slot->id >= kFirstClientLogId) {
      out.push_back(*slot);
    }
  }
  return out;
}

std::vector<CatalogRecord> Catalog::ExportRecords() const {
  std::vector<CatalogRecord> records;
  for (const auto& slot : table_) {
    if (!slot.has_value() || slot->id < kFirstClientLogId) {
      continue;
    }
    CatalogRecord rec;
    rec.op = CatalogRecord::Op::kCreate;
    rec.subject = slot->id;
    rec.unique_id = slot->unique_id;
    rec.parent = slot->parent;
    rec.permissions = slot->permissions;
    rec.created_at = slot->created_at;
    rec.name = slot->name;
    rec.home_partition = slot->home_partition;
    records.push_back(std::move(rec));
    if (slot->sealed) {
      CatalogRecord seal;
      seal.op = CatalogRecord::Op::kSeal;
      seal.subject = slot->id;
      records.push_back(std::move(seal));
    }
  }
  // Scrubber state rides along so a successor volume (and a restart that
  // replays it) keeps the quarantine verdicts and resumes the scan.
  for (const auto& [volume_index, block] : quarantined_) {
    CatalogRecord rec;
    rec.op = CatalogRecord::Op::kQuarantine;
    rec.subject = kBadBlockLogId;
    rec.volume_index = volume_index;
    rec.block = block;
    records.push_back(std::move(rec));
  }
  if (scrub_cursor_.has_value()) {
    CatalogRecord rec;
    rec.op = CatalogRecord::Op::kScrubCursor;
    rec.subject = kBadBlockLogId;
    rec.volume_index = scrub_cursor_->first;
    rec.block = scrub_cursor_->second;
    records.push_back(std::move(rec));
  }
  return records;
}

void Catalog::RemoveForRollback(LogFileId id) {
  if (!Exists(id) || id < kFirstClientLogId) {
    return;
  }
  ++generation_;
  const LogFileInfo& info = *table_[id];
  children_[info.parent].erase(info.name);
  children_.erase(id);
  table_[id].reset();
}

}  // namespace clio
