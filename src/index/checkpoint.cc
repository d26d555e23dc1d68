#include "src/index/checkpoint.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/util/crc32c.h"

namespace clio {
namespace {

constexpr uint32_t kCheckpointMagic = 0xC110'C4E1;
constexpr uint16_t kCheckpointVersion = 2;
constexpr size_t kFrameHeaderBytes = 4 + 2 + 4 + 4;  // magic, version, len, crc
// High bit of a pending node's file count: the node patches the previous
// record's node of the same (level, home) and lists only the files whose
// bitmap changed (a node holds at most one bitmap per 12-bit log file id,
// so real counts never reach it).
constexpr uint16_t kPatchFlag = 0x8000;

// A pending node while the sidecar decodes. Its bitmaps point into the
// sidecar, so the nodes of the records before the newest cost no copies.
struct NodeView {
  uint32_t level = 0;
  uint64_t home = 0;
  std::vector<std::pair<LogFileId, std::span<const std::byte>>> files;
};

template <typename File>
bool IdBelow(const File& file, LogFileId id) {
  return file.first < id;
}

// Index of the first file with id >= `id`; a node's files are sorted by
// id (the accumulator exports them so, and decoding enforces it).
template <typename Files>
size_t FindFile(const Files& files, LogFileId id) {
  auto it = std::lower_bound(files.begin(), files.end(), id,
                             IdBelow<typename Files::value_type>);
  return static_cast<size_t>(it - files.begin());
}

template <typename Node>
Node* FindNode(std::span<Node> nodes, uint32_t level, uint64_t home) {
  for (Node& node : nodes) {
    if (node.level == level && node.home == home) {
      return &node;
    }
  }
  return nullptr;
}

// One record's extent-index delta, applied once every record decoded.
// `bytes_to_follow` is the size of the records after this one
// (ExtentIndex::ApplyDelta).
struct IndexDelta {
  uint64_t to = 0;
  std::span<const std::byte> bytes;
  uint64_t bytes_to_follow = 0;
};

// Decodes one record body and folds it into `state`, replacing `nodes`
// with the record's pending nodes and adding its index delta to
// `deltas`. Every count is bounded by the bytes left: each node, bitmap
// and record takes at least one byte, so a crafted count fails instead of
// reserving memory.
Status ApplyRecord(std::span<const std::byte> body, bool first,
                   uint64_t bytes_to_follow, CheckpointState* state,
                   std::vector<NodeView>* nodes,
                   std::vector<IndexDelta>* deltas) {
  ByteReader r(body);
  const uint32_t volume_index = r.GetU32();
  const uint64_t from = r.GetU64();
  const uint64_t covered_end = r.GetU64();
  const Timestamp max_timestamp = r.GetI64();
  const uint32_t index_len = r.GetU32();
  if (r.failed() || index_len > r.remaining()) {
    return Corrupt("checkpoint: truncated record header");
  }
  // A base starts at block 1; a delta where the previous record ended.
  const uint64_t expected_from = first ? 1 : state->covered_end;
  if (from != expected_from ||
      (!first && volume_index != state->volume_index)) {
    return Corrupt("checkpoint: gap between records");
  }
  deltas->push_back({covered_end, r.GetBytes(index_len), bytes_to_follow});

  const uint32_t node_count = r.GetU32();
  if (r.failed() || node_count > r.remaining()) {
    return Corrupt("checkpoint: bad node count");
  }
  std::vector<NodeView> next;
  next.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    NodeView node;
    node.level = r.GetU8();
    node.home = r.GetU64();
    uint16_t file_count = r.GetU16();
    uint16_t prev_id = 0;
    const bool patch = (file_count & kPatchFlag) != 0;
    file_count &= ~kPatchFlag;
    if (r.failed() || node.level == 0 || file_count > r.remaining()) {
      return Corrupt("checkpoint: bad accumulator node");
    }
    if (patch) {
      // The previous record's set is replaced below, so its files move.
      NodeView* prev = FindNode(std::span(*nodes), node.level, node.home);
      if (prev == nullptr) {
        return Corrupt("checkpoint: patch of an unknown node");
      }
      node.files = std::move(prev->files);
    }
    node.files.reserve(node.files.size() + file_count);
    for (uint16_t f = 0; f < file_count; ++f) {
      const uint16_t id = r.GetU16();
      const uint16_t bitmap_len = r.GetU16();
      auto bitmap = r.GetBytes(bitmap_len);
      if (r.failed() || (f > 0 && id <= prev_id)) {
        return Corrupt("checkpoint: bad bitmap");
      }
      prev_id = id;
      const size_t at = patch ? FindFile(node.files, id) : node.files.size();
      if (at < node.files.size() && node.files[at].first == id) {
        node.files[at].second = bitmap;
      } else {
        node.files.emplace(node.files.begin() + static_cast<ptrdiff_t>(at),
                           static_cast<LogFileId>(id), bitmap);
      }
    }
    next.push_back(std::move(node));
  }

  const uint8_t has_catalog = r.GetU8();
  if (r.failed() || has_catalog > 1 || (first && has_catalog == 0)) {
    return Corrupt("checkpoint: bad catalog flag");
  }
  if (has_catalog == 1) {
    const uint32_t record_count = r.GetU32();
    if (r.failed() || record_count > r.remaining()) {
      return Corrupt("checkpoint: bad record count");
    }
    std::vector<Bytes> records;
    records.reserve(record_count);
    for (uint32_t i = 0; i < record_count; ++i) {
      uint32_t len = r.GetU32();
      if (r.failed() || len > r.remaining()) {
        return Corrupt("checkpoint: truncated catalog record");
      }
      auto record = r.GetBytes(len);
      records.emplace_back(record.begin(), record.end());
    }
    state->catalog_records = std::move(records);
  }
  if (r.remaining() != 0) {
    return Corrupt("checkpoint: trailing bytes");
  }
  state->volume_index = volume_index;
  state->covered_end = covered_end;
  state->max_timestamp = std::max(state->max_timestamp, max_timestamp);
  *nodes = std::move(next);
  return Status::Ok();
}

}  // namespace

Bytes CheckpointRecord::Encode(
    std::span<const AccumulatorNodeState> previous) const {
  Bytes body_bytes;
  ByteWriter body(&body_bytes);
  body.PutU32(volume_index);
  body.PutU64(from);
  body.PutU64(covered_end);
  body.PutI64(max_timestamp);
  body.PutU32(static_cast<uint32_t>(index_delta.size()));
  body.PutBytes(index_delta);
  body.PutU32(static_cast<uint32_t>(accumulator_nodes.size()));
  for (const AccumulatorNodeState& node : accumulator_nodes) {
    body.PutU8(static_cast<uint8_t>(node.level));
    body.PutU64(node.home);
    const AccumulatorNodeState* prev =
        FindNode(previous, node.level, node.home);
    std::vector<const std::pair<LogFileId, Bytes>*> files;
    for (const auto& file : node.files) {
      if (prev != nullptr) {
        const size_t at = FindFile(prev->files, file.first);
        if (at < prev->files.size() && prev->files[at] == file) {
          continue;  // unchanged since the previous record
        }
      }
      files.push_back(&file);
    }
    body.PutU16(static_cast<uint16_t>(files.size()) |
                (prev != nullptr ? kPatchFlag : 0));
    for (const auto* file : files) {
      body.PutU16(file->first);
      body.PutU16(static_cast<uint16_t>(file->second.size()));
      body.PutBytes(file->second);
    }
  }
  body.PutU8(catalog_records.has_value() ? 1 : 0);
  if (catalog_records.has_value()) {
    body.PutU32(static_cast<uint32_t>(catalog_records->size()));
    for (const Bytes& record : *catalog_records) {
      body.PutU32(static_cast<uint32_t>(record.size()));
      body.PutBytes(record);
    }
  }

  Bytes out_bytes;
  out_bytes.reserve(kFrameHeaderBytes + body_bytes.size());
  ByteWriter out(&out_bytes);
  out.PutU32(kCheckpointMagic);
  out.PutU16(kCheckpointVersion);
  out.PutU32(static_cast<uint32_t>(body_bytes.size()));
  out.PutU32(Crc32c(body_bytes));
  out.PutBytes(body_bytes);
  return out_bytes;
}

namespace {

// Decodes every record of the sidecar into `state` except the extent
// index, whose deltas it collects for ApplyIndexDeltas: the index is the
// bulk of the decode, and a restart needs it last.
Status DecodeRecords(std::span<const std::byte> sidecar,
                     CheckpointState* state, std::vector<IndexDelta>* deltas) {
  std::vector<NodeView> nodes;
  ByteReader r(sidecar);
  for (bool first = true; first || r.remaining() != 0; first = false) {
    if (r.GetU32() != kCheckpointMagic ||
        r.GetU16() != kCheckpointVersion || r.failed()) {
      return Corrupt("checkpoint: bad magic/version");
    }
    const uint32_t len = r.GetU32();
    const uint32_t crc = r.GetU32();
    if (r.failed() || len > r.remaining()) {
      return Corrupt("checkpoint: truncated record");
    }
    std::span<const std::byte> body = r.GetBytes(len);
    if (crc != Crc32c(body)) {
      return Corrupt("checkpoint: checksum mismatch");
    }
    CLIO_RETURN_IF_ERROR(
        ApplyRecord(body, first, r.remaining(), state, &nodes, deltas));
  }
  for (const NodeView& view : nodes) {
    AccumulatorNodeState& node = state->accumulator_nodes.emplace_back();
    node.level = view.level;
    node.home = view.home;
    node.files.reserve(view.files.size());
    for (const auto& [id, bitmap] : view.files) {
      node.files.emplace_back(id, Bytes(bitmap.begin(), bitmap.end()));
    }
  }
  return Status::Ok();
}

Status ApplyIndexDeltas(std::span<const IndexDelta> deltas,
                        ExtentIndex* index) {
  for (const IndexDelta& delta : deltas) {
    CLIO_RETURN_IF_ERROR(
        index->ApplyDelta(delta.to, delta.bytes, delta.bytes_to_follow));
  }
  return Status::Ok();
}

}  // namespace

Result<CheckpointState> CheckpointState::Decode(
    std::span<const std::byte> sidecar) {
  CheckpointState state;
  std::vector<IndexDelta> deltas;
  CLIO_RETURN_IF_ERROR(DecodeRecords(sidecar, &state, &deltas));
  CLIO_RETURN_IF_ERROR(ApplyIndexDeltas(deltas, &state.index));
  return state;
}

void PendingCheckpoint::Decode(std::span<const std::byte> sidecar) {
  const uint64_t start = TraceNowUs();
  CheckpointState state;
  std::vector<IndexDelta> deltas;
  const bool records = DecodeRecords(sidecar, &state, &deltas).ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (records) {
      state_ = std::move(state);
    }
    records_done_ = true;
  }
  published_.notify_all();
  ExtentIndex index;
  const bool indexed = records && ApplyIndexDeltas(deltas, &index).ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (indexed) {
      index_ = std::move(index);
    }
    index_done_ = true;
    decode_us_ = TraceNowUs() - start;
  }
  published_.notify_all();
}

const CheckpointState* PendingCheckpoint::JoinState() {
  std::unique_lock<std::mutex> lock(mu_);
  published_.wait(lock, [&] { return records_done_; });
  return state_.has_value() ? &*state_ : nullptr;
}

ExtentIndex* PendingCheckpoint::JoinIndex() {
  std::unique_lock<std::mutex> lock(mu_);
  published_.wait(lock, [&] { return index_done_; });
  return index_.has_value() ? &*index_ : nullptr;
}

}  // namespace clio
